//! Brute-force answers the benchmark checks every op against.
//!
//! [`pdtl_graph::verify::triangle_count`] takes seconds on the larger
//! inputs, so answers are cached per input: the cache key holds the
//! input's name, seed, size and a fingerprint of its degree sequence,
//! and the cache is consulted before any op runs, outside every timed
//! path.

use std::path::Path;

use pdtl_analytics::clustering::{global_clustering, transitivity};
use pdtl_graph::verify::{triangle_count, triangle_list};
use pdtl_graph::Graph;

/// The expected answers for one input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Oracle {
    /// Exact triangle count.
    pub triangles: u64,
    /// Average local clustering coefficient (0 unless requested).
    pub global_clustering: f64,
    /// Transitivity ratio (0 unless requested).
    pub transitivity: f64,
    /// [`listing_fingerprint`] of the triangles (0 unless requested).
    pub listing: (u64, u64),
}

/// FNV-1a over the degree sequence: cheap, and any change to the
/// generated input changes it.
fn fingerprint(g: &Graph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in 0..g.num_vertices() {
        for b in g.degree(v).to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The oracle for `g`, read from `cache_dir` when an earlier run stored
/// it, otherwise computed (and stored). `listing` also computes the
/// brute-force listing's fingerprint, clustering coefficient and
/// transitivity.
pub fn oracle(g: &Graph, name: &str, seed: u64, listing: bool, cache_dir: &Path) -> Oracle {
    let key = format!(
        "{name}-s{seed}-n{}-m{}-f{:016x}{}",
        g.num_vertices(),
        g.num_edges(),
        fingerprint(g),
        if listing { "-list" } else { "" }
    );
    let path = cache_dir.join(format!("{key}.txt"));
    if let Some(o) = std::fs::read_to_string(&path).ok().and_then(|s| parse(&s)) {
        return o;
    }
    let o = if listing {
        let list = triangle_list(g);
        let t = list.len() as u64;
        Oracle {
            triangles: t,
            global_clustering: global_clustering(g, &list),
            transitivity: transitivity(g, t),
            listing: listing_fingerprint(&list),
        }
    } else {
        Oracle {
            triangles: triangle_count(g),
            global_clustering: 0.0,
            transitivity: 0.0,
            listing: (0, 0),
        }
    };
    // A cache that cannot be written only costs the next run time.
    let _ = std::fs::create_dir_all(cache_dir).and_then(|()| {
        std::fs::write(
            &path,
            format!(
                "{} {} {} {} {}\n",
                o.triangles,
                o.global_clustering.to_bits(),
                o.transitivity.to_bits(),
                o.listing.0,
                o.listing.1
            ),
        )
    });
    o
}

fn parse(s: &str) -> Option<Oracle> {
    let mut it = s.split_whitespace();
    let o = Oracle {
        triangles: it.next()?.parse().ok()?,
        global_clustering: f64::from_bits(it.next()?.parse().ok()?),
        transitivity: f64::from_bits(it.next()?.parse().ok()?),
        listing: (it.next()?.parse().ok()?, it.next()?.parse().ok()?),
    };
    it.next().is_none().then_some(o)
}

/// Compare a reported count with the oracle.
pub fn check_count(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: {got} triangles, oracle says {want}"))
    }
}

/// Compare a reported float with the oracle's, to a relative 1e-12
/// (summation order is the only freedom the program has).
pub fn check_value(what: &str, got: f64, want: f64) -> Result<(), String> {
    if (got - want).abs() <= 1e-12 * want.abs().max(1.0) {
        Ok(())
    } else {
        Err(format!("{what}: {got}, oracle says {want}"))
    }
}

/// SplitMix64's finalizer: a bijective 64-bit mix.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Order-independent 128-bit fingerprint of a set of triangles: two
/// wrapping sums of independent hashes of each canonical (sorted)
/// triple. Two listings of equal length with equal fingerprints hold
/// the same triples except with probability about 2^-64 per comparison,
/// and it costs one pass, no sort.
pub fn listing_fingerprint(triples: &[(u32, u32, u32)]) -> (u64, u64) {
    triples.iter().fold((0u64, 0u64), |(a, b), &(x, y, z)| {
        let mut t = [x, y, z];
        t.sort_unstable();
        let h = mix(mix(mix(u64::from(t[0])) ^ u64::from(t[1])) ^ u64::from(t[2]));
        (
            a.wrapping_add(h),
            b.wrapping_add(mix(h ^ 0x9e37_79b9_7f4a_7c15)),
        )
    })
}

/// Check a listing against the oracle's: `T` entries whose fingerprint
/// is the fingerprint of the oracle's `T` unique triangles.
pub fn check_listing(triples: &[(u32, u32, u32)], o: &Oracle) -> Result<(), String> {
    check_count("listing (entries)", triples.len() as u64, o.triangles)?;
    if listing_fingerprint(triples) == o.listing {
        Ok(())
    } else {
        Err("listing: the triples differ from the oracle's triangles".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdtl_graph::gen::classic::{complete, wheel};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("perfbench-oracle-{name}-{}", std::process::id()))
    }

    #[test]
    fn cached_answer_round_trips() {
        let dir = tmp("cache");
        let g = wheel(12).unwrap();
        let first = oracle(&g, "wheel", 1, true, &dir);
        assert_eq!(first.triangles, 11);
        assert!(first.global_clustering > 0.0);
        let cached = oracle(&g, "wheel", 1, true, &dir);
        assert_eq!(first, cached);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn listing_check_catches_duplicates_and_non_triangles() {
        let dir = tmp("listing");
        let g = complete(5).unwrap();
        let o = oracle(&g, "k5", 1, true, &dir);
        let all = triangle_list(&g);
        assert_eq!(o.triangles, 10);
        assert!(check_listing(&all, &o).is_ok());
        let rotated: Vec<_> = all.iter().rev().map(|&(a, b, c)| (c, a, b)).collect();
        assert!(
            check_listing(&rotated, &o).is_ok(),
            "order and orientation are free"
        );
        let mut dup = all.clone();
        dup[1] = (dup[0].2, dup[0].0, dup[0].1);
        assert!(check_listing(&dup, &o).is_err());
        assert!(check_listing(&all[..9], &o).is_err());
        let mut wrong = all.clone();
        wrong[3] = (0, 1, 7);
        assert!(check_listing(&wrong, &o).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn value_check_tolerates_rounding_only() {
        assert!(check_value("cc", 0.5, 0.5 + 1e-15).is_ok());
        assert!(check_value("cc", 0.5, 0.5001).is_err());
        assert!(check_count("count", 3, 4).is_err());
    }
}
