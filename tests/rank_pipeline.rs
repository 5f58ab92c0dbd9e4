//! Cross-engine contract of the rank-space pipeline: whatever the
//! budget, core count, balance strategy or I/O mode, the full disk
//! pipeline (orient → balance → per-core MGT → sink translation) must
//! emit the *identical canonical triangle set* as the brute-force
//! oracle — in original ids, with no duplicates, cone vertex first
//! under the degree order. This is the end-to-end guarantee that
//! rank-space relabeling plus sink-side id translation preserves the
//! paper's output contract.
//!
//! The I/O-backend dimension additionally pins down the backend
//! contract: a uring or memory-mapped run must report the *same*
//! triangle count and the *same* per-worker `bytes_read` total as its
//! blocking twin — the backend is a scheduling/copy choice, not a
//! different I/O plan.

use pdtl::core::{BalanceStrategy, DegreeOrder, LocalConfig, LocalRunner, MgtOptions};
use pdtl::graph::gen::chunglu::{chung_lu, power_law_weights};
use pdtl::graph::gen::rmat::rmat;
use pdtl::graph::gen::rng::SplitMix64;
use pdtl::graph::verify::triangle_list;
use pdtl::graph::{DiskGraph, Graph};
use pdtl::io::IoBackend;
use pdtl::io::{IoStats, MemoryBudget};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("pdtl-rank-pipeline")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn canonical(triples: &[(u32, u32, u32)]) -> Vec<(u32, u32, u32)> {
    let mut canon: Vec<(u32, u32, u32)> = triples
        .iter()
        .map(|&(a, b, c)| {
            let mut t = [a, b, c];
            t.sort_unstable();
            (t[0], t[1], t[2])
        })
        .collect();
    canon.sort_unstable();
    canon
}

fn assert_pipeline_matches_oracle(g: &Graph, tag: &str) {
    let mut expected = triangle_list(g);
    expected.sort_unstable();
    let degrees = g.degrees();
    let ord = DegreeOrder::new(&degrees);
    let n = g.num_vertices();

    let stats = IoStats::new();
    let input = DiskGraph::write(g, tmpdir(tag).join("g"), &stats).unwrap();

    for budget in [2usize, 32, 4096] {
        for cores in [1usize, 3, 8] {
            for strategy in [BalanceStrategy::EqualEdges, BalanceStrategy::InDegree] {
                // Every backend must match the oracle *and* the others'
                // I/O accounting (the first run is the twin reference).
                let mut twin: Option<(u64, u64)> = None;
                for backend in IoBackend::ALL {
                    let runner = LocalRunner::new(LocalConfig {
                        cores,
                        budget: MemoryBudget::edges(budget),
                        balance: strategy,
                        mgt: MgtOptions {
                            backend,
                            ..MgtOptions::default()
                        },
                    })
                    .unwrap();
                    let dir = tmpdir(&format!("{tag}-{budget}-{cores}-{strategy:?}-{backend}"));
                    let (report, triples) = runner.run_listing(&input, &dir).unwrap();
                    let label = format!(
                        "{tag} budget={budget} cores={cores} {strategy:?} backend={backend}"
                    );

                    assert_eq!(report.triangles as usize, triples.len(), "{label}");
                    for &(u, v, w) in &triples {
                        assert!(u < n && v < n && w < n, "{label}: original-id range");
                        assert!(
                            ord.precedes(u, v) && ord.precedes(v, w),
                            "{label}: cone vertex first (u ≺ v ≺ w)"
                        );
                    }
                    let canon = canonical(&triples);
                    assert!(
                        canon.windows(2).all(|w| w[0] != w[1]),
                        "{label}: no duplicates"
                    );
                    assert_eq!(canon, expected, "{label}: exact oracle set");

                    let bytes_read: u64 = report.workers.iter().map(|w| w.io.bytes_read).sum();
                    match twin {
                        None => twin = Some((report.triangles, bytes_read)),
                        Some((t, b)) => {
                            assert_eq!(report.triangles, t, "{label}: twin triangle count");
                            assert_eq!(
                                bytes_read, b,
                                "{label}: every backend must read identical bytes"
                            );
                        }
                    }
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
        }
    }
}

#[test]
fn rank_pipeline_matches_oracle_on_rmat() {
    let g = rmat(7, 77).unwrap();
    assert!(triangle_list(&g).len() > 10, "fixture must have triangles");
    assert_pipeline_matches_oracle(&g, "rmat");
}

#[test]
fn rank_pipeline_matches_oracle_on_chung_lu() {
    let mut rng = SplitMix64::new(99);
    let weights = power_law_weights(180, 2.2, 2.0, 40.0, &mut rng);
    let g = chung_lu(&weights, 900, 100).unwrap();
    assert!(
        triangle_list(&g).len() > 10,
        "fixture must have triangles, got {}",
        triangle_list(&g).len()
    );
    assert_pipeline_matches_oracle(&g, "chunglu");
}

#[test]
fn delta_varint_codec_cuts_multipass_bytes_read() {
    // The Theorem IV.2 acceptance leg: on a multi-pass run (RMAT-12 at
    // a 4096-edge budget the engine re-scans the adjacency once per
    // chunk pass), the delta-varint codec must produce the identical
    // triangle count while reading at least 1.8x fewer real bytes than
    // the raw encoding — rank-space deltas on a skewed graph encode in
    // 1-2 bytes where raw spends 4.
    use pdtl::io::Codec;

    let g = rmat(12, 18).unwrap();
    let stats = IoStats::new();
    let input = DiskGraph::write(&g, tmpdir("codec-win").join("g"), &stats).unwrap();

    let mut measured = Vec::new();
    for codec in Codec::ALL {
        let runner = LocalRunner::new(LocalConfig {
            cores: 2,
            budget: MemoryBudget::edges(4096),
            balance: BalanceStrategy::EqualEdges,
            mgt: MgtOptions {
                codec,
                ..MgtOptions::default()
            },
        })
        .unwrap();
        let dir = tmpdir(&format!("codec-win-{codec}"));
        let report = runner.run(&input, &dir).unwrap();
        let bytes_read: u64 = report.workers.iter().map(|w| w.io.bytes_read).sum();
        let decoded: u64 = report.workers.iter().map(|w| w.io.u32s_decoded).sum();
        assert!(
            report.workers.iter().all(|w| w.iterations > 1),
            "{codec}: the budget must force a multi-pass run"
        );
        measured.push((codec, report.triangles, bytes_read, decoded));
        let _ = std::fs::remove_dir_all(&dir);
    }

    let &(_, raw_t, raw_bytes, raw_dec) = &measured[0];
    let &(_, var_t, var_bytes, var_dec) = &measured[1];
    assert_eq!(var_t, raw_t, "codecs must agree on the triangle count");
    assert_eq!(raw_dec, 0, "raw runs decode nothing");
    assert!(var_dec > 0, "compressed runs report decoded logical volume");
    println!(
        "codec win: raw {raw_bytes} B vs delta-varint {var_bytes} B ({:.2}x)",
        raw_bytes as f64 / var_bytes as f64
    );
    assert!(
        raw_bytes as f64 >= 1.8 * var_bytes as f64,
        "delta-varint must cut multi-pass bytes_read by >= 1.8x: raw {raw_bytes} vs varint {var_bytes} ({:.2}x)",
        raw_bytes as f64 / var_bytes as f64
    );
}
