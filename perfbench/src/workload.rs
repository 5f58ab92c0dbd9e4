//! The workload table, the generated inputs, and the parts of a run
//! every workload shares: repeated set-up, the batch measurement loop
//! and per-layer sample collection.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pdtl_graph::gen::{chung_lu, rmat, SplitMix64};
use pdtl_graph::{DiskGraph, Graph};
use pdtl_io::IoStats;

use crate::metrics::Outcome;
use crate::stats::{mean, median, percentile};
use crate::trace::Trace;
use crate::{cluster, count, env, serve};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `LocalRunner::run`, RMAT-16, delta-varint, 2^16 edges per core.
    CountMultipass,
    /// `LocalRunner::run`, Yahoo-shaped Chung-Lu graph, raw, one pass.
    CountSinglepass,
    /// `ClusterRunner::run` over TCP, 2 nodes x 1 core, listing on.
    ClusterListing,
    /// Resident daemon, two closed-loop clients cycling four ops.
    ServeClosed,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::CountMultipass,
        Workload::CountSinglepass,
        Workload::ClusterListing,
        Workload::ServeClosed,
    ];

    /// Name as given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CountMultipass => "count-multipass",
            Workload::CountSinglepass => "count-singlepass",
            Workload::ClusterListing => "cluster-listing",
            Workload::ServeClosed => "serve-closed",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input size: the measured one, or a tiny one for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the workloads are defined at.
    Full,
    /// Graphs of a few thousand edges, for tests of the benchmark.
    Tiny,
}

/// A generated input graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Input {
    /// `rmat(k, seed)`: 2^k vertices, 2^(k+4) edge samples.
    Rmat(u32),
    /// `Dataset::Yahoo`'s Chung-Lu shape (172 000 vertices, 1.54 M edge
    /// samples, gamma 1.72, expected degrees 1..24 000 at factor 1),
    /// scaled by the factor the way `Dataset::build_scaled` scales it.
    /// The expected degrees sit at evenly spaced quantiles of the power
    /// law rather than being drawn at random, so every seed has the same
    /// hub profile; the seed places the hubs and samples the edges.
    Yahoo(f64),
}

impl Input {
    /// Short name, used in the oracle cache key.
    pub fn name(self) -> String {
        match self {
            Input::Rmat(k) => format!("rmat{k}"),
            Input::Yahoo(f) => format!("yahoo{f}"),
        }
    }

    /// Generate the graph for `seed`; the same seed gives the same graph.
    pub fn generate(self, seed: u64) -> Result<Graph, String> {
        match self {
            Input::Rmat(k) => rmat(k, seed),
            Input::Yahoo(f) => {
                let n = ((172_000.0 * f) as u32).max(16);
                let m = ((1_540_000.0 * f) as u64).max(32);
                let weights = quantile_weights(n, 1.72, 1.0, 24_000.0 * f.sqrt(), seed);
                // Oversampled as `power_law_graph` does: simplification
                // drops loops and duplicates.
                chung_lu(&weights, m + m / 8, seed)
            }
        }
        .map_err(|e| format!("generating {}: {e}", self.name()))
    }
}

/// Expected degrees of a power law with exponent `gamma` on
/// `[dmin, dmax]` at the `n` quantiles `(i + 0.5) / n`, through the same
/// inverse CDF `power_law_weights` samples, in an order shuffled by
/// `seed`.
fn quantile_weights(n: u32, gamma: f64, dmin: f64, dmax: f64, seed: u64) -> Vec<f64> {
    let g1 = 1.0 - gamma;
    let (a, b) = (dmin.powf(g1), dmax.powf(g1));
    let mut w: Vec<f64> = (0..n)
        .map(|i| {
            let u = (f64::from(i) + 0.5) / f64::from(n);
            (a + u * (b - a)).powf(1.0 / g1)
        })
        .collect();
    let mut rng = SplitMix64::new(seed ^ 0x9A4E_5EED);
    for i in (1..w.len()).rev() {
        w.swap(i, rng.next_bounded(i as u64 + 1) as usize);
    }
    w
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// What to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Directory for inputs, scratch files, the oracle cache and traces.
    pub work_root: PathBuf,
}

impl Config {
    /// Scratch directory of this run, removed when it ends.
    pub fn run_dir(&self) -> PathBuf {
        self.work_root.join("runs").join(format!(
            "{}-s{}-p{}",
            self.workload.name(),
            self.seed,
            std::process::id()
        ))
    }

    /// Where oracle answers are cached across runs.
    pub fn cache_dir(&self) -> PathBuf {
        self.work_root.join("oracle")
    }

    /// Where the traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        self.work_root
            .join("traces")
            .join(format!("{}-s{}.json", self.workload.name(), self.seed))
    }
}

/// Run one workload: set up, measure, check, and clean up its scratch
/// directory. A set-up failure is an `Err`; a failed op is counted in
/// the outcome.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let dir = cfg.run_dir();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut trace = Trace::new();
    let result = match cfg.workload {
        Workload::CountMultipass | Workload::CountSinglepass => count::run(cfg, &mut trace),
        Workload::ClusterListing => cluster::run(cfg, &mut trace),
        Workload::ServeClosed => serve::run(cfg, &mut trace),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let mut out = result?;
    if cfg.trace {
        let path = cfg.trace_path();
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, trace.to_json()));
        out.notes.push(match written {
            Ok(()) => format!("spans written to {}", path.display()),
            Err(e) => format!("could not write spans to {}: {e}", path.display()),
        });
    } else if let Some(rss) = env::peak_rss_mb() {
        out.set("peak_rss_mb", rss);
    }
    out.env.push(("seed", cfg.seed.to_string()));
    Ok(out)
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Run `f(rep)` [`SETUP_REPS`] times, keep the last value, and record
/// the median wall time as `setup_s`. Earlier values are dropped after
/// the next set-up is timed, so their teardown is not counted.
pub fn setup<T>(
    out: &mut Outcome,
    mut f: impl FnMut(usize) -> Result<T, String>,
) -> Result<T, String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let value = f(rep)?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    out.set("setup_s", percentile(&times, 500).unwrap_or(0.0));
    Ok(last.expect("SETUP_REPS > 0"))
}

/// Call after set-up and the oracle, before the first op: the peak RSS
/// from here on is what the ops use.
pub fn ops_begin(out: &mut Outcome) {
    let reset = env::reset_peak_rss();
    out.env
        .push(("peak_rss_reset_after_setup", reset.to_string()));
}

/// Stop a batch early after this many failed ops.
const MAX_FAILED: u64 = 3;

/// An error as the text a failed check or set-up reports.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Generate `input` for the run's seed and write it at `base` with
/// `DiskGraph::write` (timed as `graph.write_ms`).
pub fn write_input(
    cfg: &Config,
    input: Input,
    base: &Path,
    layers: &mut Layers,
) -> Result<Graph, String> {
    let g = input.generate(cfg.seed)?;
    let t = Instant::now();
    DiskGraph::write(&g, base, &IoStats::new()).map_err(err)?;
    layers.push("graph.write_ms", ms(t.elapsed()));
    Ok(g)
}

/// Milliseconds of `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The batch loop: one untimed warm-up op, then ops until the time spent
/// inside them reaches `cfg.seconds` (checks between ops are not
/// counted). In a traced run every other op is traced, so traced and
/// untraced ops interleave and `trace.gap_ms` compares like with like.
///
/// `op(traced, id)` runs op `id`, returning its wall time and its check.
pub fn batch(
    cfg: &Config,
    out: &mut Outcome,
    mut op: impl FnMut(bool, u64) -> (Duration, Result<(), String>),
) {
    let (_, warm) = op(false, 0);
    out.check(warm);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut busy = Duration::ZERO;
    let mut id = 1;
    while (busy.as_secs_f64() < cfg.seconds || plain.is_empty() || (cfg.trace && traced.is_empty()))
        && out.failed < MAX_FAILED
    {
        let is_traced = cfg.trace && id % 2 == 0;
        let (wall, check) = op(is_traced, id);
        out.check(check);
        busy += wall;
        if is_traced {
            traced.push(ms(wall));
        } else {
            plain.push(ms(wall));
        }
        id += 1;
    }
    finish_ops(cfg, out, &plain, &traced, busy);
}

/// Record the op metrics: `op_p50_ms` and `ops_per_s` from the untraced
/// ops, and in a traced run `trace.gap_ms` and `trace.op_mean_ms`.
/// `window` is the time the ops took.
pub fn finish_ops(
    cfg: &Config,
    out: &mut Outcome,
    plain: &[f64],
    traced: &[f64],
    window: Duration,
) {
    out.samples = plain.len();
    let p50 = median(plain).unwrap_or(0.0);
    out.set("op_p50_ms", p50);
    out.set(
        "ops_per_s",
        (plain.len() + traced.len()) as f64 / window.as_secs_f64().max(1e-9),
    );
    if cfg.trace {
        out.set("trace.gap_ms", median(traced).unwrap_or(p50) - p50);
        out.set("trace.op_mean_ms", mean(traced).unwrap_or(0.0));
    }
}

/// Per-layer samples, one per traced op (or per set-up); reported as
/// means so that layer times add up to the mean op wall.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    /// Add one sample of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Set the mean of every collected metric on `out`.
    pub fn finish(self, out: &mut Outcome) {
        for (name, samples) in self.0 {
            out.set(name, mean(&samples).unwrap_or(0.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_weights_keep_the_profile_and_shuffle_by_seed() {
        let a = quantile_weights(1000, 1.72, 1.0, 500.0, 1);
        let b = quantile_weights(1000, 1.72, 1.0, 500.0, 2);
        assert_ne!(a, b, "the seed places the hubs");
        let sorted = |mut w: Vec<f64>| {
            w.sort_by(f64::total_cmp);
            w
        };
        let (a, b) = (sorted(a), sorted(b));
        assert_eq!(a, b, "every seed has the same degree profile");
        assert!(a[0] >= 1.0 && a[999] <= 500.0 && a[999] > 400.0);
    }

    #[test]
    fn inputs_repeat_per_seed() {
        for input in [Input::Rmat(6), Input::Yahoo(1.0 / 256.0)] {
            let g = input.generate(5).unwrap();
            assert_eq!(g.adjacency(), input.generate(5).unwrap().adjacency());
            assert_ne!(g.adjacency(), input.generate(6).unwrap().adjacency());
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
