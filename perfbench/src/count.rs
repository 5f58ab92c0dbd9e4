//! `count-multipass` and `count-singlepass`: one op is
//! `DiskGraph::open` + `LocalRunner::run` on the generated input.
//!
//! The traced op makes the runner's own calls from outside, in its
//! order: `DiskGraph::open` -> `verify_full` -> `orient_to_disk_with`
//! -> in-degrees + `split_ranges` -> one scoped thread per range running
//! `mgt_count_range_opt` -> sum.

use std::path::Path;
use std::time::{Duration, Instant};

use pdtl_core::mgt::mgt_count_range_opt;
use pdtl_core::orient::orient_to_disk_with;
use pdtl_core::{split_ranges, BalanceStrategy, CountSink, LocalConfig, LocalRunner, MgtOptions};
use pdtl_graph::DiskGraph;
use pdtl_io::{Codec, IoStats, MemoryBudget};

use crate::env;
use crate::metrics::Outcome;
use crate::oracle::{check_count, oracle};
use crate::trace::Trace;
use crate::workload::{
    batch, err, ms, ops_begin, setup, write_input, Config, Input, Layers, Scale, Workload,
};

/// A count workload's input and runner settings.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Generated input.
    pub input: Input,
    /// Workers (`LocalConfig::cores`).
    pub cores: usize,
    /// Per-worker budget in edges.
    pub budget_edges: usize,
    /// Codec of the oriented copy.
    pub codec: Codec,
}

/// Settings of a count workload at `scale`.
pub fn params(w: Workload, scale: Scale) -> Params {
    match (w, scale) {
        (Workload::CountSinglepass, Scale::Full) => Params {
            input: Input::Yahoo(1.0),
            cores: 2,
            budget_edges: 1 << 22,
            codec: Codec::Raw,
        },
        (Workload::CountSinglepass, Scale::Tiny) => Params {
            input: Input::Yahoo(1.0 / 64.0),
            cores: 2,
            budget_edges: 1 << 22,
            codec: Codec::Raw,
        },
        (_, Scale::Full) => Params {
            input: Input::Rmat(16),
            cores: 2,
            budget_edges: 1 << 16,
            codec: Codec::DeltaVarint,
        },
        (_, Scale::Tiny) => Params {
            input: Input::Rmat(9),
            cores: 2,
            budget_edges: 1 << 9,
            codec: Codec::DeltaVarint,
        },
    }
}

/// Run a count workload.
pub fn run(cfg: &Config, trace: &mut Trace) -> Result<Outcome, String> {
    let p = params(cfg.workload, cfg.scale);
    let mut out = Outcome {
        env: env::record(p.codec.name()),
        ..Outcome::default()
    };
    let mut layers = Layers::default();
    let base = cfg.run_dir().join("input").join("g");
    let g = setup(&mut out, |_| write_input(cfg, p.input, &base, &mut layers))?;
    let truth = oracle(&g, &p.input.name(), cfg.seed, false, &cfg.cache_dir()).triangles;
    drop(g);

    let config = LocalConfig {
        cores: p.cores,
        budget: MemoryBudget::edges(p.budget_edges),
        balance: BalanceStrategy::InDegree,
        mgt: MgtOptions {
            codec: p.codec,
            ..MgtOptions::default()
        },
    };
    let runner = LocalRunner::new(config.clone()).map_err(err)?;
    let op_dir = cfg.run_dir().join("op");
    ops_begin(&mut out);
    batch(cfg, &mut out, |traced, id| {
        if traced {
            return traced_op(trace, &mut layers, &config, &base, &op_dir, id, truth);
        }
        let t = Instant::now();
        let report = DiskGraph::open(&base, &IoStats::new())
            .map_err(err)
            .and_then(|input| runner.run(&input, &op_dir).map_err(err));
        let wall = t.elapsed();
        (
            wall,
            report.and_then(|r| check_count("count", r.triangles, truth)),
        )
    });
    layers.finish(&mut out);
    Ok(out)
}

/// One traced op: the runner's sequence with a span around each call.
fn traced_op(
    trace: &mut Trace,
    layers: &mut Layers,
    config: &LocalConfig,
    base: &Path,
    op_dir: &Path,
    id: u64,
    truth: u64,
) -> (Duration, Result<(), String>) {
    let op = trace.begin("op", id, None);
    let counted = traced_layers(trace, layers, config, base, op_dir, id, op);
    let wall = trace.end(op);
    let check = counted.map(|(triangles, blocking)| {
        layers.push("runner.unattributed_ms", ms(wall) - blocking);
        layers.push("trace.op_mean_ms", ms(wall));
        triangles
    });
    (
        wall,
        check.and_then(|t| check_count("traced count", t, truth)),
    )
}

/// The layer calls of one traced op. Returns the triangle count and
/// the summed time of the blocking steps (open, verify, orient,
/// balance, slowest worker) in ms.
fn traced_layers(
    trace: &mut Trace,
    layers: &mut Layers,
    config: &LocalConfig,
    base: &Path,
    op_dir: &Path,
    id: u64,
    op: usize,
) -> Result<(u64, f64), String> {
    let stats = IoStats::new();
    let (input, open) = trace.time("graph.open", id, Some(op), || DiskGraph::open(base, &stats));
    let input = input.map_err(err)?;
    let (verified, verify) = trace.time("graph.verify", id, Some(op), || input.verify_full());
    let verified = verified.map_err(err)?;
    std::fs::create_dir_all(op_dir).map_err(err)?;
    let (oriented, orient) = trace.time("orient", id, Some(op), || {
        orient_to_disk_with(
            &input,
            op_dir.join("oriented"),
            config.cores,
            config.mgt.codec,
            &stats,
        )
    });
    let (og, orientation) = oriented.map_err(err)?;
    let ((ranges, _), balance) = trace.time("balance", id, Some(op), || {
        match (config.balance, og.in_degrees()) {
            (BalanceStrategy::InDegree, Some(in_degrees)) => split_ranges(
                &og.offsets,
                &in_degrees,
                config.cores,
                BalanceStrategy::InDegree,
            ),
            _ => split_ranges(
                &og.offsets,
                &vec![0; og.num_vertices() as usize],
                config.cores,
                BalanceStrategy::EqualEdges,
            ),
        }
    });

    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|&range| {
                let og = &og;
                scope.spawn(move || {
                    let start = Instant::now();
                    let report = mgt_count_range_opt(
                        og,
                        range,
                        config.budget,
                        &mut CountSink,
                        IoStats::new(),
                        config.mgt,
                    );
                    (start, Instant::now(), report)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut workers = Vec::with_capacity(joined.len());
    let mut walls = Vec::with_capacity(joined.len());
    for (i, j) in joined.into_iter().enumerate() {
        let (start, end, report) = j.map_err(|_| format!("worker {i} panicked"))?;
        trace.record("mgt.worker", id, Some(op), start, end);
        walls.push(ms(end - start));
        workers.push(report.map_err(err)?);
    }
    let triangles = workers.iter().map(|w| w.triangles).sum();

    let worker_max = walls.iter().copied().fold(0.0, f64::max);
    let open_ms = ms(open);
    let verify_ms = ms(verify);
    let orient_ms = ms(orient);
    let balance_ms = ms(balance);
    layers.push("graph.open_ms", open_ms);
    layers.push("graph.verify_ms", verify_ms);
    layers.push(
        "graph.verify_mb",
        verified.map_or(0.0, |r| r.bytes as f64 / 1e6),
    );
    layers.push("orient.ms", orient_ms);
    layers.push("orient.read_mb", orientation.io.bytes_read as f64 / 1e6);
    layers.push(
        "orient.written_mb",
        orientation.io.bytes_written as f64 / 1e6,
    );
    layers.push("orient.cpu_ops", orientation.cpu_ops as f64);
    layers.push("balance.ms", balance_ms);
    let report_walls: Vec<f64> = workers.iter().map(|w| ms(w.breakdown.wall)).collect();
    let report_mean = report_walls.iter().sum::<f64>() / report_walls.len().max(1) as f64;
    let report_max = report_walls.iter().copied().fold(0.0, f64::max);
    layers.push(
        "balance.struggler_ratio",
        report_max / report_mean.max(1e-9),
    );
    layers.push("mgt.worker_max_ms", worker_max);
    layers.push(
        "mgt.worker_mean_ms",
        walls.iter().sum::<f64>() / walls.len().max(1) as f64,
    );
    let sum = |f: fn(&pdtl_core::WorkerReport) -> u64| workers.iter().map(f).sum::<u64>() as f64;
    layers.push(
        "mgt.iterations_max",
        workers.iter().map(|w| w.iterations).max().unwrap_or(0) as f64,
    );
    layers.push("mgt.iterations_total", sum(|w| w.iterations));
    layers.push("mgt.cpu_ops", sum(|w| w.cpu_ops));
    layers.push(
        "mgt.io_wait_ms",
        workers.iter().map(|w| ms(w.breakdown.io)).sum(),
    );
    let read = sum(|w| w.io.bytes_read);
    let decoded = sum(|w| w.io.u32s_decoded);
    layers.push("io.read_mb", read / 1e6);
    layers.push("io.read_ops", sum(|w| w.io.read_ops));
    layers.push("io.seeks", sum(|w| w.io.seeks));
    layers.push("io.decoded_mu32", decoded / 1e6);
    layers.push(
        "io.decoded_per_byte",
        if read > 0.0 {
            4.0 * decoded / read
        } else {
            0.0
        },
    );
    Ok((
        triangles,
        open_ms + verify_ms + orient_ms + balance_ms + worker_max,
    ))
}
