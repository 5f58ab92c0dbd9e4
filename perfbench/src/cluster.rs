//! `cluster-listing`: one op is `DiskGraph::open` + `ClusterRunner::run`
//! over TCP with listing on; the count and the listing are checked
//! against the oracle's.
//!
//! The traced op wraps the two calls in spans and reads the layer split
//! from the returned `ClusterReport`. After each traced op the benchmark
//! also times `OrientedGraph::replicate_to` on the run's oriented copy,
//! as a root span of its own outside the op.

use std::path::Path;
use std::time::{Duration, Instant};

use pdtl_cluster::{ClusterConfig, ClusterReport, ClusterRunner, TransportKind};
use pdtl_core::{MgtOptions, OrientedGraph};
use pdtl_graph::DiskGraph;
use pdtl_io::{Codec, IoStats, MemoryBudget};

use crate::env;
use crate::metrics::Outcome;
use crate::oracle::{check_count, check_listing, oracle, Oracle};
use crate::trace::Trace;
use crate::workload::{
    batch, err, ms, ops_begin, setup, write_input, Config, Input, Layers, Scale,
};

/// Nodes, workers per node, per-worker budget (one pass at both scales).
const NODES: usize = 2;
const CORES_PER_NODE: usize = 1;
const BUDGET_EDGES: usize = 1 << 22;

fn input(scale: Scale) -> Input {
    match scale {
        Scale::Full => Input::Rmat(14),
        Scale::Tiny => Input::Rmat(8),
    }
}

/// Run `cluster-listing`.
pub fn run(cfg: &Config, trace: &mut Trace) -> Result<Outcome, String> {
    let input = input(cfg.scale);
    let mut out = Outcome {
        env: env::record(Codec::Raw.name()),
        ..Outcome::default()
    };
    let mut layers = Layers::default();
    let base = cfg.run_dir().join("input").join("g");
    let g = setup(&mut out, |_| write_input(cfg, input, &base, &mut layers))?;
    let truth = oracle(&g, &input.name(), cfg.seed, true, &cfg.cache_dir());
    drop(g);
    if cfg.trace {
        // Bytes the run's own verify_full digests (its time is read per
        // op as a difference; see `traced_op`).
        let verified = DiskGraph::open(&base, &IoStats::new())
            .and_then(|d| d.verify_full())
            .map_err(err)?;
        layers.push(
            "graph.verify_mb",
            verified.map_or(0.0, |r| r.bytes as f64 / 1e6),
        );
    }

    let runner = ClusterRunner::new(ClusterConfig {
        nodes: NODES,
        cores_per_node: CORES_PER_NODE,
        budget: MemoryBudget::edges(BUDGET_EDGES),
        listing: true,
        transport: TransportKind::Tcp,
        mgt: MgtOptions {
            codec: Codec::Raw,
            ..MgtOptions::default()
        },
        ..ClusterConfig::default()
    })
    .map_err(err)?;
    let op_dir = cfg.run_dir().join("op");
    ops_begin(&mut out);
    batch(cfg, &mut out, |traced, id| {
        if traced {
            return traced_op(trace, &mut layers, &runner, &base, &op_dir, id, &truth);
        }
        let t = Instant::now();
        let report = DiskGraph::open(&base, &IoStats::new())
            .map_err(err)
            .and_then(|input| runner.run(&input, &op_dir).map_err(err));
        let wall = t.elapsed();
        (wall, report.and_then(|r| check(&r, &truth)))
    });
    layers.finish(&mut out);
    Ok(out)
}

/// The count, the listing and the failure record of one run.
fn check(r: &ClusterReport, truth: &Oracle) -> Result<(), String> {
    check_count("cluster count", r.triangles, truth.triangles)?;
    check_listing(r.listed.as_deref().unwrap_or_default(), truth)?;
    if r.failed_nodes.is_empty() {
        Ok(())
    } else {
        Err(format!("nodes {:?} failed", r.failed_nodes))
    }
}

fn traced_op(
    trace: &mut Trace,
    layers: &mut Layers,
    runner: &ClusterRunner,
    base: &Path,
    op_dir: &Path,
    id: u64,
    truth: &Oracle,
) -> (Duration, Result<(), String>) {
    let op = trace.begin("op", id, None);
    let (input, open) = trace.time("graph.open", id, Some(op), || {
        DiskGraph::open(base, &IoStats::new())
    });
    let ran =
        input.map(|input| trace.time("cluster.run", id, Some(op), || runner.run(&input, op_dir)));
    let wall = trace.end(op);
    let (report, run_call) = match ran {
        Ok((Ok(report), run_call)) => (report, run_call),
        Ok((Err(e), _)) => return (wall, Err(err(e))),
        Err(e) => return (wall, Err(err(e))),
    };

    let orient = ms(report.orientation.breakdown.wall);
    let copy: f64 = report
        .nodes
        .iter()
        .filter(|n| n.copy_bytes > 0)
        .map(|n| ms(n.copy))
        .sum();
    let calc = ms(report.calc_wall());
    layers.push("graph.open_ms", ms(open));
    // The runner's clock starts after its verify_full: the rest of the
    // call is verification (and the work-directory mkdir).
    layers.push("graph.verify_ms", ms(run_call) - ms(report.wall));
    layers.push("cluster.orient_ms", orient);
    layers.push("cluster.copy_ms", copy);
    layers.push("cluster.calc_ms", calc);
    layers.push("cluster.gather_ms", ms(report.wall) - orient - copy - calc);
    let net = report.network;
    layers.push("cluster.net_graph_mb", net.graph as f64 / 1e6);
    layers.push("cluster.net_triangles_mb", net.triangles as f64 / 1e6);
    layers.push("cluster.net_control_kb", net.control as f64 / 1e3);
    layers.push(
        "cluster.net_config_result_kb",
        (net.config + net.result) as f64 / 1e3,
    );
    layers.push("cluster.retries", report.retries as f64);
    layers.push("cluster.reassigned_ranges", report.reassigned_ranges as f64);
    layers.push("runner.unattributed_ms", ms(wall) - ms(open) - ms(run_call));
    layers.push("trace.op_mean_ms", ms(wall));

    let replicated = replicate(trace, op_dir, id);
    if let Ok(d) = replicated {
        layers.push("cluster.replicate_ms", ms(d));
    }
    let checked = check(&report, truth).and(replicated.map(|_| ()));
    (wall, checked)
}

/// Time `replicate_to` of the run's oriented copy (root span, not part
/// of the op) and remove the replica.
fn replicate(trace: &mut Trace, op_dir: &Path, id: u64) -> Result<Duration, String> {
    let stats = IoStats::new();
    let og = OrientedGraph::open(op_dir.join("oriented"), &stats).map_err(err)?;
    let target = op_dir.join("replica").join("oriented");
    std::fs::create_dir_all(op_dir.join("replica")).map_err(err)?;
    let (copied, d) = trace.time("cluster.replicate", id, None, || {
        og.replicate_to(&target, &stats)
    });
    let _ = std::fs::remove_dir_all(op_dir.join("replica"));
    copied.map(|_| d).map_err(err)
}
