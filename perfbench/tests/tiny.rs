//! Tiny-scale runs of every workload, traced and untraced: each must
//! pass the oracle check and report every metric `BENCHMARK.json` lists
//! for its mode, and the numbers must relate the way the benchmark
//! claims they do.

use std::path::PathBuf;

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::{run, Config, Outcome, Scale, Workload};

/// `BENCHMARK.json` at the repository root.
fn benchmark_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn names(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect(key);
    let end = start + json[start..].find(']').expect("array end");
    json[start..end]
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_the_catalog() {
    let json = benchmark_json();
    let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let layer: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names(&json, "end_to_end"), e2e);
    assert_eq!(names(&json, "per_layer"), layer);
    assert_eq!(names(&json, "workloads"), workloads);
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name,
            m.unit,
            m.better.name()
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}

/// Per-layer metrics a workload must set (the rest report 0).
fn applies(w: Workload, name: &str) -> bool {
    let prefixes: &[&str] = match w {
        Workload::CountMultipass | Workload::CountSinglepass => &[
            "graph.", "orient.", "balance.", "mgt.", "io.", "runner.", "trace.",
        ],
        Workload::ClusterListing => &["graph.", "cluster.", "runner.", "trace."],
        Workload::ServeClosed => &["graph.", "orient.", "server.", "trace."],
    };
    prefixes.iter().any(|p| name.starts_with(p))
}

fn tiny(w: Workload, trace: bool) -> Outcome {
    let cfg = Config {
        workload: w,
        seed: 3,
        seconds: 0.2,
        trace,
        scale: Scale::Tiny,
        work_root: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tiny"),
    };
    let out = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    assert!(out.correct(), "{} trace={trace}: {:?}", w.name(), out.notes);
    assert!(out.attempted >= 2, "warm-up plus at least one measured op");
    let line = out.result_json(trace);
    let json = benchmark_json();
    let listed = names(&json, if trace { "per_layer" } else { "end_to_end" });
    for name in &listed {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{} result line lacks {name}",
            w.name()
        );
        let set = out.values.contains_key(name.as_str());
        if !trace {
            assert!(
                set && out.values[name.as_str()] > 0.0,
                "{}: {name}",
                w.name()
            );
        } else if applies(w, name) {
            assert!(set, "{} traced run did not measure {name}", w.name());
        }
    }
    out
}

fn v(out: &Outcome, name: &str) -> f64 {
    out.values[name]
}

/// On the count workloads the blocking steps plus the remainder add up
/// to the traced op wall (means are additive).
fn assert_layers_add_up(out: &Outcome) {
    let sum = [
        "graph.open_ms",
        "graph.verify_ms",
        "orient.ms",
        "balance.ms",
        "mgt.worker_max_ms",
        "runner.unattributed_ms",
    ]
    .iter()
    .map(|n| v(out, n))
    .sum::<f64>();
    let wall = v(out, "trace.op_mean_ms");
    assert!((sum - wall).abs() < 1e-6 * wall.max(1.0), "{sum} vs {wall}");
    assert!(v(out, "runner.unattributed_ms") >= 0.0);
}

#[test]
fn count_multipass_tiny() {
    tiny(Workload::CountMultipass, false);
    let out = tiny(Workload::CountMultipass, true);
    assert!(v(&out, "io.decoded_mu32") > 0.0);
    assert!(v(&out, "mgt.iterations_max") > 1.0);
    assert_layers_add_up(&out);
}

#[test]
fn count_singlepass_tiny() {
    tiny(Workload::CountSinglepass, false);
    let out = tiny(Workload::CountSinglepass, true);
    assert_eq!(v(&out, "io.decoded_mu32"), 0.0);
    assert_eq!(v(&out, "mgt.iterations_max"), 1.0);
    assert_layers_add_up(&out);
}

#[test]
fn cluster_listing_tiny() {
    tiny(Workload::ClusterListing, false);
    let out = tiny(Workload::ClusterListing, true);
    assert!(v(&out, "cluster.net_triangles_mb") > 0.0);
    assert!(v(&out, "cluster.replicate_ms") > 0.0);
    assert_eq!(v(&out, "cluster.retries"), 0.0);
}

#[test]
fn serve_closed_tiny() {
    tiny(Workload::ServeClosed, false);
    let out = tiny(Workload::ServeClosed, true);
    assert!(v(&out, "server.exec_clustering_p50_ms") > 0.0);
    assert_eq!(v(&out, "server.failed"), 0.0);
}
