//! The metric catalog and the result a run prints.
//!
//! Every metric the benchmark can print is declared once here, with its
//! unit, which direction is better and the end-to-end metric and
//! workload it is expected to move. `BENCHMARK.json` lists the same
//! names; a test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes, work).
    Lower,
    /// Larger is better (throughput, ratios of useful work).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's declaration.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// What it measures and which end-to-end metric, on which workload,
    /// it should move.
    pub about: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: Better,
    about: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        about,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower, "median of the set-ups in a run: input generation + DiskGraph::write (+ Catalog::open + Server::spawn on serve-closed); the oracle is excluded"),
    def("op_p50_ms", "ms", Lower, "kernel-smoothed median (stats::median) of the wall time of one op (count, cluster run or query), timed around the public call"),
    def("ops_per_s", "1/s", Higher, "ops completed / timed window"),
    def("peak_rss_mb", "MB", Lower, "VmHWM of the process over the measured ops (reset after set-up where the kernel allows)"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// layer a workload does not run reports 0. Times are means over the
/// traced ops, so they add up to the mean traced op wall.
pub const PER_LAYER: &[MetricDef] = &[
    def("graph.write_ms", "ms", Lower, "DiskGraph::write in set-up -> setup_s, all workloads"),
    def("graph.open_ms", "ms", Lower, "DiskGraph::open -> op_p50_ms on count-* and cluster-listing (per op); setup_s on serve-closed"),
    def("graph.verify_ms", "ms", Lower, "DiskGraph::verify_full -> op_p50_ms on count-*; on cluster-listing the run-call wall minus the report wall (a difference); setup_s on serve-closed"),
    def("graph.verify_mb", "MB", Lower, "bytes verify_full digests -> as graph.verify_ms"),
    def("orient.ms", "ms", Lower, "orient_to_disk_with (incl. the varint recompress pass) -> op_p50_ms on count-*, largest share on count-singlepass; setup_s on serve-closed (both codecs)"),
    def("orient.read_mb", "MB", Lower, "orientation bytes read -> as orient.ms"),
    def("orient.written_mb", "MB", Lower, "orientation bytes written -> as orient.ms"),
    def("orient.cpu_ops", "count", Lower, "orientation counted CPU ops -> as orient.ms"),
    def("balance.ms", "ms", Lower, "in-degrees + split_ranges -> op_p50_ms on count-* (expected negligible)"),
    def("balance.struggler_ratio", "ratio", Lower, "slowest worker wall / mean worker wall -> op_p50_ms on count-*"),
    def("mgt.worker_max_ms", "ms", Lower, "slowest mgt_count_range_opt thread, the blocking step -> op_p50_ms on count-*"),
    def("mgt.worker_mean_ms", "ms", Lower, "mean worker wall -> op_p50_ms on count-*"),
    def("mgt.iterations_max", "count", Lower, "chunk iterations of the busiest worker (>1 only on count-multipass) -> op_p50_ms on count-*"),
    def("mgt.iterations_total", "count", Lower, "chunk iterations over all workers -> op_p50_ms on count-*"),
    def("mgt.cpu_ops", "count", Lower, "counted CPU ops over all workers -> op_p50_ms on count-*"),
    def("mgt.io_wait_ms", "ms", Lower, "I/O time over all workers (WorkerReport breakdown) -> op_p50_ms on count-*"),
    def("io.read_mb", "MB", Lower, "bytes read by all workers -> op_p50_ms on count-multipass; no change predicted on count-singlepass"),
    def("io.read_ops", "count", Lower, "read operations of all workers -> as io.read_mb"),
    def("io.seeks", "count", Lower, "seeks of all workers -> as io.read_mb"),
    def("io.decoded_mu32", "Mu32", Lower, "u32s decoded by all workers, summed from WorkerReport.io (0 on count-singlepass) -> as io.read_mb"),
    def("io.decoded_per_byte", "B/B", Higher, "decoded bytes (4 per u32) / bytes read by all workers -> as io.read_mb"),
    def("runner.unattributed_ms", "ms", Lower, "traced op wall - (open + verify + orient + balance + slowest worker) on count-*; op wall - (open + run call) on cluster-listing"),
    def("trace.gap_ms", "ms", Lower, "traced op p50 - untraced op p50 within the traced run: tracing overhead plus runner work the traced sequence misses"),
    def("trace.op_mean_ms", "ms", Lower, "mean traced op wall: the sum the per-layer means above add up to"),
    def("cluster.orient_ms", "ms", Lower, "ClusterReport orientation wall -> op_p50_ms on cluster-listing"),
    def("cluster.copy_ms", "ms", Lower, "ClusterReport replica copy wall over remote nodes -> op_p50_ms on cluster-listing"),
    def("cluster.calc_ms", "ms", Lower, "ClusterReport struggler node calc wall -> op_p50_ms on cluster-listing"),
    def("cluster.gather_ms", "ms", Lower, "difference: report wall - orient - copy - calc -> op_p50_ms on cluster-listing"),
    def("cluster.replicate_ms", "ms", Lower, "OrientedGraph::replicate_to timed by the benchmark -> op_p50_ms on cluster-listing"),
    def("cluster.net_graph_mb", "MB", Lower, "replica bytes shipped -> op_p50_ms on cluster-listing"),
    def("cluster.net_triangles_mb", "MB", Lower, "triangle-list bytes shipped, the Theta(T) term -> op_p50_ms on cluster-listing"),
    def("cluster.net_control_kb", "kB", Lower, "control-message bytes -> op_p50_ms on cluster-listing"),
    def("cluster.net_config_result_kb", "kB", Lower, "config + result message bytes -> op_p50_ms on cluster-listing"),
    def("cluster.retries", "count", Lower, "copy/dispatch retries -> op_p50_ms on cluster-listing"),
    def("cluster.reassigned_ranges", "count", Lower, "ranges moved off failed nodes -> op_p50_ms on cluster-listing"),
    def("server.open_ms", "ms", Lower, "Catalog::open (open + verify_full + orient per codec) -> setup_s on serve-closed"),
    def("server.spawn_ms", "ms", Lower, "Server::spawn -> setup_s on serve-closed"),
    def("server.op_p90_ms", "ms", Lower, "p90 client latency over all queries of the traced run (its sample count allows ten beyond p90) -> serve-closed"),
    def("server.count_raw_p50_ms", "ms", Lower, "client latency of count on the raw replica -> op_p50_ms on serve-closed"),
    def("server.count_varint_p50_ms", "ms", Lower, "client latency of count on the delta-varint replica -> op_p50_ms on serve-closed"),
    def("server.list_p50_ms", "ms", Lower, "client latency of list -> op_p50_ms on serve-closed"),
    def("server.clustering_p50_ms", "ms", Lower, "client latency of clustering -> op_p50_ms on serve-closed"),
    def("server.exec_count_raw_p50_ms", "ms", Lower, "count on raw run in-process via run_oriented_with_sinks -> op_p50_ms on serve-closed"),
    def("server.exec_count_varint_p50_ms", "ms", Lower, "count on delta-varint run in-process -> op_p50_ms on serve-closed"),
    def("server.exec_list_p50_ms", "ms", Lower, "list run in-process (CollectSink) -> op_p50_ms on serve-closed"),
    def("server.exec_clustering_p50_ms", "ms", Lower, "listing + load_csr + global_clustering + transitivity in-process -> op_p50_ms on serve-closed"),
    def("server.overhead_count_raw_ms", "ms", Lower, "client latency - in-process exec: wire, admission and queueing -> op_p50_ms on serve-closed"),
    def("server.overhead_count_varint_ms", "ms", Lower, "as server.overhead_count_raw_ms"),
    def("server.overhead_list_ms", "ms", Lower, "as server.overhead_count_raw_ms"),
    def("server.overhead_clustering_ms", "ms", Lower, "as server.overhead_count_raw_ms"),
    def("server.admitted_peak", "edges", Higher, "ServeClient::stats admission high-water mark -> ops_per_s on serve-closed"),
    def("server.read_mb", "MB", Lower, "bytes the daemon read while serving the window -> op_p50_ms on serve-closed"),
    def("server.decoded_mu32", "Mu32", Lower, "u32s the daemon decoded while serving the window -> op_p50_ms on serve-closed"),
    def("server.failed", "count", Lower, "queries the daemon answered with an error during the window"),
];

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Ops attempted (warm-up included; every one is checked).
    pub attempted: u64,
    /// Ops that failed: an error or an answer that disagrees with the
    /// oracle.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Samples behind `op_p50_ms`.
    pub samples: usize,
    /// The settings the run used.
    pub env: Vec<(&'static str, String)>,
    /// Failure details and other remarks for the reader.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one checked op.
    pub fn check(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.notes.len() < 8 {
                    self.notes.push(e);
                }
                false
            }
        }
    }

    /// Set a metric (replacing any earlier value).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Whether every op was answered correctly.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The catalog this run reports: end-to-end or per-layer.
    pub fn catalog(trace: bool) -> &'static [MetricDef] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of the catalog (0 where this workload
    /// does not run the layer).
    pub fn result_json(&self, trace: bool) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in Self::catalog(trace).iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(self.values.get(m.name).copied().unwrap_or(0.0)),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// Human-readable table of the catalog's metrics.
    pub fn table(&self, trace: bool) -> String {
        let mut s = String::new();
        for m in Self::catalog(trace) {
            match self.values.get(m.name) {
                Some(v) => {
                    let _ = writeln!(s, "  {:<32} {:>16.4} {:<6} {}", m.name, v, m.unit, m.about);
                }
                None => {
                    let _ = writeln!(
                        s,
                        "  {:<32} {:>16} {:<6} (layer not run here)",
                        m.name, "-", m.unit
                    );
                }
            }
        }
        s
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (never expected) print as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.name.len() <= 64);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(m.unit.len() <= 16);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn result_line_has_every_metric() {
        let mut o = Outcome::default();
        assert!(o.check(Ok(())));
        assert!(!o.check(Err("wrong count".into())));
        o.set("op_p50_ms", 12.5);
        let line = o.result_json(false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
        for m in END_TO_END {
            assert!(
                line.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                "{line}"
            );
        }
        assert!(line.contains("\"op_p50_ms\": {\"value\": 12.5, \"unit\": \"ms\"}"));
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(1.0), "1.0");
    }
}
