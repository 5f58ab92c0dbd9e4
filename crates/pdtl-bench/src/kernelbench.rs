//! Programmatic kernel benchmarks with a JSON emitter.
//!
//! `exp kernels [--json]` runs the same hot-kernel set as the
//! `kernels` criterion bench target — sorted-array intersection, the
//! in-memory MGT chunk loop, orientation, load balancing, generation —
//! under the same names, and (with `--json`) writes
//! `BENCH_kernels.json` mapping bench name → mean ns/iter. CI runs this
//! once per push and uploads the file, so every PR leaves a comparable
//! perf data point; the committed snapshot at the repo root is the
//! current baseline.
//!
//! The timing loop mirrors the criterion shim: one warmup run, then
//! repeat for a measurement window (`PDTL_BENCH_MS`, default 200 ms per
//! bench) recording per-iteration wall times.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use pdtl_core::intersect::{
    intersect_gallop_visit, intersect_visit, intersect_visit_counted_with, SimdLevel,
};
use pdtl_core::mgt::{mgt_count_range_opt, mgt_in_memory, MgtOptions};
use pdtl_core::orient::{orient_csr, orient_csr_threads, orient_to_disk_with};
use pdtl_core::sink::CountSink;
use pdtl_core::{split_ranges, BalanceStrategy, EdgeRange};
use pdtl_graph::gen::rmat::rmat;
use pdtl_graph::DiskGraph;
use pdtl_io::{Codec, IoBackend, IoStats, MemoryBudget, U32Writer};

/// The kernel workload, defined once so the criterion target
/// (`benches/kernels.rs`) and this JSON runner measure the *same*
/// inputs under the same names and cannot drift apart.
pub mod workload {
    /// `(|a|, |b|)` size pairs for the intersection kernels.
    pub const INTERSECT_PAIRS: [(usize, usize); 3] = [(1000, 1000), (100, 10_000), (10, 100_000)];
    /// Memory budgets (edges) for the in-memory MGT sweep.
    pub const MGT_BUDGETS: [usize; 3] = [1 << 20, 1 << 14, 1 << 11];
    /// `(scale, seed)` of the RMAT graph the MGT sweep runs on.
    pub const MGT_RMAT: (u32, u64) = (10, 1);
    /// `(scale, seed)` of the orientation bench's graph.
    pub const ORIENT_RMAT: (u32, u64) = (10, 2);
    /// Core counts of the orientation ablation rows.
    pub const ORIENT_CORES: [usize; 3] = [1, 2, 4];
    /// `(scale, seed)` of the load-balancing bench's graph.
    pub const BALANCE_RMAT: (u32, u64) = (12, 3);
    /// `(scale, seed)` of the generator bench (`rmat_k8`).
    pub const GEN_RMAT: (u32, u64) = (8, 4);
    /// `(scale, seed)` of the disk-MGT backend ablation's graph
    /// (RMAT-12, the fixture of the engine-level accounting tests).
    pub const DISK_RMAT: (u32, u64) = (12, 18);
    /// Memory budget (edges) of the disk-MGT backend ablation — far
    /// below `|E*|`, the multi-pass regime where the backend choice
    /// matters.
    pub const DISK_BUDGET: usize = 4096;
    /// Emulated per-block device latency (µs) of the `simlat` backend
    /// rows; the zero-latency rows measure the warm page cache.
    pub const DISK_SIM_LATENCY_US: u64 = 50;
    /// Values written by the `u32_writer/write_all_1m` throughput case.
    pub const WRITER_N: usize = 1 << 20;
    /// Values decoded by the `varint_decode/1m` hot-loop row.
    pub const VARINT_DECODE_N: usize = 1 << 20;

    /// The delta+varint byte stream of the `varint_decode` row: one
    /// strictly-increasing run with mixed 1–2 byte gap encodings, the
    /// shape rank-space out-lists produce.
    pub fn varint_decode_input() -> Vec<u8> {
        let mut vals = Vec::with_capacity(VARINT_DECODE_N);
        let mut v = 0u32;
        for i in 0..VARINT_DECODE_N as u32 {
            v += 1 + (i % 13) * 11;
            vals.push(v);
        }
        let mut bytes = Vec::new();
        pdtl_io::codec::encode_run(&vals, &mut bytes).expect("encode varint fixture");
        bytes
    }

    /// A sorted id set of `n` values with the given stride/offset.
    pub fn sorted_set(n: usize, stride: u32, offset: u32) -> Vec<u32> {
        (0..n as u32).map(|i| i * stride + offset).collect()
    }

    /// The two sorted inputs for an intersection size pair — both span
    /// the same id range so neither side can early-exit.
    pub fn intersect_inputs(a_len: usize, b_len: usize) -> (Vec<u32>, Vec<u32>) {
        let span = (a_len.max(b_len) * 5) as u32;
        (
            sorted_set(a_len, span / a_len as u32, 3),
            sorted_set(b_len, span / b_len as u32, 0),
        )
    }
}

/// One benchmark's aggregated timing.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (`group/bench/param`), matching the criterion
    /// target's naming.
    pub name: String,
    /// Mean wall time per iteration, nanoseconds.
    pub mean_ns: f64,
    /// Minimum observed iteration, nanoseconds.
    pub min_ns: f64,
    /// Measured iterations.
    pub iters: u64,
}

fn measurement_window() -> Duration {
    let ms = std::env::var("PDTL_BENCH_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(200);
    Duration::from_millis(ms)
}

fn time_one<O>(name: &str, window: Duration, mut f: impl FnMut() -> O) -> BenchResult {
    std::hint::black_box(f());
    let (mut iters, mut total) = (0u64, Duration::ZERO);
    let mut min = Duration::MAX;
    while total < window {
        let t = Instant::now();
        std::hint::black_box(f());
        let dt = t.elapsed();
        iters += 1;
        total += dt;
        min = min.min(dt);
    }
    BenchResult {
        name: name.to_string(),
        mean_ns: total.as_nanos() as f64 / iters.max(1) as f64,
        min_ns: min.as_nanos() as f64,
        iters,
    }
}

/// Run the kernel benchmark suite, returning one result per bench.
pub fn run_kernel_benches() -> Vec<BenchResult> {
    let window = measurement_window();
    let mut out = Vec::new();

    // intersection kernels
    for &(a_len, b_len) in &workload::INTERSECT_PAIRS {
        let (a, b) = workload::intersect_inputs(a_len, b_len);
        out.push(time_one(
            &format!("intersect/linear/{a_len}x{b_len}"),
            window,
            || intersect_visit(&a, &b, |_| {}),
        ));
        out.push(time_one(
            &format!("intersect/gallop/{a_len}x{b_len}"),
            window,
            || intersect_gallop_visit(&a, &b, |_| {}),
        ));
        // Forced-scalar ablation row: the same shape through the same
        // ratio dispatch with the SIMD tier off, so every snapshot
        // carries its own vectorization speedup measurement.
        out.push(time_one(
            &format!("intersect/linear_scalar/{a_len}x{b_len}"),
            window,
            || intersect_visit_counted_with(SimdLevel::Off, &a, &b, |_| {}).0,
        ));
    }

    // in-memory MGT across budgets
    let g = rmat(workload::MGT_RMAT.0, workload::MGT_RMAT.1).expect("rmat");
    let o = orient_csr(&g);
    for &budget in &workload::MGT_BUDGETS {
        out.push(time_one(
            &format!("mgt_in_memory/budget_{budget}"),
            window,
            || mgt_in_memory(&o, MemoryBudget::edges(budget), &mut CountSink).0,
        ));
    }

    // orientation, plus the cores ablation over the sharded gather
    let g2 = rmat(workload::ORIENT_RMAT.0, workload::ORIENT_RMAT.1).expect("rmat");
    out.push(time_one("orient_csr_rmat10", window, || orient_csr(&g2)));
    for &cores in &workload::ORIENT_CORES {
        out.push(time_one(
            &format!("orient_csr_rmat10/cores_{cores}"),
            window,
            || orient_csr_threads(&g2, cores),
        ));
    }

    // load balancing
    let g3 = rmat(workload::BALANCE_RMAT.0, workload::BALANCE_RMAT.1).expect("rmat");
    let o3 = orient_csr(&g3);
    let ins = o3.in_degrees();
    for strategy in [BalanceStrategy::EqualEdges, BalanceStrategy::InDegree] {
        out.push(time_one(
            &format!("split_ranges/{strategy:?}_x64"),
            window,
            || split_ranges(&o3.offsets, &ins, 64, strategy),
        ));
    }

    // generator
    out.push(time_one("rmat_k8", window, || {
        rmat(workload::GEN_RMAT.0, workload::GEN_RMAT.1).unwrap()
    }));

    // disk-MGT backend ablation (RMAT-12, multi-pass budget): warm page
    // cache and emulated-latency device, one row per I/O backend
    // (including uring, which degrades to blocking where unavailable —
    // the row then measures the fallback, like production would).
    let dir = std::env::temp_dir().join(format!("pdtl-kernelbench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench scratch dir");
    {
        let g = rmat(workload::DISK_RMAT.0, workload::DISK_RMAT.1).expect("rmat");
        let stats = IoStats::new();
        let input = DiskGraph::write(&g, dir.join("g"), &stats).expect("write");
        // The backend rows are pinned to the raw codec so snapshots
        // stay comparable whatever PDTL_CODEC the run inherits; the
        // codec rows below measure the encoding choice explicitly.
        let (og, _) = orient_to_disk_with(&input, dir.join("oriented"), 2, Codec::Raw, &stats)
            .expect("orient");
        let full = EdgeRange {
            start: 0,
            end: og.m_star(),
        };
        let budget = MemoryBudget::edges(workload::DISK_BUDGET);
        for (latency_us, tag) in [
            (0, "mgt_disk"),
            (workload::DISK_SIM_LATENCY_US, "mgt_disk_simlat50us"),
        ] {
            for backend in IoBackend::ALL {
                let opts = MgtOptions {
                    backend,
                    io_latency: Duration::from_micros(latency_us),
                    ..MgtOptions::default()
                };
                out.push(time_one(
                    &format!("{tag}/backend_{backend}"),
                    window,
                    || {
                        mgt_count_range_opt(&og, full, budget, &mut CountSink, IoStats::new(), opts)
                            .expect("mgt run")
                            .triangles
                    },
                ));
            }
        }

        // codec ablation: the same multi-pass run (default backend)
        // over each on-disk encoding — the delta-varint row's smaller
        // bytes_read is the Theorem IV.2 win the snapshot tracks.
        for codec in Codec::ALL {
            let (og_c, _) = orient_to_disk_with(
                &input,
                dir.join(format!("oriented-{codec}")),
                2,
                codec,
                &stats,
            )
            .expect("orient");
            let full_c = EdgeRange {
                start: 0,
                end: og_c.m_star(),
            };
            out.push(time_one(&format!("mgt_disk/codec_{codec}"), window, || {
                mgt_count_range_opt(
                    &og_c,
                    full_c,
                    budget,
                    &mut CountSink,
                    IoStats::new(),
                    MgtOptions::default(),
                )
                .expect("mgt run")
                .triangles
            }));
        }
    }

    // varint decode throughput: the codec layer's hot loop on its own
    {
        let bytes = workload::varint_decode_input();
        out.push(time_one("varint_decode/1m", window, || {
            let mut pos = 0usize;
            let mut acc = 0u64;
            while let Some(v) = pdtl_io::codec::decode_varint_u32(&bytes, &mut pos) {
                acc += u64::from(v);
            }
            acc
        }));
    }

    // stream-writer throughput (the bulk `write_all` fast path)
    {
        let vals: Vec<u32> = (0..workload::WRITER_N as u32).collect();
        let path = dir.join("writer-throughput");
        out.push(time_one("u32_writer/write_all_1m", window, || {
            let mut w = U32Writer::create(&path, IoStats::new()).expect("create");
            w.write_all(&vals).expect("write");
            w.finish().expect("finish")
        }));
    }
    let _ = std::fs::remove_dir_all(&dir);

    out
}

/// Render results as a JSON object: `{"bench name": mean_ns, ...}`.
pub fn to_json(results: &[BenchResult]) -> String {
    let mut s = String::from("{\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(s, "  \"{}\": {:.1}{comma}", r.name, r.mean_ns);
    }
    s.push_str("}\n");
    s
}

/// Write the JSON snapshot to `path`.
pub fn write_json(path: impl AsRef<Path>, results: &[BenchResult]) -> std::io::Result<()> {
    std::fs::write(path, to_json(results))
}

/// Human-readable table (what `exp kernels` prints).
pub fn to_table(results: &[BenchResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<44} {:>12} {:>12} {:>8}",
        "kernel", "mean/iter", "min/iter", "iters"
    );
    for r in results {
        let _ = writeln!(
            s,
            "{:<44} {:>12} {:>12} {:>8}",
            r.name,
            fmt_ns(r.mean_ns),
            fmt_ns(r.min_ns),
            r.iters
        );
    }
    s
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_and_serialises() {
        std::env::set_var("PDTL_BENCH_MS", "1");
        let results = run_kernel_benches();
        assert!(results.len() >= 25, "expected the full kernel set");
        assert!(results.iter().all(|r| r.mean_ns > 0.0 && r.iters > 0));
        let json = to_json(&results);
        assert!(json.starts_with('{') && json.ends_with("}\n"));
        assert!(json.contains("\"mgt_in_memory/budget_2048\""));
        for backend in ["blocking", "mmap", "uring"] {
            assert!(json.contains(&format!("\"mgt_disk/backend_{backend}\"")));
            assert!(json.contains(&format!("\"mgt_disk_simlat50us/backend_{backend}\"")));
        }
        assert!(json.contains("\"orient_csr_rmat10/cores_2\""));
        for codec in ["raw", "delta-varint"] {
            assert!(json.contains(&format!("\"mgt_disk/codec_{codec}\"")));
        }
        assert!(json.contains("\"varint_decode/1m\""));
        assert!(json.contains("\"intersect/linear_scalar/1000x1000\""));
        assert!(json.contains("\"u32_writer/write_all_1m\""));
        // one "name": value line per bench, no trailing comma
        assert_eq!(json.matches(':').count(), results.len());
        assert!(!json.contains(",\n}"));
        let table = to_table(&results);
        assert!(table.contains("orient_csr_rmat10"));
    }
}
