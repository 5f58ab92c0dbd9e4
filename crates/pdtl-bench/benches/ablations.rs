//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **sorted arrays vs hash sets** in the MGT inner loop — the paper's
//!   §IV-A1 reports >10× slowdown with any set/map structure; this bench
//!   reproduces the comparison directly;
//! * **balanced vs naive ranges** — the struggler's work under each
//!   strategy (Figure 9's mechanism);
//! * **galloping crossover** — where the adaptive intersection should
//!   switch strategies;
//! * **scan pruning** — the rank-space `(min, max)` bounds skip plus the
//!   `vhigh` scan cap, against the PR 1 full-scan behaviour, on both the
//!   disk and in-memory engines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::HashSet;
use std::hint::black_box;

use pdtl_core::intersect::{
    intersect_count, intersect_gallop_visit, intersect_gallop_visit_counted_with, intersect_visit,
    intersect_visit_counted_with, SimdLevel,
};
use pdtl_core::orient::{orient_csr, orient_to_disk};
use pdtl_core::sink::CountSink;
use pdtl_core::{mgt_count_range_opt, mgt_in_memory_opt, BalanceStrategy, EdgeRange, MgtOptions};
use pdtl_graph::gen::rmat::rmat;
use pdtl_graph::DiskGraph;
use pdtl_io::{IoStats, MemoryBudget};

/// Hash-set inner loop: what the paper measured and rejected.
fn forward_with_hashsets(o: &pdtl_core::orient::OrientedCsr) -> u64 {
    let sets: Vec<HashSet<u32>> = (0..o.num_vertices())
        .map(|u| o.out(u).iter().copied().collect())
        .collect();
    let mut count = 0u64;
    for u in 0..o.num_vertices() {
        for &v in o.out(u) {
            let (small, large) = if sets[u as usize].len() <= sets[v as usize].len() {
                (&sets[u as usize], &sets[v as usize])
            } else {
                (&sets[v as usize], &sets[u as usize])
            };
            count += small.iter().filter(|w| large.contains(w)).count() as u64;
        }
    }
    count
}

fn forward_with_arrays(o: &pdtl_core::orient::OrientedCsr) -> u64 {
    let mut count = 0u64;
    for u in 0..o.num_vertices() {
        for &v in o.out(u) {
            count += intersect_count(o.out(u), o.out(v));
        }
    }
    count
}

fn bench_arrays_vs_sets(c: &mut Criterion) {
    let g = rmat(9, 11).unwrap();
    let o = orient_csr(&g);
    let expected = forward_with_arrays(&o);
    assert_eq!(forward_with_hashsets(&o), expected);

    let mut group = c.benchmark_group("inner_loop");
    group.bench_function("sorted_arrays", |b| {
        b.iter(|| forward_with_arrays(black_box(&o)))
    });
    group.bench_function("hash_sets", |b| {
        b.iter(|| forward_with_hashsets(black_box(&o)))
    });
    group.finish();
}

fn bench_balance_struggler(c: &mut Criterion) {
    // Measures the *struggler's* actual MGT work under each split: run
    // only the heaviest range.
    let g = rmat(10, 12).unwrap();
    let o = orient_csr(&g);
    let ins = o.in_degrees();
    let mut group = c.benchmark_group("struggler_range");
    for strategy in [BalanceStrategy::EqualEdges, BalanceStrategy::InDegree] {
        let (ranges, _) = pdtl_core::split_ranges(&o.offsets, &ins, 8, strategy);
        // heaviest by modeled weight
        let heaviest = ranges
            .iter()
            .copied()
            .max_by(|a, b| {
                pdtl_core::balance::range_weight(&o.offsets, &ins, *a)
                    .partial_cmp(&pdtl_core::balance::range_weight(&o.offsets, &ins, *b))
                    .unwrap()
            })
            .unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{strategy:?}")),
            &heaviest,
            |b, &range| {
                b.iter(|| {
                    // in-memory emulation of the range's intersection work
                    let mut work = 0u64;
                    for u in 0..o.num_vertices() {
                        for &v in o.out(u) {
                            let pos = o.offsets[v as usize];
                            if pos >= range.start && pos < range.end {
                                work += intersect_count(o.out(u), o.out(v));
                            }
                        }
                    }
                    black_box(work)
                })
            },
        );
    }
    group.finish();
}

fn bench_gallop_crossover(c: &mut Criterion) {
    let large: Vec<u32> = (0..100_000u32).collect();
    let mut group = c.benchmark_group("gallop_crossover");
    for &small_len in &[10usize, 100, 1000, 10_000] {
        // spread the small set across the whole id range (as real
        // adjacency lists are), so the linear merge cannot early-exit
        let stride = (100_000 / small_len) as u32;
        let small: Vec<u32> = (0..small_len as u32).map(|i| i * stride + 1).collect();
        group.bench_with_input(BenchmarkId::new("linear", small_len), &small, |b, small| {
            b.iter(|| intersect_visit(black_box(small), black_box(&large), |_| {}))
        });
        group.bench_with_input(BenchmarkId::new("gallop", small_len), &small, |b, small| {
            b.iter(|| intersect_gallop_visit(black_box(small), black_box(&large), |_| {}))
        });
        // The same sweep with the SIMD tier forced off: `GALLOP_RATIO`
        // must be justified at *every* `PDTL_SIMD` level, since the
        // ratio boundaries are shared across levels (that sharing is
        // what keeps `cpu_ops` level-invariant).
        group.bench_with_input(
            BenchmarkId::new("linear_scalar", small_len),
            &small,
            |b, small| {
                b.iter(|| {
                    intersect_visit_counted_with(
                        SimdLevel::Off,
                        black_box(small),
                        black_box(&large),
                        |_| {},
                    )
                    .0
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("gallop_scalar", small_len),
            &small,
            |b, small| {
                b.iter(|| {
                    intersect_gallop_visit_counted_with(
                        SimdLevel::Off,
                        black_box(small),
                        black_box(&large),
                        |_| {},
                    )
                    .0
                })
            },
        );
    }
    // The three kernel-bench shapes, so `GALLOP_RATIO` (and the
    // linear merge's own interleaved/advance dispatch) is justified by
    // data on the exact inputs the perf snapshot tracks: ratios 1, 100
    // and 10⁴.
    for &(a_len, b_len) in &pdtl_bench::kernelbench::workload::INTERSECT_PAIRS {
        let (a, b) = pdtl_bench::kernelbench::workload::intersect_inputs(a_len, b_len);
        let shape = format!("shape_{a_len}x{b_len}");
        group.bench_with_input(
            BenchmarkId::new("linear", &shape),
            &(&a, &b),
            |be, (a, b)| be.iter(|| intersect_visit(black_box(a), black_box(b), |_| {})),
        );
        group.bench_with_input(
            BenchmarkId::new("gallop", &shape),
            &(&a, &b),
            |be, (a, b)| be.iter(|| intersect_gallop_visit(black_box(a), black_box(b), |_| {})),
        );
    }
    group.finish();
}

fn bench_scan_pruning(c: &mut Criterion) {
    // Multi-pass regime (budget far below |E*|): pruning caps each
    // chunk's scan at vhigh and seeks past non-overlapping out-lists.
    let g = rmat(10, 13).unwrap();
    let dir = std::env::temp_dir().join(format!("pdtl-ablate-prune-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let stats = IoStats::new();
    let input = DiskGraph::write(&g, dir.join("g"), &stats).unwrap();
    let (og, _) = orient_to_disk(&input, dir.join("oriented"), 2, &stats).unwrap();
    let o = orient_csr(&g);
    let budget = MemoryBudget::edges(512);
    let full = EdgeRange {
        start: 0,
        end: og.m_star(),
    };

    let mut group = c.benchmark_group("scan_pruning");
    for (name, prune) in [("pruned", true), ("full_scan", false)] {
        let opts = MgtOptions {
            scan_pruning: prune,
            ..MgtOptions::default()
        };
        group.bench_function(format!("disk/{name}"), |b| {
            b.iter(|| {
                mgt_count_range_opt(
                    black_box(&og),
                    full,
                    budget,
                    &mut CountSink,
                    IoStats::new(),
                    opts,
                )
                .unwrap()
                .triangles
            })
        });
        group.bench_function(format!("in_memory/{name}"), |b| {
            b.iter(|| {
                let (t, _) = mgt_in_memory_opt(black_box(&o), budget, &mut CountSink, opts);
                t
            })
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_io_backend(c: &mut Criterion) {
    // Multi-pass regime again: with the budget far below |E*| the
    // engine re-scans the graph once per chunk, which is exactly where
    // the I/O backend choice matters — uring hides device waits behind
    // kernel queues, mmap removes the read(2) copies entirely on a warm
    // page cache.
    let g = rmat(10, 13).unwrap();
    let dir = std::env::temp_dir().join(format!("pdtl-ablate-backend-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let stats = IoStats::new();
    let input = DiskGraph::write(&g, dir.join("g"), &stats).unwrap();
    let (og, _) = orient_to_disk(&input, dir.join("oriented"), 2, &stats).unwrap();
    let budget = MemoryBudget::edges(512);
    let full = EdgeRange {
        start: 0,
        end: og.m_star(),
    };

    let mut group = c.benchmark_group("io_backend");
    for backend in pdtl_io::IoBackend::ALL {
        let opts = MgtOptions {
            backend,
            ..MgtOptions::default()
        };
        group.bench_function(backend.name(), |b| {
            b.iter(|| {
                mgt_count_range_opt(
                    black_box(&og),
                    full,
                    budget,
                    &mut CountSink,
                    IoStats::new(),
                    opts,
                )
                .unwrap()
                .triangles
            })
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_arrays_vs_sets,
    bench_balance_struggler,
    bench_gallop_crossover,
    bench_scan_pruning,
    bench_io_backend
);
criterion_main!(benches);
