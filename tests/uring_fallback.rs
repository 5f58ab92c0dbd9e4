//! Engine-level graceful degradation of the `io_uring` backend.
//!
//! A worker configured with `IoBackend::Uring` on a host whose kernel
//! gates `io_uring` off must fall back to the blocking backend *without
//! miscounting anything*: same triangles, same `bytes_read`, same
//! `seeks`, same `read_ops` as an explicit blocking run. This binary
//! runs in its own process with the `PDTL_URING_DISABLE` kill-switch
//! set, which is the same code path a kernel without the syscalls
//! takes.

use pdtl::core::mgt::{mgt_count_range_opt, MgtOptions};
use pdtl::core::orient::orient_to_disk;
use pdtl::core::sink::CountSink;
use pdtl::core::{count_triangles_with, EdgeRange, LocalConfig};
use pdtl::graph::gen::rmat::rmat;
use pdtl::graph::verify::triangle_count;
use pdtl::graph::DiskGraph;
use pdtl::io::{IoBackend, IoStats, MemoryBudget, URING_DISABLE_ENV};
use std::path::PathBuf;

fn disable_uring() {
    std::env::set_var(URING_DISABLE_ENV, "1");
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("pdtl-uring-fallback-engine")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn engine_falls_back_without_miscounting() {
    disable_uring();
    let g = rmat(8, 31).unwrap();
    let expected = triangle_count(&g);

    let stats = IoStats::new();
    let input = DiskGraph::write(&g, tmpdir("fb").join("g"), &stats).unwrap();
    let (og, _) = orient_to_disk(&input, tmpdir("fb").join("oriented"), 2, &stats).unwrap();
    let full = EdgeRange {
        start: 0,
        end: og.m_star(),
    };

    let run = |backend: IoBackend| {
        let s = IoStats::new();
        let r = mgt_count_range_opt(
            &og,
            full,
            MemoryBudget::edges(512),
            &mut CountSink,
            s,
            MgtOptions {
                backend,
                ..MgtOptions::default()
            },
        )
        .unwrap();
        (r.triangles, r.io.bytes_read, r.io.seeks, r.io.read_ops)
    };

    // With uring disabled, a Uring-configured worker runs the blocking
    // path — identical counts *and* identical I/O accounting.
    assert_eq!(IoBackend::Uring.resolve(), IoBackend::Blocking);
    let uring = run(IoBackend::Uring);
    let blocking = run(IoBackend::Blocking);
    assert_eq!(uring.0, expected, "fallback run matches the oracle");
    assert_eq!(uring, blocking, "fallback accounts exactly like blocking");
}

#[test]
fn full_pipeline_accepts_uring_config_on_a_gated_host() {
    // What a production deployment sees: the config names uring
    // everywhere (CLI flag, wire bytes), some hosts cannot serve it,
    // and the count is still exact.
    disable_uring();
    let g = rmat(7, 32).unwrap();
    let report = count_triangles_with(
        &g,
        LocalConfig {
            cores: 3,
            budget: MemoryBudget::edges(256),
            mgt: MgtOptions {
                backend: IoBackend::Uring,
                ..MgtOptions::default()
            },
            ..LocalConfig::default()
        },
    )
    .unwrap();
    assert_eq!(report.triangles, triangle_count(&g));
}
