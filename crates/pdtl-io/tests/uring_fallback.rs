//! Graceful degradation of the `io_uring` backend.
//!
//! On a kernel without `io_uring` (pre-5.6, seccomp-filtered, or
//! `io_uring_disabled=2`) the backend must not take the process down:
//! [`UringSource::open`] reports a clean `Unsupported` error and
//! `IoBackend::Uring.resolve()` degrades to the blocking backend. The
//! `PDTL_URING_DISABLE` kill-switch forces that exact path, which this
//! binary (its own process, so the env var cannot leak into parallel
//! uring tests) exercises end to end.

use pdtl_io::{IoBackend, IoStats, U32Writer, UringSource, URING_DISABLE_ENV};

fn disable_uring() {
    // Safe to call repeatedly; each test sets it before first use so
    // test order cannot matter.
    std::env::set_var(URING_DISABLE_ENV, "1");
}

#[test]
fn disabled_uring_reports_unsupported() {
    disable_uring();
    assert!(!pdtl_io::uring_supported());

    let dir = std::env::temp_dir().join("pdtl-uring-fallback");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("f-{}", std::process::id()));
    let mut w = U32Writer::create(&path, IoStats::new()).unwrap();
    w.write_all(&[1, 2, 3, 4]).unwrap();
    w.finish().unwrap();

    let err = UringSource::open(&path, IoStats::new()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("io_uring"), "error names the backend: {msg}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn disabled_uring_resolves_to_blocking() {
    disable_uring();
    assert_eq!(IoBackend::Uring.resolve(), IoBackend::Blocking);
    // The other backends are unaffected by the kill-switch.
    assert_eq!(IoBackend::Blocking.resolve(), IoBackend::Blocking);
    let mmap = IoBackend::Mmap.resolve();
    assert_eq!(mmap == IoBackend::Mmap, pdtl_io::mmap_supported());
}

#[test]
fn disabled_uring_still_parses_and_names() {
    // The selector is plumbing, not capability: configs and wire bytes
    // naming uring stay valid on hosts that cannot serve it.
    disable_uring();
    assert_eq!(IoBackend::parse("uring"), Some(IoBackend::Uring));
    assert_eq!(IoBackend::parse("io_uring"), Some(IoBackend::Uring));
    assert_eq!(IoBackend::Uring.name(), "uring");
}
