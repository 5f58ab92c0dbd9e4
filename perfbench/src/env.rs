//! The run's environment: refused overrides, recorded settings, memory.

use pdtl_core::intersect::{simd_level, SIMD_ENV};
use pdtl_core::MgtOptions;
use pdtl_io::{BACKEND_ENV, CODEC_ENV, DISK_FAULT_ENV, URING_DISABLE_ENV};

/// Variables the program's `Default` impls read. Any of them would
/// silently change what a workload measures, so the benchmark refuses
/// to start while one is set.
pub const OVERRIDES: [&str; 6] = [
    BACKEND_ENV,
    CODEC_ENV,
    SIMD_ENV,
    pdtl_cluster::FAULT_ENV,
    DISK_FAULT_ENV,
    URING_DISABLE_ENV,
];

/// `Err` naming every override that is set.
pub fn refuse_overrides() -> Result<(), String> {
    let set: Vec<&str> = OVERRIDES
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with program overrides set: {} (unset them; each workload names its codec and takes the program's defaults otherwise)",
            set.join(", ")
        ))
    }
}

/// Logical processors available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The settings a result depends on, as `(key, value)` pairs.
pub fn record(codec: &str) -> Vec<(&'static str, String)> {
    vec![
        (
            "backend",
            MgtOptions::default().backend.resolve().to_string(),
        ),
        ("simd", simd_level().to_string()),
        ("codec", codec.to_string()),
        ("nproc", nproc().to_string()),
        (
            "reads",
            "warm page cache (inputs written during set-up), not a device".into(),
        ),
        ("io_latency", "0 (emulation off)".into()),
    ]
}

/// Peak resident set size (`VmHWM`) of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// Reset `VmHWM` to the current RSS, so the peak covers only what runs
/// afterwards (the measured ops, not input generation). Returns whether
/// the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}
