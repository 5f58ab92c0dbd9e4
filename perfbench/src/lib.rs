//! End-to-end benchmark of the PDTL workspace.
//!
//! Four named workloads drive the program only through its public entry
//! points (`LocalRunner::run`, `ClusterRunner::run`, `Catalog::open` +
//! `Server::spawn` + `ServeClient::query`), check every answer against
//! the brute-force oracle, and report the end-to-end metrics of
//! [`metrics::END_TO_END`]. A separate traced run (`--trace 1`) times
//! calls into each layer's public functions from outside, records spans
//! in memory, and reports the per-layer metrics of
//! [`metrics::PER_LAYER`].
//!
//! Modules:
//! * [`workload`] — the workload table, graph inputs, set-up and the
//!   batch measurement loop shared by the batch workloads;
//! * [`count`], [`cluster`], [`serve`] — one module per entry point;
//! * [`oracle`] — brute-force answers, cached per input;
//! * [`trace`] — span recording and self time;
//! * [`stats`] — order statistics and the tail-percentile rule;
//! * [`env`] — environment refusal and recording, peak RSS;
//! * [`metrics`] — the metric catalog and the result line.

pub mod cluster;
pub mod count;
pub mod env;
pub mod metrics;
pub mod oracle;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;

pub use metrics::Outcome;
pub use workload::{run, Config, Scale, Workload};
