//! `serve-closed`: the resident daemon under two closed-loop clients.
//!
//! Set-up writes the input into a catalog directory, opens it with
//! `Catalog::open` (both codecs) and starts `Server::spawn` with two
//! workers. Each client then cycles count-raw, count-varint, list and
//! clustering through `ServeClient::query`, sending its next query only
//! when the previous answer arrived; every answer is checked against
//! the oracle. A query's latency is timed on the client around the call.
//!
//! The traced run also executes the same four ops in-process on the
//! benchmark's own oriented copies once the window closes, so that
//! client latency splits into execution and the daemon's overhead
//! (wire, admission, queueing).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use pdtl_analytics::clustering::{global_clustering, transitivity};
use pdtl_cluster::{
    Catalog, QueryOperation, QueryOptions, QueryReply, ServeClient, ServeConfig, Server,
    ServerStats,
};
use pdtl_core::orient::orient_to_disk_with;
use pdtl_core::{
    BalanceStrategy, CollectSink, CountSink, LocalConfig, LocalRunner, MgtOptions, OrientedGraph,
};
use pdtl_graph::DiskGraph;
use pdtl_io::{Codec, IoStats, MemoryBudget};

use crate::env;
use crate::metrics::Outcome;
use crate::oracle::{check_count, check_listing, check_value, oracle, Oracle};
use crate::stats::{median, percentile, samples_beyond, MIN_BEYOND};
use crate::trace::Trace;
use crate::workload::{
    err, finish_ops, ms, ops_begin, setup, write_input, Config, Input, Layers, Scale,
};

/// Daemon worker pool size.
pub const WORKERS: usize = 2;
/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
/// Cores per query.
const QUERY_CORES: u32 = 1;
/// Per-query budget in edges.
const BUDGET_EDGES: u64 = 1 << 16;
/// In-process executions of each op in the traced run.
const EXEC_REPS: usize = 5;
/// The catalog name the input is served under.
const GRAPH: &str = "g";
const CODECS: [Codec; 2] = [Codec::Raw, Codec::DeltaVarint];

/// The four ops a client cycles through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    CountRaw,
    CountVarint,
    List,
    Clustering,
}

const OPS: [Op; 4] = [Op::CountRaw, Op::CountVarint, Op::List, Op::Clustering];

impl Op {
    fn operation(self) -> QueryOperation {
        match self {
            Op::CountRaw | Op::CountVarint => QueryOperation::Count,
            Op::List => QueryOperation::List { limit: 0 },
            Op::Clustering => QueryOperation::Clustering,
        }
    }

    fn codec(self) -> Codec {
        match self {
            Op::CountVarint => Codec::DeltaVarint,
            _ => Codec::Raw,
        }
    }

    fn options(self) -> QueryOptions {
        QueryOptions {
            cores: QUERY_CORES,
            budget_edges: BUDGET_EDGES,
            codec: self.codec(),
            ..QueryOptions::default()
        }
    }

    /// `(client latency, in-process exec, overhead)` metric names.
    fn metrics(self) -> [&'static str; 3] {
        match self {
            Op::CountRaw => [
                "server.count_raw_p50_ms",
                "server.exec_count_raw_p50_ms",
                "server.overhead_count_raw_ms",
            ],
            Op::CountVarint => [
                "server.count_varint_p50_ms",
                "server.exec_count_varint_p50_ms",
                "server.overhead_count_varint_ms",
            ],
            Op::List => [
                "server.list_p50_ms",
                "server.exec_list_p50_ms",
                "server.overhead_list_ms",
            ],
            Op::Clustering => [
                "server.clustering_p50_ms",
                "server.exec_clustering_p50_ms",
                "server.overhead_clustering_ms",
            ],
        }
    }

    fn span(self) -> &'static str {
        match self {
            Op::CountRaw => "query.count_raw",
            Op::CountVarint => "query.count_varint",
            Op::List => "query.list",
            Op::Clustering => "query.clustering",
        }
    }

    fn exec_span(self) -> &'static str {
        match self {
            Op::CountRaw => "exec.count_raw",
            Op::CountVarint => "exec.count_varint",
            Op::List => "exec.list",
            Op::Clustering => "exec.clustering",
        }
    }

    /// Check an answer: `(triangles, value, aux)` as the daemon encodes
    /// them for this op.
    fn check(self, triangles: u64, value: f64, aux: u64, o: &Oracle) -> Result<(), String> {
        check_count(self.span(), triangles, o.triangles)?;
        match self {
            Op::List => check_count("query.list (listed)", aux, o.triangles),
            Op::Clustering => {
                check_value("global clustering", value, o.global_clustering)?;
                check_value("transitivity", f64::from_bits(aux), o.transitivity)
            }
            Op::CountRaw | Op::CountVarint => Ok(()),
        }
    }

    fn check_reply(self, r: &QueryReply, o: &Oracle) -> Result<(), String> {
        self.check(r.triangles, r.value_f64(), r.aux, o)
    }
}

fn input(scale: Scale) -> Input {
    match scale {
        Scale::Full => Input::Rmat(14),
        Scale::Tiny => Input::Rmat(8),
    }
}

/// One answered (or failed) query.
struct Sample {
    op: Op,
    id: u64,
    start: Instant,
    end: Instant,
    traced: bool,
    check: Result<(), String>,
}

/// Run `serve-closed`.
pub fn run(cfg: &Config, trace: &mut Trace) -> Result<Outcome, String> {
    let input = input(cfg.scale);
    let mut out = Outcome {
        env: env::record("raw + delta-varint"),
        ..Outcome::default()
    };
    out.env.push(("clients", format!("{CLIENTS} closed-loop")));
    let mut layers = Layers::default();
    let dir = cfg.run_dir();
    let cat_dir = dir.join("catalog");
    let (server, g) = setup(&mut out, |rep| {
        let g = write_input(cfg, input, &cat_dir.join(GRAPH), &mut layers)?;
        // Each catalog owns (and removes on drop) its own scratch
        // directory; the previous set-up's server is still alive here.
        let t = Instant::now();
        let catalog = Catalog::open(
            &cat_dir,
            &dir.join(format!("oriented{rep}")),
            &CODECS,
            WORKERS,
        )
        .map_err(err)?;
        layers.push("server.open_ms", ms(t.elapsed()));
        if let Some((name, why)) = catalog.rejected().first() {
            return Err(format!("catalog rejected {name}: {why}"));
        }
        let t = Instant::now();
        let server = Server::spawn(
            catalog,
            ServeConfig {
                workers: WORKERS,
                default_cores: QUERY_CORES as usize,
                codecs: CODECS.to_vec(),
                orient_threads: WORKERS,
                ..ServeConfig::default()
            },
        )
        .map_err(err)?;
        layers.push("server.spawn_ms", ms(t.elapsed()));
        Ok((server, g))
    })?;
    let truth = oracle(&g, &input.name(), cfg.seed, true, &cfg.cache_dir());
    drop(g);
    let addr = server.addr();
    let before = if cfg.trace { Some(stats(&addr)?) } else { None };

    ops_begin(&mut out);
    // Warm-up: one query of each op from a single client.
    match ServeClient::connect(&addr) {
        Ok(mut c) => {
            for op in OPS {
                out.check(
                    c.query(GRAPH, op.operation(), op.options())
                        .map_err(err)
                        .and_then(|r| op.check_reply(&r, &truth)),
                );
            }
        }
        Err(e) => {
            out.check(Err(err(e)));
        }
    }
    let (samples, window) = closed_loop(cfg, &addr, &truth);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut by_op: Vec<Vec<f64>> = vec![Vec::new(); OPS.len()];
    for s in &samples {
        let wall = ms(s.end - s.start);
        by_op[OPS.iter().position(|&o| o == s.op).expect("op is in OPS")].push(wall);
        if s.traced {
            trace.record(s.op.span(), s.id, None, s.start, s.end);
            traced.push(wall);
        } else {
            plain.push(wall);
        }
    }
    finish_ops(cfg, &mut out, &plain, &traced, window);
    for s in samples {
        out.check(s.check);
    }

    if let Some(before) = before {
        let after = stats(&addr)?;
        layers.push("server.admitted_peak", after.admitted_peak as f64);
        layers.push(
            "server.read_mb",
            (after.bytes_read - before.bytes_read) as f64 / 1e6,
        );
        layers.push(
            "server.decoded_mu32",
            (after.u32s_decoded - before.u32s_decoded) as f64 / 1e6,
        );
        layers.push("server.failed", (after.failed - before.failed) as f64);
    }
    drop(server.shutdown());
    if cfg.trace {
        let all: Vec<f64> = plain.iter().chain(&traced).copied().collect();
        out.set("server.op_p90_ms", percentile(&all, 900).unwrap_or(0.0));
        if samples_beyond(all.len(), 900) < MIN_BEYOND {
            out.notes.push(format!(
                "server.op_p90_ms rests on {} queries, fewer than {MIN_BEYOND} beyond p90",
                all.len()
            ));
        }
        exec(
            cfg,
            trace,
            &mut out,
            &mut layers,
            &cat_dir.join(GRAPH),
            &truth,
        )?;
        for (op, latencies) in OPS.into_iter().zip(&by_op) {
            let [latency, exec, overhead] = op.metrics();
            let p50 = median(latencies).unwrap_or(0.0);
            out.set(latency, p50);
            if let Some(&e) = out.values.get(exec) {
                out.set(overhead, p50 - e);
            }
        }
    }
    layers.finish(&mut out);
    Ok(out)
}

/// A stats snapshot over a fresh connection.
fn stats(addr: &str) -> Result<ServerStats, String> {
    ServeClient::connect(addr)
        .and_then(|mut c| c.stats())
        .map_err(err)
}

/// Drive the daemon from [`CLIENTS`] closed-loop clients for the
/// window. Returns every query and the time from the start to the last
/// answer.
fn closed_loop(cfg: &Config, addr: &str, truth: &Oracle) -> (Vec<Sample>, Duration) {
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut client = match ServeClient::connect(addr) {
                        Ok(client) => client,
                        Err(e) => {
                            let now = Instant::now();
                            samples.push(Sample {
                                op: Op::CountRaw,
                                id: c as u64,
                                start: now,
                                end: now,
                                traced: false,
                                check: Err(err(e)),
                            });
                            return samples;
                        }
                    };
                    // Every client sends the same op sequence, so the two
                    // workers run a pair of identical queries each cycle:
                    // the pairing, and with it the peak memory, repeats
                    // from cycle to cycle instead of drifting with phase.
                    let mut k = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let op = OPS[k as usize % OPS.len()];
                        let t = Instant::now();
                        let reply = client.query(GRAPH, op.operation(), op.options());
                        let end = Instant::now();
                        samples.push(Sample {
                            op,
                            id: k * CLIENTS as u64 + c as u64,
                            start: t,
                            end,
                            traced: cfg.trace && k % 2 == 1,
                            check: reply.map_err(err).and_then(|r| op.check_reply(&r, truth)),
                        });
                        k += 1;
                    }
                    samples
                })
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(cfg.seconds));
        stop.store(true, Ordering::Relaxed);
        clients
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });
    samples.sort_by_key(|s| s.id);
    let last = samples.iter().map(|s| s.end).max().unwrap_or(start);
    (samples, last - start)
}

/// The traced run's in-process half: open, verify and orient the
/// benchmark's own copy of the catalog input (what `Catalog::open` pays
/// in set-up), then run each op [`EXEC_REPS`] times through the same
/// public calls the daemon makes.
fn exec(
    cfg: &Config,
    trace: &mut Trace,
    out: &mut Outcome,
    layers: &mut Layers,
    base: &Path,
    truth: &Oracle,
) -> Result<(), String> {
    let stats = IoStats::new();
    let (input, open) = trace.time("graph.open", 0, None, || DiskGraph::open(base, &stats));
    let input = input.map_err(err)?;
    let (verified, verify) = trace.time("graph.verify", 0, None, || input.verify_full());
    let verified = verified.map_err(err)?;
    layers.push("graph.open_ms", ms(open));
    layers.push("graph.verify_ms", ms(verify));
    layers.push(
        "graph.verify_mb",
        verified.map_or(0.0, |r| r.bytes as f64 / 1e6),
    );
    let mut oriented: Vec<(Codec, OrientedGraph)> = Vec::new();
    let (mut orient_ms, mut read, mut written, mut cpu) = (0.0, 0u64, 0u64, 0u64);
    let out_dir: PathBuf = cfg.run_dir().join("exec");
    std::fs::create_dir_all(&out_dir).map_err(err)?;
    for codec in CODECS {
        let (r, d) = trace.time("orient", 0, None, || {
            orient_to_disk_with(&input, out_dir.join(codec.name()), WORKERS, codec, &stats)
        });
        let (og, phase) = r.map_err(err)?;
        orient_ms += ms(d);
        read += phase.io.bytes_read;
        written += phase.io.bytes_written;
        cpu += phase.cpu_ops;
        oriented.push((codec, og));
    }
    layers.push("orient.ms", orient_ms);
    layers.push("orient.read_mb", read as f64 / 1e6);
    layers.push("orient.written_mb", written as f64 / 1e6);
    layers.push("orient.cpu_ops", cpu as f64);

    let mut exec_ms: Vec<Vec<f64>> = vec![Vec::new(); OPS.len()];
    for rep in 0..EXEC_REPS {
        for (i, op) in OPS.into_iter().enumerate() {
            let og = &oriented
                .iter()
                .find(|(c, _)| *c == op.codec())
                .expect("every op's codec is oriented")
                .1;
            let runner = LocalRunner::new(LocalConfig {
                cores: QUERY_CORES as usize,
                budget: MemoryBudget::edges(BUDGET_EDGES as usize),
                balance: BalanceStrategy::InDegree,
                mgt: MgtOptions {
                    codec: op.codec(),
                    ..MgtOptions::default()
                },
            })
            .map_err(err)?;
            let id = (rep * OPS.len() + i) as u64;
            // The daemon's answer for this op, as (triangles, value, aux),
            // plus the listed triples for the listing check after timing.
            type Answer = (u64, f64, u64, Vec<(u32, u32, u32)>);
            let (answer, d) = trace.time(op.exec_span(), id, None, || -> Result<Answer, String> {
                if matches!(op, Op::CountRaw | Op::CountVarint) {
                    let (r, _) = runner
                        .run_oriented_with_sinks(og, || CountSink)
                        .map_err(err)?;
                    return Ok((r.triangles, 0.0, 0, Vec::new()));
                }
                let (r, sinks) = runner
                    .run_oriented_with_sinks(og, CollectSink::default)
                    .map_err(err)?;
                let triples: Vec<_> = sinks.into_iter().flat_map(|s| s.triangles).collect();
                if op == Op::List {
                    return Ok((r.triangles, 0.0, triples.len() as u64, triples));
                }
                let g = input.load_csr(&stats).map_err(err)?;
                let value = global_clustering(&g, &triples);
                Ok((
                    r.triangles,
                    value,
                    transitivity(&g, r.triangles).to_bits(),
                    Vec::new(),
                ))
            });
            out.check(answer.and_then(|(t, v, aux, triples)| {
                op.check(t, v, aux, truth)?;
                if op == Op::List {
                    check_listing(&triples, truth)?;
                }
                Ok(())
            }));
            exec_ms[i].push(ms(d));
        }
    }
    for (i, op) in OPS.into_iter().enumerate() {
        let [_, exec_name, _] = op.metrics();
        out.set(exec_name, median(&exec_ms[i]).unwrap_or(0.0));
    }
    Ok(())
}
