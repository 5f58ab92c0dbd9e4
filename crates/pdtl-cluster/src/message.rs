//! The wire protocol between master and nodes.
//!
//! Messages use a compact hand-rolled little-endian binary encoding (tag
//! byte + fields) so their exact byte sizes are meaningful for the
//! network accounting: the `Θ(NP)` configuration term and the `Θ(T)`
//! listing term of Theorem IV.3 are measured from these encodings.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use pdtl_io::{Codec, IoBackend};

use crate::error::{ClusterError, Result};

/// One logical processor's configuration `C_{i,j}` (Figure 1): its
/// memory budget, pivot-edge range and MGT engine flags.
///
/// **Wire format.** Worker records are *length-prefixed*: each record
/// is a `u16` byte length followed by that many bytes, of which the
/// first [`WIRE_LEN`](Self::WIRE_LEN) are the fields below in order;
/// decoders skip any trailing bytes they do not understand, so the next
/// engine option extends the record without breaking older decoders (or
/// this one — see the forward-compat test). PR 3-era `Config` messages
/// (fixed 29-byte records under the original tag) still decode: the I/O
/// backend lives in bits 1–2 of the flags byte, and the old `overlap_io`
/// bit (discriminant 1, now retired) decodes as `Blocking`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerConfig {
    /// Range start (oriented adjacency position).
    pub start: u64,
    /// Range end (exclusive).
    pub end: u64,
    /// Memory budget in edges.
    pub budget_edges: u64,
    /// Enable the rank-space scan pruning (bound skips + `vhigh` cap).
    pub scan_pruning: bool,
    /// Which I/O backend the worker's MGT engine streams through.
    pub backend: IoBackend,
    /// Emulated per-block device latency in microseconds (0 = real
    /// hardware) — see `MgtOptions::io_latency`.
    pub io_latency_us: u32,
    /// Injected read fault: deliver this many `u32`s through the scan
    /// source, then fail (`MgtOptions::read_fault`). Rides the
    /// length-prefixed record tail — the flags byte is full (bits 1–2
    /// hold the backend), and PR 5-era decoders skip the tail — and is
    /// only encoded when set, so fault-free records stay byte-identical
    /// to PR 5's.
    pub read_fault: Option<u64>,
    /// On-disk codec the worker's node writes its oriented replica in
    /// (`MgtOptions::codec`). Rides the record tail *after* the fault
    /// tail — tail fields are positional, so the fault tail is emitted
    /// (presence byte 0) whenever the codec needs encoding — and is
    /// only encoded when not [`Codec::Raw`], keeping default records
    /// byte-identical to PR 5's and fault-only records to PR 7's.
    /// Unknown discriminants from newer encoders decode as `Raw`.
    pub codec: Codec,
}

/// Wire flag bits of [`WorkerConfig`].
const FLAG_SCAN_PRUNING: u8 = 1;
/// Bits 1–2 of the flags byte: the [`IoBackend`] discriminant
/// (`0 = Blocking`, `2 = Mmap`, `3 = Uring`; `1` is retired). PR 3
/// used bit 1 as a bare `overlap_io` flag, later the thread-based
/// overlapping backend; both decode as `Blocking` now. Backends differ
/// only in scheduling, never in counts, so an old peer's overlap
/// request still gets exact answers. PR 4 reserved discriminant 3,
/// which its decoders degrade to the default backend, so an old node
/// handed a `Uring` config still runs. Growing the field would
/// reinterpret old flag bytes: a new backend must claim discriminant 1
/// or a fresh field in the length-prefixed record tail (which old
/// decoders skip).
const BACKEND_SHIFT: u8 = 1;
const BACKEND_MASK: u8 = 0b110;

/// `backend` packed into bits 1–2 of a flags byte.
fn backend_bits(backend: IoBackend) -> u8 {
    let discriminant = match backend {
        IoBackend::Blocking => 0u8,
        IoBackend::Mmap => 2,
        IoBackend::Uring => 3,
    };
    discriminant << BACKEND_SHIFT
}

/// The backend in bits 1–2 of a flags byte. Platforms that cannot serve
/// it degrade at `IoBackend::resolve` time in the engine, never here.
fn backend_from_bits(flags: u8) -> IoBackend {
    match (flags & BACKEND_MASK) >> BACKEND_SHIFT {
        2 => IoBackend::Mmap,
        3 => IoBackend::Uring,
        // 0, and the retired overlap discriminant 1.
        _ => IoBackend::Blocking,
    }
}

impl WorkerConfig {
    /// Known record bytes: `start` + `end` + `budget_edges` (u64 each),
    /// flags (u8), `io_latency_us` (u32). Newer encoders may append
    /// fields after these; the length prefix tells decoders how much
    /// to skip.
    pub const WIRE_LEN: usize = 8 + 8 + 8 + 1 + 4;

    /// Record tail bytes appended when `read_fault` is set: a presence
    /// byte plus the `u64` budget.
    const FAULT_TAIL_LEN: usize = 1 + 8;

    /// Record tail bytes appended after the fault tail when the codec
    /// is not [`Codec::Raw`]: the codec discriminant.
    const CODEC_TAIL_LEN: usize = 1;

    /// Pack the engine flags into the wire byte.
    fn flags(&self) -> u8 {
        u8::from(self.scan_pruning) * FLAG_SCAN_PRUNING + backend_bits(self.backend)
    }

    /// Encode one length-prefixed record. Tail fields are positional
    /// and appended only as far as needed: nothing for a fault-free
    /// `Raw` record (byte-identical to PR 5), the fault tail alone for
    /// a fault-bearing `Raw` record (byte-identical to PR 7), and the
    /// fault tail (presence byte 0 when no fault) followed by the
    /// codec byte for a non-raw codec.
    fn encode_record(&self, b: &mut BytesMut) {
        let codec_tail = self.codec != Codec::Raw;
        let fault_tail = self.read_fault.is_some() || codec_tail;
        let len = Self::WIRE_LEN
            + if fault_tail { Self::FAULT_TAIL_LEN } else { 0 }
            + if codec_tail { Self::CODEC_TAIL_LEN } else { 0 };
        b.put_u16_le(len as u16);
        b.put_u64_le(self.start);
        b.put_u64_le(self.end);
        b.put_u64_le(self.budget_edges);
        b.put_u8(self.flags());
        b.put_u32_le(self.io_latency_us);
        if fault_tail {
            b.put_u8(u8::from(self.read_fault.is_some()));
            b.put_u64_le(self.read_fault.unwrap_or(0));
        }
        if codec_tail {
            b.put_u8(self.codec.discriminant());
        }
    }

    /// Decode the fixed known fields shared by both wire generations.
    fn decode_fields(buf: &mut Bytes) -> Self {
        let (start, end, budget_edges) = (buf.get_u64_le(), buf.get_u64_le(), buf.get_u64_le());
        let flags = buf.get_u8();
        WorkerConfig {
            start,
            end,
            budget_edges,
            scan_pruning: flags & FLAG_SCAN_PRUNING != 0,
            backend: backend_from_bits(flags),
            io_latency_us: buf.get_u32_le(),
            read_fault: None,
            codec: Codec::Raw,
        }
    }

    /// Decode one length-prefixed record, skipping any trailing bytes a
    /// newer encoder may have appended (forward compatibility).
    fn decode_record(buf: &mut Bytes) -> Result<Self> {
        need(buf, 2)?;
        let len = buf.get_u16_le() as usize;
        need(buf, len)?;
        if len < Self::WIRE_LEN {
            return Err(ClusterError::Protocol(format!(
                "worker record of {len} bytes, need at least {}",
                Self::WIRE_LEN
            )));
        }
        let mut cfg = Self::decode_fields(buf);
        let mut rest = len - Self::WIRE_LEN;
        if rest >= Self::FAULT_TAIL_LEN {
            let present = buf.get_u8() != 0;
            let budget = buf.get_u64_le();
            cfg.read_fault = present.then_some(budget);
            rest -= Self::FAULT_TAIL_LEN;
        }
        if rest >= Self::CODEC_TAIL_LEN {
            // Unknown discriminants (a newer master's codec) degrade to
            // Raw: the node still writes a replica every engine reads.
            cfg.codec = Codec::from_discriminant(buf.get_u8()).unwrap_or(Codec::Raw);
            rest -= Self::CODEC_TAIL_LEN;
        }
        buf.advance(rest);
        Ok(cfg)
    }
}

/// A node-level fault directive injected by the master's
/// [`FaultPlan`](crate::FaultPlan), executed by `serve_node` when the
/// config arrives. On the wire it is a kind byte plus a `u32` argument
/// inside the Config message's length-prefixed directives tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeFault {
    /// No injected fault.
    #[default]
    None,
    /// Panic the node thread (a crashed process).
    Panic,
    /// Return from the serve loop, dropping the connection.
    Drop,
    /// Accept the config and go silent: no heartbeats, no results (a
    /// wedged process). The node still honors `Shutdown`.
    Stall,
    /// Sleep this many milliseconds before starting work, while
    /// heartbeats keep flowing (a slow node, not a dead one).
    Delay(u32),
}

impl NodeFault {
    fn wire_kind(self) -> (u8, u32) {
        match self {
            NodeFault::None => (0, 0),
            NodeFault::Panic => (1, 0),
            NodeFault::Drop => (2, 0),
            NodeFault::Stall => (3, 0),
            NodeFault::Delay(ms) => (4, ms),
        }
    }

    fn from_wire(kind: u8, arg: u32) -> Self {
        match kind {
            1 => NodeFault::Panic,
            2 => NodeFault::Drop,
            3 => NodeFault::Stall,
            4 => NodeFault::Delay(arg),
            // Unknown kinds (a newer master) degrade to no fault: a
            // node that cannot simulate a failure mode just works.
            _ => NodeFault::None,
        }
    }
}

/// Runtime directives for one node dispatch, carried in a
/// length-prefixed tail after the Config message's worker records
/// (which PR 5-era decoders ignore, and whose absence this decoder
/// defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeDirectives {
    /// Milliseconds between `Progress` heartbeats while workers run;
    /// `0` disables heartbeats (the PR 5 behaviour).
    pub heartbeat_ms: u32,
    /// Injected fault for this dispatch.
    pub fault: NodeFault,
}

impl NodeDirectives {
    /// Known tail bytes: heartbeat (u32), fault kind (u8) + arg (u32).
    const WIRE_LEN: usize = 4 + 1 + 4;

    fn encode_tail(&self, b: &mut BytesMut) {
        b.put_u16_le(Self::WIRE_LEN as u16);
        b.put_u32_le(self.heartbeat_ms);
        let (kind, arg) = self.fault.wire_kind();
        b.put_u8(kind);
        b.put_u32_le(arg);
    }

    /// Decode the directives tail if present; a PR 5-era Config ends at
    /// the worker records and yields the defaults.
    fn decode_tail(buf: &mut Bytes) -> Result<Self> {
        if buf.remaining() < 2 {
            return Ok(Self::default());
        }
        let len = buf.get_u16_le() as usize;
        need(buf, len)?;
        if len < Self::WIRE_LEN {
            // A shorter tail from some future pruned encoding: treat as
            // absent rather than misparse.
            buf.advance(len);
            return Ok(Self::default());
        }
        let heartbeat_ms = buf.get_u32_le();
        let kind = buf.get_u8();
        let arg = buf.get_u32_le();
        buf.advance(len - Self::WIRE_LEN);
        Ok(NodeDirectives {
            heartbeat_ms,
            fault: NodeFault::from_wire(kind, arg),
        })
    }
}

/// One worker's result summary sent back to the master.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Worker index within the node.
    pub worker: u32,
    /// Range start.
    pub start: u64,
    /// Range end.
    pub end: u64,
    /// Triangles found.
    pub triangles: u64,
    /// MGT chunk iterations.
    pub iterations: u64,
    /// Counted CPU operations.
    pub cpu_ops: u64,
    /// Bytes read from disk.
    pub bytes_read: u64,
    /// Bytes written to disk.
    pub bytes_written: u64,
    /// Disk seeks.
    pub seeks: u64,
    /// Read + write operations.
    pub io_ops: u64,
    /// Nanoseconds of I/O activity. Under the uring backend this runs
    /// concurrently with compute (device time, not stall time), so it
    /// may approach or exceed `wall_nanos`.
    pub io_nanos: u64,
    /// Worker wall time in nanoseconds.
    pub wall_nanos: u64,
}

/// The analytics operation a serve-mode [`Message::Query`] requests.
///
/// On the wire every operation is one fixed 17-byte record — kind byte,
/// `u32` arg `a`, `u64` arg `b`, `u32` arg `c` — so adding an operation
/// never changes message framing. Unused args encode as zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOperation {
    /// Exact triangle count (kind 0).
    Count,
    /// Exact listing; at most `limit` triples are returned in the
    /// response (the count is always exact) (kind 1, `a = limit`).
    List {
        /// Maximum triples echoed back in the response.
        limit: u32,
    },
    /// Clustering coefficients: the response carries the average local
    /// coefficient and the transitivity ratio (kind 2).
    Clustering,
    /// K-truss: the response carries the `k`-truss edge count and the
    /// maximum `k` of the decomposition (kind 3, `a = k`).
    KTruss {
        /// The truss order requested.
        k: u32,
    },
    /// DOULION estimate averaged over `trials` sparsifications (kind 4,
    /// `a = p_ppm`, `b = seed`, `c = trials`).
    Doulion {
        /// Edge-keep probability in parts per million (`1_000_000` = 1.0);
        /// an integer so the wire stays free of float encodings.
        p_ppm: u32,
        /// Base RNG seed; trial `t` uses `seed + t`.
        seed: u64,
        /// Number of independent estimates averaged.
        trials: u32,
    },
}

impl QueryOperation {
    /// Record bytes: kind + `a` + `b` + `c`.
    const WIRE_LEN: usize = 1 + 4 + 8 + 4;

    fn encode(&self, b: &mut BytesMut) {
        let (kind, a, bb, c) = match *self {
            QueryOperation::Count => (0u8, 0u32, 0u64, 0u32),
            QueryOperation::List { limit } => (1, limit, 0, 0),
            QueryOperation::Clustering => (2, 0, 0, 0),
            QueryOperation::KTruss { k } => (3, k, 0, 0),
            QueryOperation::Doulion {
                p_ppm,
                seed,
                trials,
            } => (4, p_ppm, seed, trials),
        };
        b.put_u8(kind);
        b.put_u32_le(a);
        b.put_u64_le(bb);
        b.put_u32_le(c);
    }

    fn decode(buf: &mut Bytes) -> Result<Self> {
        need(buf, Self::WIRE_LEN)?;
        let kind = buf.get_u8();
        let a = buf.get_u32_le();
        let b = buf.get_u64_le();
        let c = buf.get_u32_le();
        match kind {
            0 => Ok(QueryOperation::Count),
            1 => Ok(QueryOperation::List { limit: a }),
            2 => Ok(QueryOperation::Clustering),
            3 => Ok(QueryOperation::KTruss { k: a }),
            4 => Ok(QueryOperation::Doulion {
                p_ppm: a,
                seed: b,
                trials: c,
            }),
            k => Err(ClusterError::Protocol(format!(
                "unknown operation kind {k}"
            ))),
        }
    }

    /// Human-readable operation name (CLI/report output).
    pub fn name(&self) -> &'static str {
        match self {
            QueryOperation::Count => "count",
            QueryOperation::List { .. } => "list",
            QueryOperation::Clustering => "clustering",
            QueryOperation::KTruss { .. } => "ktruss",
            QueryOperation::Doulion { .. } => "doulion",
        }
    }
}

/// Per-query engine knobs carried by [`Message::Query`] — the serve-mode
/// analogue of a [`WorkerConfig`]: each query picks its own parallelism,
/// memory budget, I/O backend and codec.
///
/// **Wire format.** A length-prefixed record in the [`WorkerConfig`]
/// style: `u16` length, then `cores` (u32), `budget_edges` (u64), the
/// shared flags byte (bit 0 scan pruning, bits 1–2 backend), the codec
/// discriminant (u8), and `io_latency_us` (u32). Decoders skip trailing
/// bytes, so future knobs extend the record without a new tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOptions {
    /// Worker threads for this query; `0` means "server default".
    pub cores: u32,
    /// Per-worker memory budget in edges (the paper's `M`).
    pub budget_edges: u64,
    /// Enable rank-space scan pruning.
    pub scan_pruning: bool,
    /// I/O backend the MGT scan streams through.
    pub backend: IoBackend,
    /// Which oriented on-disk replica to run against.
    pub codec: Codec,
    /// Emulated per-block device latency in microseconds (0 = real
    /// hardware) — doubles as a deterministic slow-query injection.
    pub io_latency_us: u32,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self {
            cores: 0,
            budget_edges: 1 << 20,
            scan_pruning: true,
            backend: IoBackend::default_from_env(),
            codec: Codec::default_from_env(),
            io_latency_us: 0,
        }
    }
}

impl QueryOptions {
    /// Known record bytes: cores + budget + flags + codec + latency.
    const WIRE_LEN: usize = 4 + 8 + 1 + 1 + 4;

    fn encode_record(&self, b: &mut BytesMut) {
        b.put_u16_le(Self::WIRE_LEN as u16);
        b.put_u32_le(self.cores);
        b.put_u64_le(self.budget_edges);
        b.put_u8(u8::from(self.scan_pruning) * FLAG_SCAN_PRUNING + backend_bits(self.backend));
        b.put_u8(self.codec.discriminant());
        b.put_u32_le(self.io_latency_us);
    }

    fn decode_record(buf: &mut Bytes) -> Result<Self> {
        need(buf, 2)?;
        let len = buf.get_u16_le() as usize;
        need(buf, len)?;
        if len < Self::WIRE_LEN {
            return Err(ClusterError::Protocol(format!(
                "query options record of {len} bytes, need at least {}",
                Self::WIRE_LEN
            )));
        }
        let cores = buf.get_u32_le();
        let budget_edges = buf.get_u64_le();
        let flags = buf.get_u8();
        let codec = Codec::from_discriminant(buf.get_u8()).unwrap_or(Codec::Raw);
        let io_latency_us = buf.get_u32_le();
        buf.advance(len - Self::WIRE_LEN);
        Ok(QueryOptions {
            cores,
            budget_edges,
            scan_pruning: flags & FLAG_SCAN_PRUNING != 0,
            backend: backend_from_bits(flags),
            codec,
            io_latency_us,
        })
    }
}

/// One catalog entry in a [`Message::StatsResult`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogGraphInfo {
    /// Graph name (the catalog file stem).
    pub name: String,
    /// Vertex count.
    pub vertices: u32,
    /// Undirected edge count `|E*|`.
    pub m_star: u64,
}

/// Aggregate serve-mode counters returned by a stats request.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServerStats {
    /// Queries answered successfully since boot.
    pub served: u64,
    /// Queries that ended in a [`Message::QueryError`].
    pub failed: u64,
    /// Queries admitted and currently executing.
    pub inflight: u32,
    /// Catalog entries rejected at registration (failed verification).
    pub rejected_graphs: u32,
    /// Bytes read from disk across all queries.
    pub bytes_read: u64,
    /// `u32`s delivered by compressed-adjacency decoders.
    pub u32s_decoded: u64,
    /// High-water mark of concurrently admitted edges.
    pub admitted_peak: u64,
    /// Total edges the admission ledger allows at once.
    pub budget_total: u64,
    /// Fixed power-of-two latency histogram: bucket `i` counts queries
    /// whose wall time fell in `[2^i, 2^{i+1})` microseconds.
    pub latency_buckets: Vec<u64>,
    /// The graphs being served.
    pub graphs: Vec<CatalogGraphInfo>,
}

impl ServerStats {
    /// Upper bound (in microseconds) of the histogram bucket containing
    /// the `q`-quantile of recorded query latencies (`0.5` = p50,
    /// `0.99` = p99); 0 when nothing has been recorded.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let total: u64 = self.latency_buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &count) in self.latency_buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        1u64 << self.latency_buckets.len()
    }
}

/// Protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Master → node: the node's id, graph replica base path, and one
    /// config per local core.
    Config {
        /// Node id (0 = master's own node).
        node: u32,
        /// Base path of the node's local oriented-graph replica.
        graph_base: String,
        /// Per-core configurations.
        workers: Vec<WorkerConfig>,
        /// Whether to stream triangle lists back.
        listing: bool,
        /// Heartbeat cadence and injected fault for this dispatch
        /// (length-prefixed wire tail; defaults when absent).
        directives: NodeDirectives,
    },
    /// Node → master: per-worker summaries.
    Results {
        /// Node id.
        node: u32,
        /// Per-worker results.
        workers: Vec<WorkerSummary>,
    },
    /// Node → master: a batch of listed triangles (cone first).
    Triangles {
        /// Node id.
        node: u32,
        /// Triples `(u, v, w)`.
        triples: Vec<(u32, u32, u32)>,
    },
    /// Node → master: node failed with an error message.
    NodeError {
        /// Node id.
        node: u32,
        /// Human-readable failure description.
        detail: String,
    },
    /// Node → master: liveness heartbeat while workers run, so the
    /// master can tell a slow node from a wedged one.
    Progress {
        /// Node id.
        node: u32,
        /// Monotonic heartbeat sequence number within the dispatch.
        seq: u32,
    },
    /// Master → node: end the serve loop and exit cleanly.
    Shutdown,
    /// Client → server (serve mode): run one analytics operation
    /// against a named catalog graph.
    Query {
        /// Client-chosen request id, echoed in the response.
        id: u32,
        /// Catalog graph name.
        graph: String,
        /// The operation to run.
        op: QueryOperation,
        /// Per-query engine knobs.
        options: QueryOptions,
    },
    /// Server → client: a successful query answer. The meaning of the
    /// scalar fields is per-operation (see the serve-mode wire table in
    /// ARCHITECTURE.md): `triangles` is the exact count for the MGT
    /// operations, `value_bits` an `f64` in bits for clustering and
    /// DOULION (the `k`-truss edge count for `ktruss`), and `aux` the
    /// transitivity bits / max-`k` / kept-edge count.
    QueryResult {
        /// Echoed request id.
        id: u32,
        /// Exact triangle count (0 where the operation has none).
        triangles: u64,
        /// Primary per-operation value (often `f64::to_bits`).
        value_bits: u64,
        /// Secondary per-operation value.
        aux: u64,
        /// Server-side wall time of the query in nanoseconds.
        wall_nanos: u64,
        /// Per-worker MGT counters of the run (empty for operations
        /// that do not run the disk engine).
        workers: Vec<WorkerSummary>,
        /// Listed triples (`list` only, capped at the request's limit).
        triples: Vec<(u32, u32, u32)>,
    },
    /// Server → client: the query failed with a typed, human-readable
    /// reason; the server keeps serving.
    QueryError {
        /// Echoed request id.
        id: u32,
        /// Failure description.
        detail: String,
    },
    /// Client → server: request the aggregate serve-mode counters.
    StatsRequest,
    /// Server → client: catalog plus aggregate counters.
    StatsResult {
        /// The counters.
        stats: ServerStats,
    },
}

/// PR 3-era `Config` tag: fixed 29-byte worker records, no length
/// prefix. Decoded for compatibility, never emitted.
const TAG_CONFIG_LEGACY: u8 = 1;
const TAG_RESULTS: u8 = 2;
const TAG_TRIANGLES: u8 = 3;
const TAG_NODE_ERROR: u8 = 4;
/// Current `Config` tag: length-prefixed worker records.
const TAG_CONFIG: u8 = 5;
const TAG_PROGRESS: u8 = 6;
const TAG_SHUTDOWN: u8 = 7;
/// Serve-mode request/response tags (PR 10). They extend the same tag
/// space — a serve-mode client and a cluster node share one decoder.
const TAG_QUERY: u8 = 8;
const TAG_QUERY_RESULT: u8 = 9;
const TAG_QUERY_ERROR: u8 = 10;
const TAG_STATS_REQUEST: u8 = 11;
const TAG_STATS_RESULT: u8 = 12;

impl Message {
    /// Encode into a byte buffer.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        match self {
            Message::Config {
                node,
                graph_base,
                workers,
                listing,
                directives,
            } => {
                b.put_u8(TAG_CONFIG);
                b.put_u32_le(*node);
                put_string(&mut b, graph_base);
                b.put_u8(u8::from(*listing));
                b.put_u32_le(workers.len() as u32);
                for w in workers {
                    w.encode_record(&mut b);
                }
                // PR 5-era decoders stop at the last worker record and
                // ignore this tail.
                directives.encode_tail(&mut b);
            }
            Message::Results { node, workers } => {
                b.put_u8(TAG_RESULTS);
                b.put_u32_le(*node);
                put_summaries(&mut b, workers);
            }
            Message::Triangles { node, triples } => {
                b.put_u8(TAG_TRIANGLES);
                b.put_u32_le(*node);
                b.put_u32_le(triples.len() as u32);
                for &(u, v, w) in triples {
                    b.put_u32_le(u);
                    b.put_u32_le(v);
                    b.put_u32_le(w);
                }
            }
            Message::NodeError { node, detail } => {
                b.put_u8(TAG_NODE_ERROR);
                b.put_u32_le(*node);
                put_string(&mut b, detail);
            }
            Message::Progress { node, seq } => {
                b.put_u8(TAG_PROGRESS);
                b.put_u32_le(*node);
                b.put_u32_le(*seq);
            }
            Message::Shutdown => {
                b.put_u8(TAG_SHUTDOWN);
                // Filler id: every message carries a u32 after the tag.
                b.put_u32_le(0);
            }
            Message::Query {
                id,
                graph,
                op,
                options,
            } => {
                b.put_u8(TAG_QUERY);
                b.put_u32_le(*id);
                put_string(&mut b, graph);
                op.encode(&mut b);
                options.encode_record(&mut b);
            }
            Message::QueryResult {
                id,
                triangles,
                value_bits,
                aux,
                wall_nanos,
                workers,
                triples,
            } => {
                b.put_u8(TAG_QUERY_RESULT);
                b.put_u32_le(*id);
                b.put_u64_le(*triangles);
                b.put_u64_le(*value_bits);
                b.put_u64_le(*aux);
                b.put_u64_le(*wall_nanos);
                put_summaries(&mut b, workers);
                b.put_u32_le(triples.len() as u32);
                for &(u, v, w) in triples {
                    b.put_u32_le(u);
                    b.put_u32_le(v);
                    b.put_u32_le(w);
                }
            }
            Message::QueryError { id, detail } => {
                b.put_u8(TAG_QUERY_ERROR);
                b.put_u32_le(*id);
                put_string(&mut b, detail);
            }
            Message::StatsRequest => {
                b.put_u8(TAG_STATS_REQUEST);
                b.put_u32_le(0);
            }
            Message::StatsResult { stats } => {
                b.put_u8(TAG_STATS_RESULT);
                b.put_u32_le(0);
                b.put_u64_le(stats.served);
                b.put_u64_le(stats.failed);
                b.put_u32_le(stats.inflight);
                b.put_u32_le(stats.rejected_graphs);
                b.put_u64_le(stats.bytes_read);
                b.put_u64_le(stats.u32s_decoded);
                b.put_u64_le(stats.admitted_peak);
                b.put_u64_le(stats.budget_total);
                b.put_u32_le(stats.latency_buckets.len() as u32);
                for &count in &stats.latency_buckets {
                    b.put_u64_le(count);
                }
                b.put_u32_le(stats.graphs.len() as u32);
                for g in &stats.graphs {
                    put_string(&mut b, &g.name);
                    b.put_u32_le(g.vertices);
                    b.put_u64_le(g.m_star);
                }
            }
        }
        b.freeze()
    }

    /// Decode a buffer produced by [`encode`](Self::encode).
    pub fn decode(mut buf: Bytes) -> Result<Self> {
        if buf.remaining() < 5 {
            return Err(ClusterError::Protocol("short message".into()));
        }
        let tag = buf.get_u8();
        let node = buf.get_u32_le();
        match tag {
            TAG_CONFIG => {
                let graph_base = get_string(&mut buf)?;
                need(&buf, 5)?;
                let listing = buf.get_u8() != 0;
                let count = buf.get_u32_le() as usize;
                let workers = (0..count)
                    .map(|_| WorkerConfig::decode_record(&mut buf))
                    .collect::<Result<Vec<_>>>()?;
                let directives = NodeDirectives::decode_tail(&mut buf)?;
                Ok(Message::Config {
                    node,
                    graph_base,
                    workers,
                    listing,
                    directives,
                })
            }
            TAG_CONFIG_LEGACY => {
                // PR 3-era encoding: fixed-size records, no prefix. The
                // flags-byte layout is shared, so the old overlap_io
                // bit decodes as the retired discriminant 1: Blocking.
                let graph_base = get_string(&mut buf)?;
                need(&buf, 5)?;
                let listing = buf.get_u8() != 0;
                let count = buf.get_u32_le() as usize;
                need(&buf, count * WorkerConfig::WIRE_LEN)?;
                let workers = (0..count)
                    .map(|_| WorkerConfig::decode_fields(&mut buf))
                    .collect();
                Ok(Message::Config {
                    node,
                    graph_base,
                    workers,
                    listing,
                    directives: NodeDirectives::default(),
                })
            }
            TAG_RESULTS => {
                let workers = get_summaries(&mut buf)?;
                Ok(Message::Results { node, workers })
            }
            TAG_TRIANGLES => {
                need(&buf, 4)?;
                let count = buf.get_u32_le() as usize;
                need(&buf, count * 12)?;
                let triples = (0..count)
                    .map(|_| (buf.get_u32_le(), buf.get_u32_le(), buf.get_u32_le()))
                    .collect();
                Ok(Message::Triangles { node, triples })
            }
            TAG_NODE_ERROR => {
                let detail = get_string(&mut buf)?;
                Ok(Message::NodeError { node, detail })
            }
            TAG_PROGRESS => {
                need(&buf, 4)?;
                let seq = buf.get_u32_le();
                Ok(Message::Progress { node, seq })
            }
            TAG_SHUTDOWN => Ok(Message::Shutdown),
            TAG_QUERY => {
                let graph = get_string(&mut buf)?;
                let op = QueryOperation::decode(&mut buf)?;
                let options = QueryOptions::decode_record(&mut buf)?;
                Ok(Message::Query {
                    id: node,
                    graph,
                    op,
                    options,
                })
            }
            TAG_QUERY_RESULT => {
                need(&buf, 4 * 8)?;
                let triangles = buf.get_u64_le();
                let value_bits = buf.get_u64_le();
                let aux = buf.get_u64_le();
                let wall_nanos = buf.get_u64_le();
                let workers = get_summaries(&mut buf)?;
                need(&buf, 4)?;
                let count = buf.get_u32_le() as usize;
                need(&buf, count * 12)?;
                let triples = (0..count)
                    .map(|_| (buf.get_u32_le(), buf.get_u32_le(), buf.get_u32_le()))
                    .collect();
                Ok(Message::QueryResult {
                    id: node,
                    triangles,
                    value_bits,
                    aux,
                    wall_nanos,
                    workers,
                    triples,
                })
            }
            TAG_QUERY_ERROR => {
                let detail = get_string(&mut buf)?;
                Ok(Message::QueryError { id: node, detail })
            }
            TAG_STATS_REQUEST => Ok(Message::StatsRequest),
            TAG_STATS_RESULT => {
                need(&buf, 8 + 8 + 4 + 4 + 8 * 4)?;
                let served = buf.get_u64_le();
                let failed = buf.get_u64_le();
                let inflight = buf.get_u32_le();
                let rejected_graphs = buf.get_u32_le();
                let bytes_read = buf.get_u64_le();
                let u32s_decoded = buf.get_u64_le();
                let admitted_peak = buf.get_u64_le();
                let budget_total = buf.get_u64_le();
                need(&buf, 4)?;
                let buckets = buf.get_u32_le() as usize;
                need(&buf, buckets * 8)?;
                let latency_buckets = (0..buckets).map(|_| buf.get_u64_le()).collect();
                need(&buf, 4)?;
                let count = buf.get_u32_le() as usize;
                let graphs = (0..count)
                    .map(|_| {
                        let name = get_string(&mut buf)?;
                        need(&buf, 4 + 8)?;
                        Ok(CatalogGraphInfo {
                            name,
                            vertices: buf.get_u32_le(),
                            m_star: buf.get_u64_le(),
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok(Message::StatsResult {
                    stats: ServerStats {
                        served,
                        failed,
                        inflight,
                        rejected_graphs,
                        bytes_read,
                        u32s_decoded,
                        admitted_peak,
                        budget_total,
                        latency_buckets,
                        graphs,
                    },
                })
            }
            t => Err(ClusterError::Protocol(format!("unknown tag {t}"))),
        }
    }

    /// Encoded size in bytes (what the network accounting charges).
    pub fn wire_size(&self) -> u64 {
        self.encode().len() as u64
    }
}

/// Encode a `u32` count followed by the fixed 92-byte summary records
/// (shared by `Results` and `QueryResult`).
fn put_summaries(b: &mut BytesMut, workers: &[WorkerSummary]) {
    b.put_u32_le(workers.len() as u32);
    for w in workers {
        b.put_u32_le(w.worker);
        for v in [
            w.start,
            w.end,
            w.triangles,
            w.iterations,
            w.cpu_ops,
            w.bytes_read,
            w.bytes_written,
            w.seeks,
            w.io_ops,
            w.io_nanos,
            w.wall_nanos,
        ] {
            b.put_u64_le(v);
        }
    }
}

fn get_summaries(buf: &mut Bytes) -> Result<Vec<WorkerSummary>> {
    need(buf, 4)?;
    let count = buf.get_u32_le() as usize;
    need(buf, count * (4 + 11 * 8))?;
    Ok((0..count)
        .map(|_| WorkerSummary {
            worker: buf.get_u32_le(),
            start: buf.get_u64_le(),
            end: buf.get_u64_le(),
            triangles: buf.get_u64_le(),
            iterations: buf.get_u64_le(),
            cpu_ops: buf.get_u64_le(),
            bytes_read: buf.get_u64_le(),
            bytes_written: buf.get_u64_le(),
            seeks: buf.get_u64_le(),
            io_ops: buf.get_u64_le(),
            io_nanos: buf.get_u64_le(),
            wall_nanos: buf.get_u64_le(),
        })
        .collect())
}

fn put_string(b: &mut BytesMut, s: &str) {
    b.put_u32_le(s.len() as u32);
    b.put_slice(s.as_bytes());
}

fn get_string(buf: &mut Bytes) -> Result<String> {
    need(buf, 4)?;
    let len = buf.get_u32_le() as usize;
    need(buf, len)?;
    let raw = buf.split_to(len);
    String::from_utf8(raw.to_vec())
        .map_err(|_| ClusterError::Protocol("invalid utf-8 string".into()))
}

fn need(buf: &Bytes, n: usize) -> Result<()> {
    if buf.remaining() < n {
        Err(ClusterError::Protocol(format!(
            "truncated message: need {n}, have {}",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_summary(i: u32) -> WorkerSummary {
        WorkerSummary {
            worker: i,
            start: 10 * i as u64,
            end: 10 * i as u64 + 10,
            triangles: 42 + i as u64,
            iterations: 3,
            cpu_ops: 1_000_000,
            bytes_read: 4096,
            bytes_written: 0,
            seeks: 2,
            io_ops: 7,
            io_nanos: 123_456,
            wall_nanos: 999_999,
        }
    }

    #[test]
    fn config_round_trip() {
        let msg = Message::Config {
            node: 3,
            graph_base: "/data/node3/oriented".into(),
            workers: vec![
                WorkerConfig {
                    start: 0,
                    end: 100,
                    budget_edges: 50,
                    scan_pruning: true,
                    backend: IoBackend::Blocking,
                    io_latency_us: 0,
                    read_fault: None,
                    codec: Codec::Raw,
                },
                WorkerConfig {
                    start: 100,
                    end: 220,
                    budget_edges: 50,
                    scan_pruning: false,
                    backend: IoBackend::Blocking,
                    io_latency_us: 50,
                    read_fault: None,
                    codec: Codec::Raw,
                },
                WorkerConfig {
                    start: 220,
                    end: 300,
                    budget_edges: 50,
                    scan_pruning: true,
                    backend: IoBackend::Mmap,
                    io_latency_us: 7,
                    read_fault: None,
                    codec: Codec::Raw,
                },
                WorkerConfig {
                    start: 300,
                    end: 420,
                    budget_edges: 50,
                    scan_pruning: true,
                    backend: IoBackend::Uring,
                    io_latency_us: 0,
                    read_fault: None,
                    codec: Codec::Raw,
                },
            ],
            listing: true,
            directives: NodeDirectives::default(),
        };
        assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
    }

    #[test]
    fn pr3_era_config_still_decodes() {
        // A Config message exactly as PR 3 encoded it: old tag byte,
        // fixed 29-byte worker records, flags bit 1 = overlap_io. Both
        // values of the overlap bit must decode as Blocking.
        let mut b = BytesMut::new();
        b.put_u8(1); // TAG_CONFIG_LEGACY
        b.put_u32_le(3); // node
        put_string(&mut b, "/data/node3/oriented");
        b.put_u8(1); // listing
        b.put_u32_le(2); // worker count
        for (flags, latency) in [(0b01u8, 0u32), (0b11, 50)] {
            b.put_u64_le(10);
            b.put_u64_le(20);
            b.put_u64_le(64);
            b.put_u8(flags);
            b.put_u32_le(latency);
        }
        let decoded = Message::decode(b.freeze()).unwrap();
        let Message::Config { workers, node, .. } = decoded else {
            panic!("expected Config, got {decoded:?}");
        };
        assert_eq!(node, 3);
        assert_eq!(
            workers,
            vec![
                WorkerConfig {
                    start: 10,
                    end: 20,
                    budget_edges: 64,
                    scan_pruning: true,
                    backend: IoBackend::Blocking, // overlap_io = false
                    io_latency_us: 0,
                    read_fault: None,
                    codec: Codec::Raw,
                },
                WorkerConfig {
                    start: 10,
                    end: 20,
                    budget_edges: 64,
                    scan_pruning: true,
                    backend: IoBackend::Blocking, // overlap_io = true
                    io_latency_us: 50,
                    read_fault: None,
                    codec: Codec::Raw,
                },
            ]
        );
    }

    #[test]
    fn forward_compat_decoder_skips_unknown_record_tail() {
        // A future encoder appends a field to each worker record and
        // bumps the length prefix; this decoder must parse the fields
        // it knows and skip the rest, for every worker in the message.
        let workers = [(0u64, 100u64, 0b011u8), (100, 250, 0b101)];
        let mut b = BytesMut::new();
        b.put_u8(5); // TAG_CONFIG
        b.put_u32_le(9);
        put_string(&mut b, "/g");
        b.put_u8(0);
        b.put_u32_le(workers.len() as u32);
        for &(start, end, flags) in &workers {
            b.put_u16_le(29 + 6); // future record: 6 extra bytes
            b.put_u64_le(start);
            b.put_u64_le(end);
            b.put_u64_le(1024);
            b.put_u8(flags);
            b.put_u32_le(0);
            b.put_slice(b"future"); // the unknown field
        }
        let decoded = Message::decode(b.freeze()).unwrap();
        let Message::Config { workers: got, .. } = decoded else {
            panic!("expected Config, got {decoded:?}");
        };
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].start, got[0].end), (0, 100));
        assert_eq!(got[0].backend, IoBackend::Blocking);
        assert!(got[0].scan_pruning);
        assert_eq!((got[1].start, got[1].end), (100, 250));
        assert_eq!(got[1].backend, IoBackend::Mmap);
        assert!(got[1].scan_pruning);
    }

    #[test]
    fn backend_discriminants_cover_the_two_bit_field() {
        // PR 4 reserved discriminant 3 and degraded it to the default
        // backend; it now names Uring, so decoding wire bytes written
        // by a newer (uring-aware) encoder yields Uring here — while
        // the old decoder's degradation path keeps those same bytes
        // runnable on PR 4-era nodes. Discriminant 1 (the old overlap
        // bit, then the thread-based overlapping backend) is retired
        // and decodes as Blocking. Growing the field would reinterpret
        // old flag bytes.
        assert_eq!(backend_from_bits(0b000), IoBackend::Blocking);
        assert_eq!(backend_from_bits(0b010), IoBackend::Blocking);
        assert_eq!(backend_from_bits(0b100), IoBackend::Mmap);
        assert_eq!(backend_from_bits(0b110), IoBackend::Uring);
        // scan_pruning (bit 0) never bleeds into the backend field.
        assert_eq!(backend_from_bits(0b111), IoBackend::Uring);
        assert_eq!(backend_from_bits(0b011), IoBackend::Blocking);
        assert_eq!(backend_from_bits(0b001), IoBackend::Blocking);
        // Every live backend round-trips, and none encodes as the
        // retired discriminant.
        for backend in IoBackend::ALL {
            assert_eq!(backend_from_bits(backend_bits(backend)), backend);
            assert_ne!(backend_bits(backend), 0b010, "{backend}");
        }
    }

    #[test]
    fn uring_config_round_trips_through_the_wire() {
        // The discriminant-3 encoding decodes bit-exactly, alongside
        // the forward-compat record-tail skip.
        let cfg = WorkerConfig {
            start: 7,
            end: 900,
            budget_edges: 4096,
            scan_pruning: false,
            backend: IoBackend::Uring,
            io_latency_us: 50,
            read_fault: None,
            codec: Codec::Raw,
        };
        let mut b = BytesMut::new();
        cfg.encode_record(&mut b);
        let encoded = b.freeze();
        // flags byte: backend 3 in bits 1-2, pruning bit clear
        assert_eq!(encoded[2 + 24], 0b110);
        let mut buf = encoded;
        assert_eq!(WorkerConfig::decode_record(&mut buf).unwrap(), cfg);
    }

    #[test]
    fn truncated_and_undersized_records_rejected() {
        let msg = Message::Config {
            node: 0,
            graph_base: "x".into(),
            workers: vec![WorkerConfig {
                start: 0,
                end: 1,
                budget_edges: 1,
                scan_pruning: true,
                backend: IoBackend::Blocking,
                io_latency_us: 0,
                read_fault: None,
                codec: Codec::Raw,
            }],
            listing: false,
            directives: NodeDirectives::default(),
        };
        // record cut mid-field
        let enc = msg.encode();
        assert!(Message::decode(enc.slice(0..enc.len() - 3)).is_err());
        // a length prefix smaller than the known fields
        let mut b = BytesMut::new();
        b.put_u8(5);
        b.put_u32_le(0);
        put_string(&mut b, "x");
        b.put_u8(0);
        b.put_u32_le(1);
        b.put_u16_le(4); // too short to hold the known fields
        b.put_u32_le(0);
        let err = Message::decode(b.freeze()).unwrap_err();
        assert!(err.to_string().contains("worker record"), "{err}");
    }

    #[test]
    fn results_round_trip() {
        let msg = Message::Results {
            node: 1,
            workers: (0..5).map(sample_summary).collect(),
        };
        assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
    }

    #[test]
    fn triangles_round_trip() {
        let msg = Message::Triangles {
            node: 2,
            triples: vec![(1, 2, 3), (4, 5, 6), (7, 8, 9)],
        };
        assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
    }

    #[test]
    fn node_error_round_trip() {
        let msg = Message::NodeError {
            node: 7,
            detail: "disk on fire".into(),
        };
        assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
    }

    #[test]
    fn progress_and_shutdown_round_trip() {
        let msg = Message::Progress { node: 3, seq: 17 };
        assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
        let msg = Message::Shutdown;
        assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
    }

    #[test]
    fn config_with_directives_and_read_fault_round_trips() {
        let msg = Message::Config {
            node: 2,
            graph_base: "/data/node2/oriented".into(),
            workers: vec![
                WorkerConfig {
                    start: 0,
                    end: 64,
                    budget_edges: 32,
                    scan_pruning: true,
                    backend: IoBackend::Blocking,
                    io_latency_us: 0,
                    read_fault: Some(1000),
                    codec: Codec::Raw,
                },
                WorkerConfig {
                    start: 64,
                    end: 128,
                    budget_edges: 32,
                    scan_pruning: true,
                    backend: IoBackend::Mmap,
                    io_latency_us: 0,
                    read_fault: None,
                    codec: Codec::Raw,
                },
            ],
            listing: false,
            directives: NodeDirectives {
                heartbeat_ms: 250,
                fault: NodeFault::Delay(40),
            },
        };
        assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
        for fault in [
            NodeFault::None,
            NodeFault::Panic,
            NodeFault::Drop,
            NodeFault::Stall,
        ] {
            let msg = Message::Config {
                node: 0,
                graph_base: "/g".into(),
                workers: vec![],
                listing: true,
                directives: NodeDirectives {
                    heartbeat_ms: 0,
                    fault,
                },
            };
            assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn pr5_era_config_without_tails_still_decodes() {
        // A Config exactly as PR 5 encoded it: current tag,
        // length-prefixed 29-byte records, nothing after the last
        // record. Directives default, no injected faults.
        let mut b = BytesMut::new();
        b.put_u8(5); // TAG_CONFIG
        b.put_u32_le(4);
        put_string(&mut b, "/data/node4/oriented");
        b.put_u8(0);
        b.put_u32_le(1);
        b.put_u16_le(29);
        b.put_u64_le(5);
        b.put_u64_le(55);
        b.put_u64_le(128);
        b.put_u8(0b011); // pruning + the retired overlap discriminant
        b.put_u32_le(0);
        let decoded = Message::decode(b.freeze()).unwrap();
        let Message::Config {
            workers,
            directives,
            ..
        } = decoded
        else {
            panic!("expected Config, got {decoded:?}");
        };
        assert_eq!(directives, NodeDirectives::default());
        assert_eq!(workers[0].read_fault, None);
        assert_eq!((workers[0].start, workers[0].end), (5, 55));
        assert_eq!(workers[0].backend, IoBackend::Blocking);
    }

    #[test]
    fn pr5_era_decoder_ignores_new_tails() {
        // Replays PR 5's Config decode loop (records only, trailing
        // bytes never examined) against the current encoder's output:
        // an old node handed a directives tail and a fault-bearing
        // record still reads every field it knows.
        let msg = Message::Config {
            node: 6,
            graph_base: "/data/node6/oriented".into(),
            workers: vec![WorkerConfig {
                start: 3,
                end: 33,
                budget_edges: 16,
                scan_pruning: true,
                backend: IoBackend::Uring,
                io_latency_us: 9,
                read_fault: Some(77),
                codec: Codec::Raw,
            }],
            listing: true,
            directives: NodeDirectives {
                heartbeat_ms: 100,
                fault: NodeFault::Panic,
            },
        };
        let mut buf = msg.encode();
        // -- PR 5 decode loop, verbatim logic --
        assert_eq!(buf.get_u8(), 5);
        assert_eq!(buf.get_u32_le(), 6);
        let graph_base = get_string(&mut buf).unwrap();
        let listing = buf.get_u8() != 0;
        let count = buf.get_u32_le() as usize;
        let mut workers = Vec::new();
        for _ in 0..count {
            let len = buf.get_u16_le() as usize;
            assert!(len >= WorkerConfig::WIRE_LEN);
            let w = WorkerConfig::decode_fields(&mut buf);
            buf.advance(len - WorkerConfig::WIRE_LEN); // skip unknown tail
            workers.push(w);
        }
        // -- end PR 5 loop: remaining bytes (directives) were ignored --
        assert_eq!(graph_base, "/data/node6/oriented");
        assert!(listing);
        assert_eq!((workers[0].start, workers[0].end), (3, 33));
        assert_eq!(workers[0].backend, IoBackend::Uring);
        assert_eq!(workers[0].read_fault, None); // old decoder: unknown field
        assert!(buf.remaining() > 0, "directives tail rides after records");
    }

    #[test]
    fn codec_rides_the_record_tail() {
        // The codec byte round-trips in every fault combination, and
        // the tail stays positional: raw fault-free records are 29
        // bytes (PR 5 byte-identity), raw fault-bearing records 38
        // (PR 7 byte-identity), and a non-raw codec always pays the
        // full 39 — fault tail (presence byte 0 when unset) first,
        // codec byte after.
        for (read_fault, codec, expect_len) in [
            (None, Codec::Raw, 29usize),
            (Some(77), Codec::Raw, 38),
            (None, Codec::DeltaVarint, 39),
            (Some(77), Codec::DeltaVarint, 39),
        ] {
            let cfg = WorkerConfig {
                start: 5,
                end: 500,
                budget_edges: 256,
                scan_pruning: true,
                backend: IoBackend::Blocking,
                io_latency_us: 3,
                read_fault,
                codec,
            };
            let mut b = BytesMut::new();
            cfg.encode_record(&mut b);
            let encoded = b.freeze();
            assert_eq!(
                encoded.len(),
                2 + expect_len,
                "{read_fault:?} {codec}: record length"
            );
            let mut buf = encoded;
            assert_eq!(WorkerConfig::decode_record(&mut buf).unwrap(), cfg);
        }
    }

    #[test]
    fn pr7_era_decoder_reads_the_fault_through_the_codec_tail() {
        // Replays PR 7's decode loop (known fields + fault tail, then
        // advance whatever remains) against the current encoder: a
        // node that predates the codec field still reads the range,
        // flags and injected fault of a delta-varint record, and
        // treats the codec byte as an unknown tail. The fault tail
        // being emitted with presence byte 0 whenever the codec needs
        // encoding is exactly what keeps the old decoder from
        // misparsing the codec byte as a fault presence flag.
        let cfg = WorkerConfig {
            start: 11,
            end: 111,
            budget_edges: 64,
            scan_pruning: true,
            backend: IoBackend::Uring,
            io_latency_us: 9,
            read_fault: Some(1234),
            codec: Codec::DeltaVarint,
        };
        let mut b = BytesMut::new();
        cfg.encode_record(&mut b);
        let mut buf = b.freeze();
        // -- PR 7 decode loop, verbatim logic --
        let len = buf.get_u16_le() as usize;
        assert!(len >= WorkerConfig::WIRE_LEN);
        let mut w = WorkerConfig::decode_fields(&mut buf);
        let mut rest = len - WorkerConfig::WIRE_LEN;
        if rest >= WorkerConfig::FAULT_TAIL_LEN {
            let present = buf.get_u8() != 0;
            let budget = buf.get_u64_le();
            w.read_fault = present.then_some(budget);
            rest -= WorkerConfig::FAULT_TAIL_LEN;
        }
        buf.advance(rest); // the codec byte, unknown to PR 7
                           // -- end PR 7 loop --
        assert_eq!((w.start, w.end), (11, 111));
        assert_eq!(w.backend, IoBackend::Uring);
        assert_eq!(w.read_fault, Some(1234));
        assert_eq!(w.codec, Codec::Raw, "old decoder: unknown field");
        assert_eq!(buf.remaining(), 0);

        // The fault-free variant too: presence byte 0 must decode as
        // "no fault" on PR 7, not as a truncated tail.
        let mut b = BytesMut::new();
        WorkerConfig {
            read_fault: None,
            ..cfg
        }
        .encode_record(&mut b);
        let mut buf = b.freeze();
        let len = buf.get_u16_le() as usize;
        let mut w = WorkerConfig::decode_fields(&mut buf);
        let mut rest = len - WorkerConfig::WIRE_LEN;
        if rest >= WorkerConfig::FAULT_TAIL_LEN {
            let present = buf.get_u8() != 0;
            let budget = buf.get_u64_le();
            w.read_fault = present.then_some(budget);
            rest -= WorkerConfig::FAULT_TAIL_LEN;
        }
        buf.advance(rest);
        assert_eq!(w.read_fault, None);
    }

    #[test]
    fn unknown_codec_discriminant_degrades_to_raw() {
        // A newer master's third codec: the fault tail plus an
        // unassigned codec byte must decode, with the codec degraded
        // to Raw rather than rejected — the node still writes a
        // replica every engine can read.
        let mut b = BytesMut::new();
        b.put_u16_le((WorkerConfig::WIRE_LEN + 9 + 1) as u16);
        b.put_u64_le(0);
        b.put_u64_le(10);
        b.put_u64_le(4);
        b.put_u8(0b011);
        b.put_u32_le(0);
        b.put_u8(0); // fault tail: absent
        b.put_u64_le(0);
        b.put_u8(250); // unassigned codec discriminant
        let mut buf = b.freeze();
        let cfg = WorkerConfig::decode_record(&mut buf).unwrap();
        assert_eq!(cfg.codec, Codec::Raw);
        assert_eq!(cfg.read_fault, None);
    }

    #[test]
    fn query_round_trips_every_operation() {
        for op in [
            QueryOperation::Count,
            QueryOperation::List { limit: 128 },
            QueryOperation::Clustering,
            QueryOperation::KTruss { k: 4 },
            QueryOperation::Doulion {
                p_ppm: 500_000,
                seed: 42,
                trials: 16,
            },
        ] {
            let msg = Message::Query {
                id: 7,
                graph: "rmat-12".into(),
                op,
                options: QueryOptions {
                    cores: 3,
                    budget_edges: 4096,
                    scan_pruning: true,
                    backend: IoBackend::Mmap,
                    codec: Codec::DeltaVarint,
                    io_latency_us: 50,
                },
            };
            assert_eq!(Message::decode(msg.encode()).unwrap(), msg, "{}", op.name());
        }
    }

    #[test]
    fn query_result_and_error_round_trip() {
        let msg = Message::QueryResult {
            id: 9,
            triangles: 1140,
            value_bits: 0.61f64.to_bits(),
            aux: 0.55f64.to_bits(),
            wall_nanos: 1_234_567,
            workers: (0..3).map(sample_summary).collect(),
            triples: vec![(1, 2, 3), (4, 5, 6)],
        };
        assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
        let msg = Message::QueryError {
            id: 9,
            detail: "unknown graph \"orkut\"".into(),
        };
        assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
    }

    #[test]
    fn stats_round_trip() {
        assert_eq!(
            Message::decode(Message::StatsRequest.encode()).unwrap(),
            Message::StatsRequest
        );
        let msg = Message::StatsResult {
            stats: ServerStats {
                served: 100,
                failed: 3,
                inflight: 2,
                rejected_graphs: 1,
                bytes_read: 1 << 30,
                u32s_decoded: 77,
                admitted_peak: 9000,
                budget_total: 10_000,
                latency_buckets: (0..32).map(|i| i as u64).collect(),
                graphs: vec![
                    CatalogGraphInfo {
                        name: "rmat-12".into(),
                        vertices: 4096,
                        m_star: 30_000,
                    },
                    CatalogGraphInfo {
                        name: "wheel".into(),
                        vertices: 21,
                        m_star: 40,
                    },
                ],
            },
        };
        assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
    }

    #[test]
    fn query_forward_compat_skips_unknown_options_tail() {
        // A future client appends an option to the length-prefixed
        // record; today's server reads the fields it knows and skips
        // the rest — same contract as WorkerConfig records.
        let mut b = BytesMut::new();
        b.put_u8(8); // TAG_QUERY
        b.put_u32_le(5);
        put_string(&mut b, "g");
        QueryOperation::KTruss { k: 3 }.encode(&mut b);
        b.put_u16_le((QueryOptions::WIRE_LEN + 4) as u16);
        b.put_u32_le(2); // cores
        b.put_u64_le(512); // budget
        b.put_u8(0b101); // pruning + mmap
        b.put_u8(1); // delta-varint
        b.put_u32_le(0); // latency
        b.put_slice(b"next"); // the unknown field
        let decoded = Message::decode(b.freeze()).unwrap();
        let Message::Query { options, op, .. } = decoded else {
            panic!("expected Query, got {decoded:?}");
        };
        assert_eq!(op, QueryOperation::KTruss { k: 3 });
        assert_eq!(options.cores, 2);
        assert_eq!(options.backend, IoBackend::Mmap);
        assert_eq!(options.codec, Codec::DeltaVarint);
    }

    #[test]
    fn unknown_operation_kind_rejected() {
        let mut b = BytesMut::new();
        b.put_u8(8); // TAG_QUERY
        b.put_u32_le(0);
        put_string(&mut b, "g");
        b.put_u8(99); // unassigned kind
        b.put_u32_le(0);
        b.put_u64_le(0);
        b.put_u32_le(0);
        QueryOptions::default().encode_record(&mut b);
        let err = Message::decode(b.freeze()).unwrap_err();
        assert!(err.to_string().contains("operation kind"), "{err}");
    }

    #[test]
    fn truncated_query_result_rejected() {
        let msg = Message::QueryResult {
            id: 1,
            triangles: 5,
            value_bits: 0,
            aux: 0,
            wall_nanos: 10,
            workers: vec![sample_summary(0)],
            triples: vec![(1, 2, 3)],
        };
        let enc = msg.encode();
        for cut in [3usize, 20, enc.len() - 5] {
            assert!(Message::decode(enc.slice(0..cut)).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn stats_quantiles_come_from_the_histogram() {
        let mut stats = ServerStats {
            latency_buckets: vec![0; 32],
            ..Default::default()
        };
        assert_eq!(stats.quantile_micros(0.5), 0, "empty histogram");
        // 90 queries in [2^7, 2^8) µs, 10 in [2^10, 2^11) µs.
        stats.latency_buckets[7] = 90;
        stats.latency_buckets[10] = 10;
        assert_eq!(stats.quantile_micros(0.50), 1 << 8);
        assert_eq!(stats.quantile_micros(0.90), 1 << 8);
        assert_eq!(stats.quantile_micros(0.99), 1 << 11);
        assert_eq!(stats.quantile_micros(1.0), 1 << 11);
    }

    #[test]
    fn wire_size_matches_encoding() {
        let msg = Message::Triangles {
            node: 0,
            triples: vec![(1, 2, 3); 100],
        };
        // 1 tag + 4 node + 4 count + 100 * 12
        assert_eq!(msg.wire_size(), 9 + 1200);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Message::decode(Bytes::from_static(&[])).is_err());
        assert!(Message::decode(Bytes::from_static(&[9, 0, 0, 0, 0])).is_err());
    }

    #[test]
    fn empty_collections_round_trip() {
        let msg = Message::Results {
            node: 0,
            workers: vec![],
        };
        assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
        let msg = Message::Triangles {
            node: 0,
            triples: vec![],
        };
        assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
    }
}
