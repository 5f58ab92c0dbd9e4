//! The wire protocol between master and nodes, and between serve-mode
//! clients and the daemon.
//!
//! One rule encodes every message: the [`WIRE_VERSION`] byte, a tag
//! byte, then the message's fields in declaration order, each written by
//! the `Wire` field codec — little-endian integers, a `u32` count
//! before a string or vector, a presence byte before an `Option`, and a
//! discriminant byte before an enum's fields. The exact byte sizes are
//! the network accounting: the `Θ(NP)` configuration term and the `Θ(T)`
//! listing term of Theorem IV.3 are measured from these encodings.
//!
//! Decoding is strict. Another version, an unknown tag or discriminant,
//! a truncated field, or bytes left over after the last field is a
//! [`ClusterError::Protocol`]; nothing is skipped or defaulted. A count
//! read from the wire never allocates more elements than the remaining
//! bytes could hold.

use pdtl_io::{Codec, IoBackend};

use crate::error::{ClusterError, Result};

/// The version byte every message starts with. A peer speaking another
/// version is rejected, never reinterpreted.
pub const WIRE_VERSION: u8 = 1;

/// The field codec: how one value is written to, and read back from,
/// the wire.
pub(crate) trait Wire: Sized {
    /// The fewest bytes any encoding of `Self` occupies. A counted
    /// vector refuses a count the remaining bytes cannot back before it
    /// allocates; every type has `MIN_LEN >= 1`.
    const MIN_LEN: usize;

    /// Append the encoding of `self` to `b`.
    fn put(&self, b: &mut Vec<u8>);

    /// Read one value from the front of `r`.
    fn get(r: &mut Reader<'_>) -> Result<Self>;
}

/// A bounds-checked cursor over an encoded message.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let Some((head, rest)) = self.buf.split_at_checked(n) else {
            return Err(ClusterError::Protocol(format!(
                "truncated message: need {n} bytes, have {}",
                self.buf.len()
            )));
        };
        self.buf = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    fn get<T: Wire>(&mut self) -> Result<T> {
        T::get(self)
    }
}

fn unknown(what: &str, discriminant: u8) -> ClusterError {
    ClusterError::Protocol(format!("unknown {what} discriminant {discriminant}"))
}

/// Write a string or vector length. Every collection on the wire is far
/// below `u32::MAX` elements: a TCP frame is capped at 64 MiB.
fn put_count(len: usize, b: &mut Vec<u8>) {
    u32::try_from(len)
        .expect("wire collections hold fewer than 2^32 elements")
        .put(b);
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();

            fn put(&self, b: &mut Vec<u8>) {
                b.extend_from_slice(&self.to_le_bytes());
            }

            fn get(r: &mut Reader<'_>) -> Result<Self> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

wire_int!(u8, u32, u64);

impl Wire for bool {
    const MIN_LEN: usize = 1;

    fn put(&self, b: &mut Vec<u8>) {
        u8::from(*self).put(b);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        match r.get::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            d => Err(unknown("bool", d)),
        }
    }
}

impl Wire for String {
    const MIN_LEN: usize = 4;

    fn put(&self, b: &mut Vec<u8>) {
        put_count(self.len(), b);
        b.extend_from_slice(self.as_bytes());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let len = r.get::<u32>()? as usize;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ClusterError::Protocol("invalid utf-8 string".into()))
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;

    fn put(&self, b: &mut Vec<u8>) {
        self.is_some().put(b);
        if let Some(v) = self {
            v.put(b);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        r.get::<bool>()?.then(|| r.get()).transpose()
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 4;

    fn put(&self, b: &mut Vec<u8>) {
        put_count(self.len(), b);
        b.reserve(self.len() * T::MIN_LEN);
        for v in self {
            v.put(b);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let count = r.get::<u32>()? as usize;
        let need = count.saturating_mul(T::MIN_LEN);
        let remaining = r.buf.len();
        if need > remaining {
            return Err(ClusterError::Protocol(format!(
                "count {count} needs at least {need} bytes, {remaining} remain"
            )));
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(r.get()?);
        }
        Ok(out)
    }
}

impl Wire for (u32, u32, u32) {
    const MIN_LEN: usize = 12;

    fn put(&self, b: &mut Vec<u8>) {
        self.0.put(b);
        self.1.put(b);
        self.2.put(b);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok((r.get()?, r.get()?, r.get()?))
    }
}

/// An [`IoBackend`] travels as its index in [`IoBackend::ALL`].
impl Wire for IoBackend {
    const MIN_LEN: usize = 1;

    fn put(&self, b: &mut Vec<u8>) {
        let index = IoBackend::ALL
            .iter()
            .position(|x| x == self)
            .expect("IoBackend::ALL lists every backend");
        (index as u8).put(b);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let d = r.get::<u8>()?;
        IoBackend::ALL
            .get(usize::from(d))
            .copied()
            .ok_or_else(|| unknown("I/O backend", d))
    }
}

/// A [`Codec`] travels as its on-disk [`discriminant`](Codec::discriminant).
impl Wire for Codec {
    const MIN_LEN: usize = 1;

    fn put(&self, b: &mut Vec<u8>) {
        self.discriminant().put(b);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let d = r.get::<u8>()?;
        Codec::from_discriminant(d).ok_or_else(|| unknown("codec", d))
    }
}

/// Implement [`Wire`] for a record as its fields, in order. The field
/// list must name every field with its type, or the decoder's struct
/// literal does not compile.
macro_rules! wire_record {
    ($ty:ident { $($field:ident: $fty:ty),* $(,)? }) => {
        impl Wire for $ty {
            const MIN_LEN: usize = 0 $(+ <$fty as Wire>::MIN_LEN)*;

            fn put(&self, b: &mut Vec<u8>) {
                $(self.$field.put(b);)*
            }

            fn get(r: &mut Reader<'_>) -> Result<Self> {
                Ok($ty { $($field: r.get::<$fty>()?),* })
            }
        }
    };
}

/// Implement [`Wire`] for an enum from its tag table: the variant's tag
/// byte, then its fields in order. With `version`, every value starts
/// with that byte and a decoder refuses any other.
macro_rules! wire_enum {
    ($ty:ident, $what:literal $(, version $version:ident)? {
        $($tag:literal => $variant:ident
            $({ $($field:ident: $fty:ty),* $(,)? })?
            $(($($pos:ident: $pty:ty),*))?,)*
    }) => {
        impl Wire for $ty {
            const MIN_LEN: usize = 1;

            fn put(&self, b: &mut Vec<u8>) {
                $($version.put(b);)?
                match self {
                    $($ty::$variant $({ $($field),* })? $(($($pos),*))? => {
                        ($tag as u8).put(b);
                        $($($field.put(b);)*)?
                        $($($pos.put(b);)*)?
                    })*
                }
            }

            fn get(r: &mut Reader<'_>) -> Result<Self> {
                $(
                    let version = r.get::<u8>()?;
                    if version != $version {
                        return Err(ClusterError::Protocol(format!(
                            "wire version {version}, expected {}",
                            $version
                        )));
                    }
                )?
                match r.get::<u8>()? {
                    $($tag => Ok($ty::$variant
                        $({ $($field: r.get::<$fty>()?),* })?
                        $(($(r.get::<$pty>()?),*))?),)*
                    d => Err(unknown($what, d)),
                }
            }
        }
    };
}

/// One logical processor's configuration `C_{i,j}` (Figure 1): its
/// memory budget, pivot-edge range and MGT engine flags.
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
    /// source, then fail (`MgtOptions::read_fault`).
    pub read_fault: Option<u64>,
    /// On-disk codec the worker's node writes its oriented replica in
    /// (`MgtOptions::codec`).
    pub codec: Codec,
}

wire_record!(WorkerConfig {
    start: u64,
    end: u64,
    budget_edges: u64,
    scan_pruning: bool,
    backend: IoBackend,
    io_latency_us: u32,
    read_fault: Option<u64>,
    codec: Codec,
});

/// A node-level fault directive injected by the master's
/// [`FaultPlan`](crate::FaultPlan), executed by `serve_node` when the
/// config arrives. On the wire it is a kind byte, followed by the delay
/// for [`Delay`](Self::Delay).
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

wire_enum!(NodeFault, "node fault" {
    0 => None,
    1 => Panic,
    2 => Drop,
    3 => Stall,
    4 => Delay(ms: u32),
});

/// Runtime directives for one node dispatch, carried by the Config
/// message after its worker records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeDirectives {
    /// Milliseconds between `Progress` heartbeats while workers run;
    /// `0` disables heartbeats.
    pub heartbeat_ms: u32,
    /// Injected fault for this dispatch.
    pub fault: NodeFault,
}

wire_record!(NodeDirectives {
    heartbeat_ms: u32,
    fault: NodeFault,
});

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

wire_record!(WorkerSummary {
    worker: u32,
    start: u64,
    end: u64,
    triangles: u64,
    iterations: u64,
    cpu_ops: u64,
    bytes_read: u64,
    bytes_written: u64,
    seeks: u64,
    io_ops: u64,
    io_nanos: u64,
    wall_nanos: u64,
});

/// The analytics operation a serve-mode [`Message::Query`] requests.
///
/// On the wire an operation is its kind byte followed by the variant's
/// fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOperation {
    /// Exact triangle count (kind 0).
    Count,
    /// Exact listing; at most `limit` triples are returned in the
    /// response (the count is always exact) (kind 1).
    List {
        /// Maximum triples echoed back in the response.
        limit: u32,
    },
    /// Clustering coefficients: the response carries the average local
    /// coefficient and the transitivity ratio (kind 2).
    Clustering,
    /// K-truss: the response carries the `k`-truss edge count and the
    /// maximum `k` of the decomposition (kind 3).
    KTruss {
        /// The truss order requested.
        k: u32,
    },
    /// DOULION estimate averaged over `trials` sparsifications (kind 4).
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

wire_enum!(QueryOperation, "operation kind" {
    0 => Count,
    1 => List { limit: u32 },
    2 => Clustering,
    3 => KTruss { k: u32 },
    4 => Doulion {
        p_ppm: u32,
        seed: u64,
        trials: u32,
    },
});

impl QueryOperation {
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

wire_record!(QueryOptions {
    cores: u32,
    budget_edges: u64,
    scan_pruning: bool,
    backend: IoBackend,
    codec: Codec,
    io_latency_us: u32,
});

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

wire_record!(CatalogGraphInfo {
    name: String,
    vertices: u32,
    m_star: u64,
});

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

wire_record!(ServerStats {
    served: u64,
    failed: u64,
    inflight: u32,
    rejected_graphs: u32,
    bytes_read: u64,
    u32s_decoded: u64,
    admitted_peak: u64,
    budget_total: u64,
    latency_buckets: Vec<u64>,
    graphs: Vec<CatalogGraphInfo>,
});

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
        /// Heartbeat cadence and injected fault for this dispatch.
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
    /// scalar fields is per-operation (see the serve-mode section of
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

wire_enum!(Message, "message tag", version WIRE_VERSION {
    0 => Config {
        node: u32,
        graph_base: String,
        workers: Vec<WorkerConfig>,
        listing: bool,
        directives: NodeDirectives,
    },
    1 => Results { node: u32, workers: Vec<WorkerSummary> },
    2 => Triangles { node: u32, triples: Vec<(u32, u32, u32)> },
    3 => NodeError { node: u32, detail: String },
    4 => Progress { node: u32, seq: u32 },
    5 => Shutdown,
    6 => Query {
        id: u32,
        graph: String,
        op: QueryOperation,
        options: QueryOptions,
    },
    7 => QueryResult {
        id: u32,
        triangles: u64,
        value_bits: u64,
        aux: u64,
        wall_nanos: u64,
        workers: Vec<WorkerSummary>,
        triples: Vec<(u32, u32, u32)>,
    },
    8 => QueryError { id: u32, detail: String },
    9 => StatsRequest,
    10 => StatsResult { stats: ServerStats },
});

impl Message {
    /// Encode into a byte buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        self.put(&mut b);
        b
    }

    /// Decode a buffer produced by [`encode`](Self::encode); the buffer
    /// must hold exactly one message.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut r = Reader { buf };
        let msg = r.get::<Message>()?;
        if !r.buf.is_empty() {
            return Err(ClusterError::Protocol(format!(
                "{} trailing bytes after the message",
                r.buf.len()
            )));
        }
        Ok(msg)
    }

    /// Encoded size in bytes (what the network accounting charges).
    pub fn wire_size(&self) -> u64 {
        self.encode().len() as u64
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

    fn sample_worker(backend: IoBackend, codec: Codec) -> WorkerConfig {
        WorkerConfig {
            start: 7,
            end: 900,
            budget_edges: 4096,
            scan_pruning: false,
            backend,
            io_latency_us: 50,
            read_fault: None,
            codec,
        }
    }

    fn sample_query() -> Message {
        Message::Query {
            id: 1,
            graph: "g".into(),
            op: QueryOperation::Count,
            options: QueryOptions {
                cores: 2,
                budget_edges: 512,
                scan_pruning: true,
                backend: IoBackend::Mmap,
                codec: Codec::DeltaVarint,
                io_latency_us: 0,
            },
        }
    }

    fn protocol_error(bytes: &[u8]) -> String {
        match Message::decode(bytes) {
            Err(ClusterError::Protocol(detail)) => detail,
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn config_round_trip() {
        let msg = Message::Config {
            node: 3,
            graph_base: "/data/node3/oriented".into(),
            workers: IoBackend::ALL
                .into_iter()
                .enumerate()
                .map(|(i, backend)| WorkerConfig {
                    start: 100 * i as u64,
                    scan_pruning: i % 2 == 0,
                    ..sample_worker(backend, Codec::Raw)
                })
                .collect(),
            listing: true,
            directives: NodeDirectives::default(),
        };
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn uring_config_round_trips_through_the_wire() {
        for (i, backend) in IoBackend::ALL.into_iter().enumerate() {
            let cfg = sample_worker(backend, Codec::Raw);
            let mut b = Vec::new();
            cfg.put(&mut b);
            // start + end + budget, the pruning byte, then the backend's
            // index in IoBackend::ALL
            assert_eq!(b[25], i as u8, "{backend}");
            assert_eq!(b.len(), WorkerConfig::MIN_LEN);
            assert_eq!(Reader { buf: &b }.get::<WorkerConfig>().unwrap(), cfg);
        }
    }

    #[test]
    fn truncated_and_undersized_records_rejected() {
        let msg = Message::Config {
            node: 0,
            graph_base: "x".into(),
            workers: vec![sample_worker(IoBackend::Blocking, Codec::Raw)],
            listing: false,
            directives: NodeDirectives::default(),
        };
        // every cut, including one mid-field in the worker record
        let enc = msg.encode();
        for cut in 0..enc.len() {
            assert!(Message::decode(&enc[..cut]).is_err(), "cut at {cut}");
        }
        // A Triangles count of u32::MAX with one triple behind it fails
        // the count check before anything is allocated.
        let mut b = Message::Triangles {
            node: 0,
            triples: vec![(1, 2, 3)],
        }
        .encode();
        b[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        let detail = protocol_error(&b);
        assert!(detail.contains("count 4294967295"), "{detail}");
    }

    #[test]
    fn trailing_bytes_rejected() {
        for msg in [Message::Shutdown, sample_query()] {
            let mut b = msg.encode();
            b.push(0);
            let detail = protocol_error(&b);
            assert!(detail.contains("1 trailing bytes"), "{detail}");
        }
    }

    #[test]
    fn unknown_discriminants_rejected() {
        let query = sample_query().encode();
        let n = query.len();
        // Query ends with pruning, backend, codec, then the u32 latency.
        for (at, value, what) in [
            (1, 200u8, "message tag"),
            (n - 7, 2, "bool"),
            (n - 6, IoBackend::ALL.len() as u8, "I/O backend"),
            (n - 5, 250, "codec"),
        ] {
            let mut b = query.clone();
            b[at] = value;
            let detail = protocol_error(&b);
            assert!(detail.contains(what), "{what}: {detail}");
        }
        // A fault-free Config ends with its fault kind.
        let mut b = Message::Config {
            node: 0,
            graph_base: "g".into(),
            workers: vec![],
            listing: false,
            directives: NodeDirectives::default(),
        }
        .encode();
        *b.last_mut().unwrap() = 9;
        let detail = protocol_error(&b);
        assert!(detail.contains("node fault"), "{detail}");
    }

    #[test]
    fn results_round_trip() {
        let msg = Message::Results {
            node: 1,
            workers: (0..5).map(sample_summary).collect(),
        };
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn triangles_round_trip() {
        let msg = Message::Triangles {
            node: 2,
            triples: vec![(1, 2, 3), (4, 5, 6), (7, 8, 9)],
        };
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn node_error_round_trip() {
        let msg = Message::NodeError {
            node: 7,
            detail: "disk on fire".into(),
        };
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn progress_and_shutdown_round_trip() {
        let msg = Message::Progress { node: 3, seq: 17 };
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
        let msg = Message::Shutdown;
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
        assert_eq!(msg.wire_size(), 2, "version + tag, no filler");
    }

    #[test]
    fn config_with_directives_and_read_fault_round_trips() {
        let msg = Message::Config {
            node: 2,
            graph_base: "/data/node2/oriented".into(),
            workers: vec![
                WorkerConfig {
                    read_fault: Some(1000),
                    ..sample_worker(IoBackend::Blocking, Codec::Raw)
                },
                sample_worker(IoBackend::Mmap, Codec::DeltaVarint),
            ],
            listing: false,
            directives: NodeDirectives {
                heartbeat_ms: 250,
                fault: NodeFault::Delay(40),
            },
        };
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
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
            assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
        }
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
            assert_eq!(
                Message::decode(&msg.encode()).unwrap(),
                msg,
                "{}",
                op.name()
            );
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
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
        let msg = Message::QueryError {
            id: 9,
            detail: "unknown graph \"orkut\"".into(),
        };
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn stats_round_trip() {
        assert_eq!(
            Message::decode(&Message::StatsRequest.encode()).unwrap(),
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
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn unknown_operation_kind_rejected() {
        let mut b = sample_query().encode();
        // version, tag, id, then the 1-byte graph name "g"
        b[2 + 4 + 4 + 1] = 99;
        let detail = protocol_error(&b);
        assert!(detail.contains("operation kind"), "{detail}");
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
            assert!(Message::decode(&enc[..cut]).is_err(), "cut at {cut}");
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
        // 1 version + 1 tag + 4 node + 4 count + 100 * 12
        assert_eq!(msg.wire_size(), 10 + 1200);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Message::decode(&[]).is_err());
        let detail = protocol_error(&[9, 0, 0, 0, 0]);
        assert!(detail.contains("wire version 9"), "{detail}");
    }

    #[test]
    fn empty_collections_round_trip() {
        let msg = Message::Results {
            node: 0,
            workers: vec![],
        };
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
        let msg = Message::Triangles {
            node: 0,
            triples: vec![],
        };
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }
}
