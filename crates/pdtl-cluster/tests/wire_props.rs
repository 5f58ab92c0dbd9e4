//! Property tests of the wire codec: every message round-trips, every
//! strict prefix of an encoding is refused, and no byte string —
//! random, or a valid encoding with bytes overwritten — makes `decode`
//! panic. The unit tests in `message.rs` pin each enum value's
//! round trip and each typed decode error.

use pdtl_cluster::message::{WorkerConfig, WorkerSummary, WIRE_VERSION};
use pdtl_cluster::{
    CatalogGraphInfo, Message, NodeDirectives, NodeFault, QueryOperation, QueryOptions, ServerStats,
};
use pdtl_io::{Codec, IoBackend};
use proptest::prelude::*;

/// Number of `Message` variants; `Fields::message(k)` builds variant `k`.
const KINDS: u8 = 11;

const FAULTS: [NodeFault; 5] = [
    NodeFault::None,
    NodeFault::Panic,
    NodeFault::Drop,
    NodeFault::Stall,
    NodeFault::Delay(40),
];

const OPS: [QueryOperation; 5] = [
    QueryOperation::Count,
    QueryOperation::List { limit: 128 },
    QueryOperation::Clustering,
    QueryOperation::KTruss { k: 4 },
    QueryOperation::Doulion {
        p_ppm: 500_000,
        seed: 42,
        trials: 16,
    },
];

const CODECS: [Codec; 2] = [Codec::Raw, Codec::DeltaVarint];

/// Field values drawn from one seed (splitmix64).
struct Fields(u64);

impl Fields {
    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[(self.u64() % from.len() as u64) as usize]
    }

    /// A short collection of generated elements.
    fn many<T>(&mut self, mut f: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let len = self.u64() % 5;
        (0..len).map(|_| f(self)).collect()
    }

    fn string(&mut self) -> String {
        self.many(|f| f.pick(&["a", "/", "é", "✓"])).concat()
    }

    fn worker(&mut self) -> WorkerConfig {
        WorkerConfig {
            start: self.u64(),
            end: self.u64(),
            budget_edges: self.u64(),
            scan_pruning: self.pick(&[false, true]),
            backend: self.pick(&IoBackend::ALL),
            io_latency_us: self.u32(),
            read_fault: self.pick(&[None, Some(self.0)]),
            codec: self.pick(&CODECS),
        }
    }

    fn summary(&mut self) -> WorkerSummary {
        WorkerSummary {
            worker: self.u32(),
            start: self.u64(),
            end: self.u64(),
            triangles: self.u64(),
            iterations: self.u64(),
            cpu_ops: self.u64(),
            bytes_read: self.u64(),
            bytes_written: self.u64(),
            seeks: self.u64(),
            io_ops: self.u64(),
            io_nanos: self.u64(),
            wall_nanos: self.u64(),
        }
    }

    fn triple(&mut self) -> (u32, u32, u32) {
        (self.u32(), self.u32(), self.u32())
    }

    fn options(&mut self) -> QueryOptions {
        QueryOptions {
            cores: self.u32(),
            budget_edges: self.u64(),
            scan_pruning: self.pick(&[false, true]),
            backend: self.pick(&IoBackend::ALL),
            codec: self.pick(&CODECS),
            io_latency_us: self.u32(),
        }
    }

    fn message(&mut self, kind: u8) -> Message {
        let (node, id) = (self.u32(), self.u32());
        match kind {
            0 => Message::Config {
                node,
                graph_base: self.string(),
                workers: self.many(Self::worker),
                listing: self.pick(&[false, true]),
                directives: NodeDirectives {
                    heartbeat_ms: self.u32(),
                    fault: self.pick(&FAULTS),
                },
            },
            1 => Message::Results {
                node,
                workers: self.many(Self::summary),
            },
            2 => Message::Triangles {
                node,
                triples: self.many(Self::triple),
            },
            3 => Message::NodeError {
                node,
                detail: self.string(),
            },
            4 => Message::Progress { node, seq: id },
            5 => Message::Shutdown,
            6 => Message::Query {
                id,
                graph: self.string(),
                op: self.pick(&OPS),
                options: self.options(),
            },
            7 => Message::QueryResult {
                id,
                triangles: self.u64(),
                value_bits: self.u64(),
                aux: self.u64(),
                wall_nanos: self.u64(),
                workers: self.many(Self::summary),
                triples: self.many(Self::triple),
            },
            8 => Message::QueryError {
                id,
                detail: self.string(),
            },
            9 => Message::StatsRequest,
            _ => Message::StatsResult {
                stats: ServerStats {
                    served: self.u64(),
                    failed: self.u64(),
                    inflight: self.u32(),
                    rejected_graphs: self.u32(),
                    bytes_read: self.u64(),
                    u32s_decoded: self.u64(),
                    admitted_peak: self.u64(),
                    budget_total: self.u64(),
                    latency_buckets: self.many(Self::u64),
                    graphs: self.many(|f| CatalogGraphInfo {
                        name: f.string(),
                        vertices: f.u32(),
                        m_star: f.u64(),
                    }),
                },
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn encode_then_decode_is_the_identity(kind in 0..KINDS, seed in any::<u64>()) {
        let msg = Fields(seed).message(kind);
        let enc = msg.encode();
        prop_assert_eq!(enc[0], WIRE_VERSION);
        prop_assert_eq!(msg.wire_size(), enc.len() as u64);
        prop_assert_eq!(Message::decode(&enc).unwrap(), msg);
    }

    #[test]
    fn every_strict_prefix_is_an_error(kind in 0..KINDS, seed in any::<u64>()) {
        let enc = Fields(seed).message(kind).encode();
        for cut in 0..enc.len() {
            prop_assert!(Message::decode(&enc[..cut]).is_err(), "prefix of {} bytes", cut);
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(
        tag in 0u8..16,
        tail in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let _ = Message::decode(&tail);
        // A valid version and a near-valid tag reach the field decoders.
        let mut framed = vec![WIRE_VERSION, tag];
        framed.extend_from_slice(&tail);
        let _ = Message::decode(&framed);
    }

    #[test]
    fn overwritten_encodings_never_panic(
        kind in 0..KINDS,
        seed in any::<u64>(),
        edits in prop::collection::vec((any::<u64>(), any::<u8>()), 1..6),
    ) {
        let mut enc = Fields(seed).message(kind).encode();
        for (at, byte) in edits {
            let at = (at % enc.len() as u64) as usize;
            enc[at] = byte;
        }
        let _ = Message::decode(&enc);
    }
}
