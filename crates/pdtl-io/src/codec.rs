//! The codec layer of the transport × codec split: how byte runs become
//! `u32` runs, independent of how the bytes are fetched.
//!
//! PDTL's four I/O backends ([`IoBackend`](crate::IoBackend)) are pure
//! *block transports*: they move little-endian words from disk with
//! identical accounting and know nothing about what the words mean. This
//! module adds the layer above them — a [`Codec`] selected per file:
//!
//! * [`Raw`](Codec::Raw) — the identity. Words on disk *are* the logical
//!   `u32`s, engines read transports directly, nothing changes.
//! * [`DeltaVarint`](Codec::DeltaVarint) — each vertex's out-list (a
//!   strictly increasing run, guaranteed by rank-space relabeling) is
//!   stored as `varint(first)` then `varint(gap - 1)` per successor,
//!   LEB128-style (7 payload bits per byte, high bit = continuation).
//!   [`VarintSource`] wraps *any* transport and decodes the byte stream
//!   carried in its words back into logical `u32`s, using a
//!   [`VarintIndex`] (per-vertex decoded + byte offsets) so `seek_to`
//!   and `skip` still work in decoded index space.
//!
//! The compressed `.adj` byte stream is zero-padded to a 4-byte multiple
//! so every transport's "length is a multiple of 4" open check passes,
//! and [`VarintSource`] issues the *same* word-level operation sequence
//! regardless of which transport it wraps — so the property-tested
//! accounting parity across backends extends to the codec × transport
//! cross-product for free. `IoStats::bytes_read`/`seeks` keep counting
//! device transfers (now compressed), while the decoded logical volume
//! lands in the new [`IoStats::record_decoded`] dimension.

use std::path::Path;
use std::sync::Arc;

use crate::error::{IoError, Result};
use crate::stats::IoStats;
use crate::stream::{U32Reader, U32Source, U32Writer};

/// How the logical `u32`s of a graph file are encoded into the bytes a
/// block transport moves.
///
/// Names round-trip through [`parse`](Self::parse), and the wire
/// discriminant through [`from_discriminant`](Self::from_discriminant):
///
/// ```
/// use pdtl_io::Codec;
///
/// for c in Codec::ALL {
///     assert_eq!(Codec::parse(c.name()), Some(c));
///     assert_eq!(Codec::from_discriminant(c.discriminant()), Some(c));
/// }
/// assert_eq!(Codec::parse("DELTA-VARINT"), Some(Codec::DeltaVarint));
/// assert_eq!(Codec::default(), Codec::Raw);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Codec {
    /// Identity: one little-endian word per logical `u32` (the PR 2
    /// on-disk format, and the format of every `.deg` file regardless
    /// of the adjacency codec).
    #[default]
    Raw,
    /// Per-vertex delta + LEB128 varint runs with a byte-offset index
    /// sidecar; decoded by [`VarintSource`] above any transport.
    DeltaVarint,
}

/// Environment variable overriding the default codec
/// (`raw` | `delta-varint`, case-insensitive). Consumed by
/// `MgtOptions::default`, which is how the CI matrix runs the whole
/// suite under each codec without touching any call site.
pub const CODEC_ENV: &str = "PDTL_CODEC";

impl Codec {
    /// Every codec, in wire-discriminant order (the order of the
    /// record-tail encoding in the cluster's `WorkerConfig`).
    pub const ALL: [Codec; 2] = [Codec::Raw, Codec::DeltaVarint];

    /// Stable lowercase name (bench row / CLI / env spelling).
    pub fn name(self) -> &'static str {
        match self {
            Codec::Raw => "raw",
            Codec::DeltaVarint => "delta-varint",
        }
    }

    /// Parse a codec name, case-insensitively. `delta_varint` and the
    /// short `varint` spelling both name [`DeltaVarint`](Codec::DeltaVarint).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "raw" => Some(Codec::Raw),
            "delta-varint" | "delta_varint" | "varint" => Some(Codec::DeltaVarint),
            _ => None,
        }
    }

    /// The codec selected by [`CODEC_ENV`], if set and valid.
    pub fn from_env() -> Option<Self> {
        std::env::var(CODEC_ENV).ok().and_then(|v| Self::parse(&v))
    }

    /// The default codec, honouring the environment override:
    /// [`Raw`](Codec::Raw) unless [`CODEC_ENV`] names another one.
    pub fn default_from_env() -> Self {
        Self::from_env().unwrap_or(Codec::Raw)
    }

    /// Stable single-byte discriminant used by the on-disk format
    /// header and the cluster wire protocol.
    pub fn discriminant(self) -> u8 {
        match self {
            Codec::Raw => 0,
            Codec::DeltaVarint => 1,
        }
    }

    /// Inverse of [`discriminant`](Self::discriminant); `None` for
    /// values no known codec uses (the wire decoder rejects those).
    pub fn from_discriminant(d: u8) -> Option<Self> {
        match d {
            0 => Some(Codec::Raw),
            1 => Some(Codec::DeltaVarint),
            _ => None,
        }
    }
}

impl std::fmt::Display for Codec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Append the LEB128 varint encoding of `v` (1–5 bytes) to `out`.
pub fn encode_varint_u32(mut v: u32, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Decode one LEB128 varint from `bytes` starting at `*pos`, advancing
/// `*pos` past it. `None` on truncation or a value overflowing `u32`.
pub fn decode_varint_u32(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let mut acc: u32 = 0;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        if shift == 28 && b > 0x0f {
            return None; // fifth byte may only carry the top 4 bits
        }
        acc |= u32::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(acc);
        }
        shift += 7;
        if shift > 28 {
            return None;
        }
    }
}

/// Append the delta + varint encoding of one strictly increasing run
/// (one vertex's out-list): `varint(run[0])`, then `varint(gap - 1)`
/// per successor. Errors if the run is not strictly increasing (the
/// invariant rank-space orientation guarantees).
pub fn encode_run(run: &[u32], out: &mut Vec<u8>) -> Result<()> {
    let Some(&first) = run.first() else {
        return Ok(());
    };
    encode_varint_u32(first, out);
    let mut prev = first;
    for &v in &run[1..] {
        if v <= prev {
            return Err(IoError::malformed(
                "<adjacency run>",
                format!("run not strictly increasing: {v} after {prev}"),
            ));
        }
        encode_varint_u32(v - prev - 1, out);
        prev = v;
    }
    Ok(())
}

/// The per-vertex index a [`VarintSource`] navigates by: for each of
/// the `n + 1` fenceposts, the decoded `u32` offset (prefix sums of the
/// `.deg` degrees) and the byte offset of the vertex's encoded run
/// within the compressed `.adj` (persisted in the `.vix` sidecar).
///
/// Both arrays are monotone with equal length; the last entries are the
/// total decoded length and total encoded byte length. Shared via `Arc`
/// by every source over the same file.
#[derive(Debug)]
pub struct VarintIndex {
    decoded: Vec<u64>,
    bytes: Vec<u64>,
}

impl VarintIndex {
    /// Build an index from fencepost arrays (validated: equal non-zero
    /// length, both monotone non-decreasing, starting at 0).
    pub fn new(decoded: Vec<u64>, bytes: Vec<u64>) -> Result<Self> {
        let check = |name: &str, v: &[u64]| -> Result<()> {
            if v.first() != Some(&0) || v.windows(2).any(|w| w[0] > w[1]) {
                return Err(IoError::malformed(
                    "<varint index>",
                    format!("{name} offsets must be monotone and start at 0"),
                ));
            }
            Ok(())
        };
        if decoded.len() != bytes.len() || decoded.is_empty() {
            return Err(IoError::malformed(
                "<varint index>",
                format!(
                    "offset arrays disagree: {} decoded vs {} byte fenceposts",
                    decoded.len(),
                    bytes.len()
                ),
            ));
        }
        check("decoded", &decoded)?;
        check("byte", &bytes)?;
        Ok(Self { decoded, bytes })
    }

    /// Number of vertices indexed.
    pub fn num_vertices(&self) -> usize {
        self.decoded.len() - 1
    }

    /// Total decoded length in `u32`s (what `len_u32` reports above the
    /// codec).
    pub fn decoded_len(&self) -> u64 {
        *self.decoded.last().unwrap()
    }

    /// Total encoded byte length, before word padding.
    pub fn encoded_bytes(&self) -> u64 {
        *self.bytes.last().unwrap()
    }

    /// Load the byte-offset sidecar at `vix_path` (pairs of `(lo, hi)`
    /// words per fencepost) and pair it with `decoded` fenceposts.
    pub fn load(
        vix_path: impl AsRef<Path>,
        decoded: Vec<u64>,
        stats: Arc<IoStats>,
    ) -> Result<Self> {
        let vix_path = vix_path.as_ref();
        let mut r = U32Reader::open(vix_path, stats)?;
        let words = r.read_all()?;
        if words.len() != 2 * decoded.len() {
            return Err(IoError::malformed(
                vix_path,
                format!(
                    "index has {} words, expected {} for {} fenceposts",
                    words.len(),
                    2 * decoded.len(),
                    decoded.len()
                ),
            ));
        }
        let bytes = words
            .chunks_exact(2)
            .map(|c| u64::from(c[0]) | (u64::from(c[1]) << 32))
            .collect();
        Self::new(decoded, bytes)
    }

    /// Persist byte fenceposts as the `.vix` sidecar format
    /// [`load`](Self::load) reads.
    pub fn store(
        vix_path: impl AsRef<Path>,
        byte_offsets: &[u64],
        stats: Arc<IoStats>,
    ) -> Result<()> {
        let mut w = U32Writer::create(vix_path, stats)?;
        for &b in byte_offsets {
            w.write(b as u32)?;
            w.write((b >> 32) as u32)?;
        }
        w.finish()?;
        Ok(())
    }
}

/// Writer producing the compressed `.adj` representation: encoded runs
/// appended back to back, the whole stream zero-padded to a 4-byte
/// multiple and written through an accounted [`U32Writer`] (so
/// `bytes_written` counts the compressed volume the device sees).
/// Collects the per-vertex byte fenceposts for the `.vix` sidecar.
#[derive(Debug)]
pub struct VarintAdjWriter {
    writer: U32Writer,
    pending: Vec<u8>,
    scratch: Vec<u8>,
    byte_offsets: Vec<u64>,
    total_bytes: u64,
}

impl VarintAdjWriter {
    /// Create (truncate) the compressed adjacency file at `path`.
    pub fn create(path: impl AsRef<Path>, stats: Arc<IoStats>) -> Result<Self> {
        Ok(Self {
            writer: U32Writer::create(path, stats)?,
            pending: Vec::new(),
            scratch: Vec::new(),
            byte_offsets: Vec::new(),
            total_bytes: 0,
        })
    }

    /// Encode and append one vertex's out-list (strictly increasing;
    /// empty runs occupy zero bytes). Call exactly once per vertex, in
    /// vertex order.
    pub fn write_run(&mut self, run: &[u32]) -> Result<()> {
        self.byte_offsets.push(self.total_bytes);
        self.scratch.clear();
        encode_run(run, &mut self.scratch)?;
        self.total_bytes += self.scratch.len() as u64;
        self.pending.extend_from_slice(&self.scratch);
        let whole = self.pending.len() / 4;
        for w in self.pending[..whole * 4].chunks_exact(4) {
            self.writer
                .write(u32::from_le_bytes([w[0], w[1], w[2], w[3]]))?;
        }
        self.pending.drain(..whole * 4);
        Ok(())
    }

    /// Pad to a word boundary, flush, and return the `n + 1` byte
    /// fenceposts (the last is the unpadded encoded byte length).
    pub fn finish(mut self) -> Result<Vec<u64>> {
        self.byte_offsets.push(self.total_bytes);
        while !self.pending.is_empty() && !self.pending.len().is_multiple_of(4) {
            self.pending.push(0);
        }
        for w in std::mem::take(&mut self.pending).chunks_exact(4) {
            self.writer
                .write(u32::from_le_bytes([w[0], w[1], w[2], w[3]]))?;
        }
        self.writer.finish()?;
        Ok(std::mem::take(&mut self.byte_offsets))
    }
}

/// How many transport words a [`VarintSource`] fetches per refill of
/// its decode buffer. Deliberately no larger than the transports' own
/// block buffer, so the word-op sequence the codec issues is identical
/// above every backend.
const FETCH_WORDS: usize = 4 * 1024;

/// A [`U32Source`] decoding a delta + varint byte stream carried in the
/// little-endian words of any block transport.
///
/// All positions (`position`, `seek_to`, `skip`, `len_u32`) are in
/// *decoded* index space, so engines written against raw sources work
/// unchanged. Device accounting stays with the wrapped transport
/// (compressed bytes, real seeks); the decoded logical volume is
/// charged to [`IoStats::record_decoded`].
///
/// Positioning follows the seam contract: positions clamp at (decoded)
/// end-of-file; `seek_to` costs one transport seek (to the word holding
/// the target vertex's first byte) plus in-buffer decode-discard;
/// forward `skip`s move the transport with its own `skip`, so the
/// short-skip coalescing that keeps bound-pruned scans sequential is
/// inherited from the transport layer.
#[derive(Debug)]
pub struct VarintSource<T> {
    inner: T,
    index: Arc<VarintIndex>,
    stats: Arc<IoStats>,
    /// Decoded position (next value index).
    pos: u64,
    /// Vertex whose run contains `pos` (maintained lazily; advanced in
    /// `decode_next`).
    vertex: usize,
    /// Last decoded value of the current run (valid when `pos` is past
    /// the run start).
    prev: u32,
    /// Words fetched from the transport, served as a byte stream.
    word_buf: Vec<u32>,
    /// Absolute byte offset of `word_buf[0]` (always word-aligned).
    buf_byte_start: u64,
    /// Absolute byte offset of the next byte to serve.
    abs_byte: u64,
}

impl<T: U32Source> VarintSource<T> {
    /// Wrap a freshly opened transport (positioned at word 0) over the
    /// compressed file described by `index`.
    pub fn new(inner: T, index: Arc<VarintIndex>, stats: Arc<IoStats>) -> Result<Self> {
        let words = inner.len_u32();
        let needed = index.encoded_bytes().div_ceil(4);
        if words < needed {
            return Err(IoError::malformed(
                "<varint stream>",
                format!("file holds {words} words, index expects at least {needed}"),
            ));
        }
        Ok(Self {
            inner,
            index,
            stats,
            pos: 0,
            vertex: 0,
            prev: 0,
            word_buf: Vec::new(),
            buf_byte_start: 0,
            abs_byte: 0,
        })
    }

    /// The wrapped transport (for latency injection and inspection).
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    fn buffered_end(&self) -> u64 {
        self.buf_byte_start + 4 * self.word_buf.len() as u64
    }

    /// Serve the next byte of the encoded stream, refilling from the
    /// transport as needed.
    fn next_byte(&mut self) -> Result<u8> {
        if self.abs_byte >= self.buffered_end() {
            self.word_buf.clear();
            let word_pos = self.inner.position();
            self.buf_byte_start = word_pos * 4;
            let got = self.inner.read_into(&mut self.word_buf, FETCH_WORDS)?;
            if got == 0 || self.abs_byte >= self.buffered_end() {
                return Err(IoError::malformed(
                    "<varint stream>",
                    format!("encoded stream truncated at byte {}", self.abs_byte),
                ));
            }
        }
        let off = (self.abs_byte - self.buf_byte_start) as usize;
        let b = (self.word_buf[off / 4] >> (8 * (off % 4))) as u8;
        self.abs_byte += 1;
        Ok(b)
    }

    fn read_varint(&mut self) -> Result<u32> {
        let mut acc: u32 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.next_byte()?;
            if shift == 28 && b > 0x0f {
                return Err(IoError::malformed(
                    "<varint stream>",
                    "varint overflows u32".to_string(),
                ));
            }
            acc |= u32::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(acc);
            }
            shift += 7;
            if shift > 28 {
                return Err(IoError::malformed(
                    "<varint stream>",
                    "varint longer than 5 bytes".to_string(),
                ));
            }
        }
    }

    /// Decode the value at `pos` (caller guarantees `pos < len`),
    /// advancing the run state.
    fn decode_next(&mut self) -> Result<u32> {
        while self.index.decoded[self.vertex + 1] <= self.pos {
            self.vertex += 1;
        }
        let at_run_start = self.pos == self.index.decoded[self.vertex];
        let g = self.read_varint()?;
        let v = if at_run_start { g } else { self.prev + g + 1 };
        self.prev = v;
        self.pos += 1;
        Ok(v)
    }

    /// Vertex whose run contains decoded index `idx` (`idx < len`).
    fn vertex_of(&self, idx: u64) -> usize {
        // First fencepost strictly above idx, minus one: zero-degree
        // vertices share fenceposts and are skipped past.
        self.index.decoded.partition_point(|&d| d <= idx) - 1
    }

    /// Move the byte cursor forward to `to_byte` without recording a
    /// seek where the transport's own skip coalescing avoids one.
    fn byte_skip_to(&mut self, to_byte: u64) -> Result<()> {
        if to_byte >= self.buf_byte_start && to_byte <= self.buffered_end() {
            self.abs_byte = to_byte;
            return Ok(());
        }
        let word_tgt = to_byte / 4;
        let cur = self.inner.position();
        if word_tgt >= cur {
            self.inner.skip(word_tgt - cur)?;
        } else {
            self.inner.seek_to(word_tgt)?;
        }
        self.word_buf.clear();
        self.buf_byte_start = word_tgt * 4;
        self.abs_byte = to_byte;
        Ok(())
    }

    /// Reposition to decoded index `idx`, landing the byte stream at
    /// the containing vertex's run start and decode-discarding up to
    /// `idx`. `reposition` moves the transport.
    fn land_at(
        &mut self,
        idx: u64,
        reposition: impl FnOnce(&mut Self, u64) -> Result<()>,
    ) -> Result<()> {
        let len = self.index.decoded_len();
        debug_assert!(idx <= len);
        let (vertex, run_start, byte) = if idx == len {
            let n = self.index.num_vertices();
            (n, len, self.index.encoded_bytes())
        } else {
            let v = self.vertex_of(idx);
            (v, self.index.decoded[v], self.index.bytes[v])
        };
        reposition(self, byte)?;
        self.vertex = vertex;
        self.pos = run_start;
        self.prev = 0;
        while self.pos < idx {
            self.decode_next()?;
        }
        Ok(())
    }
}

impl<T: U32Source> U32Source for VarintSource<T> {
    fn len_u32(&self) -> u64 {
        self.index.decoded_len()
    }

    fn position(&self) -> u64 {
        self.pos
    }

    fn seek_to(&mut self, index: u64) -> Result<()> {
        let index = index.min(self.index.decoded_len());
        self.land_at(index, |s, byte| {
            s.inner.seek_to(byte / 4)?;
            s.word_buf.clear();
            s.buf_byte_start = (byte / 4) * 4;
            s.abs_byte = byte;
            Ok(())
        })
    }

    fn read_into(&mut self, out: &mut Vec<u32>, n: usize) -> Result<usize> {
        let len = self.index.decoded_len();
        let mut got = 0usize;
        while got < n && self.pos < len {
            let v = self.decode_next()?;
            out.push(v);
            got += 1;
        }
        if got > 0 {
            self.stats.record_decoded(got as u64);
        }
        Ok(got)
    }

    fn skip(&mut self, n: u64) -> Result<()> {
        let len = self.index.decoded_len();
        let n = n.min(len.saturating_sub(self.pos));
        if n == 0 {
            return Ok(());
        }
        let target = self.pos + n;
        // Inside the current vertex's run the byte stream is already
        // positioned: decode-discard (pure buffer work, usually).
        if self.vertex < self.index.num_vertices()
            && self.pos >= self.index.decoded[self.vertex]
            && target <= self.index.decoded[self.vertex + 1]
        {
            while self.pos < target {
                self.decode_next()?;
            }
            return Ok(());
        }
        // Crossing runs: jump by index, moving the transport with its
        // own skip so short moves inherit read-through coalescing.
        self.land_at(target, |s, byte| s.byte_skip_to(byte))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pdtl-codec-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    /// Deterministic strictly-increasing runs with varied gaps.
    fn make_runs(n: usize, seed: u64) -> Vec<Vec<u32>> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|_| {
                let deg = (next() % 7) as usize; // includes zero-degree
                let mut v = next() as u32 % 1000;
                let mut run = Vec::with_capacity(deg);
                for _ in 0..deg {
                    run.push(v);
                    v = v.saturating_add(1 + (next() as u32 % 200));
                }
                run
            })
            .collect()
    }

    /// Write runs through the compressed writer, return (index, path).
    fn write_fixture(name: &str, runs: &[Vec<u32>]) -> (Arc<VarintIndex>, PathBuf) {
        let p = tmp(name);
        let stats = IoStats::new();
        let mut w = VarintAdjWriter::create(&p, stats.clone()).unwrap();
        for run in runs {
            w.write_run(run).unwrap();
        }
        let bytes = w.finish().unwrap();
        let mut decoded = vec![0u64];
        for run in runs {
            decoded.push(decoded.last().unwrap() + run.len() as u64);
        }
        (Arc::new(VarintIndex::new(decoded, bytes).unwrap()), p)
    }

    fn open_source(
        index: &Arc<VarintIndex>,
        path: &Path,
        stats: &Arc<IoStats>,
    ) -> VarintSource<U32Reader> {
        let r = U32Reader::open(path, stats.clone()).unwrap();
        VarintSource::new(r, index.clone(), stats.clone()).unwrap()
    }

    #[test]
    fn codec_names_and_discriminants_round_trip() {
        assert_eq!(Codec::ALL.len(), 2);
        for c in Codec::ALL {
            assert_eq!(Codec::parse(c.name()), Some(c));
            assert_eq!(Codec::parse(&c.name().to_uppercase()), Some(c));
            assert_eq!(Codec::from_discriminant(c.discriminant()), Some(c));
            assert_eq!(c.to_string(), c.name());
        }
        assert_eq!(Codec::parse("varint"), Some(Codec::DeltaVarint));
        assert_eq!(Codec::parse("delta_varint"), Some(Codec::DeltaVarint));
        assert_eq!(Codec::parse("gibberish"), None);
        assert_eq!(Codec::from_discriminant(7), None);
    }

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [
            0u32,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX - 1,
            u32::MAX,
        ] {
            let mut buf = Vec::new();
            encode_varint_u32(v, &mut buf);
            assert!(buf.len() <= 5);
            let mut pos = 0;
            assert_eq!(decode_varint_u32(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
        // Truncated and overlong streams are rejected.
        let mut pos = 0;
        assert_eq!(decode_varint_u32(&[0x80], &mut pos), None);
        let mut pos = 0;
        assert_eq!(
            decode_varint_u32(&[0xff, 0xff, 0xff, 0xff, 0x7f], &mut pos),
            None,
            "would overflow u32"
        );
    }

    #[test]
    fn encode_run_rejects_non_increasing() {
        let mut out = Vec::new();
        assert!(encode_run(&[5, 5], &mut out).is_err());
        assert!(encode_run(&[5, 3], &mut out).is_err());
        assert!(encode_run(&[], &mut out).is_ok());
        assert!(encode_run(&[5, 6, 100], &mut out).is_ok());
    }

    #[test]
    fn dense_runs_compress_near_one_byte_per_value() {
        // Gap-1 deltas of a dense rank-space out-list are tiny: the
        // encoded size should approach 1 byte per value vs 4 raw.
        let run: Vec<u32> = (0..10_000u32).map(|i| i * 2).collect();
        let mut out = Vec::new();
        encode_run(&run, &mut out).unwrap();
        assert!(
            out.len() < run.len() + 8,
            "{} bytes for {} values",
            out.len(),
            run.len()
        );
    }

    #[test]
    fn sequential_decode_matches_logical_stream() {
        let runs = make_runs(300, 42);
        let (index, p) = write_fixture("seq", &runs);
        let flat: Vec<u32> = runs.iter().flatten().copied().collect();
        assert_eq!(index.decoded_len(), flat.len() as u64);

        let stats = IoStats::new();
        let mut src = open_source(&index, &p, &stats);
        assert_eq!(src.len_u32(), flat.len() as u64);
        let mut out = Vec::new();
        assert_eq!(
            src.read_into(&mut out, flat.len() + 10).unwrap(),
            flat.len()
        );
        assert_eq!(out, flat);
        assert_eq!(src.position(), flat.len() as u64);
        assert_eq!(stats.u32s_decoded(), flat.len() as u64);
        assert!(
            stats.bytes_read() < 4 * flat.len() as u64,
            "compressed file must be smaller than raw"
        );
    }

    #[test]
    fn seek_lands_mid_run_and_mid_word() {
        let runs = make_runs(200, 7);
        let (index, p) = write_fixture("seek", &runs);
        let flat: Vec<u32> = runs.iter().flatten().copied().collect();
        let stats = IoStats::new();
        let mut src = open_source(&index, &p, &stats);
        // Probe a spread of positions, including mid-run ones whose
        // byte offsets are certainly not word-aligned.
        for idx in [0usize, 1, 3, 17, flat.len() / 2, flat.len() - 1] {
            src.seek_to(idx as u64).unwrap();
            assert_eq!(src.position(), idx as u64);
            let mut out = Vec::new();
            src.read_into(&mut out, 3).unwrap();
            let want: Vec<u32> = flat[idx..(idx + 3).min(flat.len())].to_vec();
            assert_eq!(out, want, "at index {idx}");
        }
    }

    #[test]
    fn seek_and_skip_clamp_at_decoded_eof() {
        let runs = make_runs(50, 3);
        let (index, p) = write_fixture("clamp", &runs);
        let stats = IoStats::new();
        let mut src = open_source(&index, &p, &stats);
        src.seek_to(u64::MAX).unwrap();
        assert_eq!(src.position(), index.decoded_len());
        let mut out = Vec::new();
        assert_eq!(src.read_into(&mut out, 5).unwrap(), 0);

        let mut src = open_source(&index, &p, &stats);
        src.skip(u64::MAX).unwrap();
        assert_eq!(src.position(), index.decoded_len());
        assert_eq!(src.read_into(&mut out, 5).unwrap(), 0);
    }

    #[test]
    fn empty_file_decodes_to_nothing() {
        let (index, p) = write_fixture("empty", &[Vec::new(), Vec::new()]);
        assert_eq!(index.decoded_len(), 0);
        assert_eq!(index.encoded_bytes(), 0);
        let stats = IoStats::new();
        let mut src = open_source(&index, &p, &stats);
        assert_eq!(src.len_u32(), 0);
        let mut out = Vec::new();
        assert_eq!(src.read_into(&mut out, 10).unwrap(), 0);
        src.seek_to(3).unwrap();
        src.skip(2).unwrap();
        assert_eq!(src.position(), 0);
    }

    #[test]
    fn interleaved_skip_read_matches_reference() {
        let runs = make_runs(400, 99);
        let (index, p) = write_fixture("interleave", &runs);
        let flat: Vec<u32> = runs.iter().flatten().copied().collect();
        let stats = IoStats::new();
        let mut src = open_source(&index, &p, &stats);
        let mut at = 0usize;
        let mut step = 1usize;
        while at < flat.len() {
            src.skip(step as u64).unwrap();
            at = (at + step).min(flat.len());
            assert_eq!(src.position(), at as u64);
            let mut out = Vec::new();
            let got = src.read_into(&mut out, 2).unwrap();
            assert_eq!(out, flat[at..at + got]);
            at += got;
            step = step % 37 + 3;
        }
    }

    #[test]
    fn short_skips_do_not_seek() {
        // The bound-pruned scan pattern: skip a few values, read a few,
        // repeatedly. The transport's read-through coalescing must be
        // inherited — zero OS seeks.
        let runs = make_runs(500, 11);
        let (index, p) = write_fixture("noseek", &runs);
        let stats = IoStats::new();
        let mut src = open_source(&index, &p, &stats);
        let mut out = Vec::new();
        while src.position() + 8 < src.len_u32() {
            src.skip(6).unwrap();
            out.clear();
            src.read_into(&mut out, 2).unwrap();
        }
        assert_eq!(stats.seeks(), 0, "short skips must stay sequential");
    }

    #[test]
    fn trait_read_exact_range_works_in_decoded_space() {
        let runs = make_runs(100, 5);
        let (index, p) = write_fixture("range", &runs);
        let flat: Vec<u32> = runs.iter().flatten().copied().collect();
        let stats = IoStats::new();
        let mut src = open_source(&index, &p, &stats);
        let mut out = Vec::new();
        let (pos, len) = (flat.len() as u64 / 3, flat.len() / 2);
        src.read_exact_range(pos, len, &mut out).unwrap();
        assert_eq!(out, flat[pos as usize..pos as usize + len]);
        let err = src
            .read_exact_range(flat.len() as u64 - 1, 2, &mut out)
            .unwrap_err();
        assert!(err.to_string().contains("past end"));
    }

    #[test]
    fn index_sidecar_round_trips() {
        let runs = make_runs(64, 21);
        let (index, _p) = write_fixture("vix", &runs);
        let vix = tmp("vix-sidecar");
        let stats = IoStats::new();
        VarintIndex::store(&vix, &index.bytes, stats.clone()).unwrap();
        assert!(stats.bytes_written() > 0, "sidecar writes are accounted");
        let loaded = VarintIndex::load(&vix, index.decoded.clone(), stats.clone()).unwrap();
        assert_eq!(loaded.bytes, index.bytes);
        assert!(stats.bytes_read() > 0, "sidecar reads are accounted");

        let short = index.decoded[..index.decoded.len() - 1].to_vec();
        assert!(VarintIndex::load(&vix, short, stats).is_err());
    }

    #[test]
    fn index_validation_rejects_bad_shapes() {
        assert!(VarintIndex::new(vec![], vec![]).is_err());
        assert!(VarintIndex::new(vec![0, 1], vec![0]).is_err());
        assert!(
            VarintIndex::new(vec![1, 2], vec![1, 2]).is_err(),
            "must start at 0"
        );
        assert!(
            VarintIndex::new(vec![0, 2, 1], vec![0, 1, 2]).is_err(),
            "monotone"
        );
        assert!(VarintIndex::new(vec![0], vec![0]).is_ok(), "empty graph");
    }
}
