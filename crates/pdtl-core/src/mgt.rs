//! The modified MGT engine (the paper's Algorithm 2), over the
//! rank-space oriented graph.
//!
//! Given the sorted, oriented graph `G*` in rank space, a processor
//! responsible for the contiguous pivot-edge range `[lo, hi)` repeats,
//! until the range is exhausted:
//!
//! 1. **Chunk load** — read the next `c·M` out-neighbours of the range
//!    into the `edg` array, and record in the dense `ind` array (indexed
//!    `v - vlow`) each resident vertex's segment offset and length.
//! 2. **Scan** — stream vertex out-lists `N(u)` from disk into the `nm`
//!    array; compute `N⁺(u)` (those `v ∈ N(u)` with resident out-edges)
//!    via O(1) `ind` probes; for each such `v`, intersect the *suffix*
//!    `nm[idx+1..]` with `v`'s resident segment and report `(u, v, w)`
//!    per common `w`.
//!
//! Rank space buys the hot path two structural wins:
//!
//! * **Suffix intersection** — every `w` completing a triangle satisfies
//!   `w ∈ N(v)` and hence `w > v` numerically, so only the tail of `nm`
//!   after the pivot can match: roughly half the merge work disappears.
//! * **Scan pruning** — a chunk resident on `[vlow, vhigh]` can only be
//!   hit by scanned vertices `u < vhigh` (out-neighbours ascend), so the
//!   scan stops there; and a vertex whose precomputed `(min, max)`
//!   out-neighbour bounds miss the window is skipped with
//!   [`U32Reader::skip`](pdtl_io::U32Reader::skip) instead of read,
//!   cutting `bytes_read` in the multi-pass regime where MGT's I/O bound
//!   actually bites. [`MgtOptions::scan_pruning`] gates both (on by
//!   default; the ablation bench and I/O tests compare).
//!
//! On top of that, [`MgtOptions::backend`] selects how the remaining
//! I/O is performed behind the same seam:
//!
//! * [`IoBackend::Blocking`] (the default) reads every chunk and scan
//!   block synchronously through a [`U32Reader`] — the paper's
//!   sequential chunk-load plus scan loop, and the accounting reference
//!   the other backends are tested against.
//! * [`IoBackend::Mmap`] maps the oriented adjacency once
//!   ([`pdtl_io::MmapSource`]) and serves both the scan stream and the
//!   `edg` chunks *zero-copy*: the chunk index is built directly over
//!   the mapped region, so chunk "loads" become pointer arithmetic plus
//!   accounting — the fastest backend when the graph sits in the page
//!   cache. Unsupported platforms degrade to `Blocking` automatically.
//! * [`IoBackend::Uring`] overlaps I/O with intersection work through
//!   the kernel: block reads are queued on an `io_uring` submission
//!   queue with depth > 1 ([`pdtl_io::UringSource`]), so the next chunk
//!   and the scan read-ahead complete asynchronously while the engine
//!   computes — no helper threads, no hand-off copies. Kernels without
//!   `io_uring`, and rings that fail to open at run time, degrade to
//!   `Blocking` automatically.
//!
//! Switching backends is a pure scheduling change: the engine counts
//! the exact same `bytes_read` and `seeks` whichever backend runs,
//! which the integration and property tests assert. Device waits can be
//! recreated deterministically on warm page caches via
//! [`MgtOptions::io_latency`] (honoured by all three backends).
//!
//! Orthogonal to the backend, the graph's on-disk **codec** decides
//! what those transports carry. A [`Codec::DeltaVarint`] adjacency
//! stores each out-list as delta + varint bytes; the engine reads the
//! codec from the graph header and, when compressed, stacks a
//! [`VarintSource`] decoder on top of whichever transport the backend
//! selected — scan skips, chunk loads and seeks all happen in *decoded*
//! positions while only the encoded bytes cross the device, which is
//! exactly where the multi-pass `|E|²/(MB)` term pays. The decoded
//! logical volume is counted separately
//! ([`IoStats::record_decoded`](pdtl_io::IoStats::record_decoded)), so
//! reports show both dimensions.
//!
//! Everything is sorted arrays — the paper found set/map structures >10×
//! slower (§IV-A1). Each triangle is found exactly once because its pivot
//! edge `(v, w)` occupies exactly one adjacency position, which belongs
//! to exactly one processor's range and is resident in exactly one chunk.
//! Triangles are translated back to original ids at the sink boundary
//! through the graph's [`RankMap`](pdtl_graph::RankMap), so the output
//! contract (original ids, cone vertex first) is unchanged.
//!
//! Correctness does **not** depend on the small-degree assumption
//! `d* ≤ cM` — a list split across more than two chunks still has each
//! position resident exactly once; the assumption only tightens the CPU
//! bound (§IV-A2). The engine therefore handles over-budget vertices with
//! no special casing and the property tests exercise `M` far below
//! `d*_max`.

use std::sync::Arc;

use pdtl_io::{
    Codec, CpuIoTimer, FaultySource, IoBackend, IoStats, MemoryBudget, MmapSource, U32Reader,
    U32Source, UringSource, VarintSource,
};

use crate::balance::EdgeRange;
use crate::error::Result;
use crate::intersect::{intersect_adaptive_visit_counted_with, simd_level};
use crate::metrics::WorkerReport;
use crate::orient::{OrientedCsr, OrientedGraph};
use crate::sink::TriangleSink;

/// Tuning knobs of the MGT engines (ablation surface).
///
/// `MgtOptions::default()` honours the `PDTL_IO_BACKEND` environment
/// override; struct-update syntax pins individual knobs:
///
/// ```
/// use pdtl_core::mgt::{mgt_in_memory_opt, MgtOptions};
/// use pdtl_core::orient::orient_csr;
/// use pdtl_core::sink::CountSink;
/// use pdtl_graph::gen::classic::complete;
/// use pdtl_io::{IoBackend, MemoryBudget};
///
/// let opts = MgtOptions {
///     backend: IoBackend::Uring, // engines resolve() it per platform
///     ..MgtOptions::default()
/// };
/// let oriented = orient_csr(&complete(10).unwrap());
/// let (triangles, _cpu_ops) =
///     mgt_in_memory_opt(&oriented, MemoryBudget::edges(64), &mut CountSink, opts);
/// assert_eq!(triangles, 120); // C(10, 3)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MgtOptions {
    /// Stop each chunk's scan at `vhigh` and seek past out-lists whose
    /// `(min, max)` bounds cannot overlap the resident window. Disable
    /// only to measure the ablation (PR 1 behaviour).
    pub scan_pruning: bool,
    /// How the disk engine performs its chunk and scan I/O. Every
    /// backend counts the exact same `bytes_read` and `seeks` — the
    /// choice is a scheduling/copy change, not a different I/O plan:
    /// [`IoBackend::Blocking`] (default) is the synchronous reference,
    /// [`IoBackend::Uring`] hides device waits behind compute through
    /// kernel submission queues, [`IoBackend::Mmap`] serves
    /// page-cache-resident graphs zero-copy.
    /// The `PDTL_IO_BACKEND` env var overrides the default, which is
    /// how the CI matrix runs the suite under each backend. Ignored by
    /// the in-memory engine, which has no I/O at all.
    pub backend: IoBackend,
    /// Emulated per-block-read device latency
    /// ([`U32Reader::set_read_latency`]), the I/O analogue of the
    /// cluster's `NetModel`: page-cached fixtures never block, so the
    /// blocking-vs-overlapped comparison needs a deterministic way to
    /// recreate the device waits the multi-pass bound is about. Zero
    /// (the default) measures the real hardware.
    pub io_latency: std::time::Duration,
    /// Deterministic fault injection at the scan seam: deliver this
    /// many `u32`s through the scan-pass [`U32Source`], then fail every
    /// further read with an "injected short read" error
    /// ([`pdtl_io::FaultySource`]). Emulates a truncated or dying
    /// replica for the cluster's fault-tolerance tests; `None` (the
    /// default) reads normally.
    pub read_fault: Option<u64>,
    /// How the oriented adjacency is *encoded on disk*
    /// ([`Codec::Raw`] or [`Codec::DeltaVarint`]). This knob selects
    /// the format written by the orientation step (and is what the
    /// cluster ships to workers so every node writes the same format);
    /// the disk engine itself always honours the codec recorded in the
    /// graph's header, so an engine handed a raw graph reads it raw
    /// regardless of this setting. The `PDTL_CODEC` env var overrides
    /// the default, which is how the CI matrix runs the suite under
    /// each codec.
    pub codec: Codec,
}

impl Default for MgtOptions {
    fn default() -> Self {
        Self {
            scan_pruning: true,
            backend: IoBackend::default_from_env(),
            io_latency: std::time::Duration::ZERO,
            read_fault: None,
            codec: Codec::default_from_env(),
        }
    }
}

/// Run MGT over `range` of the oriented graph with the given budget,
/// reporting triangles (original ids) to `sink`. One call = one logical
/// processor.
pub fn mgt_count_range<S: TriangleSink>(
    og: &OrientedGraph,
    range: EdgeRange,
    budget: MemoryBudget,
    sink: &mut S,
    stats: Arc<IoStats>,
) -> Result<WorkerReport> {
    mgt_count_range_opt(og, range, budget, sink, stats, MgtOptions::default())
}

/// [`mgt_count_range`] with explicit [`MgtOptions`].
pub fn mgt_count_range_opt<S: TriangleSink>(
    og: &OrientedGraph,
    range: EdgeRange,
    budget: MemoryBudget,
    sink: &mut S,
    stats: Arc<IoStats>,
    opts: MgtOptions,
) -> Result<WorkerReport> {
    let timer = CpuIoTimer::start(stats.clone());
    let io_before = stats.snapshot();

    let open = || -> Result<U32Reader> {
        let mut r = og.disk.open_adj(&stats)?;
        r.set_read_latency(opts.io_latency);
        Ok(r)
    };
    let open_map = || -> Result<MmapSource> {
        let mut m = MmapSource::open(og.disk.adj_path(), stats.clone())?;
        m.set_read_latency(opts.io_latency);
        Ok(m)
    };
    // Scan readers are wrapped in `FaultySource` so `read_fault` can
    // cut data delivery at a deterministic offset; an unset fault is an
    // unlimited budget (a min + subtract per block read, no behavioral
    // change).
    let fault_budget = opts.read_fault.unwrap_or(u64::MAX);
    // The ring can fail at runtime even after `resolve()` vets the
    // platform (RLIMIT_MEMLOCK on 5.6–5.11 kernels, fd exhaustion,
    // seccomp applied post-probe). Degradation is the backend's
    // contract, so the `Uring` arms fall back to blocking reads rather
    // than failing the count; genuine file errors resurface identically
    // there.
    let open_uring = || -> Result<UringSource> {
        let mut u = UringSource::open(og.disk.adj_path(), stats.clone())?;
        u.set_read_latency(opts.io_latency);
        Ok(u)
    };
    let (triangles, cpu_ops, iterations) = if og.disk.codec() == Codec::DeltaVarint {
        // Compressed adjacency: each backend still moves the *encoded*
        // bytes through its own transport, and a `VarintSource` above
        // it decodes runs back into rank space. The decoder issues
        // identical word-granular operations whichever transport
        // carries the bytes, so the cross-backend accounting contract
        // (same bytes_read, same seeks) holds for the compressed
        // format with no per-backend cases. The mmap zero-copy paths
        // cannot lend out borrowed *decoded* runs, so mmap decodes
        // through the copying wrappers — the same trade the
        // injected-fault path makes on raw graphs.
        let index = og.disk.varint_index(og.offsets.clone(), &stats)?;
        let run_blocking = |sink: &mut S| -> Result<(u64, u64, u64)> {
            let scan_reader = CopyScan(FaultySource::new(
                VarintSource::new(open()?, index.clone(), stats.clone())?,
                fault_budget,
            ));
            let chunks = SourceChunks(VarintSource::new(open()?, index.clone(), stats.clone())?);
            mgt_disk_loop(og, range, budget, sink, opts, chunks, scan_reader)
        };
        match opts.backend.resolve() {
            IoBackend::Blocking => run_blocking(sink)?,
            IoBackend::Mmap => {
                let scan_reader = CopyScan(FaultySource::new(
                    VarintSource::new(open_map()?, index.clone(), stats.clone())?,
                    fault_budget,
                ));
                let chunks = SourceChunks(VarintSource::new(
                    open_map()?,
                    index.clone(),
                    stats.clone(),
                )?);
                mgt_disk_loop(og, range, budget, sink, opts, chunks, scan_reader)?
            }
            IoBackend::Uring => match open_uring().and_then(|scan| Ok((scan, open_uring()?))) {
                Ok((scan, chunk)) => {
                    let scan_reader = CopyScan(FaultySource::new(
                        VarintSource::new(scan, index.clone(), stats.clone())?,
                        fault_budget,
                    ));
                    let chunks =
                        SourceChunks(VarintSource::new(chunk, index.clone(), stats.clone())?);
                    mgt_disk_loop(og, range, budget, sink, opts, chunks, scan_reader)?
                }
                Err(_) => run_blocking(sink)?,
            },
        }
    } else {
        let run_blocking = |sink: &mut S| -> Result<(u64, u64, u64)> {
            let scan_reader = CopyScan(FaultySource::new(open()?, fault_budget));
            let chunks = SourceChunks(open()?);
            mgt_disk_loop(og, range, budget, sink, opts, chunks, scan_reader)
        };
        match opts.backend.resolve() {
            IoBackend::Blocking => run_blocking(sink)?,
            IoBackend::Mmap if opts.read_fault.is_some() => {
                // The zero-copy `MmapScan` has no short-read seam;
                // under an injected fault, scan through the copying
                // wrapper instead (same bytes accounted, same data —
                // only the borrow is traded for a copy).
                let scan_reader = CopyScan(FaultySource::new(open_map()?, fault_budget));
                let chunks = MmapChunks(open_map()?);
                mgt_disk_loop(og, range, budget, sink, opts, chunks, scan_reader)?
            }
            IoBackend::Mmap => {
                let scan_reader = MmapScan(open_map()?);
                let chunks = MmapChunks(open_map()?);
                mgt_disk_loop(og, range, budget, sink, opts, chunks, scan_reader)?
            }
            IoBackend::Uring => match open_uring().and_then(|scan| Ok((scan, open_uring()?))) {
                Ok((scan, chunk)) => {
                    let scan_reader = CopyScan(FaultySource::new(scan, fault_budget));
                    let chunks = UringChunks(chunk);
                    mgt_disk_loop(og, range, budget, sink, opts, chunks, scan_reader)?
                }
                Err(_) => run_blocking(sink)?,
            },
        }
    };
    sink.flush()?;

    let io_after = stats.snapshot();
    Ok(WorkerReport {
        worker: 0,
        range,
        triangles,
        iterations,
        cpu_ops,
        io: pdtl_io::stats::IoSnapshot {
            bytes_read: io_after.bytes_read - io_before.bytes_read,
            bytes_written: io_after.bytes_written - io_before.bytes_written,
            read_ops: io_after.read_ops - io_before.read_ops,
            write_ops: io_after.write_ops - io_before.write_ops,
            seeks: io_after.seeks - io_before.seeks,
            io_time: io_after.io_time.saturating_sub(io_before.io_time),
            u32s_decoded: io_after.u32s_decoded - io_before.u32s_decoded,
        },
        breakdown: timer.finish(),
    })
}

/// Source of `edg` chunks for the disk engine, returning each chunk as
/// a slice so backends choose their own storage: the copying variant
/// decodes into `scratch` on demand, the uring one does the same and
/// queues the next chunk's blocks in the kernel, and the mmap variant
/// returns a window of the mapped adjacency directly — no copy at all.
trait ChunkSource {
    /// The values of `[pos, pos + len)`, backed either by `scratch` or
    /// by the source itself. `next` is the following chunk's
    /// `(pos, len)`, which the uring source starts reading (and the
    /// mmap source hints with `MADV_WILLNEED`) before returning.
    fn load<'a>(
        &'a mut self,
        pos: u64,
        len: usize,
        next: Option<(u64, usize)>,
        scratch: &'a mut Vec<u32>,
    ) -> Result<&'a [u32]>;
}

/// Chunk loads through any [`U32Source`], copied into `scratch` — the
/// blocking chunk path, and the codec-layer one: a [`VarintSource`]
/// translates the decoded range `[pos, pos + len)` into one byte-offset
/// seek on its transport plus sequential decode, so a compressed chunk
/// load costs the encoded bytes, not the decoded volume. Read-ahead
/// hints are skipped: a blocking source has nothing to overlap, and a
/// decoded `next` position has no fixed byte address until the decoder
/// reaches it.
struct SourceChunks<S: U32Source>(S);

impl<S: U32Source> ChunkSource for SourceChunks<S> {
    fn load<'a>(
        &'a mut self,
        pos: u64,
        len: usize,
        _next: Option<(u64, usize)>,
        scratch: &'a mut Vec<u32>,
    ) -> Result<&'a [u32]> {
        self.0.read_exact_range(pos, len, scratch)?;
        Ok(&scratch[..])
    }
}

/// Zero-copy chunk loads over the mapped oriented adjacency: the chunk
/// "load" is pointer arithmetic plus the buffered reader's exact
/// seek/refill accounting ([`MmapSource::range_run`]).
struct MmapChunks(MmapSource);

impl ChunkSource for MmapChunks {
    fn load<'a>(
        &'a mut self,
        pos: u64,
        len: usize,
        next: Option<(u64, usize)>,
        _scratch: &'a mut Vec<u32>,
    ) -> Result<&'a [u32]> {
        if let Some((npos, nlen)) = next {
            // Hint the next resident window while this one is scanned.
            self.0.will_need(npos, nlen);
        }
        Ok(self.0.range_run(pos, len)?)
    }
}

/// Chunk loads through `io_uring`: the blocking load primitive plus a
/// [`UringSource::pre_read`] hint, so chunk `k+1`'s blocks complete in
/// the kernel while chunk `k`'s scan pass computes.
struct UringChunks(UringSource);

impl ChunkSource for UringChunks {
    fn load<'a>(
        &'a mut self,
        pos: u64,
        len: usize,
        next: Option<(u64, usize)>,
        scratch: &'a mut Vec<u32>,
    ) -> Result<&'a [u32]> {
        // Same primitive (and failure behaviour) as the blocking chunk
        // loader; the read-ahead happens underneath the accounting.
        self.0.read_exact_range(pos, len, scratch)?;
        if let Some((npos, nlen)) = next {
            // Queue the next chunk's blocks while this one is scanned.
            self.0.pre_read(npos, nlen);
        }
        Ok(&scratch[..])
    }
}

/// Source of out-lists for the scan pass, returning each list as a
/// slice: buffered backends decode into `scratch`, the mmap backend
/// serves the list straight out of the mapping.
trait ScanSource {
    /// Reposition to the `index`-th `u32` (clamped; counted as a seek).
    fn seek_to(&mut self, index: u64) -> pdtl_io::Result<()>;
    /// Skip `n` values (clamped; short skips coalesce to read-through).
    fn skip(&mut self, n: u64) -> pdtl_io::Result<()>;
    /// The next `n` values (fewer at end of file), backed either by
    /// `scratch` or by the source itself.
    fn next_run<'a>(
        &'a mut self,
        n: usize,
        scratch: &'a mut Vec<u32>,
    ) -> pdtl_io::Result<&'a [u32]>;
}

/// Any [`U32Source`] as a [`ScanSource`], decoding into the scratch
/// buffer (the blocking, uring and decoding scan paths).
struct CopyScan<S: U32Source>(S);

impl<S: U32Source> ScanSource for CopyScan<S> {
    fn seek_to(&mut self, index: u64) -> pdtl_io::Result<()> {
        self.0.seek_to(index)
    }

    fn skip(&mut self, n: u64) -> pdtl_io::Result<()> {
        self.0.skip(n)
    }

    fn next_run<'a>(
        &'a mut self,
        n: usize,
        scratch: &'a mut Vec<u32>,
    ) -> pdtl_io::Result<&'a [u32]> {
        scratch.clear();
        self.0.read_into(scratch, n)?;
        Ok(&scratch[..])
    }
}

/// The zero-copy scan path: out-lists are windows of the mapping.
struct MmapScan(MmapSource);

impl ScanSource for MmapScan {
    fn seek_to(&mut self, index: u64) -> pdtl_io::Result<()> {
        U32Source::seek_to(&mut self.0, index)
    }

    fn skip(&mut self, n: u64) -> pdtl_io::Result<()> {
        U32Source::skip(&mut self.0, n)
    }

    fn next_run<'a>(
        &'a mut self,
        n: usize,
        _scratch: &'a mut Vec<u32>,
    ) -> pdtl_io::Result<&'a [u32]> {
        self.0.read_run(n)
    }
}

/// The disk engine's chunk/scan loop, generic over the I/O backend
/// (blocking, uring or memory-mapped chunk/scan sources) so the modes
/// cannot drift. Returns `(triangles, cpu_ops, iterations)`.
fn mgt_disk_loop<S: TriangleSink, C: ChunkSource, R: ScanSource>(
    og: &OrientedGraph,
    range: EdgeRange,
    budget: MemoryBudget,
    sink: &mut S,
    opts: MgtOptions,
    mut chunks: C,
    mut scan_reader: R,
) -> Result<(u64, u64, u64)> {
    let offsets = &og.offsets;
    let ids = og.map.ids();
    let n = og.num_vertices();
    let chunk_cap = budget.chunk_edges();
    // Backing storage for backends that decode (the mmap backend serves
    // slices of the mapping instead and leaves these untouched).
    let mut edg_buf: Vec<u32> = Vec::with_capacity(chunk_cap.min(range.len() as usize));
    let mut ind: Vec<(u32, u32)> = Vec::new();
    let mut nm_buf: Vec<u32> = Vec::with_capacity(og.d_star_max as usize);
    let mut triangles = 0u64;
    let mut cpu_ops = 0u64;
    let mut iterations = 0u64;
    // Resolved once per loop, not once per intersection: the inner loop
    // issues one adaptive intersection per scanned neighbour.
    let simd = simd_level();

    let mut pos = range.start;
    while pos < range.end {
        let len = (range.end - pos).min(chunk_cap as u64) as usize;
        iterations += 1;

        // -- chunk load: edg + ind ------------------------------------
        let chunk_end = pos + len as u64;
        let next = (chunk_end < range.end).then(|| {
            (
                chunk_end,
                (range.end - chunk_end).min(chunk_cap as u64) as usize,
            )
        });
        let edg = chunks.load(pos, len, next, &mut edg_buf)?;
        let (vlow, vhigh) = build_chunk_index(offsets, pos, chunk_end, &mut ind);
        cpu_ops += len as u64 + ind.len() as u64;

        // -- scan pass ------------------------------------------------
        // Only u < vhigh can hold a window vertex: out-neighbours ascend
        // in rank space, so every v ∈ N(u) satisfies v > u.
        let scan_cap = if opts.scan_pruning { vhigh } else { n };
        scan_reader.seek_to(0)?;
        for u in 0..scan_cap {
            let du = (offsets[u as usize + 1] - offsets[u as usize]) as usize;
            if du == 0 {
                continue;
            }
            if opts.scan_pruning {
                let (bmin, bmax) = og.bounds[u as usize];
                if bmax < vlow || bmin > vhigh {
                    scan_reader.skip(du as u64)?;
                    cpu_ops += 1;
                    continue;
                }
            }
            let nm = scan_reader.next_run(du, &mut nm_buf)?;
            cpu_ops += du as u64;

            // N+(u): entries of nm with resident out-edges. nm is sorted,
            // so restrict to [vlow, vhigh] first.
            let lo_i = nm.partition_point(|&x| x < vlow);
            let hi_i = nm.partition_point(|&x| x <= vhigh);
            let iu = ids[u as usize];
            for idx in lo_i..hi_i {
                let v = nm[idx];
                let (seg_off, seg_len) = ind[(v - vlow) as usize];
                if seg_len == 0 {
                    continue;
                }
                let ev = &edg[seg_off as usize..(seg_off + seg_len) as usize];
                let iv = ids[v as usize];
                let (t, cmps) =
                    intersect_adaptive_visit_counted_with(simd, &nm[idx + 1..], ev, |w| {
                        sink.emit(iu, iv, ids[w as usize])
                    });
                triangles += t;
                cpu_ops += cmps;
            }
        }

        pos = chunk_end;
    }
    Ok((triangles, cpu_ops, iterations))
}

/// Build the dense chunk index for the resident window `[pos,
/// chunk_end)`: `ind[v - vlow] = (offset within the chunk, length)` for
/// every vertex with resident out-edges. Shared by the disk and
/// in-memory engines so they cannot drift. Returns `(vlow, vhigh)`.
fn build_chunk_index(
    offsets: &[u64],
    pos: u64,
    chunk_end: u64,
    ind: &mut Vec<(u32, u32)>,
) -> (u32, u32) {
    let vlow = vertex_of(offsets, pos);
    let vhigh = vertex_of(offsets, chunk_end - 1);
    ind.clear();
    ind.resize((vhigh - vlow + 1) as usize, (0, 0));
    for v in vlow..=vhigh {
        let seg_start = offsets[v as usize].max(pos);
        let seg_end = offsets[v as usize + 1].min(chunk_end);
        if seg_end > seg_start {
            ind[(v - vlow) as usize] = ((seg_start - pos) as u32, (seg_end - seg_start) as u32);
        }
    }
    (vlow, vhigh)
}

/// Index of the vertex owning adjacency position `pos` (vertices with
/// `d* = 0` own no positions and are skipped automatically).
#[inline]
fn vertex_of(offsets: &[u64], pos: u64) -> u32 {
    debug_assert!(pos < *offsets.last().unwrap());
    (offsets.partition_point(|&o| o <= pos) - 1) as u32
}

/// Pure in-memory MGT over an [`OrientedCsr`] — identical chunk logic
/// without the disk, used by tests, baselines and the convenience
/// counter. Emits original ids. Returns (triangles, cpu_ops).
pub fn mgt_in_memory<S: TriangleSink>(
    o: &OrientedCsr,
    budget: MemoryBudget,
    sink: &mut S,
) -> (u64, u64) {
    mgt_in_memory_opt(o, budget, sink, MgtOptions::default())
}

/// [`mgt_in_memory`] with explicit [`MgtOptions`].
pub fn mgt_in_memory_opt<S: TriangleSink>(
    o: &OrientedCsr,
    budget: MemoryBudget,
    sink: &mut S,
    opts: MgtOptions,
) -> (u64, u64) {
    let n = o.num_vertices();
    let ids = o.map.ids();
    let m_star = o.m_star();
    let chunk_cap = budget.chunk_edges() as u64;
    let mut triangles = 0u64;
    let mut cpu_ops = 0u64;
    let mut ind: Vec<(u32, u32)> = Vec::new();
    let simd = simd_level();

    let mut pos = 0u64;
    while pos < m_star {
        let chunk_end = (pos + chunk_cap).min(m_star);
        let (vlow, vhigh) = build_chunk_index(&o.offsets, pos, chunk_end, &mut ind);
        let edg = &o.adj[pos as usize..chunk_end as usize];
        cpu_ops += edg.len() as u64 + ind.len() as u64;

        let scan_cap = if opts.scan_pruning { vhigh } else { n };
        for u in 0..scan_cap {
            let nm = o.out(u);
            if nm.is_empty() {
                continue;
            }
            if opts.scan_pruning && (*nm.last().unwrap() < vlow || nm[0] > vhigh) {
                cpu_ops += 1;
                continue;
            }
            cpu_ops += nm.len() as u64;
            // Single-chunk fast path: when the chunk spans every vertex
            // the window is the whole list and the two binary searches
            // would just return its bounds.
            let (lo_i, hi_i) = if vlow == 0 && vhigh == n - 1 {
                (0, nm.len())
            } else {
                (
                    nm.partition_point(|&x| x < vlow),
                    nm.partition_point(|&x| x <= vhigh),
                )
            };
            let iu = ids[u as usize];
            for idx in lo_i..hi_i {
                let v = nm[idx];
                let (seg_off, seg_len) = ind[(v - vlow) as usize];
                if seg_len == 0 {
                    continue;
                }
                let ev = &edg[seg_off as usize..(seg_off + seg_len) as usize];
                let iv = ids[v as usize];
                let (t, cmps) =
                    intersect_adaptive_visit_counted_with(simd, &nm[idx + 1..], ev, |w| {
                        sink.emit(iu, iv, ids[w as usize])
                    });
                triangles += t;
                cpu_ops += cmps;
            }
        }
        pos = chunk_end;
    }
    let _ = sink.flush();
    (triangles, cpu_ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orient::{orient_csr, orient_to_disk};
    use crate::sink::{CollectSink, CountSink};
    use pdtl_graph::gen::classic::{complete, cycle, grid, wheel};
    use pdtl_graph::gen::rmat::rmat;
    use pdtl_graph::verify::triangle_count;
    use pdtl_graph::{DiskGraph, Graph};
    use std::path::PathBuf;

    fn tmpbase(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pdtl-mgt-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn disk_oriented(g: &Graph, tag: &str) -> (OrientedGraph, Arc<IoStats>) {
        let stats = IoStats::new();
        let dg = DiskGraph::write(g, tmpbase(&format!("{tag}-in")), &stats).unwrap();
        let (og, _) = orient_to_disk(&dg, tmpbase(&format!("{tag}-or")), 2, &stats).unwrap();
        (og, stats)
    }

    fn full_range(og: &OrientedGraph) -> EdgeRange {
        EdgeRange {
            start: 0,
            end: og.m_star(),
        }
    }

    #[test]
    fn counts_fixture_graphs_exactly() {
        for (g, tag) in [
            (complete(10).unwrap(), "k10"),
            (cycle(12).unwrap(), "c12"),
            (wheel(9).unwrap(), "w9"),
            (grid(5, 6).unwrap(), "g56"),
        ] {
            let expected = triangle_count(&g);
            let (og, stats) = disk_oriented(&g, tag);
            let r = mgt_count_range(
                &og,
                full_range(&og),
                MemoryBudget::edges(1 << 16),
                &mut CountSink,
                stats,
            )
            .unwrap();
            assert_eq!(r.triangles, expected, "{tag}");
        }
    }

    #[test]
    fn counts_match_oracle_on_rmat_across_budgets() {
        let g = rmat(8, 11).unwrap();
        let expected = triangle_count(&g);
        let (og, stats) = disk_oriented(&g, "budgets");
        // budgets from "everything fits" down to pathologically tiny,
        // including below d*_max (small-degree assumption violated).
        for edges in [1 << 20, 4096, 256, 32, 8, 2] {
            let r = mgt_count_range(
                &og,
                full_range(&og),
                MemoryBudget::edges(edges),
                &mut CountSink,
                stats.clone(),
            )
            .unwrap();
            assert_eq!(r.triangles, expected, "budget {edges}");
            assert_eq!(
                r.iterations,
                MemoryBudget::edges(edges).iterations_for(og.m_star())
            );
        }
    }

    #[test]
    fn pruned_and_unpruned_agree() {
        let g = rmat(8, 11).unwrap();
        let expected = triangle_count(&g);
        let (og, stats) = disk_oriented(&g, "prune-agree");
        for edges in [1 << 20, 512, 16] {
            for prune in [true, false] {
                let r = mgt_count_range_opt(
                    &og,
                    full_range(&og),
                    MemoryBudget::edges(edges),
                    &mut CountSink,
                    stats.clone(),
                    MgtOptions {
                        scan_pruning: prune,
                        ..MgtOptions::default()
                    },
                )
                .unwrap();
                assert_eq!(r.triangles, expected, "budget {edges} prune {prune}");
            }
        }
    }

    #[test]
    fn scan_pruning_cuts_bytes_read_in_multipass_runs() {
        // The adjacency file must span several read buffers (64 KiB)
        // for block-granular pruning to bite: RMAT-12 is ~4 buffers
        // raw. The fixture is pinned to the raw codec — delta-varint
        // shrinks it to ~1.3 buffers, at which point skip coalescing
        // reads the whole file through regardless of pruning and the
        // ablation being measured here disappears (the codec's own
        // bytes_read win is asserted at the pipeline level instead).
        use crate::orient::orient_to_disk_with;
        let g = rmat(12, 18).unwrap();
        let stats = IoStats::new();
        let dg = DiskGraph::write(&g, tmpbase("prune-io-in"), &stats).unwrap();
        let (og, _) =
            orient_to_disk_with(&dg, tmpbase("prune-io-or"), 2, Codec::Raw, &stats).unwrap();
        let run = |prune: bool| {
            let s = IoStats::new();
            let r = mgt_count_range_opt(
                &og,
                full_range(&og),
                MemoryBudget::edges(4096),
                &mut CountSink,
                s,
                MgtOptions {
                    scan_pruning: prune,
                    ..MgtOptions::default()
                },
            )
            .unwrap();
            (r.triangles, r.io.bytes_read, r.io.seeks, r.iterations)
        };
        let (t_pruned, io_pruned, seeks_pruned, iters) = run(true);
        let (t_full, io_full, _, _) = run(false);
        println!(
            "scan pruning bytes_read: {io_pruned} vs {io_full} ({:.1}% cut), \
             {seeks_pruned} seeks over {iters} iterations",
            100.0 * (1.0 - io_pruned as f64 / io_full as f64)
        );
        assert_eq!(t_pruned, t_full);
        assert!(
            io_pruned * 5 <= io_full * 4,
            "pruning must cut at least 20% of bytes_read: {io_pruned} vs {io_full}"
        );
        // Regression for the seek storm: before skip coalescing, every
        // buffer-missing skip paid an OS seek (thousands across this
        // fixture). With read-through, only the per-iteration chunk
        // seek + scan rewind remain, plus the occasional genuinely
        // long skip.
        assert!(
            seeks_pruned <= 3 * iters,
            "pruned scan must not seek-storm: {seeks_pruned} seeks over {iters} iterations"
        );
    }

    #[test]
    fn overlap_reduces_wall_time_in_multipass_runs() {
        // RMAT-12 at budget 4096 is the multi-pass regime the Theorem
        // IV.2 `|E|²/(MB)` term dominates: the blocking engine stalls
        // on every chunk load and scan refill. The fixture lives in the
        // page cache (and CI machines may have a single core), so the
        // device waits that regime is about are recreated with the
        // deterministic `io_latency` emulation — 50 µs per block read,
        // a fast-SSD figure. The uring backend models an asynchronous
        // device (a block is ready `latency` after submission), so
        // genuine overlap shows up even on one CPU; what cannot be
        // hidden (first block after each scan rewind) still bounds the
        // win, keeping the comparison honest. Min-of-3 runs per mode.
        if !pdtl_io::uring_supported() {
            println!(
                "skipping overlap_reduces_wall_time_in_multipass_runs: io_uring is \
                 unavailable, so the uring backend would run as blocking"
            );
            return;
        }
        let g = rmat(12, 18).unwrap();
        let (og, _) = disk_oriented(&g, "overlap-wall");
        let run = |backend: IoBackend| {
            let s = IoStats::new();
            let r = mgt_count_range_opt(
                &og,
                full_range(&og),
                MemoryBudget::edges(4096),
                &mut CountSink,
                s,
                MgtOptions {
                    backend,
                    io_latency: std::time::Duration::from_micros(50),
                    ..MgtOptions::default()
                },
            )
            .unwrap();
            (r.triangles, r.io.bytes_read, r.io.seeks, r.breakdown.wall)
        };
        let best = |backend| (0..3).map(|_| run(backend)).min_by_key(|r| r.3).unwrap();
        let (t_ov, bytes_ov, seeks_ov, wall_ov) = best(IoBackend::Uring);
        let (t_bl, bytes_bl, seeks_bl, wall_bl) = best(IoBackend::Blocking);
        println!(
            "uring backend wall at 50µs/block device latency: {wall_ov:?} vs blocking \
             {wall_bl:?} ({:.1}% cut; {bytes_ov} bytes, {seeks_ov} seeks each)",
            100.0 * (1.0 - wall_ov.as_secs_f64() / wall_bl.as_secs_f64())
        );
        assert_eq!(t_ov, t_bl, "identical triangle counts");
        assert_eq!(bytes_ov, bytes_bl, "identical bytes_read");
        assert_eq!(seeks_ov, seeks_bl, "identical seeks");
        // The wall-clock claim is asserted for optimized builds only:
        // debug builds time unoptimized ring and decode paths (on
        // possibly single-core CI boxes), which is not the comparison
        // the overlap is about. Release runs cut ~25% here; on a
        // machine saturated by other work, PDTL_SKIP_PERF_ASSERTS=1
        // opts out of the strict inequality (counts/bytes/seeks above
        // are always asserted).
        if cfg!(debug_assertions) || std::env::var_os("PDTL_SKIP_PERF_ASSERTS").is_some() {
            return;
        }
        assert!(
            wall_ov < wall_bl,
            "overlapped I/O must reduce wall time in the multi-pass regime: \
             {wall_ov:?} vs {wall_bl:?}"
        );
    }

    #[test]
    fn all_backends_agree_across_budgets() {
        // Every I/O backend must produce the oracle count and identical
        // I/O accounting at every budget, including chunk = 1 edge. The
        // blocking engine is the accounting reference.
        let g = rmat(8, 11).unwrap();
        let expected = triangle_count(&g);
        let (og, _) = disk_oriented(&g, "backend-agree");
        for edges in [1 << 20, 4096, 256, 32, 8, 2] {
            let run = |backend: IoBackend| {
                let s = IoStats::new();
                let r = mgt_count_range_opt(
                    &og,
                    full_range(&og),
                    MemoryBudget::edges(edges),
                    &mut CountSink,
                    s,
                    MgtOptions {
                        backend,
                        ..MgtOptions::default()
                    },
                )
                .unwrap();
                (r.triangles, r.io.bytes_read, r.io.seeks)
            };
            let (t_bl, bytes_bl, seeks_bl) = run(IoBackend::Blocking);
            assert_eq!(t_bl, expected, "budget {edges}");
            for backend in IoBackend::ALL {
                let (t, bytes, seeks) = run(backend);
                assert_eq!(t, expected, "budget {edges} {backend}");
                assert_eq!(bytes, bytes_bl, "budget {edges} {backend}: bytes_read");
                assert_eq!(seeks, seeks_bl, "budget {edges} {backend}: seeks");
            }
        }
    }

    #[test]
    fn compressed_graphs_count_identically_across_backends() {
        // The codec × transport cross-product: a delta-varint graph
        // must produce the oracle count under every backend, with the
        // decoded-volume dimension populated and identical accounting
        // across backends (the decoder issues the same word ops
        // whichever transport carries the bytes).
        use crate::orient::orient_to_disk_with;
        let g = rmat(8, 11).unwrap();
        let expected = triangle_count(&g);
        let stats = IoStats::new();
        let dg = DiskGraph::write(&g, tmpbase("codec-agree-in"), &stats).unwrap();
        let (og, _) = orient_to_disk_with(
            &dg,
            tmpbase("codec-agree-or"),
            2,
            Codec::DeltaVarint,
            &stats,
        )
        .unwrap();
        assert_eq!(og.disk.codec(), Codec::DeltaVarint);
        for edges in [1 << 20, 256, 8] {
            let run = |backend: IoBackend| {
                let s = IoStats::new();
                let r = mgt_count_range_opt(
                    &og,
                    full_range(&og),
                    MemoryBudget::edges(edges),
                    &mut CountSink,
                    s,
                    MgtOptions {
                        backend,
                        ..MgtOptions::default()
                    },
                )
                .unwrap();
                (r.triangles, r.io.bytes_read, r.io.seeks, r.io.u32s_decoded)
            };
            let (t_bl, bytes_bl, seeks_bl, dec_bl) = run(IoBackend::Blocking);
            assert_eq!(t_bl, expected, "budget {edges}");
            assert!(dec_bl > 0, "decoded dimension must be populated");
            for backend in IoBackend::ALL {
                let (t, bytes, seeks, dec) = run(backend);
                assert_eq!(t, expected, "budget {edges} {backend}");
                assert_eq!(bytes, bytes_bl, "budget {edges} {backend}: bytes_read");
                assert_eq!(seeks, seeks_bl, "budget {edges} {backend}: seeks");
                assert_eq!(dec, dec_bl, "budget {edges} {backend}: u32s_decoded");
            }
        }
    }

    #[test]
    fn ranges_partition_the_count() {
        let g = rmat(8, 12).unwrap();
        let expected = triangle_count(&g);
        let (og, stats) = disk_oriented(&g, "ranges");
        let m = og.m_star();
        for parts in [2u64, 3, 7] {
            let mut total = 0u64;
            for i in 0..parts {
                let range = EdgeRange {
                    start: m * i / parts,
                    end: m * (i + 1) / parts,
                };
                let r = mgt_count_range(
                    &og,
                    range,
                    MemoryBudget::edges(512),
                    &mut CountSink,
                    stats.clone(),
                )
                .unwrap();
                total += r.triangles;
            }
            assert_eq!(total, expected, "parts {parts}");
        }
    }

    #[test]
    fn listing_matches_oracle_set() {
        let g = rmat(7, 13).unwrap();
        let (og, stats) = disk_oriented(&g, "listing");
        let mut sink = CollectSink::default();
        let r = mgt_count_range(
            &og,
            full_range(&og),
            MemoryBudget::edges(128),
            &mut sink,
            stats,
        )
        .unwrap();
        assert_eq!(r.triangles as usize, sink.triangles.len());

        // canonicalise (u,v,w) -> sorted ids and compare with oracle
        let mut got: Vec<(u32, u32, u32)> = sink
            .triangles
            .iter()
            .map(|&(a, b, c)| {
                let mut t = [a, b, c];
                t.sort_unstable();
                (t[0], t[1], t[2])
            })
            .collect();
        got.sort_unstable();
        let mut expected = pdtl_graph::verify::triangle_list(&g);
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn each_triangle_emitted_once_with_cone_first() {
        // The sink boundary translates ranks back: emitted triples are
        // original ids, cone vertex first under the degree order.
        let g = rmat(6, 14).unwrap();
        let (og, stats) = disk_oriented(&g, "cone");
        let mut sink = CollectSink::default();
        mgt_count_range(
            &og,
            full_range(&og),
            MemoryBudget::edges(64),
            &mut sink,
            stats,
        )
        .unwrap();
        let degrees = g.degrees();
        let ord = crate::order::DegreeOrder::new(&degrees);
        let mut seen = std::collections::HashSet::new();
        for &(u, v, w) in &sink.triangles {
            assert!(ord.precedes(u, v) && ord.precedes(v, w), "u ≺ v ≺ w");
            assert!(g.has_edge(u, v) && g.has_edge(v, w) && g.has_edge(u, w));
            let mut t = [u, v, w];
            t.sort_unstable();
            assert!(seen.insert(t), "duplicate triangle {t:?}");
        }
    }

    #[test]
    fn empty_range_and_empty_graph() {
        let g = rmat(6, 15).unwrap();
        let (og, stats) = disk_oriented(&g, "empty-range");
        let r = mgt_count_range(
            &og,
            EdgeRange { start: 5, end: 5 },
            MemoryBudget::edges(64),
            &mut CountSink,
            stats,
        )
        .unwrap();
        assert_eq!(r.triangles, 0);
        assert_eq!(r.iterations, 0);

        let g = Graph::empty(4);
        let (og, stats) = disk_oriented(&g, "empty-graph");
        let r = mgt_count_range(
            &og,
            full_range(&og),
            MemoryBudget::edges(64),
            &mut CountSink,
            stats,
        )
        .unwrap();
        assert_eq!(r.triangles, 0);
    }

    #[test]
    fn io_grows_with_iterations() {
        // Theorem IV.2: h = ceil(m*/cM) passes over the graph.
        let g = rmat(8, 16).unwrap();
        let (og, stats) = disk_oriented(&g, "iogrow");
        let run = |edges: usize| {
            let s = IoStats::new();
            let r = mgt_count_range(
                &og,
                EdgeRange {
                    start: 0,
                    end: og.m_star(),
                },
                MemoryBudget::edges(edges),
                &mut CountSink,
                s,
            )
            .unwrap();
            (r.iterations, r.io.bytes_read)
        };
        let _ = &stats;
        let (it_big, io_big) = run(1 << 20);
        let (it_small, io_small) = run(256);
        assert_eq!(it_big, 1);
        assert!(it_small > it_big);
        assert!(
            io_small > 2 * io_big,
            "more iterations must re-scan the graph: {io_small} vs {io_big}"
        );
    }

    #[test]
    fn in_memory_matches_disk_engine() {
        let g = rmat(8, 17).unwrap();
        let o = orient_csr(&g);
        for edges in [1 << 20, 512, 16] {
            let (t, ops) = mgt_in_memory(&o, MemoryBudget::edges(edges), &mut CountSink);
            assert_eq!(t, triangle_count(&g), "budget {edges}");
            assert!(ops > 0);
        }
    }

    #[test]
    fn in_memory_pruning_agrees_and_saves_work() {
        let g = rmat(8, 20).unwrap();
        let o = orient_csr(&g);
        let budget = MemoryBudget::edges(512);
        let (t_p, ops_p) = mgt_in_memory_opt(&o, budget, &mut CountSink, MgtOptions::default());
        let (t_f, ops_f) = mgt_in_memory_opt(
            &o,
            budget,
            &mut CountSink,
            MgtOptions {
                scan_pruning: false,
                ..MgtOptions::default()
            },
        );
        assert_eq!(t_p, t_f);
        assert!(
            ops_p < ops_f,
            "pruning must reduce counted work: {ops_p} vs {ops_f}"
        );
    }

    #[test]
    fn cpu_ops_respect_arboricity_flavor() {
        // On the (planar) grid the intersection work must stay linear-ish
        // in |E|: cpu_ops = O(|E|) with a small constant when M is large.
        // The counted-comparison accounting tightens the old 20|E| bound.
        let g = grid(40, 40).unwrap();
        let o = orient_csr(&g);
        let (_, ops) = mgt_in_memory(&o, MemoryBudget::edges(1 << 22), &mut CountSink);
        let m = g.num_edges();
        assert!(
            ops < 8 * m,
            "planar graph: ops {ops} should be O(|E|) = O({m})"
        );
    }

    #[test]
    fn vertex_of_skips_zero_degree_vertices() {
        // offsets: v0 has 2, v1 has 0, v2 has 3
        let offsets = [0u64, 2, 2, 5];
        assert_eq!(vertex_of(&offsets, 0), 0);
        assert_eq!(vertex_of(&offsets, 1), 0);
        assert_eq!(vertex_of(&offsets, 2), 2);
        assert_eq!(vertex_of(&offsets, 4), 2);
    }

    #[test]
    fn chunk_index_marks_partial_segments() {
        // offsets: v0: [0,3), v1: [3,4), v2: [4,8)
        let offsets = [0u64, 3, 4, 8];
        let mut ind = Vec::new();
        let (vlow, vhigh) = build_chunk_index(&offsets, 2, 6, &mut ind);
        assert_eq!((vlow, vhigh), (0, 2));
        // v0 contributes [2,3), v1 all of [3,4), v2 [4,6)
        assert_eq!(ind, vec![(0, 1), (1, 1), (2, 2)]);
    }
}
