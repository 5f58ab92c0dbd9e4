//! Zero-copy memory-mapped streaming: serve page-cache-resident graphs
//! without `read(2)` copies.
//!
//! On a warm page cache every buffered read pays a syscall plus two
//! copies (kernel → user buffer → decoded `Vec`). [`MmapSource`] maps
//! the file once and serves `u32` runs as slices *directly out of the
//! mapping* — scans and chunk loads become pointer arithmetic. The MGT
//! engines select it via `IoBackend::Mmap`.
//!
//! **Accounting contract.** `MmapSource` implements
//! [`U32Source`] and mirrors [`U32Reader`]'s control
//! flow exactly, block for block: a *virtual* block-sized buffer window
//! advances over the mapping, charging [`IoStats`] one block-sized
//! `record_read` wherever the buffered reader would refill and one
//! `record_seek` wherever it would reposition — so `bytes_read`,
//! `read_ops` and `seeks` are byte-identical to the blocking twin on
//! identical access patterns (counted per block touched; the property
//! tests assert this across budgets × seek patterns). Emulated device
//! latency ([`set_read_latency`](MmapSource::set_read_latency)) sleeps
//! once per virtual refill, exactly like `U32Reader`, so the
//! `io_latency` ablations remain comparable across all three backends.
//!
//! The mapping syscalls (`mmap` / `munmap` / `madvise`) are bound
//! through a tiny `extern "C"` module (the same offline-shim pattern as
//! `shims/`), gated to 64-bit little-endian Linux. Elsewhere
//! [`MmapSource::open`] reports `Unsupported` and
//! `IoBackend::Mmap.resolve()` degrades to the buffered reader, so no
//! caller needs platform knowledge. On open the whole mapping is
//! advised `MADV_SEQUENTIAL` (scan-heavy access), and
//! [`will_need`](MmapSource::will_need) lets the chunk loader hint the
//! next resident window with `MADV_WILLNEED`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{IoError, Result};
use crate::stats::IoStats;
#[cfg(doc)]
use crate::stream::U32Reader;
use crate::stream::{U32Source, BYTES_PER_U32, DEFAULT_BUF_U32S};

/// Whether this platform supports the mmap backend (64-bit
/// little-endian Linux; the mapping is reinterpreted as `&[u32]`, so
/// the file's little-endian encoding must match the host's).
pub const fn mmap_supported() -> bool {
    cfg!(all(
        target_os = "linux",
        target_endian = "little",
        target_pointer_width = "64"
    ))
}

#[cfg(all(
    target_os = "linux",
    target_endian = "little",
    target_pointer_width = "64"
))]
mod sys {
    //! Minimal `extern "C"` bindings for the three mapping syscalls.
    //! `std` already links libc, so no new dependency is introduced.
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 0x1;
    pub const MAP_PRIVATE: c_int = 0x02;
    pub const MADV_SEQUENTIAL: c_int = 2;
    pub const MADV_WILLNEED: c_int = 3;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> c_int;
        pub fn madvise(addr: *mut c_void, length: usize, advice: c_int) -> c_int;
    }
}

/// RAII owner of one read-only file mapping (empty files map nothing).
#[derive(Debug)]
struct Map {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is read-only (PROT_READ, MAP_PRIVATE) for its
// whole lifetime, so sharing the pointer across threads is sound.
unsafe impl Send for Map {}
unsafe impl Sync for Map {}

#[cfg(all(
    target_os = "linux",
    target_endian = "little",
    target_pointer_width = "64"
))]
impl Map {
    fn new(file: &std::fs::File, len: usize, path: &Path) -> Result<Self> {
        if len == 0 {
            return Ok(Self {
                ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                len: 0,
            });
        }
        use std::os::unix::io::AsRawFd;
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(IoError::os("mmap", path, std::io::Error::last_os_error()));
        }
        Ok(Self {
            ptr: ptr as *const u8,
            len,
        })
    }

    /// Advise the kernel about `[offset, offset + len)` (page-aligned
    /// down; advisory only, failures ignored).
    fn advise(&self, offset: usize, len: usize, advice: std::os::raw::c_int) {
        if self.len == 0 || len == 0 || offset >= self.len {
            return;
        }
        let page = 4096usize;
        let lo = offset & !(page - 1);
        let hi = (offset + len).min(self.len);
        unsafe {
            let _ = sys::madvise(self.ptr.add(lo) as *mut _, hi - lo, advice);
        }
    }
}

#[cfg(all(
    target_os = "linux",
    target_endian = "little",
    target_pointer_width = "64"
))]
impl Drop for Map {
    fn drop(&mut self) {
        if self.len > 0 {
            unsafe {
                let _ = sys::munmap(self.ptr as *mut _, self.len);
            }
        }
    }
}

/// A zero-copy, memory-mapped [`U32Source`] with [`U32Reader`]-identical
/// I/O accounting. See the module docs for the contract.
///
/// Beyond the trait, it offers the zero-copy entry points the disk MGT
/// engine builds on: [`read_run`](Self::read_run) (the next `n` values
/// as a slice into the mapping) and [`range_run`](Self::range_run) (a
/// positioned exact-length load — the mmap equivalent of
/// [`U32Reader::read_exact_range`], same seek/refill charges, same
/// failure behaviour).
#[derive(Debug)]
pub struct MmapSource {
    map: Map,
    path: PathBuf,
    stats: Arc<IoStats>,
    /// Total `u32`s in the file.
    len_u32: u64,
    /// Index of the next value a read would return.
    next_index: u64,
    /// Virtual OS file cursor: where the next virtual refill "reads".
    file_pos: u64,
    /// Virtual buffer fill/consumption, in `u32`s (mirrors
    /// `U32Reader`'s byte-based `filled`/`pos`).
    filled: usize,
    pos: usize,
    /// Virtual block size in `u32`s (the accounting granularity).
    block_u32s: usize,
    /// Emulated device latency per virtual refill.
    read_latency: Duration,
}

#[cfg(all(
    target_os = "linux",
    target_endian = "little",
    target_pointer_width = "64"
))]
impl MmapSource {
    /// Map `path` with the default block size (identical to
    /// [`U32Reader::open`]'s buffer, so the two account identically).
    pub fn open(path: impl AsRef<Path>, stats: Arc<IoStats>) -> Result<Self> {
        Self::with_block(path, stats, DEFAULT_BUF_U32S)
    }

    /// Map `path` with a virtual block of `block_u32s` values (minimum
    /// 1) — the accounting twin of [`U32Reader::with_buffer`].
    pub fn with_block(
        path: impl AsRef<Path>,
        stats: Arc<IoStats>,
        block_u32s: usize,
    ) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::File::open(&path).map_err(|e| IoError::os("open", &path, e))?;
        let meta = file.metadata().map_err(|e| IoError::os("stat", &path, e))?;
        if meta.len() % BYTES_PER_U32 != 0 {
            return Err(IoError::malformed(
                &path,
                format!("size {} is not a multiple of 4", meta.len()),
            ));
        }
        let map = Map::new(&file, meta.len() as usize, &path)?;
        // The engines scan graph files front to back, repeatedly.
        map.advise(0, map.len, sys::MADV_SEQUENTIAL);
        Ok(Self {
            map,
            len_u32: meta.len() / BYTES_PER_U32,
            path,
            stats,
            next_index: 0,
            file_pos: 0,
            filled: 0,
            pos: 0,
            block_u32s: block_u32s.max(1),
            read_latency: Duration::ZERO,
        })
    }

    /// Hint that `[pos, pos + len)` (in `u32`s) is about to be read
    /// (`MADV_WILLNEED`); the chunk loader calls this for the *next*
    /// chunk while the current one is scanned. Advisory, never charged.
    pub fn will_need(&self, pos: u64, len: usize) {
        self.map.advise(
            (pos * BYTES_PER_U32) as usize,
            len * BYTES_PER_U32 as usize,
            sys::MADV_WILLNEED,
        );
    }

    /// The `n` values starting at `start` as a slice into the mapping.
    fn u32s(&self, start: u64, n: usize) -> &[u32] {
        if n == 0 {
            return &[];
        }
        debug_assert!(start + n as u64 <= self.len_u32);
        // SAFETY: the mapping is page-aligned (so 4-aligned), lives as
        // long as `self`, is never written, and the range is in bounds.
        unsafe { std::slice::from_raw_parts((self.map.ptr as *const u32).add(start as usize), n) }
    }
}

// Everything below is platform-independent bookkeeping, compiled only
// alongside the real mapping (the fallback stub replaces the lot).
#[cfg(all(
    target_os = "linux",
    target_endian = "little",
    target_pointer_width = "64"
))]
impl MmapSource {
    /// Emulate a storage device with the given per-block latency —
    /// every virtual refill sleeps `latency`, charged to [`IoStats`]
    /// exactly like [`U32Reader::set_read_latency`].
    pub fn set_read_latency(&mut self, latency: Duration) {
        self.read_latency = latency;
    }

    /// Total number of `u32`s in the file.
    pub fn len_u32(&self) -> u64 {
        self.len_u32
    }

    /// The file this source streams from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The virtual refill: advance the accounting window one block,
    /// charging the same bytes a buffered refill would read.
    fn refill(&mut self) -> usize {
        let start = Instant::now();
        if !self.read_latency.is_zero() {
            std::thread::sleep(self.read_latency);
        }
        let n = (self.len_u32 - self.file_pos).min(self.block_u32s as u64) as usize;
        self.stats
            .record_read(n as u64 * BYTES_PER_U32, start.elapsed());
        self.file_pos += n as u64;
        self.filled = n;
        self.pos = 0;
        n
    }

    /// Advance the accounting by up to `n` consumed values; returns how
    /// many were available before end of file.
    fn consume(&mut self, n: usize) -> usize {
        let mut got = 0usize;
        while got < n {
            if self.pos >= self.filled && self.refill() == 0 {
                break;
            }
            let take = (self.filled - self.pos).min(n - got);
            self.pos += take;
            got += take;
        }
        self.next_index += got as u64;
        got
    }

    /// The next `n` values (fewer at end of file) as a zero-copy slice,
    /// with buffered-reader-identical refill accounting.
    pub fn read_run(&mut self, n: usize) -> Result<&[u32]> {
        let start = self.next_index;
        let got = self.consume(n);
        Ok(self.u32s(start, got))
    }

    /// Seek to `pos` and return exactly `len` values as a zero-copy
    /// slice; errors if the range reaches past end of file. Charges one
    /// seek plus block refills — the accounting twin of
    /// [`U32Reader::read_exact_range`].
    pub fn range_run(&mut self, pos: u64, len: usize) -> Result<&[u32]> {
        U32Source::seek_to(self, pos)?;
        let start = self.next_index;
        let got = self.consume(len);
        if got != len {
            return Err(IoError::malformed(
                &self.path,
                format!("chunk [{pos}, {pos}+{len}) reaches past end of file"),
            ));
        }
        Ok(self.u32s(start, len))
    }
}

#[cfg(all(
    target_os = "linux",
    target_endian = "little",
    target_pointer_width = "64"
))]
impl U32Source for MmapSource {
    fn len_u32(&self) -> u64 {
        self.len_u32
    }

    fn position(&self) -> u64 {
        self.next_index
    }

    fn seek_to(&mut self, index: u64) -> Result<()> {
        let index = index.min(self.len_u32);
        self.stats.record_seek();
        self.filled = 0;
        self.pos = 0;
        self.next_index = index;
        self.file_pos = index;
        Ok(())
    }

    fn read_into(&mut self, out: &mut Vec<u32>, n: usize) -> Result<usize> {
        let start = self.next_index;
        let got = self.consume(n);
        out.extend_from_slice(self.u32s(start, got));
        Ok(got)
    }

    fn skip(&mut self, n: u64) -> Result<()> {
        let n = n.min(self.len_u32.saturating_sub(self.next_index));
        let buffered = (self.filled - self.pos) as u64;
        if n <= buffered {
            self.pos += n as usize;
            self.next_index += n;
            return Ok(());
        }
        let beyond = n - buffered;
        if beyond <= self.block_u32s as u64 {
            // Read-through: same coalescing rule (and refill charges)
            // as `U32Reader::skip`.
            self.pos = self.filled;
            self.next_index += buffered;
            let mut left = beyond;
            while left > 0 {
                if self.refill() == 0 {
                    break;
                }
                let take = (self.filled as u64).min(left);
                self.pos = take as usize;
                self.next_index += take;
                left -= take;
            }
            Ok(())
        } else {
            self.seek_to(self.next_index + n)
        }
    }
}

// ---------------------------------------------------------------------
// Fallback stub: platforms without the mapping syscalls (or with the
// wrong endianness for the zero-copy reinterpretation). `open` reports
// `Unsupported`; `IoBackend::Mmap.resolve()` degrades to `Blocking`
// before any engine gets here, so the remaining methods are
// unreachable by construction.
// ---------------------------------------------------------------------
#[cfg(not(all(
    target_os = "linux",
    target_endian = "little",
    target_pointer_width = "64"
)))]
#[allow(unused_variables, clippy::missing_const_for_fn)]
impl MmapSource {
    /// Unsupported on this platform; always errors.
    pub fn open(path: impl AsRef<Path>, stats: Arc<IoStats>) -> Result<Self> {
        Self::with_block(path, stats, DEFAULT_BUF_U32S)
    }

    /// Unsupported on this platform; always errors.
    pub fn with_block(
        path: impl AsRef<Path>,
        stats: Arc<IoStats>,
        block_u32s: usize,
    ) -> Result<Self> {
        let _ = (stats, block_u32s);
        Err(IoError::os(
            "mmap",
            path.as_ref(),
            std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "the mmap backend requires 64-bit little-endian Linux",
            ),
        ))
    }

    /// Unreachable: no constructor succeeds on this platform.
    pub fn set_read_latency(&mut self, _latency: Duration) {
        unreachable!("MmapSource cannot be constructed on this platform")
    }

    /// Unreachable: no constructor succeeds on this platform.
    pub fn len_u32(&self) -> u64 {
        unreachable!("MmapSource cannot be constructed on this platform")
    }

    /// Unreachable: no constructor succeeds on this platform.
    pub fn path(&self) -> &Path {
        unreachable!("MmapSource cannot be constructed on this platform")
    }

    /// Unreachable: no constructor succeeds on this platform.
    pub fn will_need(&self, _pos: u64, _len: usize) {
        unreachable!("MmapSource cannot be constructed on this platform")
    }

    /// Unreachable: no constructor succeeds on this platform.
    pub fn read_run(&mut self, _n: usize) -> Result<&[u32]> {
        unreachable!("MmapSource cannot be constructed on this platform")
    }

    /// Unreachable: no constructor succeeds on this platform.
    pub fn range_run(&mut self, _pos: u64, _len: usize) -> Result<&[u32]> {
        unreachable!("MmapSource cannot be constructed on this platform")
    }
}

#[cfg(not(all(
    target_os = "linux",
    target_endian = "little",
    target_pointer_width = "64"
)))]
impl U32Source for MmapSource {
    fn len_u32(&self) -> u64 {
        unreachable!("MmapSource cannot be constructed on this platform")
    }
    fn position(&self) -> u64 {
        unreachable!("MmapSource cannot be constructed on this platform")
    }
    fn seek_to(&mut self, _index: u64) -> Result<()> {
        unreachable!("MmapSource cannot be constructed on this platform")
    }
    fn read_into(&mut self, _out: &mut Vec<u32>, _n: usize) -> Result<usize> {
        unreachable!("MmapSource cannot be constructed on this platform")
    }
    fn skip(&mut self, _n: u64) -> Result<()> {
        unreachable!("MmapSource cannot be constructed on this platform")
    }
}

#[cfg(all(
    test,
    target_os = "linux",
    target_endian = "little",
    target_pointer_width = "64"
))]
mod tests {
    use super::*;
    use crate::stream::{U32Reader, U32Writer};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pdtl-mmap-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn write_vals(name: &str, vals: &[u32]) -> PathBuf {
        let p = tmp(name);
        let mut w = U32Writer::create(&p, IoStats::new()).unwrap();
        w.write_all(vals).unwrap();
        w.finish().unwrap();
        p
    }

    #[test]
    fn supported_on_this_container() {
        assert!(mmap_supported());
    }

    #[test]
    fn sequential_read_matches_file() {
        let vals: Vec<u32> = (0..50_000).map(|i| i ^ 0xDEAD).collect();
        let p = write_vals("seq", &vals);
        let stats = IoStats::new();
        let mut m = MmapSource::with_block(&p, stats.clone(), 512).unwrap();
        assert_eq!(m.len_u32(), vals.len() as u64);
        let mut out = Vec::new();
        assert_eq!(
            U32Source::read_into(&mut m, &mut out, vals.len() + 7).unwrap(),
            vals.len()
        );
        assert_eq!(out, vals);
        assert_eq!(stats.bytes_read(), vals.len() as u64 * 4);
    }

    #[test]
    fn read_run_is_zero_copy_and_counts_blocks() {
        let vals: Vec<u32> = (0..10_000).collect();
        let p = write_vals("run", &vals);
        let stats = IoStats::new();
        let mut m = MmapSource::with_block(&p, stats.clone(), 1000).unwrap();
        let run = m.read_run(2500).unwrap();
        assert_eq!(run, &vals[..2500]);
        // 2500 values over 1000-u32 blocks: three refills charged.
        assert_eq!(stats.bytes_read(), 3 * 1000 * 4);
        assert_eq!(stats.read_ops(), 3);
        let run = m.read_run(400).unwrap();
        assert_eq!(run, &vals[2500..2900]);
        assert_eq!(stats.bytes_read(), 3 * 1000 * 4, "still inside block 3");
    }

    #[test]
    fn range_run_mirrors_read_exact_range_accounting() {
        let vals: Vec<u32> = (0..20_000).collect();
        let p = write_vals("range", &vals);

        let bstats = IoStats::new();
        let mut r = U32Reader::with_buffer(&p, bstats.clone(), 512).unwrap();
        let mut buf = Vec::new();
        r.read_exact_range(3_000, 700, &mut buf).unwrap();

        let mstats = IoStats::new();
        let mut m = MmapSource::with_block(&p, mstats.clone(), 512).unwrap();
        let run = m.range_run(3_000, 700).unwrap();
        assert_eq!(run, &buf[..]);
        assert_eq!(mstats.bytes_read(), bstats.bytes_read());
        assert_eq!(mstats.seeks(), bstats.seeks());
        assert_eq!(mstats.read_ops(), bstats.read_ops());

        // Out-of-range loads fail identically.
        let be = r.read_exact_range(19_900, 200, &mut buf).unwrap_err();
        let me = m.range_run(19_900, 200).unwrap_err();
        assert!(be.to_string().contains("past end of file"));
        assert!(me.to_string().contains("past end of file"));
    }

    #[test]
    fn empty_file_reads_nothing() {
        let p = write_vals("empty", &[]);
        let stats = IoStats::new();
        let mut m = MmapSource::open(&p, stats.clone()).unwrap();
        assert_eq!(m.len_u32(), 0);
        let mut out = Vec::new();
        assert_eq!(U32Source::read_into(&mut m, &mut out, 10).unwrap(), 0);
        U32Source::seek_to(&mut m, 5).unwrap();
        assert_eq!(U32Source::position(&m), 0, "clamped to empty length");
        U32Source::skip(&mut m, u64::MAX).unwrap();
        assert!(m.read_run(3).unwrap().is_empty());
    }

    #[test]
    fn rejects_non_u32_sized_file() {
        let p = tmp("badsize");
        std::fs::write(&p, [0u8; 7]).unwrap();
        let err = MmapSource::open(&p, IoStats::new()).unwrap_err();
        assert!(err.to_string().contains("multiple of 4"));
    }

    #[test]
    fn read_latency_is_charged_per_block() {
        let vals: Vec<u32> = (0..3_000).collect();
        let p = write_vals("latency", &vals);
        let stats = IoStats::new();
        let mut m = MmapSource::with_block(&p, stats.clone(), 1000).unwrap();
        m.set_read_latency(Duration::from_millis(2));
        let t = Instant::now();
        let run = m.read_run(3_000).unwrap();
        assert_eq!(run.len(), 3_000);
        assert!(t.elapsed() >= Duration::from_millis(6), "3 refills slept");
        assert!(stats.io_time() >= Duration::from_millis(6));
    }

    #[test]
    fn will_need_is_advisory_and_unaccounted() {
        let vals: Vec<u32> = (0..5_000).collect();
        let p = write_vals("advise", &vals);
        let stats = IoStats::new();
        let m = MmapSource::open(&p, stats.clone()).unwrap();
        m.will_need(1_000, 2_000);
        m.will_need(4_999, 500); // clamps at the end
        m.will_need(10_000, 10); // past the end: ignored
        assert_eq!(stats.bytes_read(), 0);
        assert_eq!(stats.read_ops(), 0);
    }
}
