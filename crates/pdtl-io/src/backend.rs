//! The I/O backend selector shared by every stream consumer.
//!
//! PDTL's engines read graph files through the [`U32Source`] seam, which
//! has three interchangeable implementations with identical accounting
//! (`bytes_read` / `seeks` / `read_ops` counted per block *touched*):
//!
//! * [`Blocking`](IoBackend::Blocking) — [`U32Reader`], one synchronous
//!   `read(2)` per block. The default, and the reference implementation
//!   the other two are asserted against.
//! * [`Mmap`](IoBackend::Mmap) — [`MmapSource`], the file mapped into
//!   the address space and served zero-copy. Wins on page-cache-resident
//!   graphs where every `read(2)` copy is pure overhead; falls back to
//!   `Blocking` on platforms without the mapping syscalls.
//! * [`Uring`](IoBackend::Uring) — [`UringSource`], block reads driven
//!   through `io_uring` submission/completion queues with depth > 1 and
//!   *no* extra threads: the kernel overlaps device waits with compute.
//!   Falls back to `Blocking` on kernels without `io_uring`.
//!
//! [`U32Source`]: crate::U32Source
//! [`U32Reader`]: crate::U32Reader
//! [`MmapSource`]: crate::MmapSource
//! [`UringSource`]: crate::UringSource

/// Which [`U32Source`](crate::U32Source) implementation an engine
/// streams its graph files through.
///
/// Names round-trip through [`parse`](Self::parse) (which also accepts
/// the `io_uring` spelling), and [`resolve`](Self::resolve) degrades a
/// backend the running platform cannot serve to one it can:
///
/// ```
/// use pdtl_io::IoBackend;
///
/// // Every backend's canonical name parses back to itself…
/// for b in IoBackend::ALL {
///     assert_eq!(IoBackend::parse(b.name()), Some(b));
/// }
/// // …case-insensitively, and with the io_uring alias.
/// assert_eq!(IoBackend::parse("MMAP"), Some(IoBackend::Mmap));
/// assert_eq!(IoBackend::parse("io_uring"), Some(IoBackend::Uring));
///
/// // `resolve` never yields a backend this platform cannot run:
/// // io_uring degrades to synchronous reads where missing.
/// let r = IoBackend::Uring.resolve();
/// assert!(r == IoBackend::Uring || r == IoBackend::Blocking);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IoBackend {
    /// Synchronous buffered reads ([`U32Reader`](crate::U32Reader)).
    #[default]
    Blocking,
    /// Zero-copy memory mapping ([`MmapSource`](crate::MmapSource));
    /// resolves to `Blocking` where mapping is unsupported.
    Mmap,
    /// Asynchronous `io_uring` reads ([`UringSource`](crate::UringSource))
    /// with queue depth > 1 and no helper threads; resolves to
    /// `Blocking` where `io_uring` is unavailable.
    Uring,
}

/// Environment variable overriding the default backend
/// (`blocking` | `mmap` | `uring`, case-insensitive).
/// Consumed by `MgtOptions::default`, which is how the CI test matrix
/// runs the whole suite under each backend without touching any call
/// site.
pub const BACKEND_ENV: &str = "PDTL_IO_BACKEND";

impl IoBackend {
    /// Every backend. The cluster wire protocol encodes a backend as
    /// its index here, so new backends are appended, never inserted.
    pub const ALL: [IoBackend; 3] = [IoBackend::Blocking, IoBackend::Mmap, IoBackend::Uring];

    /// Stable lowercase name (bench row / CLI / env spelling).
    pub fn name(self) -> &'static str {
        match self {
            IoBackend::Blocking => "blocking",
            IoBackend::Mmap => "mmap",
            IoBackend::Uring => "uring",
        }
    }

    /// Parse a backend name, case-insensitively. `uring` and the
    /// kernel-interface spelling `io_uring` both name
    /// [`Uring`](IoBackend::Uring).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "blocking" => Some(IoBackend::Blocking),
            "mmap" => Some(IoBackend::Mmap),
            "uring" | "io_uring" => Some(IoBackend::Uring),
            _ => None,
        }
    }

    /// The backend selected by [`BACKEND_ENV`], if set and valid.
    pub fn from_env() -> Option<Self> {
        std::env::var(BACKEND_ENV)
            .ok()
            .and_then(|v| Self::parse(&v))
    }

    /// The default backend, honouring the environment override:
    /// [`Blocking`](IoBackend::Blocking) unless [`BACKEND_ENV`] names
    /// another one.
    pub fn default_from_env() -> Self {
        Self::from_env().unwrap_or(IoBackend::Blocking)
    }

    /// Resolve to a backend the current platform can actually run:
    /// [`Mmap`](IoBackend::Mmap) degrades to
    /// [`Blocking`](IoBackend::Blocking) where the mapping syscalls are
    /// unavailable, and [`Uring`](IoBackend::Uring) degrades to
    /// `Blocking` where the kernel lacks (or has disabled) `io_uring`.
    /// `Blocking` itself is always supported.
    pub fn resolve(self) -> Self {
        match self {
            IoBackend::Mmap if !crate::mmap::mmap_supported() => IoBackend::Blocking,
            IoBackend::Uring if !crate::uring::uring_supported() => IoBackend::Blocking,
            other => other,
        }
    }
}

impl std::fmt::Display for IoBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_for_all_three_backends() {
        assert_eq!(IoBackend::ALL.len(), 3);
        for b in IoBackend::ALL {
            assert_eq!(IoBackend::parse(b.name()), Some(b));
            assert_eq!(IoBackend::parse(&b.name().to_uppercase()), Some(b));
            assert_eq!(b.to_string(), b.name());
        }
        assert_eq!(IoBackend::parse("gibberish"), None);
    }

    #[test]
    fn uring_accepts_both_spellings() {
        assert_eq!(IoBackend::parse("uring"), Some(IoBackend::Uring));
        assert_eq!(IoBackend::parse("io_uring"), Some(IoBackend::Uring));
        assert_eq!(IoBackend::parse("IO_URING"), Some(IoBackend::Uring));
        assert_eq!(IoBackend::Uring.name(), "uring", "canonical name");
    }

    #[test]
    fn default_is_blocking() {
        assert_eq!(IoBackend::default(), IoBackend::Blocking);
    }

    #[test]
    fn resolve_never_yields_unsupported_backends() {
        let r = IoBackend::Mmap.resolve();
        assert!(r == IoBackend::Mmap || r == IoBackend::Blocking);
        if crate::mmap::mmap_supported() {
            assert_eq!(r, IoBackend::Mmap);
        }
        let r = IoBackend::Uring.resolve();
        assert!(r == IoBackend::Uring || r == IoBackend::Blocking);
        if crate::uring::uring_supported() {
            assert_eq!(r, IoBackend::Uring);
        }
        assert_eq!(IoBackend::Blocking.resolve(), IoBackend::Blocking);
    }
}
