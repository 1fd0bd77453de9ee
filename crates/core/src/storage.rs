//! Storage-generic, zero-copy backing for persisted indexes.
//!
//! A `.usix` file has a single canonical, byte-stable encoding (see
//! [`crate::persist`]), which makes it directly servable from the bytes
//! on disk: this module provides
//!
//! * [`IndexStorage`] — the backing bytes of a loaded index, either
//!   owned on the heap or memory-mapped from a file through the
//!   std-only [`Mmap`] wrapper (no external crates; the two raw
//!   `mmap`/`munmap` libc calls are declared locally);
//! * typed section views over those bytes: [`SaRef`] (suffix-array
//!   ranks) and [`WeightsRef`] (position weights), which decode
//!   little-endian records per access because the `.usix` sections are
//!   not naturally aligned — plus the internal [`IndexView`] that a
//!   view-backed [`crate::UsiIndex`] carries instead of owned `Vec`s.
//!
//! The payoff: [`crate::persist::open_mmap`] serves queries without
//! copying the text, weights, suffix array or cached-substring table
//! onto the heap, so cold-start time and resident memory scale with
//! the number of corpora served rather than their total size. The `PSW`
//! prefix sums are the one derived structure computed on load, since
//! the format does not store them: one sum per 8 letters for a sum
//! index (1 B/letter, where the weight section is 8), the dense sums of
//! the logarithms for a product index. A query adds up the rest of a
//! block from the weight section. [`crate::UsiIndex::read_from`]
//! answers from the same view over [`IndexStorage::Owned`] bytes.

use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use usi_strings::UtilityAccumulator;
use usi_suffix::SaAccess;

/// Size of one serialised hash-table entry:
/// `u32 len + u64 fp + f64 sum + f64 min + f64 max + u64 count`.
pub const H_ENTRY_BYTES: usize = 4 + 8 + 8 + 8 + 8 + 8;

#[cfg(all(unix, target_pointer_width = "64"))]
mod ffi {
    //! The two libc calls a read-only file mapping needs. Declared
    //! locally because the workspace is std-only (no `libc` crate); std
    //! already links libc on every unix target. `PROT_READ`/
    //! `MAP_PRIVATE` share these values on Linux and the BSDs (macOS
    //! included), and on LP64 targets `off_t` is 64-bit, matching the
    //! `i64` offset below — the `target_pointer_width = "64"` gate
    //! exists exactly for that assumption.
    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// A read-only, private memory mapping of a whole file.
///
/// Std-only: the mapping is created with a locally declared `mmap`
/// call and released with `munmap` on drop. The mapping is
/// `MAP_PRIVATE`, so later writes to the file by other processes are
/// not guaranteed to be visible; truncating a mapped file can make
/// page accesses fault (`SIGBUS`), the standard caveat of every mmap
/// consumer — `.usix` files are written once and never modified in
/// place, which is why the format is mmap-safe.
#[cfg(all(unix, target_pointer_width = "64"))]
#[derive(Debug)]
pub struct Mmap {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the mapping is read-only and private; the raw pointer is
// owned by this struct alone and the pointed-to pages are immutable
// for its whole lifetime, so shared access from any thread is sound.
#[cfg(all(unix, target_pointer_width = "64"))]
unsafe impl Send for Mmap {}
#[cfg(all(unix, target_pointer_width = "64"))]
unsafe impl Sync for Mmap {}

#[cfg(all(unix, target_pointer_width = "64"))]
impl Mmap {
    /// Maps the whole of `file` read-only. An empty file maps to an
    /// empty byte view (POSIX rejects zero-length mappings, so none is
    /// created).
    pub fn map(file: &std::fs::File) -> io::Result<Self> {
        use std::os::unix::io::AsRawFd;
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "file exceeds address space")
        })?;
        if len == 0 {
            return Ok(Self { ptr: std::ptr::null_mut(), len: 0 });
        }
        // SAFETY: a fresh read-only private mapping of a file we hold
        // open; the kernel validates the fd, length and protection and
        // reports failure through MAP_FAILED.
        let ptr = unsafe {
            ffi::mmap(
                std::ptr::null_mut(),
                len,
                ffi::PROT_READ,
                ffi::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == ffi::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { ptr: ptr.cast(), len })
    }

    /// The mapped bytes.
    pub fn as_bytes(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: `ptr` points to a live, page-aligned, `len`-byte
        // read-only mapping owned by `self`; the pages stay mapped
        // until drop.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
impl Drop for Mmap {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: exactly the mapping created in `map`, released
            // once (drop runs once and `map` is the only constructor).
            unsafe {
                ffi::munmap(self.ptr.cast(), self.len);
            }
        }
    }
}

/// The backing bytes of a loaded index: owned heap bytes, or a
/// borrowed file mapping on platforms that support it.
#[derive(Debug)]
pub enum IndexStorage {
    /// The whole file's bytes, owned on the heap (also the fallback on
    /// targets without the mmap wrapper).
    Owned(Vec<u8>),
    /// A memory mapping of the file: the kernel pages sections in on
    /// first touch and can evict them under pressure.
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(Mmap),
}

impl IndexStorage {
    /// Opens `path` with the cheapest available backing: a memory
    /// mapping where the wrapper exists, owned bytes elsewhere.
    pub fn open(path: &Path) -> io::Result<Self> {
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            let file = std::fs::File::open(path)?;
            Ok(Self::Mapped(Mmap::map(&file)?))
        }
        #[cfg(not(all(unix, target_pointer_width = "64")))]
        {
            Ok(Self::Owned(std::fs::read(path)?))
        }
    }

    /// The stored bytes.
    pub fn bytes(&self) -> &[u8] {
        match self {
            Self::Owned(bytes) => bytes,
            #[cfg(all(unix, target_pointer_width = "64"))]
            Self::Mapped(map) => map.as_bytes(),
        }
    }

    /// Whether the bytes live in a file mapping rather than on the
    /// heap.
    pub fn is_mapped(&self) -> bool {
        match self {
            Self::Owned(_) => false,
            #[cfg(all(unix, target_pointer_width = "64"))]
            Self::Mapped(_) => true,
        }
    }
}

/// Read access to an index's suffix array: a borrowed rank slice for
/// heap-built indexes, or the raw little-endian `u32` section of a
/// storage-backed one (decoded per access — the section offset is not
/// 4-byte aligned in the `.usix` layout, so a `&[u32]` cast would be
/// undefined behaviour).
#[derive(Debug, Clone, Copy)]
pub enum SaRef<'a> {
    /// Ranks owned by the index.
    Ranks(&'a [u32]),
    /// `4 · n` little-endian bytes of a storage section.
    Bytes(&'a [u8]),
}

impl SaRef<'_> {
    /// Number of ranks.
    pub fn len(&self) -> usize {
        match self {
            Self::Ranks(sa) => sa.len(),
            Self::Bytes(b) => b.len() / 4,
        }
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rank at `i`.
    #[inline]
    pub fn at(&self, i: usize) -> u32 {
        match self {
            Self::Ranks(sa) => sa[i],
            Self::Bytes(b) => {
                u32::from_le_bytes(b[4 * i..4 * i + 4].try_into().expect("4-byte record"))
            }
        }
    }

    /// The ranks in order. A section decodes chunk by chunk, without a
    /// match and a bounds check per record.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        // One of the two halves is empty.
        let (ranks, bytes): (&[u32], &[u8]) = match *self {
            Self::Ranks(sa) => (sa, &[]),
            Self::Bytes(b) => (&[], b),
        };
        ranks.iter().copied().chain(le_u32s(bytes))
    }
}

impl SaAccess for SaRef<'_> {
    #[inline]
    fn len(&self) -> usize {
        SaRef::len(self)
    }

    #[inline]
    fn at(&self, rank: usize) -> u32 {
        SaRef::at(self, rank)
    }
}

/// Read access to an index's weight array, mirroring [`SaRef`]: a
/// borrowed `&[f64]` for heap-built indexes, the raw little-endian
/// section for storage-backed ones.
#[derive(Debug, Clone, Copy)]
pub enum WeightsRef<'a> {
    /// Weights owned by the index.
    Slice(&'a [f64]),
    /// `8 · n` little-endian bytes of a storage section.
    Bytes(&'a [u8]),
}

impl<'a> From<&'a [f64]> for WeightsRef<'a> {
    fn from(weights: &'a [f64]) -> Self {
        Self::Slice(weights)
    }
}

impl WeightsRef<'_> {
    /// Number of weights.
    pub fn len(&self) -> usize {
        match self {
            Self::Slice(w) => w.len(),
            Self::Bytes(b) => b.len() / 8,
        }
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The weight at `i`.
    #[inline]
    pub fn at(&self, i: usize) -> f64 {
        match self {
            Self::Slice(w) => w[i],
            Self::Bytes(b) => {
                f64::from_le_bytes(b[8 * i..8 * i + 8].try_into().expect("8-byte record"))
            }
        }
    }

    /// The weights in order, decoded like [`SaRef::iter`].
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        // One of the two halves is empty.
        let (weights, bytes): (&[f64], &[u8]) = match *self {
            Self::Slice(w) => (w, &[]),
            Self::Bytes(b) => (&[], b),
        };
        weights.iter().copied().chain(le_f64s(bytes))
    }

    /// Appends `range` of the weights to `out` (the segmented
    /// ingestion layer stitches boundary regions this way).
    pub fn extend_range_into(&self, range: Range<usize>, out: &mut Vec<f64>) {
        match self {
            Self::Slice(w) => out.extend_from_slice(&w[range]),
            Self::Bytes(b) => out.extend(le_f64s(&b[8 * range.start..8 * range.end])),
        }
    }

    /// The weights, materialised.
    pub fn to_vec(&self) -> Vec<f64> {
        match self {
            Self::Slice(w) => w.to_vec(),
            Self::Bytes(b) => le_f64s(b).collect(),
        }
    }
}

/// The little-endian `u32` records of a section, in order.
pub(crate) fn le_u32s(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes.chunks_exact(4).map(|r| u32::from_le_bytes(r.try_into().expect("4-byte record")))
}

/// The little-endian `f64` records of a section, in order.
pub(crate) fn le_f64s(bytes: &[u8]) -> impl Iterator<Item = f64> + '_ {
    bytes.chunks_exact(8).map(|r| f64::from_le_bytes(r.try_into().expect("8-byte record")))
}

/// The section map a view-backed [`crate::UsiIndex`] carries: byte
/// ranges into an [`IndexStorage`] instead of owned `Vec`s. Constructed
/// (and validated) only by [`crate::persist`].
#[derive(Debug, Clone)]
pub struct IndexView {
    storage: Arc<IndexStorage>,
    /// Text length `n`.
    n: usize,
    text_off: usize,
    weights_off: usize,
    sa_off: usize,
    h_off: usize,
    h_len: usize,
}

impl IndexView {
    /// Assembles a view over validated offsets. `pub(crate)`: only the
    /// persistence layer, which has just validated the layout, may
    /// build one.
    pub(crate) fn new(
        storage: Arc<IndexStorage>,
        n: usize,
        text_off: usize,
        weights_off: usize,
        sa_off: usize,
        h_off: usize,
        h_len: usize,
    ) -> Self {
        Self { storage, n, text_off, weights_off, sa_off, h_off, h_len }
    }

    /// Whether the backing bytes are a file mapping.
    pub fn is_mapped(&self) -> bool {
        self.storage.is_mapped()
    }

    /// The text section.
    pub fn text(&self) -> &[u8] {
        &self.storage.bytes()[self.text_off..self.text_off + self.n]
    }

    /// The weight section.
    pub fn weights(&self) -> WeightsRef<'_> {
        WeightsRef::Bytes(self.weight_bytes())
    }

    /// The weight section's `8 · n` little-endian bytes.
    pub(crate) fn weight_bytes(&self) -> &[u8] {
        &self.storage.bytes()[self.weights_off..self.weights_off + 8 * self.n]
    }

    /// The suffix-array section.
    pub fn sa(&self) -> SaRef<'_> {
        SaRef::Bytes(&self.storage.bytes()[self.sa_off..self.sa_off + 4 * self.n])
    }

    /// Number of cached-substring entries.
    pub fn h_len(&self) -> usize {
        self.h_len
    }

    /// The `(length, fingerprint)` key of entry `i`.
    pub fn h_key(&self, i: usize) -> (u32, u64) {
        let at = self.h_off + H_ENTRY_BYTES * i;
        let b = self.storage.bytes();
        let len = u32::from_le_bytes(b[at..at + 4].try_into().expect("4-byte field"));
        let fp = u64::from_le_bytes(b[at + 4..at + 12].try_into().expect("8-byte field"));
        (len, fp)
    }

    /// The accumulator of entry `i`.
    pub fn h_acc(&self, i: usize) -> UtilityAccumulator {
        let at = self.h_off + H_ENTRY_BYTES * i + 12;
        let b = self.storage.bytes();
        let field =
            |k: usize| f64::from_le_bytes(b[at + 8 * k..at + 8 * k + 8].try_into().expect("f64"));
        let count = u64::from_le_bytes(b[at + 24..at + 32].try_into().expect("u64"));
        UtilityAccumulator::from_raw(field(0), field(1), field(2), count)
    }

    /// Probes the cached-substring section for `key`: binary search
    /// over the entries, which the canonical encoding stores sorted by
    /// `(length, fingerprint)` (validated on open). `O(log K)` per
    /// probe against the hash map's `O(1)` — both are dwarfed by the
    /// `O(m)` fingerprint computation that precedes every probe.
    pub fn h_lookup(&self, key: (u32, u64)) -> Option<UtilityAccumulator> {
        let (mut lo, mut hi) = (0usize, self.h_len);
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.h_key(mid).cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(self.h_acc(mid)),
            }
        }
        None
    }

    /// The entries in `(length, fingerprint)` order.
    pub fn h_entries(&self) -> impl Iterator<Item = ((u32, u64), UtilityAccumulator)> + '_ {
        (0..self.h_len).map(|i| (self.h_key(i), self.h_acc(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sa_ref_decodes_le_records() {
        let ranks = [3u32, 0, 2, 1];
        let bytes: Vec<u8> = ranks.iter().flat_map(|r| r.to_le_bytes()).collect();
        let owned = SaRef::Ranks(&ranks);
        let view = SaRef::Bytes(&bytes);
        assert_eq!(owned.len(), view.len());
        for i in 0..ranks.len() {
            assert_eq!(owned.at(i), view.at(i));
        }
        assert_eq!(view.iter().collect::<Vec<_>>(), ranks);
    }

    #[test]
    fn weights_ref_decodes_le_records() {
        let weights = [0.5f64, -1.25, 3.0];
        let bytes: Vec<u8> = weights.iter().flat_map(|w| w.to_le_bytes()).collect();
        let view = WeightsRef::Bytes(&bytes);
        assert_eq!(view.len(), 3);
        assert_eq!(view.to_vec(), weights);
        let mut out = vec![9.0];
        view.extend_range_into(1..3, &mut out);
        assert_eq!(out, vec![9.0, -1.25, 3.0]);
        let slice = WeightsRef::from(&weights[..]);
        assert_eq!(slice.at(2), 3.0);
    }

    #[cfg(all(unix, target_pointer_width = "64"))]
    #[test]
    fn mmap_round_trips_file_bytes() {
        let dir = crate::temp_dir::TempDir::new("usi-storage-tests");
        let path = dir.join("map.bin");
        std::fs::write(&path, b"hello mapping").unwrap();
        let storage = IndexStorage::open(&path).unwrap();
        assert!(storage.is_mapped());
        assert_eq!(storage.bytes(), b"hello mapping");

        let empty = dir.join("empty.bin");
        std::fs::write(&empty, b"").unwrap();
        let storage = IndexStorage::open(&empty).unwrap();
        assert!(storage.bytes().is_empty());
    }
}
