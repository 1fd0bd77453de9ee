//! Index persistence: a versioned little-endian binary format for
//! [`UsiIndex`], so a built index can be saved once and loaded back,
//! memory-mapped or onto the heap, without re-running construction.
//!
//! Layout (`USIX` format, version 1):
//!
//! ```text
//! magic  b"USIX\x01\x00\x00\x00"
//! u8     aggregator tag
//! u8     local window tag
//! u64    fingerprinter base
//! u64    n
//! [u8]   text (n bytes)
//! [f64]  weights (n)
//! [u32]  suffix array (n)          — PSW is not stored: the load
//!                                    samples it from the weights
//! u64    |H|
//! |H| ×  (u32 len, u64 fp, f64 sum, f64 min, f64 max, u64 count)
//!        — sorted by (len, fp), so the encoding is canonical: indexes
//!          with equal contents serialise to identical bytes no matter
//!          how (or on how many threads) they were built
//! u64    k_requested; u64 k_stored; u32 tau (u32::MAX = none); u64 L_K
//! ```
//!
//! There is one reader, [`UsiIndex::from_storage`]. [`open_mmap`] hands
//! it a file mapping and [`UsiIndex::read_from`] hands it the stream's
//! bytes on the heap; either way the result answers from the same
//! storage view. It checks the exact file size before it trusts any
//! count, then the tags, the base range, the weights, the suffix-array
//! permutation property and the order of `H`, so a truncated or
//! corrupted file fails loudly instead of producing wrong answers or
//! asking for memory it names but does not hold.

use crate::index::{BuildStats, Locals, UsiIndex};
use crate::storage::{le_f64s, le_u32s, IndexStorage, IndexView, H_ENTRY_BYTES};
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;
use usi_strings::{Fingerprinter, GlobalUtility};

const MAGIC: [u8; 8] = *b"USIX\x01\x00\x00\x00";

/// Bytes before the text section: magic + aggregator tag + local tag +
/// fingerprinter base + `n`.
pub const HEADER_BYTES: usize = 8 + 1 + 1 + 8 + 8;

/// Bytes after the hash-table section: `k_requested + k_stored + tau +
/// L_K`.
pub const TRAILER_BYTES: usize = 8 + 8 + 4 + 8;

/// Errors raised when loading a persisted index.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Bad magic/version header.
    BadMagic,
    /// A field failed validation (message describes which).
    Corrupt(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::BadMagic => write!(f, "not a USIX v1 index file"),
            Self::Corrupt(what) => write!(f, "corrupted index file: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

struct Writer<'w, W: Write>(&'w mut W);

impl<W: Write> Writer<'_, W> {
    fn u8(&mut self, v: u8) -> io::Result<()> {
        self.0.write_all(&[v])
    }
    fn u32(&mut self, v: u32) -> io::Result<()> {
        self.0.write_all(&v.to_le_bytes())
    }
    fn u64(&mut self, v: u64) -> io::Result<()> {
        self.0.write_all(&v.to_le_bytes())
    }
    fn f64(&mut self, v: f64) -> io::Result<()> {
        self.0.write_all(&v.to_le_bytes())
    }
}

impl UsiIndex {
    /// Serialises the index in `USIX` v1 format.
    pub fn write_to<W: Write>(&self, out: &mut W) -> io::Result<()> {
        out.write_all(&MAGIC)?;
        let mut w = Writer(out);
        w.u8(self.utility().aggregator.to_tag())?;
        w.u8(self.utility().local.to_tag())?;
        w.u64(self.fingerprinter().base())?;
        w.u64(self.text().len() as u64)?;
        w.0.write_all(self.text())?;
        for x in self.weights().iter() {
            w.f64(x)?;
        }
        for p in self.suffix_array().iter() {
            w.u32(p)?;
        }
        // Canonical entry order: hash-map iteration order depends on
        // insertion history (serial vs sharded-parallel populate), so
        // entries are sorted by key to make equal indexes serialise to
        // equal bytes — the CI determinism gate `cmp`s serial and
        // parallel builds. (A storage view is already in this order.)
        let entries = self.h_entries_sorted();
        w.u64(entries.len() as u64)?;
        for ((len, fp), acc) in entries {
            let (sum, min, max, count) = acc.to_raw();
            w.u32(len)?;
            w.u64(fp)?;
            w.f64(sum)?;
            w.f64(min)?;
            w.f64(max)?;
            w.u64(count)?;
        }
        let stats = self.stats();
        w.u64(stats.k_requested as u64)?;
        w.u64(stats.k_stored as u64)?;
        w.u32(stats.tau.unwrap_or(u32::MAX))?;
        w.u64(stats.distinct_lengths as u64)?;
        Ok(())
    }

    /// Deserialises an index written by [`UsiIndex::write_to`]: reads
    /// `input` to its end onto the heap and validates those bytes with
    /// [`UsiIndex::from_storage`], so the result is a storage view over
    /// owned bytes and is refused for exactly the inputs a mapping is
    /// refused for (trailing bytes included).
    pub fn read_from<R: Read>(input: &mut R) -> Result<Self, PersistError> {
        let mut bytes = Vec::new();
        input.read_to_end(&mut bytes)?;
        Self::from_storage(Arc::new(IndexStorage::Owned(bytes)))
    }
    /// Validates `storage` as a complete `USIX` v1 image and wraps it
    /// in a view-backed index **without copying any section**. This is
    /// the one `.usix` validator: [`UsiIndex::read_from`] and
    /// [`open_mmap`] both end here. It checks the magic, the tags, the
    /// fingerprint-base range and the text length; that the byte length
    /// matches the layout exactly, before any count is trusted; weight
    /// finiteness (and positivity under a `Product` local window); the
    /// suffix-array permutation property; and per-entry length bounds
    /// and strictly increasing `(length, fingerprint)` order in `H`
    /// (the canonical encoding guarantees it; the probe's binary search
    /// requires it).
    ///
    /// Each section is read once: the weight checks ride on the pass
    /// that samples the `PSW` prefix sums, which the format does not
    /// store. For sum locals that pass keeps one sum per 8 letters
    /// (1 B/letter) and allocates nothing dense; product locals keep
    /// the dense sums of the logarithms (8 B/letter). That is the only
    /// load-time allocation kept in proportion to the corpus (the
    /// permutation check borrows an `n/8`-byte bitset for its pass).
    /// Each successful validation is timed in
    /// `usi_index_open_seconds{mode}`, `mode` being `mmap` for a file
    /// mapping and `read` for heap bytes.
    pub fn from_storage(storage: Arc<IndexStorage>) -> Result<Self, PersistError> {
        let started = std::time::Instant::now();
        let mode = if storage.is_mapped() { "mmap" } else { "read" };
        let index = Self::from_storage_inner(storage)?;
        observe_open(mode, started);
        Ok(index)
    }

    fn from_storage_inner(storage: Arc<IndexStorage>) -> Result<Self, PersistError> {
        let bytes = storage.bytes();
        if bytes.len() < 8 || bytes[..8] != MAGIC {
            return Err(PersistError::BadMagic);
        }
        if bytes.len() < HEADER_BYTES {
            return Err(PersistError::Corrupt("truncated header"));
        }
        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let aggregator = usi_strings::GlobalAggregator::from_tag(bytes[8])
            .ok_or(PersistError::Corrupt("aggregator tag"))?;
        let local = usi_strings::LocalWindow::from_tag(bytes[9])
            .ok_or(PersistError::Corrupt("local window tag"))?;
        let base = u64_at(10);
        if !(256..usi_strings::fingerprint::MODULUS - 1).contains(&base) {
            return Err(PersistError::Corrupt("fingerprint base"));
        }
        let fingerprinter = Fingerprinter::from_raw_base(base);
        let n64 = u64_at(18);
        if n64 > (u32::MAX as u64) - 2 {
            return Err(PersistError::Corrupt("text length"));
        }
        let n = n64 as usize;

        // Section offsets; everything up to the trailer must fit.
        let text_off = HEADER_BYTES;
        let weights_off = text_off + n;
        let sa_off = weights_off + 8 * n;
        let h_count_off = sa_off + 4 * n;
        let h_off = h_count_off + 8;
        if bytes.len() < h_off {
            return Err(PersistError::Corrupt("truncated sections"));
        }
        let h_len64 = u64_at(h_count_off);
        if h_len64 > (n as u64).saturating_mul(n as u64).max(1024) {
            return Err(PersistError::Corrupt("hash table size"));
        }
        let h_len = h_len64 as usize;
        let expected = (h_off as u64)
            .checked_add((H_ENTRY_BYTES as u64).saturating_mul(h_len64))
            .and_then(|v| v.checked_add(TRAILER_BYTES as u64))
            .ok_or(PersistError::Corrupt("hash table size"))?;
        if bytes.len() as u64 != expected {
            return Err(PersistError::Corrupt("file size"));
        }
        let trailer_off = h_off + H_ENTRY_BYTES * h_len;

        let view =
            IndexView::new(Arc::clone(&storage), n, text_off, weights_off, sa_off, h_off, h_len);

        // Weights, read once: PSW is the one derived structure the
        // format does not store, and the pass that samples it (in the
        // builder's accumulation order, so bit-identical) also checks
        // that every weight is finite, and strictly positive under a
        // Product local window, whose PSW takes logarithms. A bad weight
        // enters the sums as 1.0, never reaching the logarithm, and the
        // first one in text order refuses the file. Both array sections
        // are decoded in fixed-size chunks straight from the bytes, as
        // the views' iterators decode them: per-record accessors slowed
        // the permutation pass by a third.
        let product = local == usi_strings::LocalWindow::Product;
        let mut bad_weight = None;
        let psw = Locals::from_weights(
            le_f64s(&bytes[weights_off..sa_off]).map(|w| {
                if w.is_finite() && !(product && w <= 0.0) {
                    return w;
                }
                bad_weight.get_or_insert(if w.is_finite() {
                    "non-positive weight for product local"
                } else {
                    "non-finite weight"
                });
                1.0
            }),
            local,
        );
        if let Some(what) = bad_weight {
            return Err(PersistError::Corrupt(what));
        }

        // Suffix array: a permutation of 0..n, one bit per position.
        let mut seen = vec![0u64; n.div_ceil(64)];
        for p in le_u32s(&bytes[sa_off..h_count_off]) {
            let (word, bit) = (p as usize / 64, 1u64 << (p % 64));
            if p as usize >= n || seen[word] & bit != 0 {
                return Err(PersistError::Corrupt("suffix array permutation"));
            }
            seen[word] |= bit;
        }

        // Hash-table entries: valid lengths, strictly increasing keys
        // (the probe's binary search and the canonical encoding both
        // require it), and the distinct lengths collected along the way.
        let mut cached_lengths: Vec<u32> = Vec::new();
        let mut previous: Option<(u32, u64)> = None;
        for i in 0..h_len {
            let key = view.h_key(i);
            if key.0 == 0 || key.0 as usize > n {
                return Err(PersistError::Corrupt("cached substring length"));
            }
            if previous.is_some_and(|p| p >= key) {
                return Err(PersistError::Corrupt("hash table order"));
            }
            if cached_lengths.last() != Some(&key.0) {
                cached_lengths.push(key.0);
            }
            previous = Some(key);
        }

        let stats = BuildStats {
            n,
            k_requested: u64_at(trailer_off) as usize,
            k_stored: u64_at(trailer_off + 8) as usize,
            tau: match u32_at(trailer_off + 16) {
                u32::MAX => None,
                t => Some(t),
            },
            distinct_lengths: u64_at(trailer_off + 20) as usize,
            ..BuildStats::default()
        };
        let utility = GlobalUtility::with_parts(aggregator, local);
        Ok(UsiIndex::from_view(view, psw, fingerprinter, utility, cached_lengths, stats))
    }
}

/// Opens `path` as a zero-copy, storage-backed [`UsiIndex`]: a memory
/// mapping where the platform wrapper exists ([`crate::storage::Mmap`]),
/// owned file bytes elsewhere. The header and every structural
/// invariant are validated up front by [`UsiIndex::from_storage`], but
/// no payload section is copied onto the heap: text, weights, suffix
/// array and the cached-substring table are typed slices over the file
/// mapping, paged in on first touch.
///
/// Prefer this over [`UsiIndex::read_from`] when serving many corpora
/// from one process: cold-start and resident memory then scale with
/// the number of indexes, not their total size. Both answer from the
/// same view code. Prefer `read_from` when the index should not depend
/// on its file after the load: no query then pays a first-touch
/// page-in, and a file truncated or rewritten in place cannot fault a
/// query (replace `.usix` files by atomic rename, as `usi build -o`
/// does, and a mapping stays safe too).
pub fn open_mmap(path: &Path) -> Result<UsiIndex, PersistError> {
    let storage = IndexStorage::open(path)?;
    UsiIndex::from_storage(Arc::new(storage))
}

/// Records one successful index open in
/// `usi_index_open_seconds{mode}` — a cold path, so the registry
/// lookup per open is fine.
fn observe_open(mode: &str, started: std::time::Instant) {
    usi_obs::global()
        .histogram_vec(
            "usi_index_open_seconds",
            "Time to load and validate a persisted index, by open mode",
            &["mode"],
            usi_obs::default_latency_buckets(),
        )
        .with(&[mode])
        .observe_duration(started.elapsed());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::UsiBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use usi_strings::WeightedString;

    fn sample_index() -> UsiIndex {
        let mut rng = StdRng::seed_from_u64(201);
        let n = 500;
        let text: Vec<u8> = (0..n).map(|_| b'a' + rng.gen_range(0..4u8)).collect();
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..2.0)).collect();
        let ws = WeightedString::new(text, weights).unwrap();
        UsiBuilder::new().with_k(40).deterministic(203).build(ws)
    }

    #[test]
    fn roundtrip_preserves_every_answer() {
        let index = sample_index();
        let mut buf = Vec::new();
        index.write_to(&mut buf).unwrap();
        let loaded = UsiIndex::read_from(&mut buf.as_slice()).unwrap();

        assert_eq!(loaded.cached_substrings(), index.cached_substrings());
        assert_eq!(loaded.stats().tau, index.stats().tau);
        let text = index.text().to_vec();
        let mut rng = StdRng::seed_from_u64(205);
        for _ in 0..200 {
            let m = rng.gen_range(1..10usize);
            let i = rng.gen_range(0..text.len() - m);
            let pat = &text[i..i + m];
            let a = index.query(pat);
            let b = loaded.query(pat);
            assert_eq!(a.occurrences, b.occurrences, "{pat:?}");
            assert_eq!(a.value, b.value, "{pat:?}");
            assert_eq!(a.source, b.source, "{pat:?}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        sample_index().write_to(&mut buf).unwrap();
        buf[0] = b'X';
        assert!(matches!(UsiIndex::read_from(&mut buf.as_slice()), Err(PersistError::BadMagic)));
    }

    #[test]
    fn truncation_rejected() {
        let mut buf = Vec::new();
        sample_index().write_to(&mut buf).unwrap();
        for cut in [8usize, 20, buf.len() / 2, buf.len() - 3] {
            let short = buf[..cut].to_vec();
            assert!(UsiIndex::read_from(&mut &short[..]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn corrupted_suffix_array_rejected() {
        let index = sample_index();
        let mut buf = Vec::new();
        index.write_to(&mut buf).unwrap();
        // SA starts after the header (magic, both tags, base, n), the
        // text and the weights
        let n = index.text().len();
        let sa_off = HEADER_BYTES + 9 * n;
        // duplicate the first SA entry into the second
        let first: [u8; 4] = buf[sa_off..sa_off + 4].try_into().unwrap();
        buf[sa_off + 4..sa_off + 8].copy_from_slice(&first);
        assert!(matches!(
            UsiIndex::read_from(&mut buf.as_slice()),
            Err(PersistError::Corrupt("suffix array permutation"))
        ));
    }

    #[test]
    fn a_count_the_file_cannot_hold_is_refused_before_any_allocation() {
        // n = 40 000 with an `H` count of n²: under the n² bound, so only
        // the exact file-size check stands between the count and a
        // 1.6-billion-entry reservation
        let n = 40_000;
        let mut rng = StdRng::seed_from_u64(209);
        let text: Vec<u8> = (0..n).map(|_| b'a' + rng.gen_range(0..4u8)).collect();
        let ws = WeightedString::uniform(text, 1.0);
        let index = UsiBuilder::new().with_k(10).deterministic(211).build(ws);
        let mut buf = Vec::new();
        index.write_to(&mut buf).unwrap();
        let h_count_off = HEADER_BYTES + 13 * n;
        buf[h_count_off..h_count_off + 8].copy_from_slice(&((n * n) as u64).to_le_bytes());
        assert!(matches!(
            UsiIndex::read_from(&mut buf.as_slice()),
            Err(PersistError::Corrupt("file size"))
        ));
    }

    #[test]
    fn empty_index_roundtrips() {
        let ws = WeightedString::new(vec![], vec![]).unwrap();
        let index = UsiBuilder::new().with_k(1).deterministic(207).build(ws);
        let mut buf = Vec::new();
        index.write_to(&mut buf).unwrap();
        let loaded = UsiIndex::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.query(b"a").occurrences, 0);
    }
}
