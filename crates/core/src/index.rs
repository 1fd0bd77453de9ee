//! The `USI_TOP-K` data structure (paper, Section IV, Theorem 1).
//!
//! Components:
//!
//! * hash table `H`: `(pattern length, Karp–Rabin fingerprint) →`
//!   [`UtilityAccumulator`], holding the precomputed global utilities of
//!   the top-K frequent substrings;
//! * the text index: suffix array `SA(S)` locating infrequent patterns
//!   (standing in for the suffix tree: `P`'s SA interval lists the same
//!   occurrences as the leaves below `P`'s locus);
//! * `PSW`: prefix sums of the weights, giving any occurrence's local
//!   utility in `O(1)`.
//!
//! Construction phases (mirroring the paper):
//!
//! 1. **Phase (i)** — obtain the top-K frequent substrings (exact, from
//!    the Section-V oracle's frequency histogram, [`crate::oracle`], or
//!    the Section-VI sampler); done by [`crate::builder`].
//! 2. **Phase (ii)** — sum each substring's local utilities over its
//!    occurrences. For exact triplets this is one pass in text order:
//!    the SA intervals nest like suffix-tree nodes, so the top-K
//!    substrings that start at a position form a chain, each one's
//!    parent the longest shorter one. Sorted by (`lb`, `rb` descending,
//!    `len`), each triplet finds its parent and marks the SA ranks it
//!    covers; that marking, scattered to text positions, gives every
//!    position the head of its chain. The pass then walks each
//!    position's chain, adding the occurrence's `O(1)` local utility to
//!    each substring's accumulator: `O(n + Σ occ + K log K)`, never more
//!    than the paper's `O(n · L_K)`, and no thread. For witness
//!    estimates, which carry no intervals, a rolling fingerprint slides
//!    over `S` once per length, aggregating the windows whose
//!    fingerprint is in the length's witness set: `O(n · L_K)`.
//! 3. **Phase (iii)** — build `SA(S)` and `PSW`.
//!
//! A query for `P` of length `m` computes `P`'s fingerprint (`O(m)`),
//! probes `H`, and on a miss falls back to the suffix array plus `PSW`
//! (`O(m log n + occ)`, with `occ ≤ τ_K` for exact-built indexes).

use crate::storage::{IndexView, SaRef, WeightsRef, H_ENTRY_BYTES};
use crate::topk::{TopKEstimate, TopKSubstring};
use std::time::Duration;
use usi_strings::{
    Fingerprinter, FxHashMap, FxHashSet, GlobalUtility, HeapSize, LocalIndex, UtilityAccumulator,
    WeightedString,
};
use usi_suffix::{SaAccess, SuffixArraySearcher};

/// How a query was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuerySource {
    /// Precomputed: found in the hash table `H`. `O(m)`.
    HashTable,
    /// Computed on the fly from the text index and `PSW`.
    TextIndex,
}

/// Result of a USI query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsiQuery {
    /// The global utility `U(P)`; `None` when the aggregate is undefined
    /// for zero occurrences (min/max/avg of an absent pattern).
    pub value: Option<f64>,
    /// Number of occurrences of `P` in `S`.
    pub occurrences: u64,
    /// Which path answered the query.
    pub source: QuerySource,
}

/// Construction statistics (reported by the experiment harness).
#[derive(Debug, Clone, Default)]
pub struct BuildStats {
    /// Text length `n`.
    pub n: usize,
    /// Requested `K`.
    pub k_requested: usize,
    /// Number of substrings actually inserted into `H`.
    pub k_stored: usize,
    /// `τ_K` (exact strategy only): worst-case fallback occurrence count.
    pub tau: Option<u32>,
    /// `L_K`: number of distinct top-K substring lengths.
    pub distinct_lengths: usize,
    /// Phase (i) wall time (top-K mining; for exact builds and `τ`, the
    /// LCP array, the frequency histogram and the selection).
    pub phase_topk: Duration,
    /// Phase (ii) wall time (hash-table population).
    pub phase_populate: Duration,
    /// Phase (iii) wall time (SA + PSW; SA construction is attributed
    /// here even though phase (i) reuses it).
    pub phase_index: Duration,
    /// Peak tracked bytes of the miner (AT strategy; 0 for exact).
    pub miner_peak_bytes: usize,
}

impl BuildStats {
    /// Total construction wall time.
    pub fn total_time(&self) -> Duration {
        self.phase_topk + self.phase_populate + self.phase_index
    }
}

/// Index-size breakdown in bytes (the paper's Fig. 6k–p measurements).
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexSize {
    /// The text `S`.
    pub text: usize,
    /// The weight array `w`.
    pub weights: usize,
    /// The suffix array.
    pub suffix_array: usize,
    /// The `PSW` array.
    pub psw: usize,
    /// The hash table `H` (keys, values, control bytes).
    pub hash_table: usize,
}

impl IndexSize {
    /// Sum of all components.
    pub fn total(&self) -> usize {
        self.text + self.weights + self.suffix_array + self.psw + self.hash_table
    }
}

/// Hash-table key: (substring length, fingerprint). Keying on the length
/// too makes cross-length fingerprint collisions impossible.
type HKey = (u32, u64);

/// What actually holds the payload sections (text, weights, suffix
/// array, cached-substring table): owned heap structures for indexes
/// built in this process, or typed slices over an
/// [`crate::storage::IndexStorage`] for every index loaded from a
/// `.usix` file, mapped ([`crate::persist::open_mmap`]) or read onto
/// the heap ([`UsiIndex::read_from`]). Both backings answer every
/// query byte-identically (proptested in
/// `tests/storage_equivalence.rs`).
#[derive(Debug, Clone)]
enum Payload {
    Owned { ws: WeightedString, sa: Vec<u32>, h: FxHashMap<HKey, UtilityAccumulator> },
    View(IndexView),
}

/// The `USI_TOP-K` index. Build through [`crate::builder::UsiBuilder`];
/// load a `.usix` file with [`crate::persist::open_mmap`] (a file
/// mapping) or [`UsiIndex::read_from`] (the bytes on the heap). Both
/// loads validate through [`UsiIndex::from_storage`] and answer from
/// the same storage view.
#[derive(Debug, Clone)]
pub struct UsiIndex {
    payload: Payload,
    psw: LocalIndex,
    fingerprinter: Fingerprinter,
    utility: GlobalUtility,
    /// The `L_K` distinct lengths present in `H`, sorted. A query whose
    /// length is absent cannot be cached, so the `O(m)` fingerprint
    /// computation is skipped entirely — important for long infrequent
    /// patterns (e.g. the IOT workloads).
    cached_lengths: Vec<u32>,
    stats: BuildStats,
}

impl UsiIndex {
    /// Assembles an index from prebuilt parts; used by the builder.
    pub(crate) fn from_parts(
        ws: WeightedString,
        sa: Vec<u32>,
        psw: LocalIndex,
        fingerprinter: Fingerprinter,
        utility: GlobalUtility,
        h: FxHashMap<HKey, UtilityAccumulator>,
        stats: BuildStats,
    ) -> Self {
        let mut cached_lengths: Vec<u32> = h.keys().map(|&(len, _)| len).collect();
        cached_lengths.sort_unstable();
        cached_lengths.dedup();
        Self {
            payload: Payload::Owned { ws, sa, h },
            psw,
            fingerprinter,
            utility,
            cached_lengths,
            stats,
        }
    }

    /// Assembles a storage-backed index from a validated view; used by
    /// the persistence layer's zero-copy open path.
    pub(crate) fn from_view(
        view: IndexView,
        psw: LocalIndex,
        fingerprinter: Fingerprinter,
        utility: GlobalUtility,
        cached_lengths: Vec<u32>,
        stats: BuildStats,
    ) -> Self {
        Self { payload: Payload::View(view), psw, fingerprinter, utility, cached_lengths, stats }
    }

    /// The indexed weighted string; `None` for storage-backed indexes,
    /// whose text and weights have no owned `WeightedString` to borrow
    /// (use [`UsiIndex::text`] and [`UsiIndex::weights`] instead — they
    /// work for both backings).
    pub fn weighted_string(&self) -> Option<&WeightedString> {
        match &self.payload {
            Payload::Owned { ws, .. } => Some(ws),
            Payload::View(_) => None,
        }
    }

    /// The text `S`.
    pub fn text(&self) -> &[u8] {
        match &self.payload {
            Payload::Owned { ws, .. } => ws.text(),
            Payload::View(view) => view.text(),
        }
    }

    /// The weight array `w`, whatever its backing.
    pub fn weights(&self) -> WeightsRef<'_> {
        match &self.payload {
            Payload::Owned { ws, .. } => WeightsRef::Slice(ws.weights()),
            Payload::View(view) => view.weights(),
        }
    }

    /// The suffix array of `S`, whatever its backing.
    pub fn suffix_array(&self) -> SaRef<'_> {
        match &self.payload {
            Payload::Owned { sa, .. } => SaRef::Ranks(sa),
            Payload::View(view) => view.sa(),
        }
    }

    /// Whether the payload sections are served from a file mapping
    /// (zero-copy) rather than the heap.
    pub fn is_memory_mapped(&self) -> bool {
        match &self.payload {
            Payload::Owned { .. } => false,
            Payload::View(view) => view.is_mapped(),
        }
    }

    /// The configured global utility function.
    pub fn utility(&self) -> GlobalUtility {
        self.utility
    }

    /// The fingerprint function (shared with any cooperating structure).
    pub fn fingerprinter(&self) -> Fingerprinter {
        self.fingerprinter
    }

    /// Number of entries in the hash table `H` (distinct cached
    /// substrings).
    pub fn cached_substrings(&self) -> usize {
        match &self.payload {
            Payload::Owned { h, .. } => h.len(),
            Payload::View(view) => view.h_len(),
        }
    }

    /// Construction statistics.
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// Probes the cached-substring table for `(length, fingerprint)`.
    fn h_lookup(&self, key: HKey) -> Option<UtilityAccumulator> {
        match &self.payload {
            Payload::Owned { h, .. } => h.get(&key).copied(),
            Payload::View(view) => view.h_lookup(key),
        }
    }

    /// The cached-substring entries in canonical `(length, fingerprint)`
    /// order (persistence, diagnostics).
    pub(crate) fn h_entries_sorted(&self) -> Vec<(HKey, UtilityAccumulator)> {
        match &self.payload {
            Payload::Owned { h, .. } => {
                let mut entries: Vec<(HKey, UtilityAccumulator)> =
                    h.iter().map(|(&key, &acc)| (key, acc)).collect();
                entries.sort_unstable_by_key(|&(key, _)| key);
                entries
            }
            Payload::View(view) => view.h_entries().collect(),
        }
    }

    /// Index-size breakdown. For storage-backed indexes the text,
    /// weights, suffix-array and hash-table numbers are the section
    /// sizes in the backing bytes (paged in lazily by the kernel when
    /// mapped); `psw` is the one structure built on load.
    pub fn size_breakdown(&self) -> IndexSize {
        match &self.payload {
            Payload::Owned { ws, sa, h } => IndexSize {
                text: ws.text().len(),
                weights: std::mem::size_of_val(ws.weights()),
                suffix_array: sa.heap_bytes(),
                psw: self.psw.heap_bytes(),
                hash_table: h.capacity()
                    * (std::mem::size_of::<HKey>() + std::mem::size_of::<UtilityAccumulator>() + 1)
                    + self.cached_lengths.capacity() * std::mem::size_of::<u32>(),
            },
            Payload::View(view) => IndexSize {
                text: view.text().len(),
                weights: 8 * view.text().len(),
                suffix_array: 4 * view.text().len(),
                psw: self.psw.heap_bytes(),
                hash_table: H_ENTRY_BYTES * view.h_len()
                    + self.cached_lengths.capacity() * std::mem::size_of::<u32>(),
            },
        }
    }

    /// Answers a USI query: the global utility `U(P)` of `pattern`.
    ///
    /// `O(m)` when the pattern is cached in `H`; otherwise
    /// `O(m log n + occ)` with `occ ≤ τ_K` for exact-built indexes.
    pub fn query(&self, pattern: &[u8]) -> UsiQuery {
        let (acc, source) = self.query_accumulator(pattern);
        UsiQuery { value: acc.finish(self.utility.aggregator), occurrences: acc.count(), source }
    }

    /// Like [`UsiIndex::query`], but returns the raw accumulator so
    /// callers (e.g. the segmented ingestion index) can merge further
    /// occurrences before extracting an aggregate.
    pub fn query_accumulator(&self, pattern: &[u8]) -> (UtilityAccumulator, QuerySource) {
        match &self.payload {
            Payload::Owned { ws, sa, .. } => {
                self.query_accumulator_with(&SuffixArraySearcher::new(ws.text(), sa), pattern)
            }
            Payload::View(view) => self.query_accumulator_with(
                &SuffixArraySearcher::with_access(view.text(), view.sa()),
                pattern,
            ),
        }
    }

    /// Query body with the suffix-array searcher hoisted out, so batch
    /// callers set it up once per batch instead of once per pattern.
    /// Generic over the searcher's backing: heap-built indexes pass a
    /// `&[u32]` searcher (monomorphised to the pre-redesign code),
    /// storage views pass a byte-section one.
    fn query_accumulator_with<A: SaAccess>(
        &self,
        searcher: &SuffixArraySearcher<'_, A>,
        pattern: &[u8],
    ) -> (UtilityAccumulator, QuerySource) {
        let m = pattern.len();
        if m == 0 || m > searcher.text().len() {
            return (UtilityAccumulator::new(), QuerySource::TextIndex);
        }
        // Only compute the O(m) fingerprint when some cached substring
        // has this length; otherwise the probe cannot hit.
        if self.cached_lengths.binary_search(&(m as u32)).is_ok() {
            let fp = self.fingerprinter.fingerprint(pattern);
            if let Some(acc) = self.h_lookup((m as u32, fp)) {
                return (acc, QuerySource::HashTable);
            }
        }
        let mut acc = UtilityAccumulator::new();
        if let Some(range) = searcher.interval(pattern) {
            for r in range {
                acc.add(self.psw.local(searcher.access().at(r) as usize, m));
            }
        }
        (acc, QuerySource::TextIndex)
    }

    /// Answers a batch of USI queries, one [`UsiQuery`] per pattern in
    /// order. Answers are identical to calling [`UsiIndex::query`] in a
    /// loop. Two things amortise across the batch: the per-query setup
    /// (searcher construction, result allocation) is hoisted out of the
    /// loop, and **repeated patterns are answered once** — real query
    /// batches are heavily skewed towards hot patterns, and a duplicate
    /// costs one hash probe instead of a full `O(m log n + occ)` query.
    pub fn query_batch(&self, patterns: &[&[u8]]) -> Vec<UsiQuery> {
        self.query_accumulator_batch(patterns)
            .into_iter()
            .map(|(acc, source)| UsiQuery {
                value: acc.finish(self.utility.aggregator),
                occurrences: acc.count(),
                source,
            })
            .collect()
    }

    /// Batch variant of [`UsiIndex::query_accumulator`]: raw accumulators
    /// for a pattern batch, so multi-document callers (e.g. a fan-out
    /// over a catalog of indexes) can merge per-document occurrences
    /// before extracting aggregates. Duplicate patterns in the batch are
    /// computed once and copied.
    pub fn query_accumulator_batch(
        &self,
        patterns: &[&[u8]],
    ) -> Vec<(UtilityAccumulator, QuerySource)> {
        match &self.payload {
            Payload::Owned { ws, sa, .. } => {
                self.accumulate_batch(&SuffixArraySearcher::new(ws.text(), sa), patterns)
            }
            Payload::View(view) => self.accumulate_batch(
                &SuffixArraySearcher::with_access(view.text(), view.sa()),
                patterns,
            ),
        }
    }

    /// Batch body shared by both payload backings.
    fn accumulate_batch<A: SaAccess>(
        &self,
        searcher: &SuffixArraySearcher<'_, A>,
        patterns: &[&[u8]],
    ) -> Vec<(UtilityAccumulator, QuerySource)> {
        let mut first_seen: FxHashMap<&[u8], usize> = FxHashMap::default();
        let mut out: Vec<(UtilityAccumulator, QuerySource)> = Vec::with_capacity(patterns.len());
        for (i, &pattern) in patterns.iter().enumerate() {
            match first_seen.entry(pattern) {
                std::collections::hash_map::Entry::Occupied(entry) => {
                    let answer = out[*entry.get()];
                    out.push(answer);
                }
                std::collections::hash_map::Entry::Vacant(entry) => {
                    entry.insert(i);
                    out.push(self.query_accumulator_with(searcher, pattern));
                }
            }
        }
        out
    }

    /// Populates `H` from exact triplets (phase (ii)) in one pass over
    /// the text. The triplets' SA intervals nest like the suffix-tree
    /// nodes they come from, so the triplets whose substrings start at a
    /// text position form a chain, each one's parent the longest
    /// shorter one. The pass walks each position's chain and adds the
    /// position's local utility, for each triplet's length, to that
    /// triplet's accumulator: `O(n + Σ occ + K log K)`. Every
    /// accumulator receives the same adds in the same text order as a
    /// rolling-fingerprint pass over every window of its length, so,
    /// barring fingerprint collisions, `H` is bit-identical to it. The
    /// entries go into `H` grouped by length, shortest first, and in
    /// input order within a length; a colliding key merges into the
    /// entry already there. Exposed for the phase-(ii) ablation bench;
    /// normal construction goes through [`crate::builder::UsiBuilder`].
    pub fn populate_from_triplets(
        text: &[u8],
        sa: &[u32],
        psw: &LocalIndex,
        fingerprinter: &Fingerprinter,
        items: &[TopKSubstring],
    ) -> (FxHashMap<HKey, UtilityAccumulator>, usize) {
        const NONE: u32 = u32::MAX;
        // Each triplet after every triplet whose interval contains its
        // own, and after the shorter ones on the same interval. In that
        // order, a triplet's parent is the last one to cover its left
        // end, and `deepest[r]` ends as the longest triplet covering SA
        // rank `r`. A chain link is (parent, length) by sorted slot, so
        // the walk below reads one array.
        let count = u32::try_from(items.len()).expect("fewer than 2^32 triplets");
        let mut order: Vec<u32> = (0..count).collect();
        order.sort_unstable_by_key(|&i| {
            let item = &items[i as usize];
            (item.lb, std::cmp::Reverse(item.rb), item.len)
        });
        let mut links: Vec<(u32, u32)> = Vec::with_capacity(items.len());
        let mut deepest = vec![NONE; text.len()];
        for (slot, &i) in (0..count).zip(&order) {
            let item = &items[i as usize];
            let parent = deepest[item.lb as usize];
            debug_assert!(
                parent == NONE || links[parent as usize].1 < item.len,
                "a triplet's parent is strictly shorter than it"
            );
            links.push((parent, item.len));
            deepest[item.lb as usize..=item.rb as usize].fill(slot);
        }
        let mut chain_at = vec![NONE; text.len()];
        for (&p, &slot) in sa.iter().zip(&deepest) {
            chain_at[p as usize] = slot;
        }
        drop(deepest);

        let mut accs = vec![UtilityAccumulator::new(); items.len()];
        for (p, &head) in chain_at.iter().enumerate() {
            let mut slot = head;
            while slot != NONE {
                let (parent, len) = links[slot as usize];
                accs[slot as usize].add(psw.local(p, len as usize));
                slot = parent;
            }
        }

        // Into `H` by length, in input order within a length.
        let mut by_item = vec![UtilityAccumulator::new(); items.len()];
        for (&i, acc) in order.iter().zip(accs) {
            by_item[i as usize] = acc;
        }
        order.sort_unstable_by_key(|&i| (items[i as usize].len, i));
        let mut h: FxHashMap<HKey, UtilityAccumulator> = FxHashMap::default();
        h.reserve(items.len());
        let mut lengths = 0;
        for (k, &i) in order.iter().enumerate() {
            let item = &items[i as usize];
            if k == 0 || items[order[k - 1] as usize].len != item.len {
                lengths += 1;
            }
            let acc = by_item[i as usize];
            let fp = fingerprinter.fingerprint(item.bytes(text, sa));
            h.entry((item.len, fp)).and_modify(|hit| hit.merge(&acc)).or_insert(acc);
        }
        (h, lengths)
    }

    /// [`UsiIndex::populate_from_triplets`], whatever `threads` is: the
    /// one text-order pass starts no thread. Kept for callers that still
    /// pass a thread count.
    pub fn populate_from_triplets_parallel(
        text: &[u8],
        sa: &[u32],
        psw: &LocalIndex,
        fingerprinter: &Fingerprinter,
        items: &[TopKSubstring],
        _threads: usize,
    ) -> (FxHashMap<HKey, UtilityAccumulator>, usize) {
        Self::populate_from_triplets(text, sa, psw, fingerprinter, items)
    }

    /// Populates `H` from witness estimates (phase (ii), fingerprint-set
    /// variant used with Approximate-Top-K): per length, collect the
    /// witnesses' fingerprints and aggregate every window whose
    /// fingerprint is in the set. Computes **exact** global utilities for
    /// the estimated substring set. `O(n · L_K)`. Exposed for the
    /// phase-(ii) ablation bench.
    pub fn populate_from_estimates(
        text: &[u8],
        psw: &LocalIndex,
        fingerprinter: &Fingerprinter,
        items: &[TopKEstimate],
    ) -> (FxHashMap<HKey, UtilityAccumulator>, usize) {
        let mut h: FxHashMap<HKey, UtilityAccumulator> = FxHashMap::default();
        h.reserve(items.len());
        let table = fingerprinter.table(text);

        let mut by_len: FxHashMap<u32, FxHashSet<u64>> = FxHashMap::default();
        for item in items {
            let fp = table.substring(item.witness as usize, (item.witness + item.len) as usize);
            by_len.entry(item.len).or_default().insert(fp);
        }
        let mut lengths: Vec<u32> = by_len.keys().copied().collect();
        lengths.sort_unstable();

        for &len in &lengths {
            let set = &by_len[&len];
            let Some(mut window) = fingerprinter.rolling(text, len as usize) else {
                continue;
            };
            loop {
                let fp = window.value();
                if set.contains(&fp) {
                    h.entry((len, fp)).or_default().add(psw.local(window.position(), len as usize));
                }
                if !window.slide() {
                    break;
                }
            }
        }
        (h, lengths.len())
    }
}

impl HeapSize for UsiIndex {
    fn heap_bytes(&self) -> usize {
        self.size_breakdown().total()
    }
}
