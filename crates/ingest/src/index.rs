//! The segmented append-only index: base + sealed segments + live tail.
//!
//! The paper defers true online maintenance of `USI_TOP-K` ("can in
//! general be very costly"). This module keeps appends cheap without
//! ever rebuilding the whole index, with an LSM-style layout:
//!
//! * a frozen **base** [`UsiIndex`] covers the original document;
//! * appended letters land in an in-memory **tail**;
//! * when the tail crosses `seal_threshold` it is **sealed** into an
//!   immutable generation-0 segment — a small `UsiIndex`, built on the
//!   calling thread — instead of rebuilding everything;
//! * a generation-tiered **compaction** merges `compact_fanout`
//!   adjacent segments of one generation into a single segment of the
//!   next, keeping the segment count logarithmic in the appended
//!   length. Compaction is a pure function of existing segments, so the
//!   pipeline can run it on a background thread off the write path.
//!
//! A query merges per-component answers (base, each segment) with the
//! shared [`usi_core::merge`] helper — the same implementation the
//! serving layer's cross-document fan-out uses — and stitches in the
//! occurrences no component can see (those crossing a component
//! boundary, plus those inside the unindexed tail) with a rolling-hash
//! scan over the boundary regions.
//!
//! **Equivalence invariant** (proptested in `tests/equivalence.rs`):
//! for any base text, append sequence, seal threshold and compaction
//! schedule, [`IngestIndex::query`] returns the same occurrences and
//! value as a from-scratch [`UsiBuilder`] build over the fully
//! concatenated weighted string.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use usi_core::index::IndexSize;
use usi_core::{
    merge_accumulators, QueryEngine, QuerySource, UsiBuilder, UsiIndex, UsiQuery, WeightsRef,
};
use usi_strings::{GlobalUtility, LocalWindow, UtilityAccumulator, WeightedString};

/// Tuning knobs for the segmented index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestOptions {
    /// Seal the tail into a segment once it holds this many letters.
    pub seal_threshold: usize,
    /// Merge a generation tier once it holds this many segments (the
    /// LSM fan-out `F`).
    pub compact_fanout: usize,
    /// Deterministic fingerprint seed for segment builds, so a WAL
    /// replay rebuilds byte-identical segments.
    pub seed: u64,
    /// Segment-aware mmap: when set, every sealed or compacted segment
    /// is also written to `<dir>/seg-<offset>-<len>.usix` and served
    /// through a zero-copy storage view
    /// ([`usi_core::persist::open_mmap`]) instead of the heap — the
    /// kernel pages cold segments out under memory pressure. The
    /// directory must exist (the pipeline creates it). Names embed the
    /// segment's absolute letter offset and length, so a WAL replay —
    /// which re-runs the same deterministic seal schedule — rewrites
    /// identical files. **Use one directory per index**: the names
    /// carry no document id, so two indexes sharing a directory would
    /// clobber each other's files (`usi serve` namespaces a
    /// per-document subdirectory automatically). If writing or
    /// remapping fails, the in-memory segment is kept: the option
    /// trades memory, never correctness.
    pub segment_dir: Option<PathBuf>,
}

impl Default for IngestOptions {
    fn default() -> Self {
        Self { seal_threshold: 4096, compact_fanout: 8, seed: 0x5ea1, segment_dir: None }
    }
}

impl IngestOptions {
    fn normalised(mut self) -> Self {
        self.seal_threshold = self.seal_threshold.max(1);
        self.compact_fanout = self.compact_fanout.max(2);
        self
    }
}

/// Checks one append batch against the index's local window before
/// anything durable or shared changes: one weight per letter, every
/// weight finite, and, under [`LocalWindow::Product`], every weight
/// `> 0` (a segment build takes the weights' logarithms, so a zero or
/// negative weight would make the seal panic). The `Err` names the
/// first offending offset.
pub fn check_append(text: &[u8], weights: &[f64], local: LocalWindow) -> Result<(), String> {
    if text.len() != weights.len() {
        return Err(format!("{} letters with {} weights", text.len(), weights.len()));
    }
    if let Some(i) = weights.iter().position(|w| !w.is_finite()) {
        return Err(format!("non-finite weight at offset {i}"));
    }
    if local == LocalWindow::Product {
        if let Some(i) = weights.iter().position(|&w| w <= 0.0) {
            return Err(format!(
                "weight {} at offset {i} is not positive, as a product local requires",
                weights[i]
            ));
        }
    }
    Ok(())
}

/// One immutable sealed segment.
#[derive(Debug, Clone)]
pub struct Segment {
    index: Arc<UsiIndex>,
    generation: u32,
}

impl Segment {
    /// The segment's index.
    pub fn index(&self) -> &UsiIndex {
        &self.index
    }

    /// LSM generation: 0 for freshly sealed tails, `g + 1` for the
    /// merge of `compact_fanout` generation-`g` segments.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Letters covered by this segment.
    pub fn len(&self) -> usize {
        self.index.text().len()
    }

    /// Whether the segment is empty (never true: tails seal non-empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One pending compaction: merge `inputs` (the segments at
/// `[start, start + inputs.len())`, all of `generation`) into a single
/// segment of `generation + 1`. Built under a read lock, executed
/// off-lock, installed under a write lock.
#[derive(Debug)]
pub struct CompactionPlan {
    start: usize,
    generation: u32,
    inputs: Vec<Arc<UsiIndex>>,
}

impl CompactionPlan {
    /// Runs the merge build: concatenates the input segments and builds
    /// one index over them. Pure — touches no shared state, so the
    /// background compactor calls it without holding any lock.
    pub fn build(&self, builder: &UsiBuilder) -> UsiIndex {
        let started = Instant::now();
        let total: usize = self.inputs.iter().map(|i| i.text().len()).sum();
        let mut text = Vec::with_capacity(total);
        let mut weights = Vec::with_capacity(total);
        for input in &self.inputs {
            text.extend_from_slice(input.text());
            input.weights().extend_range_into(0..input.text().len(), &mut weights);
        }
        let merged = builder.build(
            WeightedString::new(text, weights).expect("segment concatenation keeps the invariant"),
        );
        crate::metrics::ingest().compaction_seconds.observe_duration(started.elapsed());
        usi_obs::tracer().record(usi_obs::Span::since(
            "ingest.compaction",
            started,
            vec![
                ("inputs".into(), self.inputs.len().to_string()),
                ("letters".into(), total.to_string()),
                ("generation".into(), self.generation.to_string()),
            ],
        ));
        merged
    }
}

/// The segmented append-only index. See the module docs for the layout;
/// see [`crate::IngestPipeline`] for the WAL-durable, thread-safe
/// wrapper.
#[derive(Debug, Clone)]
pub struct IngestIndex {
    base: Arc<UsiIndex>,
    segments: Vec<Segment>,
    tail_text: Vec<u8>,
    tail_weights: Vec<f64>,
    opts: IngestOptions,
    seals: u64,
    compactions: u64,
    last_compaction: Option<Instant>,
}

impl IngestIndex {
    /// Wraps a built base index. `opts` are clamped to sane minima
    /// (`seal_threshold ≥ 1`, `compact_fanout ≥ 2`).
    pub fn new(base: UsiIndex, opts: IngestOptions) -> Self {
        Self {
            base: Arc::new(base),
            segments: Vec::new(),
            tail_text: Vec::new(),
            tail_weights: Vec::new(),
            opts: opts.normalised(),
            seals: 0,
            compactions: 0,
            last_compaction: None,
        }
    }

    /// The frozen base index.
    pub fn base(&self) -> &UsiIndex {
        &self.base
    }

    /// The sealed segments, oldest first.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The effective options.
    pub fn options(&self) -> IngestOptions {
        self.opts.clone()
    }

    /// Total indexed length: base + segments + tail.
    pub fn len(&self) -> usize {
        self.base.text().len()
            + self.segments.iter().map(Segment::len).sum::<usize>()
            + self.tail_text.len()
    }

    /// Whether nothing has been indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Letters currently buffered in the unsealed tail.
    pub fn tail_len(&self) -> usize {
        self.tail_text.len()
    }

    /// Number of tail seals performed so far.
    pub fn seals(&self) -> u64 {
        self.seals
    }

    /// Number of tier merges performed so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// When the last tier merge finished, if any.
    pub fn last_compaction(&self) -> Option<Instant> {
        self.last_compaction
    }

    /// The shared utility function (every component agrees with the
    /// base by construction).
    pub fn utility(&self) -> GlobalUtility {
        self.base.utility()
    }

    /// The current full text (base + segments + tail), materialised.
    pub fn text(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        out.extend_from_slice(self.base.text());
        for seg in &self.segments {
            out.extend_from_slice(seg.index.text());
        }
        out.extend_from_slice(&self.tail_text);
        out
    }

    /// The current full weight array, materialised.
    pub fn weights(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len());
        self.base.weights().extend_range_into(0..self.base.text().len(), &mut out);
        for seg in &self.segments {
            seg.index.weights().extend_range_into(0..seg.len(), &mut out);
        }
        out.extend_from_slice(&self.tail_weights);
        out
    }

    /// Aggregate size breakdown over the base and every segment (the
    /// tail's two vectors count under `text` / `weights`).
    pub fn size_breakdown(&self) -> IndexSize {
        let mut total = self.base.size_breakdown();
        for seg in &self.segments {
            let part = seg.index.size_breakdown();
            total.text += part.text;
            total.weights += part.weights;
            total.suffix_array += part.suffix_array;
            total.psw += part.psw;
            total.hash_table += part.hash_table;
        }
        total.text += self.tail_text.capacity();
        total.weights += self.tail_weights.capacity() * std::mem::size_of::<f64>();
        total
    }

    /// The builder used for seals and compactions: same utility
    /// function as the base, deterministic fingerprints. Public so the
    /// background compactor can snapshot it together with a
    /// [`CompactionPlan`] and build off-lock.
    pub fn segment_builder(&self) -> UsiBuilder {
        let utility = self.base.utility();
        UsiBuilder::new()
            .with_aggregator(utility.aggregator)
            .with_local_window(utility.local)
            .deterministic(self.opts.seed)
    }

    /// Appends one weighted letter; seals the tail into a segment when
    /// it reaches the threshold. Compaction is **not** triggered here —
    /// call [`IngestIndex::compact_once`] (or let the pipeline's
    /// background compactor run) to fold full tiers.
    pub fn push(&mut self, letter: u8, weight: f64) {
        self.tail_text.push(letter);
        self.tail_weights.push(weight);
        if self.tail_text.len() >= self.opts.seal_threshold {
            self.seal();
        }
    }

    /// Appends a batch of weighted letters.
    ///
    /// # Panics
    /// Panics if the slice lengths differ, and a seal panics on a weight
    /// [`check_append`] refuses (callers validate input at the API
    /// boundary).
    pub fn append(&mut self, text: &[u8], weights: &[f64]) {
        assert_eq!(text.len(), weights.len(), "one weight per appended letter");
        for (&letter, &weight) in text.iter().zip(weights) {
            self.push(letter, weight);
        }
    }

    /// Seals the current tail into a fresh generation-0 segment. A
    /// no-op for an empty tail. With [`IngestOptions::segment_dir`] the
    /// segment is persisted and remapped zero-copy (see there).
    pub fn seal(&mut self) {
        if self.tail_text.is_empty() {
            return;
        }
        let started = Instant::now();
        let sealed_len = self.tail_text.len();
        let offset = self.len() - sealed_len;
        let ws = WeightedString::new(
            std::mem::take(&mut self.tail_text),
            std::mem::take(&mut self.tail_weights),
        )
        .expect("tail arrays grow in lockstep");
        let index = self.remap_segment(self.segment_builder().build(ws), offset);
        self.segments.push(Segment { index: Arc::new(index), generation: 0 });
        self.seals += 1;
        let m = crate::metrics::ingest();
        m.seal_seconds.observe_duration(started.elapsed());
        m.seals_total.inc();
        m.segments.inc();
        usi_obs::tracer().record(usi_obs::Span::since(
            "ingest.seal",
            started,
            vec![("letters".into(), sealed_len.to_string())],
        ));
    }

    /// The deterministic on-disk name of a segment covering
    /// `[offset, offset + len)` of the full string.
    fn segment_path(dir: &std::path::Path, offset: usize, len: usize) -> PathBuf {
        dir.join(format!("seg-{offset}-{len}.usix"))
    }

    /// Absolute letter offset of `segments[i]`.
    fn segment_offset(&self, i: usize) -> usize {
        self.base.text().len() + self.segments[..i].iter().map(Segment::len).sum::<usize>()
    }

    /// With a configured segment directory, writes `index` to its
    /// deterministic path and reopens it as a zero-copy storage view;
    /// without one — or if any I/O step fails — returns the heap-backed
    /// index unchanged (the option trades memory, never correctness).
    fn remap_segment(&self, index: UsiIndex, offset: usize) -> UsiIndex {
        let Some(dir) = &self.opts.segment_dir else {
            return index;
        };
        let path = Self::segment_path(dir, offset, index.text().len());
        let write = || -> Result<UsiIndex, Box<dyn std::error::Error>> {
            let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
            index.write_to(&mut out)?;
            std::io::Write::flush(&mut out)?;
            Ok(usi_core::persist::open_mmap(&path)?)
        };
        write().unwrap_or(index)
    }

    /// The next due tier merge, if any: the lowest generation holding
    /// at least `compact_fanout` segments, taking its oldest
    /// `compact_fanout` members. Segments of one generation are always
    /// adjacent (generations are non-increasing from oldest to newest),
    /// so the merged segment covers contiguous text.
    pub fn compaction_plan(&self) -> Option<CompactionPlan> {
        let fanout = self.opts.compact_fanout;
        let mut due: Option<(u32, usize)> = None; // (generation, first index)
        for generation in self.segments.iter().map(Segment::generation) {
            let count = self.segments.iter().filter(|s| s.generation == generation).count();
            if count >= fanout && due.is_none_or(|(g, _)| generation < g) {
                let first = self
                    .segments
                    .iter()
                    .position(|s| s.generation == generation)
                    .expect("a counted generation has a first member");
                due = Some((generation, first));
            }
        }
        let (generation, start) = due?;
        let inputs: Vec<Arc<UsiIndex>> = self.segments[start..start + fanout]
            .iter()
            .map(|s| {
                debug_assert_eq!(s.generation, generation, "tier members are adjacent");
                Arc::clone(&s.index)
            })
            .collect();
        Some(CompactionPlan { start, generation, inputs })
    }

    /// Installs an executed plan, replacing its input segments with the
    /// merged one. Returns `false` (and changes nothing) if the
    /// segment list no longer matches the plan — only possible with an
    /// external writer racing the compactor, since appends never touch
    /// existing segments.
    pub fn install_compaction(&mut self, plan: &CompactionPlan, merged: UsiIndex) -> bool {
        let window = self.segments.get(plan.start..plan.start + plan.inputs.len());
        let matches = window.is_some_and(|window| {
            window.iter().zip(&plan.inputs).all(|(s, input)| Arc::ptr_eq(&s.index, input))
        });
        if !matches {
            return false;
        }
        let offset = self.segment_offset(plan.start);
        let merged = self.remap_segment(merged, offset);
        if let Some(dir) = self.opts.segment_dir.clone() {
            // best-effort removal of the replaced segments' files (the
            // merged one covers the same letters; unlinking a file that
            // is still mapped is safe on unix — the pages outlive the
            // name). A leftover file only wastes disk: replay never
            // reads it, segments are reopened by exact path.
            let mut at = offset;
            for input in &plan.inputs {
                let _ = std::fs::remove_file(Self::segment_path(&dir, at, input.text().len()));
                at += input.text().len();
            }
        }
        self.segments.splice(
            plan.start..plan.start + plan.inputs.len(),
            [Segment { index: Arc::new(merged), generation: plan.generation + 1 }],
        );
        self.compactions += 1;
        self.last_compaction = Some(Instant::now());
        let m = crate::metrics::ingest();
        m.compactions_total.inc();
        m.segments.add(1 - plan.inputs.len() as i64);
        true
    }

    /// Runs one due tier merge inline. Returns whether a merge ran.
    pub fn compact_once(&mut self) -> bool {
        let Some(plan) = self.compaction_plan() else {
            return false;
        };
        let merged = plan.build(&self.segment_builder());
        self.install_compaction(&plan, merged)
    }

    /// Runs tier merges inline until no tier is due.
    pub fn compact_to_quiescence(&mut self) {
        while self.compact_once() {}
    }

    /// Answers `U(P)` over the full (base + segments + tail) string.
    pub fn query(&self, pattern: &[u8]) -> UsiQuery {
        let (acc, source) = self.query_accumulator(pattern);
        UsiQuery { value: acc.finish(self.utility().aggregator), occurrences: acc.count(), source }
    }

    /// Like [`IngestIndex::query`] but returns the raw accumulator, so
    /// multi-document callers (the serving layer's fan-out) can merge
    /// further occurrences before extracting an aggregate. The reported
    /// [`QuerySource`] is the base index's.
    pub fn query_accumulator(&self, pattern: &[u8]) -> (UtilityAccumulator, QuerySource) {
        let m = pattern.len();
        if m == 0 || m > self.len() {
            return (UtilityAccumulator::new(), QuerySource::TextIndex);
        }
        // (a) occurrences fully inside one indexed component, answered
        // by that component's own index…
        let (base_acc, source) = self.base.query_accumulator(pattern);
        let mut parts: Vec<UtilityAccumulator> = Vec::with_capacity(self.segments.len() + 2);
        parts.push(base_acc);
        parts.extend(self.segments.iter().map(|seg| seg.index.query_accumulator(pattern).0));
        // (b) …plus the occurrences no component can see: crossing a
        // component boundary, or inside the unindexed tail.
        parts.push(self.scan_boundaries(pattern));
        // …merged with the same helper the cross-document fan-out uses.
        (merge_accumulators(parts.iter()), source)
    }

    /// Answers a batch of queries, one [`UsiQuery`] per pattern.
    pub fn query_batch(&self, patterns: &[&[u8]]) -> Vec<UsiQuery> {
        patterns.iter().map(|p| self.query(p)).collect()
    }

    /// The start offsets and lengths of the indexed components (base if
    /// non-empty, then every segment), in text order.
    fn component_ranges(&self) -> Vec<(usize, usize)> {
        let mut ranges = Vec::with_capacity(self.segments.len() + 1);
        let mut offset = 0usize;
        if !self.base.text().is_empty() {
            ranges.push((0, self.base.text().len()));
        }
        offset += self.base.text().len();
        for seg in &self.segments {
            ranges.push((offset, seg.len()));
            offset += seg.len();
        }
        ranges
    }

    /// Copies `[at, at + len)` of the full string out of whichever
    /// components hold it.
    fn copy_region(&self, at: usize, len: usize, text: &mut Vec<u8>, weights: &mut Vec<f64>) {
        text.clear();
        weights.clear();
        let mut offset = 0usize;
        let (start, end) = (at, at + len);
        let mut copy_from = |comp_text: &[u8], comp_weights: WeightsRef<'_>, offset: usize| {
            let comp_end = offset + comp_text.len();
            if start < comp_end && end > offset {
                let lo = start.max(offset) - offset;
                let hi = end.min(comp_end) - offset;
                text.extend_from_slice(&comp_text[lo..hi]);
                comp_weights.extend_range_into(lo..hi, weights);
            }
        };
        copy_from(self.base.text(), self.base.weights(), 0);
        offset += self.base.text().len();
        for seg in &self.segments {
            copy_from(seg.index.text(), seg.index.weights(), offset);
            offset += seg.len();
        }
        copy_from(&self.tail_text, WeightsRef::Slice(&self.tail_weights), offset);
    }

    /// Folds in every occurrence that crosses a component boundary or
    /// lies inside the unindexed tail: a rolling-hash scan (the same
    /// Karp–Rabin machinery phase (ii) uses) over the union of the
    /// boundary windows, each candidate verified by direct comparison.
    fn scan_boundaries(&self, pattern: &[u8]) -> UtilityAccumulator {
        let mut acc = UtilityAccumulator::new();
        let m = pattern.len();
        let total = self.len();
        let last_start = total - m; // inclusive; callers checked m ≤ total

        // candidate start windows: ±m around every internal component
        // boundary, plus the whole tail region
        let ranges = self.component_ranges();
        let mut windows: Vec<(usize, usize)> = Vec::new(); // [lo, hi] inclusive
        for &(offset, len) in &ranges {
            let junction = offset + len;
            if junction == 0 || junction >= total {
                continue;
            }
            // occurrences crossing `junction` start in [junction − m + 1,
            // junction − 1]
            let lo = (junction + 1).saturating_sub(m);
            let hi = (junction - 1).min(last_start);
            if lo <= hi {
                windows.push((lo, hi));
            }
        }
        if !self.tail_text.is_empty() {
            let tail_start = total - self.tail_text.len();
            // crossing into, or fully inside, the tail
            let lo = (tail_start + 1).saturating_sub(m);
            if lo <= last_start {
                windows.push((lo, last_start));
            }
        }
        if windows.is_empty() {
            return acc;
        }
        windows.sort_unstable();
        let mut merged: Vec<(usize, usize)> = Vec::with_capacity(windows.len());
        for (lo, hi) in windows {
            match merged.last_mut() {
                Some((_, last_hi)) if lo <= *last_hi + 1 => *last_hi = (*last_hi).max(hi),
                _ => merged.push((lo, hi)),
            }
        }

        let fingerprinter = self.base.fingerprinter();
        let pattern_fp = fingerprinter.fingerprint(pattern);
        let local_kind = self.utility().local;
        let mut region_text: Vec<u8> = Vec::new();
        let mut region_weights: Vec<f64> = Vec::new();
        for (lo, hi) in merged {
            self.copy_region(lo, hi - lo + m, &mut region_text, &mut region_weights);
            let Some(mut window) = fingerprinter.rolling(&region_text, m) else {
                continue;
            };
            loop {
                let p = window.position();
                let start = lo + p;
                if window.value() == pattern_fp
                    && region_text[p..p + m] == *pattern
                    && !self.contained_in_component(&ranges, start, m)
                {
                    let local = match local_kind {
                        LocalWindow::Sum => region_weights[p..p + m].iter().sum(),
                        LocalWindow::Product => region_weights[p..p + m].iter().product(),
                    };
                    acc.add(local);
                }
                if !window.slide() {
                    break;
                }
            }
        }
        acc
    }

    /// Whether `[start, start + m)` lies entirely inside one indexed
    /// component (and was therefore already counted by its index).
    fn contained_in_component(&self, ranges: &[(usize, usize)], start: usize, m: usize) -> bool {
        let i = ranges.partition_point(|&(offset, _)| offset <= start);
        if i == 0 {
            return false;
        }
        let (offset, len) = ranges[i - 1];
        start >= offset && start + m <= offset + len
    }
}

impl QueryEngine for IngestIndex {
    fn query(&self, pattern: &[u8]) -> UsiQuery {
        IngestIndex::query(self, pattern)
    }

    fn query_accumulator(&self, pattern: &[u8]) -> (UtilityAccumulator, QuerySource) {
        IngestIndex::query_accumulator(self, pattern)
    }

    fn query_batch(&self, patterns: &[&[u8]]) -> Vec<UsiQuery> {
        IngestIndex::query_batch(self, patterns)
    }

    fn utility(&self) -> GlobalUtility {
        IngestIndex::utility(self)
    }

    fn indexed_len(&self) -> usize {
        self.len()
    }

    fn cached_substrings(&self) -> usize {
        self.base.cached_substrings()
            + self.segments.iter().map(|seg| seg.index.cached_substrings()).sum::<usize>()
    }

    fn size_breakdown(&self) -> IndexSize {
        IngestIndex::size_breakdown(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use usi_strings::GlobalAggregator;

    fn builder(k: usize, seed: u64) -> UsiBuilder {
        UsiBuilder::new().with_k(k).deterministic(seed)
    }

    fn random_ws(rng: &mut StdRng, n: usize) -> WeightedString {
        let text: Vec<u8> = (0..n).map(|_| b'a' + rng.gen_range(0..3u8)).collect();
        // dyadic weights: every aggregate is exact in f64, so answers
        // compare with == regardless of accumulation order
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0..8) as f64 * 0.25).collect();
        WeightedString::new(text, weights).unwrap()
    }

    fn check_against_scratch(idx: &IngestIndex, k: usize, seed: u64, patterns: &[Vec<u8>]) {
        let full = WeightedString::new(idx.text(), idx.weights()).unwrap();
        let scratch = builder(k, seed).build(full);
        for pattern in patterns {
            let got = idx.query(pattern);
            let want = scratch.query(pattern);
            assert_eq!(got.occurrences, want.occurrences, "pattern {pattern:?}");
            assert_eq!(got.value, want.value, "pattern {pattern:?}");
        }
    }

    #[test]
    fn seals_and_compactions_preserve_answers() {
        let mut rng = StdRng::seed_from_u64(11);
        let ws = random_ws(&mut rng, 200);
        let mut idx = IngestIndex::new(
            builder(20, 7).build(ws),
            IngestOptions { seal_threshold: 16, compact_fanout: 3, ..IngestOptions::default() },
        );
        for step in 0..150 {
            idx.push(b'a' + rng.gen_range(0..3u8), rng.gen_range(0..8) as f64 * 0.25);
            if step % 40 == 20 {
                idx.compact_once();
            }
        }
        assert!(idx.seals() > 0, "tail must have sealed");
        assert!(idx.compactions() > 0, "tiers must have merged");
        let text = idx.text();
        let mut patterns: Vec<Vec<u8>> = (0..60)
            .map(|_| {
                let m = rng.gen_range(1..30usize);
                let i = rng.gen_range(0..text.len() - m);
                text[i..i + m].to_vec()
            })
            .collect();
        patterns.push(b"zzz".to_vec());
        patterns.push(text.clone()); // the whole string
        check_against_scratch(&idx, 20, 7, &patterns);
    }

    #[test]
    fn boundary_spanning_occurrences_counted_once() {
        // base "aaa" + three sealed 1-letter segments + tail: "aa" in
        // "aaaaaaa" occurs 6 times, none double-counted
        let ws = WeightedString::uniform(b"aaa".to_vec(), 1.0);
        let mut idx = IngestIndex::new(
            builder(2, 3).build(ws),
            IngestOptions { seal_threshold: 1, compact_fanout: 100, ..IngestOptions::default() },
        );
        for _ in 0..3 {
            idx.push(b'a', 1.0);
        }
        assert_eq!(idx.segments().len(), 3);
        idx.tail_text.push(b'a'); // one unsealed tail letter
        idx.tail_weights.push(1.0);
        let q = idx.query(b"aa");
        assert_eq!(q.occurrences, 6);
        assert_eq!(q.value, Some(12.0));
        let q = idx.query(b"aaaaaaa");
        assert_eq!(q.occurrences, 1);
        assert_eq!(q.value, Some(7.0));
    }

    #[test]
    fn generations_tier_up() {
        let ws = WeightedString::uniform(b"ab".to_vec(), 1.0);
        let mut idx = IngestIndex::new(
            builder(2, 5).build(ws),
            IngestOptions { seal_threshold: 2, compact_fanout: 2, ..IngestOptions::default() },
        );
        // 8 seals → with F = 2 full quiescence folds everything to one
        // generation-3 segment
        for _ in 0..8 {
            idx.push(b'a', 1.0);
            idx.push(b'b', 1.0);
            idx.compact_to_quiescence();
        }
        assert_eq!(idx.segments().len(), 1);
        assert_eq!(idx.segments()[0].generation(), 3);
        assert_eq!(idx.compactions(), 7);
        assert!(idx.last_compaction().is_some());
        let q = idx.query(b"ab");
        assert_eq!(q.occurrences, 9);
    }

    #[test]
    fn empty_base_grows_from_nothing() {
        let ws = WeightedString::new(vec![], vec![]).unwrap();
        let mut idx = IngestIndex::new(
            builder(4, 9).build(ws),
            IngestOptions { seal_threshold: 3, compact_fanout: 2, ..IngestOptions::default() },
        );
        assert!(idx.is_empty());
        assert_eq!(idx.query(b"a").occurrences, 0);
        idx.append(b"abcabc", &[1.0; 6]);
        idx.compact_to_quiescence();
        assert_eq!(idx.len(), 6);
        let q = idx.query(b"abc");
        assert_eq!(q.occurrences, 2);
        assert_eq!(q.value, Some(6.0));
    }

    #[test]
    fn aggregators_merge_correctly_across_segments() {
        let mut rng = StdRng::seed_from_u64(23);
        for agg in [GlobalAggregator::Min, GlobalAggregator::Max, GlobalAggregator::Avg] {
            let ws = random_ws(&mut rng, 80);
            let base =
                UsiBuilder::new().with_k(10).with_aggregator(agg).deterministic(31).build(ws);
            let mut idx = IngestIndex::new(
                base,
                IngestOptions { seal_threshold: 8, compact_fanout: 2, ..IngestOptions::default() },
            );
            for _ in 0..40 {
                idx.push(b'a' + rng.gen_range(0..3u8), rng.gen_range(0..8) as f64 * 0.25);
            }
            idx.compact_to_quiescence();
            let full = WeightedString::new(idx.text(), idx.weights()).unwrap();
            let scratch =
                UsiBuilder::new().with_k(10).with_aggregator(agg).deterministic(31).build(full);
            for pattern in [&b"a"[..], b"ab", b"abc", b"ba", b"zz"] {
                let got = idx.query(pattern);
                let want = scratch.query(pattern);
                assert_eq!(got.occurrences, want.occurrences, "{agg:?} {pattern:?}");
                assert_eq!(got.value, want.value, "{agg:?} {pattern:?}");
            }
        }
    }

    #[test]
    fn segment_dir_persists_and_remaps_segments_with_identical_answers() {
        let dir = std::env::temp_dir().join("usi-ingest-segdir-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut rng = StdRng::seed_from_u64(61);
        let ws = random_ws(&mut rng, 120);
        let opts = IngestOptions {
            seal_threshold: 16,
            compact_fanout: 2,
            segment_dir: Some(dir.clone()),
            ..IngestOptions::default()
        };
        let mut mapped = IngestIndex::new(builder(15, 8).build(ws.clone()), opts);
        let mut heap = IngestIndex::new(
            builder(15, 8).build(ws),
            IngestOptions { seal_threshold: 16, compact_fanout: 2, ..IngestOptions::default() },
        );
        for _ in 0..100 {
            let letter = b'a' + rng.gen_range(0..3u8);
            let weight = rng.gen_range(0..8) as f64 * 0.25;
            mapped.push(letter, weight);
            heap.push(letter, weight);
        }
        mapped.compact_to_quiescence();
        heap.compact_to_quiescence();

        assert!(!mapped.segments().is_empty());
        // on targets with the mmap wrapper every sealed/compacted
        // segment is served from its file; elsewhere the persist step
        // still ran but the view is owned bytes
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert!(mapped.segments().iter().all(|s| s.index().is_memory_mapped()));
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(files.len(), mapped.segments().len(), "one live file per segment: {files:?}");
        assert!(files.iter().all(|f| f.starts_with("seg-") && f.ends_with(".usix")));

        let text = mapped.text();
        assert_eq!(text, heap.text());
        for _ in 0..40 {
            let m = rng.gen_range(1..25usize);
            let i = rng.gen_range(0..text.len() - m);
            let pattern = &text[i..i + m];
            assert_eq!(mapped.query(pattern), heap.query(pattern), "pattern {pattern:?}");
        }
        check_against_scratch(&mapped, 15, 8, &[text.clone(), b"zzz".to_vec()]);
    }

    #[test]
    fn stale_plan_does_not_install() {
        let ws = WeightedString::uniform(b"ab".to_vec(), 1.0);
        let mut idx = IngestIndex::new(
            builder(2, 5).build(ws),
            IngestOptions { seal_threshold: 1, compact_fanout: 2, ..IngestOptions::default() },
        );
        idx.push(b'a', 1.0);
        idx.push(b'b', 1.0);
        let plan = idx.compaction_plan().expect("two gen-0 segments are due");
        let merged = plan.build(&idx.segment_builder());
        // compact through another path first: the plan goes stale
        assert!(idx.compact_once());
        assert!(!idx.install_compaction(&plan, merged));
        assert_eq!(idx.compactions(), 1);
    }
}
