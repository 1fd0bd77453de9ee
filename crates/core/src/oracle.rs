//! The linear-space top-K oracle (paper, Section V).
//!
//! One structure serves three tasks:
//!
//! * **Task (i)** — list the top-K frequent substrings as `⟨lcp, lb, rb⟩`
//!   triplets (`Exact-Top-K`, Theorem 2);
//! * **Task (ii)** — given `K`, report `τ_K` (minimum top-K frequency —
//!   the query-time bound of `USI_TOP-K`) and `L_K` (number of distinct
//!   top-K lengths — the construction-time factor);
//! * **Task (iii)** — given `τ`, report `K_τ` (number of `τ`-frequent
//!   substrings — the space bound) and `L_τ`.
//!
//! The paper's structure is the array `T` of suffix-tree nodes sorted by
//! decreasing frequency (ties: shorter string depth first), with the
//! prefix arrays `Q` (distinct substrings covered) and `L` (distinct
//! lengths covered). [`TopKOracle`] keeps `Q` indexed by frequency
//! instead: one bottom-up sweep over the lcp-intervals of the LCP array
//! (Abouelhoda, Kurtz and Ohlebusch, JDA 2004; [`visit_lcp_intervals`])
//! adds each node's `q(v)` at its frequency `f(v)`, 8 bytes per suffix
//! next to the borrowed suffix and LCP arrays. Every task reads that
//! histogram plus at most one more sweep:
//!
//! * `τ_K` and `K_τ` are scans of the histogram;
//! * Task (i) keeps the nodes whose frequency reaches `τ_K` and sorts
//!   them stably by (frequency desc, depth asc): the prefix of `T` that
//!   the listing reads, ties included;
//! * a node's ancestors are strictly more frequent, so a prefix of `T`
//!   covers exactly the lengths `1 ..= max depth`: `L_τ` is the depth of
//!   the deepest node with frequency ≥ `τ`.
//!
//! So Tasks (ii) and (iii) cost `O(n)` per call where the sorted arrays
//! answered in `O(log n)`. Index construction asks for one `K` or `τ`,
//! and the CLI, the examples and the experiments for a few points each;
//! [`TopKOracle::tradeoff_curve`] gives every point in one sweep.

use crate::topk::TopKSubstring;
use std::cell::Cell;
use std::cmp::{Ordering, Reverse};
use std::ops::RangeInclusive;
use usi_strings::HeapSize;
use usi_suffix::{lcp_array, suffix_array, visit_lcp_intervals, LcpInterval};

/// Every substring length: Task (i) over the whole text.
const ALL_LENGTHS: RangeInclusive<u32> = 1..=u32::MAX;

/// The Section-V oracle over a suffix array and its LCP array: `Q`
/// indexed by frequency.
#[derive(Debug)]
pub struct TopKOracle<'a> {
    text_len: usize,
    sa: &'a [u32],
    lcp: &'a [u32],
    /// `q_by_freq[f]`: the number of distinct substrings that occur
    /// exactly `f` times (`Σ q(v)` over the nodes with `f(v) = f`).
    q_by_freq: Vec<u64>,
    /// The largest node list a task has kept, for [`HeapSize`].
    kept_bytes: Cell<usize>,
}

impl<'a> TopKOracle<'a> {
    /// Sweeps the suffix-tree nodes into the frequency histogram, given a
    /// suffix array and the LCP array over it. The suffix ranked `i` is
    /// `text_len − sa[i]` letters long, so an Approximate-Top-K round
    /// passes its sparse arrays with the length of the whole text.
    /// `O(n)` time and `8(n + 1)` bytes for `n` suffixes.
    pub fn new(text_len: usize, sa: &'a [u32], lcp: &'a [u32]) -> Self {
        assert_eq!(sa.len(), lcp.len(), "a suffix array and the LCP array over it");
        let mut oracle =
            Self { text_len, sa, lcp, q_by_freq: Vec::new(), kept_bytes: Cell::new(0) };
        oracle.q_by_freq = oracle.histogram(&ALL_LENGTHS);
        oracle
    }

    /// [`TopKOracle::new`], whatever `threads` is: construction is serial.
    /// Kept for callers that still pass a thread count.
    pub fn new_threads(text_len: usize, sa: &'a [u32], lcp: &'a [u32], _threads: usize) -> Self {
        Self::new(text_len, sa, lcp)
    }

    /// Total number of distinct substrings of the text.
    pub fn total_distinct_substrings(&self) -> u64 {
        self.q_by_freq.iter().sum()
    }

    /// **Task (i)**: the top-`k` frequent substrings as SA-interval
    /// triplets, ties broken by shorter length first. `O(n + k)`
    /// (Theorem 2): one more sweep keeps the nodes that reach `τ_K`, and
    /// only those are sorted. Returns fewer than `k` items only when the
    /// text has fewer distinct substrings.
    pub fn top_k(&self, k: usize) -> Vec<TopKSubstring> {
        self.top_k_in(k, ALL_LENGTHS).collect()
    }

    /// Task (i) over the substrings with a length in `lengths`, listed
    /// lazily: the first `k` items of [`TopKOracle::top_k`]'s order that
    /// fall in the window, `τ_K` counted over the window alone. A window
    /// holding every length reads the oracle's histogram; any other
    /// counts its own, one more sweep and `8(n + 1)` bytes.
    pub fn top_k_in(
        &self,
        k: usize,
        lengths: RangeInclusive<u32>,
    ) -> impl Iterator<Item = TopKSubstring> {
        let windowed;
        let q_by_freq = if *lengths.start() <= 1 && *lengths.end() as usize >= self.text_len {
            &self.q_by_freq
        } else {
            windowed = self.histogram(&lengths);
            &windowed
        };
        let mut nodes = Vec::new();
        if let Some(tau) = tau_for_k(q_by_freq, k as u64) {
            self.sweep(tau == 1, |node| {
                if node.freq() >= tau && count_in(&node, &lengths) > 0 {
                    nodes.push(node);
                }
            });
            nodes.sort_by_key(|node| (Reverse(node.freq()), node.depth));
            self.keep(nodes.heap_bytes());
        }
        let (lo, hi) = lengths.into_inner();
        nodes
            .into_iter()
            .flat_map(move |node| {
                let (lb, rb) = (node.lb, node.rb);
                ((node.parent_depth + 1).max(lo)..=node.depth.min(hi))
                    .map(move |len| TopKSubstring { len, lb, rb })
            })
            .take(k)
    }

    /// **Task (ii)**: `τ_K` and `L_K` for a given `K`, with `K` clamped to
    /// the number of distinct substrings; `K = 0` or an empty text yields
    /// `None`. `O(n)`: `τ_K` comes from the histogram, and one sweep
    /// finds the deepest node above `τ_K` and lists the nodes at `τ_K`.
    pub fn tune_for_k(&self, k: u64) -> Option<TradeoffPoint> {
        let tau = tau_for_k(&self.q_by_freq, k)?;
        let k = k.min(self.total_distinct_substrings());
        let mut distinct_lengths = 0;
        let mut cut = Vec::new();
        self.sweep(tau == 1, |node| match node.freq().cmp(&tau) {
            Ordering::Greater => distinct_lengths = distinct_lengths.max(node.depth),
            Ordering::Equal => cut.push(node),
            Ordering::Less => {}
        });
        cut.sort_by_key(|node| node.depth);
        self.keep(cut.heap_bytes());
        // `K` cuts the class at τ_K partway. Task (i) lists its nodes in
        // depth order, each node's shorter lengths first, and a node's
        // ancestors (lengths 1..=parent_depth) before it: a node cut after
        // `taken` substrings covers the lengths up to parent_depth + taken.
        let mut left = k - self.k_for_tau(tau + 1);
        for node in cut {
            if left == 0 {
                break;
            }
            let taken = left.min(node.q() as u64);
            distinct_lengths = distinct_lengths.max(node.parent_depth + taken as u32);
            left -= taken;
        }
        Some(TradeoffPoint { tau, k, distinct_lengths })
    }

    /// **Task (iii)**: `K_τ` and `L_τ` for a given `τ`. A `τ` above the
    /// maximum frequency yields `K_τ = 0`. `O(n)`: `K_τ` comes from the
    /// histogram, `L_τ` from one sweep.
    pub fn tune_for_tau(&self, tau: u32) -> TradeoffPoint {
        let mut distinct_lengths = 0;
        self.sweep(tau <= 1, |node| {
            if node.freq() >= tau {
                distinct_lengths = distinct_lengths.max(node.depth);
            }
        });
        TradeoffPoint { tau, k: self.k_for_tau(tau), distinct_lengths }
    }

    /// The complete space/time trade-off curve (the paper's Section-X
    /// suggestion: "produce a large number of (K, τ) values efficiently
    /// … to select a good trade-off" with a skyline operator).
    ///
    /// Returns one point per *distinct frequency* — the only places the
    /// trade-off changes: caching `K_τ` substrings yields query bound `τ`
    /// and construction factor `L_τ`. Points are emitted in
    /// decreasing-`τ` (increasing-`K`) order and form a Pareto frontier
    /// by construction: `K` strictly grows while `τ` strictly falls.
    /// `O(n)` time: one sweep for the deepest node of each frequency,
    /// then one scan of the histogram.
    pub fn tradeoff_curve(&self) -> Vec<TradeoffPoint> {
        let mut deepest = vec![0u32; self.q_by_freq.len()];
        self.sweep(true, |node| {
            let depth = &mut deepest[node.freq() as usize];
            *depth = (*depth).max(node.depth);
        });
        let (mut k, mut distinct_lengths) = (0, 0);
        let mut curve = Vec::new();
        for (freq, (&q, &depth)) in self.q_by_freq.iter().zip(&deepest).enumerate().rev() {
            if q > 0 {
                k += q;
                distinct_lengths = distinct_lengths.max(depth);
                curve.push(TradeoffPoint { tau: freq as u32, k, distinct_lengths });
            }
        }
        curve
    }

    /// `K_τ` alone, from the histogram: what a `with_tau(τ)` build caches.
    pub(crate) fn k_for_tau(&self, tau: u32) -> u64 {
        self.q_by_freq.iter().skip(tau as usize).sum()
    }

    /// Distinct-substring counts by frequency, over the lengths in
    /// `lengths`.
    fn histogram(&self, lengths: &RangeInclusive<u32>) -> Vec<u64> {
        let mut q_by_freq = vec![0u64; self.sa.len() + 1];
        self.sweep(true, |node| q_by_freq[node.freq() as usize] += count_in(&node, lengths) as u64);
        q_by_freq
    }

    /// Visits the suffix-tree nodes in [`visit_lcp_intervals`]' order;
    /// the leaves only when `leaves`.
    fn sweep(&self, leaves: bool, visit: impl FnMut(LcpInterval)) {
        let suffix_len = |i: usize| (self.text_len - self.sa[i] as usize) as u32;
        visit_lcp_intervals(self.lcp, suffix_len, leaves, visit);
    }

    fn keep(&self, bytes: usize) {
        self.kept_bytes.set(self.kept_bytes.get().max(bytes));
    }
}

/// The smallest frequency among the top-`k` substrings that `q_by_freq`
/// counts, with `k` clamped to their number; `k = 0` or no substrings
/// yields `None`.
fn tau_for_k(q_by_freq: &[u64], k: u64) -> Option<u32> {
    if k == 0 {
        return None;
    }
    let mut listed = 0u64;
    for (freq, &q) in q_by_freq.iter().enumerate().rev() {
        listed += q;
        if listed >= k {
            return Some(freq as u32);
        }
    }
    // fewer than k substrings: all of them, down to the once-occurring
    (listed > 0).then_some(1)
}

/// How many of `node`'s substrings, of lengths
/// `parent_depth + 1 ..= depth`, have a length in `lengths`.
fn count_in(node: &LcpInterval, lengths: &RangeInclusive<u32>) -> u32 {
    let below = node.parent_depth.max(lengths.start().saturating_sub(1));
    node.depth.min(*lengths.end()).saturating_sub(below)
}

/// One point of the `(K, τ)` trade-off, and the answer to Tasks (ii) and
/// (iii): caching the `k` most frequent substrings yields query bound
/// `O(m + τ)` and construction factor `L_K = distinct_lengths`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TradeoffPoint {
    /// Query-time bound `τ` (max fallback occurrences).
    pub tau: u32,
    /// Space: number of cached substrings `K_τ`.
    pub k: u64,
    /// Construction factor `L_τ`.
    pub distinct_lengths: u32,
}

impl HeapSize for TopKOracle<'_> {
    /// The histogram plus the largest node list a task has kept, without
    /// the borrowed suffix and LCP arrays.
    fn heap_bytes(&self) -> usize {
        self.q_by_freq.heap_bytes() + self.kept_bytes.get()
    }
}

/// Convenience: Exact-Top-K end to end. Builds SA, LCP and the oracle,
/// then lists the top-`k` triplets. Returns `(triplets, suffix array)`
/// so callers can materialise substrings. `O(n + k)` (Theorem 2).
pub fn exact_top_k(text: &[u8], k: usize) -> (Vec<TopKSubstring>, Vec<u32>) {
    let sa = suffix_array(text);
    let lcp = lcp_array(text, &sa);
    let items = TopKOracle::new(text.len(), &sa, &lcp).top_k(k);
    (items, sa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use usi_suffix::naive::{substring_frequencies_naive, top_k_naive};

    /// The oracle over `text` and its suffix array. The arrays are leaked
    /// so the oracle can borrow them for the rest of the test.
    fn oracle_of(text: &[u8]) -> (TopKOracle<'static>, &'static [u32]) {
        let sa = suffix_array(text).leak();
        let lcp = lcp_array(text, sa).leak();
        (TopKOracle::new(text.len(), sa, lcp), sa)
    }

    fn freq_multiset(items: &[(Vec<u8>, u32)]) -> Vec<u32> {
        let mut v: Vec<u32> = items.iter().map(|(_, f)| *f).collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    fn check_top_k(text: &[u8], k: usize) {
        let (got, sa) = exact_top_k(text, k);
        let want = top_k_naive(text, k);
        assert_eq!(got.len(), want.len(), "k={k} text={text:?}");
        // frequency multisets agree (tie-breaks may differ)
        let got_freqs: Vec<u32> = {
            let mut v: Vec<u32> = got.iter().map(|s| s.freq()).collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            v
        };
        assert_eq!(got_freqs, freq_multiset(&want), "k={k} text={text:?}");
        // every reported substring has its true frequency and no duplicates
        let truth = substring_frequencies_naive(text);
        let mut seen = std::collections::HashSet::new();
        for s in &got {
            let bytes = s.bytes(text, &sa).to_vec();
            assert_eq!(truth[&bytes], s.freq(), "substring {bytes:?}");
            assert!(seen.insert(bytes), "duplicate in top-k output");
        }
    }

    #[test]
    fn top_k_matches_naive() {
        for text in [&b"banana"[..], b"mississippi", b"abab", b"aaaa", b"abcdefgh", b"abracadabra"]
        {
            let total: usize = substring_frequencies_naive(text).len();
            for k in [0usize, 1, 2, 3, 5, 10, total, total + 5] {
                check_top_k(text, k);
            }
        }
    }

    #[test]
    fn tune_for_k_matches_direct_computation() {
        let text = b"abracadabra";
        let (oracle, _) = oracle_of(text);
        let truth = substring_frequencies_naive(text);
        for k in 1..=truth.len() as u64 {
            let t = oracle.tune_for_k(k).unwrap();
            assert_eq!(t.k, k);
            let listed = oracle.top_k(k as usize);
            let min_freq = listed.iter().map(|s| s.freq()).min().unwrap();
            assert_eq!(t.tau, min_freq, "k={k}");
            let mut lens: Vec<u32> = listed.iter().map(|s| s.len).collect();
            lens.sort_unstable();
            lens.dedup();
            assert_eq!(t.distinct_lengths as usize, lens.len(), "k={k}");
            // lengths covered are exactly 1..=max (ancestor-closure property)
            assert_eq!(*lens.last().unwrap() as usize, lens.len());
        }
    }

    #[test]
    fn tune_for_tau_counts_tau_frequent() {
        let text = b"abracadabra";
        let (oracle, _) = oracle_of(text);
        let truth = substring_frequencies_naive(text);
        let max_freq = *truth.values().max().unwrap();
        for tau in 1..=(max_freq + 2) {
            let t = oracle.tune_for_tau(tau);
            assert_eq!(t.tau, tau);
            let want_k = truth.values().filter(|&&f| f >= tau).count() as u64;
            assert_eq!(t.k, want_k, "tau={tau}");
            let want_lengths: std::collections::HashSet<usize> =
                truth.iter().filter(|(_, &f)| f >= tau).map(|(s, _)| s.len()).collect();
            assert_eq!(t.distinct_lengths as usize, want_lengths.len(), "tau={tau}");
        }
    }

    #[test]
    fn tune_roundtrip() {
        // K → τ_K → K_{τ_K} ≥ K (all τ_K-frequent substrings include the top-K)
        let (oracle, _) = oracle_of(b"mississippi");
        for k in 1..=oracle.total_distinct_substrings() {
            let tau = oracle.tune_for_k(k).unwrap().tau;
            let k_tau = oracle.tune_for_tau(tau).k;
            assert!(k_tau >= k, "k={k} tau={tau} k_tau={k_tau}");
        }
    }

    #[test]
    fn degenerate_inputs() {
        let (oracle, _) = oracle_of(b"");
        assert_eq!(oracle.total_distinct_substrings(), 0);
        assert!(oracle.tradeoff_curve().is_empty());
        let (oracle, _) = oracle_of(b"z");
        assert_eq!(oracle.total_distinct_substrings(), 1);
        let point = TradeoffPoint { tau: 1, k: 1, distinct_lengths: 1 };
        assert_eq!((oracle.tune_for_k(1), oracle.tradeoff_curve()), (Some(point), vec![point]));
    }

    #[test]
    fn empty_text_selects_nothing() {
        let (oracle, _) = oracle_of(b"");
        assert_eq!(oracle.tune_for_k(1), None);
        assert_eq!(oracle.tune_for_tau(0).k, 0);
        assert_eq!(oracle.tune_for_tau(1).k, 0);
        assert!(oracle.top_k(5).is_empty());
        assert_eq!(oracle.top_k_in(5, 1..=3).count(), 0);
    }

    #[test]
    fn one_letter_text_selects_that_letter() {
        let (oracle, _) = oracle_of(b"z");
        let tau = |k| oracle.tune_for_k(k).map(|t| t.tau);
        assert_eq!((tau(0), tau(1), tau(7)), (None, Some(1), Some(1)));
        assert_eq!((oracle.tune_for_tau(1).k, oracle.tune_for_tau(2).k), (1, 0));
        assert!(oracle.top_k(0).is_empty());
        let want = [TopKSubstring { len: 1, lb: 0, rb: 0 }];
        assert_eq!((oracle.top_k(1), oracle.top_k(3)), (want.to_vec(), want.to_vec()));
    }

    #[test]
    fn entries_sorted_freq_desc_depth_asc() {
        // The listing walks T. Each node is a run of one SA interval, its
        // lengths in order; frequencies never rise, and within one
        // frequency a node ends no shallower than the one before it.
        let (oracle, _) = oracle_of(b"abababab_abba");
        let mut nodes: Vec<(u32, u32, u32)> = Vec::new(); // (freq, lb, depth)
        for s in oracle.top_k(usize::MAX) {
            match nodes.last_mut() {
                Some(node) if (node.0, node.1) == (s.freq(), s.lb) => {
                    assert_eq!(s.len, node.2 + 1);
                    node.2 = s.len;
                }
                _ => nodes.push((s.freq(), s.lb, s.len)),
            }
        }
        for w in nodes.windows(2) {
            assert!(w[0].0 > w[1].0 || (w[0].0 == w[1].0 && w[0].2 <= w[1].2), "{w:?}");
        }
    }

    #[test]
    fn windowed_listing_filters_the_full_listing() {
        for text in [&b"banana_banana"[..], b"mississippi", b"aaaaaaa", b"abcabcab"] {
            let (oracle, _) = oracle_of(text);
            let all = oracle.top_k(usize::MAX);
            for lengths in [1..=1, 2..=3, 3..=200, 0..=u32::MAX, RangeInclusive::new(5, 4)] {
                let want: Vec<TopKSubstring> =
                    all.iter().copied().filter(|s| lengths.contains(&s.len)).collect();
                for k in [0, 1, 3, 8, want.len(), want.len() + 2] {
                    let got: Vec<TopKSubstring> = oracle.top_k_in(k, lengths.clone()).collect();
                    assert_eq!(got, want[..k.min(want.len())], "{text:?} {lengths:?} k={k}");
                }
            }
        }
    }

    #[test]
    fn heap_bytes_count_the_kept_nodes() {
        let text = b"abracadabra_abracadabra";
        let (oracle, _) = oracle_of(text);
        let histogram = (text.len() + 1) * std::mem::size_of::<u64>();
        assert_eq!(oracle.heap_bytes(), histogram);
        assert_eq!(oracle.top_k(5).len(), 5);
        let peak = oracle.heap_bytes();
        assert!(peak >= histogram + std::mem::size_of::<LcpInterval>());
        // the peak stays after a smaller listing
        oracle.top_k(1);
        assert_eq!(oracle.heap_bytes(), peak);
    }

    #[test]
    fn q_sums_to_distinct_substrings() {
        for text in [&b"banana"[..], b"aaaa", b"abcabc"] {
            let truth: HashMap<Vec<u8>, u32> = substring_frequencies_naive(text);
            assert_eq!(oracle_of(text).0.total_distinct_substrings() as usize, truth.len());
        }
    }

    #[test]
    fn tradeoff_curve_is_a_pareto_frontier() {
        let (oracle, _) = oracle_of(b"abracadabra_abracadabra");
        let curve = oracle.tradeoff_curve();
        assert!(!curve.is_empty());
        // strictly decreasing tau, strictly increasing K, consistent with
        // the point tasks
        for w in curve.windows(2) {
            assert!(w[0].tau > w[1].tau);
            assert!(w[0].k < w[1].k);
            assert!(w[0].distinct_lengths <= w[1].distinct_lengths);
        }
        for p in &curve {
            assert_eq!(oracle.tune_for_tau(p.tau), *p);
        }
        // the last point covers every distinct substring (tau = 1)
        assert_eq!(curve.last().unwrap().tau, 1);
        assert_eq!(curve.last().unwrap().k, oracle.total_distinct_substrings());
    }

    #[test]
    fn unary_text_oracle() {
        // "aaaa": substrings a(4) aa(3) aaa(2) aaaa(1)
        let (oracle, sa) = oracle_of(b"aaaa");
        let top = oracle.top_k(3);
        let texts: Vec<&[u8]> = top.iter().map(|s| s.bytes(b"aaaa", sa)).collect();
        assert_eq!(texts, vec![&b"a"[..], b"aa", b"aaa"]);
        assert_eq!(oracle.tune_for_k(2).unwrap().tau, 3);
        assert_eq!(oracle.tune_for_tau(2).k, 3);
    }
}
