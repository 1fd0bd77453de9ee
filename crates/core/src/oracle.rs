//! The linear-space top-K oracle (paper, Section V).
//!
//! One structure serves three tasks:
//!
//! * **Task (i)** — list the top-K frequent substrings as `⟨lcp, lb, rb⟩`
//!   triplets (`Exact-Top-K`, Theorem 2: `O(n + K)` after construction);
//! * **Task (ii)** — given `K`, report `τ_K` (minimum top-K frequency —
//!   the query-time bound of `USI_TOP-K`) and `L_K` (number of distinct
//!   top-K lengths — the construction-time factor);
//! * **Task (iii)** — given `τ`, report `K_τ` (number of `τ`-frequent
//!   substrings — the space bound) and `L_τ`.
//!
//! The structure is the array `T` of suffix-tree node triplets
//! `⟨v, f(v), q(v)⟩` sorted by decreasing frequency (ties: shorter string
//! depth first), with two parallel prefix arrays: `Q` (cumulative distinct
//! substring counts) and `L` (cumulative distinct lengths). Because every
//! node's ancestors have strictly larger frequency and therefore precede
//! it in `T`, the lengths covered by a prefix of `T` are exactly
//! `1 ..= max string depth`, so `L` is the running maximum of depths —
//! the paper's counter `c` / maximum `M` bookkeeping.
//!
//! Index construction does not build this structure: phase (i) needs
//! only `τ_K` and the nodes that reach it, which
//! [`TopKSelector`](crate::select::TopKSelector) reads from a frequency
//! histogram, listing the same triplets in the same order. The oracle
//! serves what needs all of `T`: `usi topk`, `usi tradeoff`, the `W1`
//! workloads, the Approximate-Top-K rounds and the experiments.

use crate::topk::{list_top_k, TopKSubstring};
use usi_strings::HeapSize;
use usi_suffix::{lcp_array, lcp_intervals, suffix_array, LcpInterval};

/// One entry of the array `T`: an explicit suffix-tree node with its
/// frequency, string depth, parent string depth and SA interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleEntry {
    /// Frequency `f(v)` = size of the SA interval.
    pub freq: u32,
    /// String depth `sd(v)`.
    pub depth: u32,
    /// String depth of the parent, so `q(v) = depth − parent_depth`.
    pub parent_depth: u32,
    /// SA interval left boundary (inclusive).
    pub lb: u32,
    /// SA interval right boundary (inclusive).
    pub rb: u32,
}

impl OracleEntry {
    /// Edge letter count `q(v)`: distinct substrings this entry holds.
    #[inline]
    pub fn q(&self) -> u32 {
        self.depth - self.parent_depth
    }
}

/// Result of Task (ii): parameters implied by a choice of `K`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneForK {
    /// `τ_K`: smallest frequency among the top-K substrings. Queries run
    /// in `O(m + τ_K)`.
    pub tau: u32,
    /// `L_K`: number of distinct lengths among the top-K substrings.
    /// Phase (ii) costs at most `O(n · L_K)`; from the SA intervals it
    /// pays `O(n/64 + occ)` per length.
    pub distinct_lengths: u32,
}

/// Result of Task (iii): parameters implied by a choice of `τ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneForTau {
    /// `K_τ`: number of substrings with frequency ≥ τ. The hash table
    /// stores `K_τ` entries.
    pub k: u64,
    /// `L_τ`: number of distinct lengths among those substrings.
    pub distinct_lengths: u32,
}

/// The Section-V data structure: `T`, `Q` and `L`.
#[derive(Debug, Clone)]
pub struct TopKOracle {
    /// `T`: nodes sorted by (frequency desc, string depth asc).
    entries: Vec<OracleEntry>,
    /// `Q[i]`: Σ q(v) over `entries[..=i]`.
    cum_q: Vec<u64>,
    /// `L[i]`: distinct lengths covered by `entries[..=i]` (running max depth).
    cum_l: Vec<u32>,
}

impl TopKOracle {
    /// Builds the oracle from a text's suffix and LCP arrays. `O(n)`.
    pub fn new(text_len: usize, sa: &[u32], lcp: &[u32]) -> Self {
        let nodes = lcp_intervals(lcp, |i| (text_len - sa[i] as usize) as u32, true);
        Self::from_nodes(nodes, text_len)
    }

    /// [`TopKOracle::new`], whatever `threads` is: construction is serial.
    /// Kept for callers that still pass a thread count.
    pub fn new_threads(text_len: usize, sa: &[u32], lcp: &[u32], _threads: usize) -> Self {
        Self::new(text_len, sa, lcp)
    }

    /// Builds SA and LCP internally, then the oracle.
    pub fn from_text(text: &[u8]) -> (Self, Vec<u32>) {
        let sa = suffix_array(text);
        let lcp = lcp_array(text, &sa);
        let oracle = Self::new(text.len(), &sa, &lcp);
        (oracle, sa)
    }

    /// Builds from pre-enumerated suffix-tree nodes (shared with the
    /// sparse per-round accounting of Approximate-Top-K). `max_freq`
    /// bounds frequencies for the radix sort (`n` for a full text).
    pub fn from_nodes(mut nodes: Vec<LcpInterval>, max_freq: usize) -> Self {
        radix_sort_nodes(&mut nodes, max_freq);
        let entries: Vec<OracleEntry> = nodes
            .iter()
            .map(|n| OracleEntry {
                freq: n.freq(),
                depth: n.depth,
                parent_depth: n.parent_depth,
                lb: n.lb,
                rb: n.rb,
            })
            .collect();
        let mut cum_q = Vec::with_capacity(entries.len());
        let mut cum_l = Vec::with_capacity(entries.len());
        let mut q_acc = 0u64;
        let mut max_depth = 0u32;
        for e in &entries {
            q_acc += e.q() as u64;
            max_depth = max_depth.max(e.depth);
            cum_q.push(q_acc);
            cum_l.push(max_depth);
        }
        Self { entries, cum_q, cum_l }
    }

    /// The sorted node array `T`.
    pub fn entries(&self) -> &[OracleEntry] {
        &self.entries
    }

    /// Total number of distinct substrings of the text.
    pub fn total_distinct_substrings(&self) -> u64 {
        self.cum_q.last().copied().unwrap_or(0)
    }

    /// **Task (i)**: the top-`k` frequent substrings as SA-interval
    /// triplets, ties broken by shorter length first. `O(k)` after the
    /// `O(n)` construction (Theorem 2). Returns fewer than `k` items only
    /// when the text has fewer distinct substrings.
    pub fn top_k(&self, k: usize) -> Vec<TopKSubstring> {
        let nodes = self.entries.iter().map(|e| LcpInterval {
            depth: e.depth,
            parent_depth: e.parent_depth,
            lb: e.lb,
            rb: e.rb,
        });
        list_top_k(nodes, k)
    }

    /// **Task (ii)**: `(τ_K, L_K)` for a given `K`, by binary search in
    /// `Q`. `O(log n)`. `K` is clamped to the number of distinct
    /// substrings; `K = 0` or an empty text yields `None`.
    pub fn tune_for_k(&self, k: u64) -> Option<TuneForK> {
        if k == 0 || self.entries.is_empty() {
            return None;
        }
        let k = k.min(self.total_distinct_substrings());
        // smallest i with Q[i] ≥ k
        let i = self.cum_q.partition_point(|&q| q < k);
        // The paper reports L[i]; when K cuts entry i mid-edge that is an
        // upper bound. Since Task (i) lists shorter edge lengths first and
        // ancestors (covering lengths 1..=parent_depth) precede entry i,
        // the exact distinct-length count of the listed set is
        // max(L[i−1], parent_depth + consumed).
        let (prev_q, prev_l) = if i == 0 { (0, 0) } else { (self.cum_q[i - 1], self.cum_l[i - 1]) };
        let consumed = (k - prev_q) as u32;
        let e = &self.entries[i];
        Some(TuneForK { tau: e.freq, distinct_lengths: prev_l.max(e.parent_depth + consumed) })
    }

    /// **Task (iii)**: `(K_τ, L_τ)` for a given `τ`, by binary search in
    /// the frequencies of `T`. `O(log n)`. A `τ` above the maximum
    /// frequency yields `K_τ = 0`.
    pub fn tune_for_tau(&self, tau: u32) -> TuneForTau {
        // entries are sorted by freq desc: find the largest i with freq ≥ τ
        let end = self.entries.partition_point(|e| e.freq >= tau);
        if end == 0 {
            return TuneForTau { k: 0, distinct_lengths: 0 };
        }
        TuneForTau { k: self.cum_q[end - 1], distinct_lengths: self.cum_l[end - 1] }
    }

    /// The complete space/time trade-off curve (the paper's Section-X
    /// suggestion: "produce a large number of (K, τ) values efficiently
    /// … to select a good trade-off" with a skyline operator).
    ///
    /// Returns one point per *distinct frequency* in `T` — the only
    /// places the trade-off changes: caching `K_τ` substrings yields
    /// query bound `τ` and construction factor `L_τ`. Points are emitted
    /// in decreasing-`τ` (increasing-`K`) order and form a Pareto
    /// frontier by construction: `K` strictly grows while `τ` strictly
    /// falls. `O(n)` time.
    pub fn tradeoff_curve(&self) -> Vec<TradeoffPoint> {
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < self.entries.len() {
            let freq = self.entries[i].freq;
            // advance to the last entry with this frequency
            let mut j = i;
            while j + 1 < self.entries.len() && self.entries[j + 1].freq == freq {
                j += 1;
            }
            out.push(TradeoffPoint {
                tau: freq,
                k: self.cum_q[j],
                distinct_lengths: self.cum_l[j],
            });
            i = j + 1;
        }
        out
    }

    /// Picks the trade-off point that minimises a weighted cost
    /// `query_weight · τ + space_weight · K` over the skyline, modelling
    /// the simplest "good trade-off" selection on top of
    /// [`TopKOracle::tradeoff_curve`]. Returns `None` on an empty text.
    pub fn select_tradeoff(&self, query_weight: f64, space_weight: f64) -> Option<TradeoffPoint> {
        self.tradeoff_curve().into_iter().min_by(|a, b| {
            let cost = |p: &TradeoffPoint| query_weight * p.tau as f64 + space_weight * p.k as f64;
            cost(a).total_cmp(&cost(b))
        })
    }
}

/// One point of the `(K, τ)` trade-off curve: caching the `k` most
/// frequent substrings yields query bound `O(m + τ)` and construction
/// factor `L_K = distinct_lengths`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TradeoffPoint {
    /// Query-time bound `τ` (max fallback occurrences).
    pub tau: u32,
    /// Space: number of cached substrings `K_τ`.
    pub k: u64,
    /// Construction factor `L_τ`.
    pub distinct_lengths: u32,
}

impl HeapSize for TopKOracle {
    fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<OracleEntry>()
            + self.cum_q.heap_bytes()
            + self.cum_l.heap_bytes()
    }
}

/// Stable two-pass radix sort of suffix-tree nodes by
/// (frequency descending, string depth ascending), as the paper's `O(n)`
/// radix sort of `T`. Counting sorts: depth ascending first, then
/// frequency descending (stability preserves the depth order within equal
/// frequencies).
fn radix_sort_nodes(nodes: &mut [LcpInterval], max_freq: usize) {
    if nodes.len() <= 1 {
        return;
    }
    let max_depth = nodes.iter().map(|n| n.depth).max().unwrap_or(0) as usize;

    // Pass 1: stable counting sort by depth ascending.
    let mut count = vec![0u32; max_depth + 2];
    for n in nodes.iter() {
        count[n.depth as usize + 1] += 1;
    }
    for i in 1..count.len() {
        count[i] += count[i - 1];
    }
    let mut tmp = vec![LcpInterval { depth: 0, parent_depth: 0, lb: 0, rb: 0 }; nodes.len()];
    for n in nodes.iter() {
        let slot = &mut count[n.depth as usize];
        tmp[*slot as usize] = *n;
        *slot += 1;
    }

    // Pass 2: stable counting sort by frequency descending.
    // (bucket by max_freq − freq to sort descending)
    let mut count = vec![0u32; max_freq + 2];
    for n in &tmp {
        count[max_freq - n.freq() as usize + 1] += 1;
    }
    for i in 1..count.len() {
        count[i] += count[i - 1];
    }
    for n in &tmp {
        let slot = &mut count[max_freq - n.freq() as usize];
        nodes[*slot as usize] = *n;
        *slot += 1;
    }
}

/// Convenience: Exact-Top-K end to end. Builds SA, LCP and the oracle,
/// then lists the top-`k` triplets. Returns `(triplets, suffix array)`
/// so callers can materialise substrings. `O(n + k)` (Theorem 2).
pub fn exact_top_k(text: &[u8], k: usize) -> (Vec<TopKSubstring>, Vec<u32>) {
    let (oracle, sa) = TopKOracle::from_text(text);
    (oracle.top_k(k), sa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use usi_suffix::naive::{substring_frequencies_naive, top_k_naive};

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
        let (oracle, sa) = TopKOracle::from_text(text);
        let truth = substring_frequencies_naive(text);
        for k in 1..=truth.len() as u64 {
            let t = oracle.tune_for_k(k).unwrap();
            let listed = oracle.top_k(k as usize);
            let min_freq = listed.iter().map(|s| s.freq()).min().unwrap();
            assert_eq!(t.tau, min_freq, "k={k}");
            let mut lens: Vec<u32> = listed.iter().map(|s| s.len).collect();
            lens.sort_unstable();
            lens.dedup();
            assert_eq!(t.distinct_lengths as usize, lens.len(), "k={k}");
            // lengths covered are exactly 1..=max (ancestor-closure property)
            assert_eq!(*lens.last().unwrap() as usize, lens.len());
            let _ = sa;
        }
    }

    #[test]
    fn tune_for_tau_counts_tau_frequent() {
        let text = b"abracadabra";
        let (oracle, _) = TopKOracle::from_text(text);
        let truth = substring_frequencies_naive(text);
        let max_freq = *truth.values().max().unwrap();
        for tau in 1..=(max_freq + 2) {
            let t = oracle.tune_for_tau(tau);
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
        let text = b"mississippi";
        let (oracle, _) = TopKOracle::from_text(text);
        for k in 1..=oracle.total_distinct_substrings() {
            let tau = oracle.tune_for_k(k).unwrap().tau;
            let k_tau = oracle.tune_for_tau(tau).k;
            assert!(k_tau >= k, "k={k} tau={tau} k_tau={k_tau}");
        }
    }

    #[test]
    fn degenerate_inputs() {
        let (oracle, _) = TopKOracle::from_text(b"");
        assert_eq!(oracle.total_distinct_substrings(), 0);
        assert!(oracle.tune_for_k(1).is_none());
        assert_eq!(oracle.tune_for_tau(1).k, 0);
        assert!(oracle.top_k(5).is_empty());

        let (oracle, _) = TopKOracle::from_text(b"z");
        assert_eq!(oracle.total_distinct_substrings(), 1);
        assert_eq!(oracle.tune_for_k(1).unwrap(), TuneForK { tau: 1, distinct_lengths: 1 });
        assert!(oracle.tune_for_k(0).is_none());
    }

    #[test]
    fn entries_sorted_freq_desc_depth_asc() {
        let (oracle, _) = TopKOracle::from_text(b"abababab");
        let e = oracle.entries();
        for w in e.windows(2) {
            assert!(
                w[0].freq > w[1].freq || (w[0].freq == w[1].freq && w[0].depth <= w[1].depth),
                "bad order: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn q_sums_to_distinct_substrings() {
        for text in [&b"banana"[..], b"aaaa", b"abcabc"] {
            let (oracle, _) = TopKOracle::from_text(text);
            let truth: HashMap<Vec<u8>, u32> = substring_frequencies_naive(text);
            assert_eq!(oracle.total_distinct_substrings() as usize, truth.len());
        }
    }

    #[test]
    fn tradeoff_curve_is_a_pareto_frontier() {
        let (oracle, _) = TopKOracle::from_text(b"abracadabra_abracadabra");
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
            let t = oracle.tune_for_tau(p.tau);
            assert_eq!(t.k, p.k);
            assert_eq!(t.distinct_lengths, p.distinct_lengths);
        }
        // the last point covers every distinct substring (tau = 1)
        assert_eq!(curve.last().unwrap().tau, 1);
        assert_eq!(curve.last().unwrap().k, oracle.total_distinct_substrings());
    }

    #[test]
    fn select_tradeoff_follows_weights() {
        let (oracle, _) = TopKOracle::from_text(b"banana_banana_banana");
        // all weight on queries: minimise tau (pick the tau = 1 extreme)
        let q = oracle.select_tradeoff(1.0, 0.0).unwrap();
        assert_eq!(q.tau, 1);
        // all weight on space: minimise K (pick the smallest-K extreme)
        let s = oracle.select_tradeoff(0.0, 1.0).unwrap();
        assert_eq!(s.k, oracle.tradeoff_curve()[0].k);
        // mixed weights minimise the weighted cost over the whole curve
        let m = oracle.select_tradeoff(1.0, 1.0).unwrap();
        let cost = |p: &TradeoffPoint| p.tau as f64 + p.k as f64;
        for p in &oracle.tradeoff_curve() {
            assert!(cost(&m) <= cost(p), "{m:?} costlier than {p:?}");
        }
    }

    #[test]
    fn unary_text_oracle() {
        // "aaaa": substrings a(4) aa(3) aaa(2) aaaa(1)
        let (oracle, sa) = TopKOracle::from_text(b"aaaa");
        let top = oracle.top_k(3);
        let texts: Vec<&[u8]> = top.iter().map(|s| s.bytes(b"aaaa", &sa)).collect();
        assert_eq!(texts, vec![&b"a"[..], b"aa", b"aaa"]);
        assert_eq!(oracle.tune_for_k(2).unwrap().tau, 3);
        assert_eq!(oracle.tune_for_tau(2).k, 3);
    }
}
