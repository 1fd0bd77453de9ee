//! Property-based tests for the USI core: Theorem-level invariants.

use proptest::prelude::*;
use std::cmp::Reverse;
use std::ops::RangeInclusive;
use usi_core::{
    approximate_top_k, exact_top_k, ApproxConfig, TopKEstimate, TopKOracle, TopKSubstring,
    TradeoffPoint, UsiBuilder, UsiIndex,
};
use usi_strings::{
    Fingerprinter, FxHashMap, GlobalAggregator, GlobalUtility, LocalWindow, UtilityAccumulator,
    WeightedString,
};
use usi_suffix::naive::substring_frequencies_naive;
use usi_suffix::sparse::arithmetic_sample;
use usi_suffix::{
    lcp_array, lcp_intervals, sparse_suffix_array, suffix_array, LcpInterval, NaiveLce,
};

fn text_strategy(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exact-Top-K returns substrings with true frequencies forming the
    /// maximal frequency multiset (Theorem 2).
    #[test]
    fn exact_top_k_is_maximal(text in text_strategy(80), k in 1usize..25) {
        let truth = substring_frequencies_naive(&text);
        let (got, sa) = exact_top_k(&text, k);
        let expect_len = k.min(truth.len());
        prop_assert_eq!(got.len(), expect_len);
        let mut got_freqs: Vec<u32> = got.iter().map(|t| t.freq()).collect();
        got_freqs.sort_unstable_by(|a, b| b.cmp(a));
        let mut all: Vec<u32> = truth.values().copied().collect();
        all.sort_unstable_by(|a, b| b.cmp(a));
        all.truncate(expect_len);
        prop_assert_eq!(got_freqs, all);
        for t in &got {
            prop_assert_eq!(truth[&t.bytes(&text, &sa).to_vec()], t.freq());
        }
    }

    /// Oracle tuning tasks are consistent with Task (i) listing.
    #[test]
    fn oracle_tasks_consistent(text in text_strategy(60)) {
        let (sa, lcp) = arrays(&text);
        let oracle = TopKOracle::new(text.len(), &sa, &lcp);
        let total = oracle.total_distinct_substrings();
        for k in (1..=total).step_by((total as usize / 8).max(1)) {
            let t = oracle.tune_for_k(k).unwrap();
            prop_assert_eq!(t.k, k);
            let listed = oracle.top_k(k as usize);
            prop_assert_eq!(t.tau, listed.iter().map(|s| s.freq()).min().unwrap());
            let mut lens: Vec<u32> = listed.iter().map(|s| s.len).collect();
            lens.sort_unstable();
            lens.dedup();
            prop_assert_eq!(t.distinct_lengths as usize, lens.len());
        }
        for tau in 1..=4u32 {
            let t = oracle.tune_for_tau(tau);
            let truth = substring_frequencies_naive(&text);
            let want = truth.values().filter(|&&f| f >= tau).count() as u64;
            prop_assert_eq!(t.k, want);
        }
    }

    /// Approximate-Top-K never over-estimates frequencies (Theorem 3).
    #[test]
    fn approx_one_sided_error(text in text_strategy(100), k in 1usize..12, s in 1usize..6) {
        let truth = substring_frequencies_naive(&text);
        let res = approximate_top_k(&text, &ApproxConfig::new(k, s));
        for item in &res.items {
            let true_freq = truth[&item.bytes(&text).to_vec()] as u64;
            prop_assert!(item.freq <= true_freq);
        }
    }

    /// The full USI index answers every substring query exactly like the
    /// brute-force utility (Theorem 1 correctness).
    #[test]
    fn usi_query_equals_brute_force(
        text in text_strategy(60),
        weights_seed in any::<u64>(),
        k in 1usize..20,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(weights_seed);
        let weights: Vec<f64> = (0..text.len()).map(|_| rng.gen_range(0.0..2.0)).collect();
        let ws = WeightedString::new(text.clone(), weights).unwrap();
        let index = UsiBuilder::new().with_k(k).deterministic(weights_seed).build(ws.clone());
        let u = GlobalUtility::sum_of_sums();
        // every distinct substring of bounded length, plus absent patterns
        let mut pats: Vec<Vec<u8>> = substring_frequencies_naive(&text)
            .into_keys()
            .filter(|p| p.len() <= 6)
            .collect();
        pats.push(b"zz".to_vec());
        for pat in pats {
            let want = u.brute_force(&ws, &pat);
            let got = index.query(&pat);
            prop_assert_eq!(got.occurrences, want.count());
            let (a, b) = (got.value.unwrap(), want.finish(u.aggregator).unwrap());
            prop_assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()));
        }
    }
}

/// The suffix and LCP arrays of `text`, for an oracle over them.
fn arrays(text: &[u8]) -> (Vec<u32>, Vec<u32>) {
    let sa = suffix_array(text);
    let lcp = lcp_array(text, &sa);
    (sa, lcp)
}

/// The paper's Section-V array, as the reference for [`TopKOracle`]:
/// `t` holds every suffix-tree node stably sorted by (frequency desc,
/// depth asc), `q` the running count of substrings and `l` the running
/// maximum depth.
struct SortedNodes {
    t: Vec<LcpInterval>,
    q: Vec<u64>,
    l: Vec<u32>,
}

impl SortedNodes {
    fn new(text_len: usize, sa: &[u32], lcp: &[u32]) -> Self {
        let mut t = lcp_intervals(lcp, |i| (text_len - sa[i] as usize) as u32, true);
        t.sort_by_key(|node| (Reverse(node.freq()), node.depth));
        let (mut q, mut l) = (Vec::new(), Vec::new());
        for node in &t {
            q.push(q.last().unwrap_or(&0) + node.q() as u64);
            l.push(node.depth.max(*l.last().unwrap_or(&0)));
        }
        Self { t, q, l }
    }

    fn top_k_in(&self, k: usize, lengths: &RangeInclusive<u32>) -> Vec<TopKSubstring> {
        let items = self.t.iter().flat_map(|node| {
            let (lb, rb) = (node.lb, node.rb);
            (node.parent_depth + 1..=node.depth).map(move |len| TopKSubstring { len, lb, rb })
        });
        items.filter(|s| lengths.contains(&s.len)).take(k).collect()
    }

    /// The entry where the `k`-th substring lies; when `k` ends partway
    /// along its edge, `L_K` counts the lengths listed on that edge.
    fn tune_for_k(&self, k: u64) -> Option<TradeoffPoint> {
        let k = k.min(self.q.last().copied().unwrap_or(0));
        if k == 0 {
            return None;
        }
        let i = self.q.partition_point(|&q| q < k);
        let (q, l) = if i == 0 { (0, 0) } else { (self.q[i - 1], self.l[i - 1]) };
        let node = self.t[i];
        let distinct_lengths = l.max(node.parent_depth + (k - q) as u32);
        Some(TradeoffPoint { tau: node.freq(), k, distinct_lengths })
    }

    fn tune_for_tau(&self, tau: u32) -> TradeoffPoint {
        match self.t.partition_point(|node| node.freq() >= tau) {
            0 => TradeoffPoint { tau, k: 0, distinct_lengths: 0 },
            end => TradeoffPoint { tau, k: self.q[end - 1], distinct_lengths: self.l[end - 1] },
        }
    }

    /// One point per distinct frequency, from the most frequent.
    fn tradeoff_curve(&self) -> Vec<TradeoffPoint> {
        let mut freqs: Vec<u32> = self.t.iter().map(|node| node.freq()).collect();
        freqs.dedup();
        freqs.into_iter().map(|tau| self.tune_for_tau(tau)).collect()
    }
}

/// A text of `len` letters: random over `sigma` letters (`shape` 0),
/// unary (1), or a random word of 1–6 letters repeated (2).
fn shaped_text(shape: usize, sigma: u8, len: usize, seed: u64) -> Vec<u8> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    match shape {
        0 => (0..len).map(|_| b'a' + rng.gen_range(0..sigma)).collect(),
        1 => vec![b'a'; len],
        _ => {
            let word: Vec<u8> =
                (0..rng.gen_range(1..7usize)).map(|_| b'a' + rng.gen_range(0..sigma)).collect();
            word.iter().copied().cycle().take(len).collect()
        }
    }
}

// Default config: `PROPTEST_CASES` deepens the run.
proptest! {
    /// The frequency histogram answers every task as the paper's sorted
    /// node array does (ties included, so builds write the same `.usix`
    /// bytes): Task (i) whole and over a random length window, Task (ii)
    /// at several `K`, Task (iii) at every `τ`, and the trade-off curve.
    /// With `sparse`, the arrays are an Approximate-Top-K round's sample
    /// of every `step`-th suffix, each `n − ssa[i]` letters long.
    #[test]
    fn selection_equals_oracle_top_k(
        shape in 0usize..3,
        sigma in 1u8..5,
        len in 1usize..300,
        seed in any::<u64>(),
        k_pick in any::<u64>(),
        sparse in any::<bool>(),
        step in 2usize..6,
        shortest in 0u32..30,
        window in 0u32..30,
    ) {
        let text = shaped_text(shape, sigma, len, seed);
        let (sa, lcp) = if sparse {
            let sample = arithmetic_sample(len, seed as usize % step, step);
            let idx = sparse_suffix_array(&text, sample, &NaiveLce::new(&text));
            (idx.ssa, idx.slcp)
        } else {
            arrays(&text)
        };
        let oracle = TopKOracle::new(len, &sa, &lcp);
        let reference = SortedNodes::new(len, &sa, &lcp);
        let distinct = oracle.total_distinct_substrings();
        prop_assert_eq!(distinct, reference.q.last().copied().unwrap_or(0));
        // substrings that occur at least twice: one more lets leaves in
        let twice = reference.tune_for_tau(2).k;
        for k in [
            0,
            1,
            len as u64 / 100,
            1 + k_pick % distinct.max(1),
            twice + 1,
            distinct,
            distinct + 1 + k_pick % 8,
        ] {
            let all = 1..=u32::MAX;
            prop_assert_eq!((k, oracle.top_k(k as usize)), (k, reference.top_k_in(k as usize, &all)));
            prop_assert_eq!((k, oracle.tune_for_k(k)), (k, reference.tune_for_k(k)));
        }
        let lengths = shortest..=shortest + window;
        let in_window = reference.top_k_in(usize::MAX, &lengths).len();
        for k in [1 + k_pick as usize % (in_window + 1), in_window + 1] {
            let got: Vec<TopKSubstring> = oracle.top_k_in(k, lengths.clone()).collect();
            prop_assert_eq!((k, got), (k, reference.top_k_in(k, &lengths)));
        }
        for tau in 0..=sa.len() as u32 + 1 {
            prop_assert_eq!(oracle.tune_for_tau(tau), reference.tune_for_tau(tau));
        }
        prop_assert_eq!(oracle.tradeoff_curve(), reference.tradeoff_curve());
    }

    /// A `with_tau(τ)` build caches exactly `K_τ` substrings, as the
    /// oracle's Task (iii) counts them.
    #[test]
    fn tau_build_caches_k_tau(
        shape in 0usize..3,
        sigma in 1u8..5,
        len in 1usize..120,
        seed in any::<u64>(),
        tau in 0u32..8,
    ) {
        let text = shaped_text(shape, sigma, len, seed);
        let (sa, lcp) = arrays(&text);
        let oracle = TopKOracle::new(len, &sa, &lcp);
        let index = UsiBuilder::new()
            .with_tau(tau)
            .deterministic(seed)
            .build(WeightedString::uniform(text, 1.0));
        prop_assert_eq!(index.cached_substrings() as u64, oracle.tune_for_tau(tau).k);
    }


    /// Phase (ii)'s text-order pass equals the sliding-window pass bit
    /// for bit. `populate_from_estimates` still slides a rolling
    /// fingerprint over every window, so fed the exact top-K as
    /// witnesses it is the reference for the exact populate path.
    /// `shape` 1–3 (half the cases) swaps the random text for a unary
    /// or period-2/3 one, whose chains of triplets are as long as the
    /// text. `wide_k` (half the cases) draws `k` up to twice the number
    /// of distinct substrings; the other half keep `k ≤ n`, as real
    /// builds run (`K = n/100`).
    #[test]
    fn phase2_scan_equals_sliding_reference(
        alphabet in 0usize..4,
        shape in 0usize..6,
        len in 1usize..400,
        seed in any::<u64>(),
        k_pick in any::<u64>(),
        wide_k in any::<bool>(),
        product in any::<bool>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sigma = [2u32, 3, 4, 256][alphabet];
        let text: Vec<u8> = match shape {
            period @ 1..=3 => b"abc"[..period].iter().copied().cycle().take(len).collect(),
            _ => (0..len).map(|_| rng.gen_range(0..sigma) as u8).collect(),
        };
        let weights: Vec<f64> = (0..len).map(|_| rng.gen_range(0.01..2.0)).collect();
        let local = if product { LocalWindow::Product } else { LocalWindow::Sum };
        let psw = GlobalUtility::with_parts(GlobalAggregator::Sum, local).local_index(&weights);
        let fingerprinter = Fingerprinter::with_base(seed);
        let k = if wide_k {
            let sa = usi_suffix::suffix_array(&text);
            let repeated: u32 = usi_suffix::lcp_array(&text, &sa).iter().sum();
            let distinct = (len * (len + 1) / 2 - repeated as usize) as u64;
            1 + (k_pick % (2 * distinct)) as usize
        } else {
            1 + (k_pick % len as u64) as usize
        };
        let (items, sa) = exact_top_k(&text, k);
        let witnesses: Vec<TopKEstimate> = items.iter().map(|item| item.to_estimate(&sa)).collect();

        let (h, lengths) = UsiIndex::populate_from_estimates(&text, &psw, &fingerprinter, &witnesses);
        let want = (bits(&h), lengths);
        let (h, lengths) = UsiIndex::populate_from_triplets(&text, &sa, &psw, &fingerprinter, &items);
        prop_assert_eq!(&(bits(&h), lengths), &want);
    }
}

/// `H` in key order with every float as its bit pattern, so `==` means
/// bit-identical (and `NaN`s or `-0.0` cannot hide a difference).
fn bits(h: &FxHashMap<(u32, u64), UtilityAccumulator>) -> Vec<((u32, u64), [u64; 4])> {
    let mut entries: Vec<_> = h
        .iter()
        .map(|(&key, acc)| {
            let (sum, min, max, count) = acc.to_raw();
            (key, [sum.to_bits(), min.to_bits(), max.to_bits(), count])
        })
        .collect();
    entries.sort_unstable();
    entries
}
