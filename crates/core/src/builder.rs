//! Builder for the `USI_TOP-K` index.
//!
//! Wires up the three construction phases of Section IV with either
//! exact top-K mining (`UET` in the paper's experiments) or the
//! space-efficient Section-VI sampler (`UAT`), and resolves the space /
//! query-time trade-off from a user-supplied `K` or `τ`. Exact mining and
//! `τ` resolution read the Section-V oracle ([`TopKOracle`]), a
//! frequency histogram of the suffix-tree nodes: `K_τ` is a scan of it,
//! and the top-K triplets take one more LCP sweep plus a sort of the
//! nodes that reach `τ_K`.

use crate::approx::{approximate_top_k, ApproxConfig};
use crate::index::{BuildStats, UsiIndex};
use crate::oracle::TopKOracle;
use crate::topk::TopKEstimate;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use usi_strings::{Fingerprinter, GlobalAggregator, GlobalUtility, LocalWindow, WeightedString};
use usi_suffix::{lcp_array, suffix_array, LceBackend};

/// How phase (i) obtains the top-K frequent substrings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopKStrategy {
    /// `Exact-Top-K` via the Section-V oracle (paper: `UET`).
    Exact,
    /// `Approximate-Top-K` with `rounds` sampling rounds and the given
    /// LCE backend (paper: `UAT`).
    Approximate {
        /// Number of sampling rounds `s`.
        rounds: usize,
        /// LCE oracle backend.
        lce: LceBackend,
    },
}

/// Parameter controlling the size / query-time trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SizeParam {
    /// Fixed number of cached substrings.
    K(usize),
    /// Minimum cached frequency; `K_τ` resolved from the frequency
    /// histogram (the oracle's Task iii).
    Tau(u32),
    /// The paper's practical default `K = n / 100`.
    Default,
}

/// Fluent builder for [`UsiIndex`].
///
/// ```
/// use usi_core::UsiBuilder;
/// use usi_strings::WeightedString;
/// let ws = WeightedString::uniform(b"abracadabra".repeat(20), 1.0);
/// let index = UsiBuilder::new().with_k(10).deterministic(42).build(ws);
/// let q = index.query(b"abra");
/// assert_eq!(q.occurrences, 40);
/// ```
#[derive(Debug, Clone)]
pub struct UsiBuilder {
    size: SizeParam,
    strategy: TopKStrategy,
    aggregator: GlobalAggregator,
    local: LocalWindow,
    /// `Some(seed)` → deterministic fingerprints; `None` → thread RNG.
    seed: Option<u64>,
}

impl Default for UsiBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl UsiBuilder {
    /// A builder with the paper's defaults: exact top-K mining,
    /// `K = n / 100`, sum-of-sums utility, random fingerprint base.
    pub fn new() -> Self {
        Self {
            size: SizeParam::Default,
            strategy: TopKStrategy::Exact,
            aggregator: GlobalAggregator::Sum,
            local: LocalWindow::Sum,
            seed: None,
        }
    }

    /// Caches the top-`k` frequent substrings.
    pub fn with_k(mut self, k: usize) -> Self {
        self.size = SizeParam::K(k);
        self
    }

    /// Caches every substring with frequency ≥ `tau`: the implied `K_τ`
    /// is the histogram's count of substrings that occur ≥ `tau` times.
    pub fn with_tau(mut self, tau: u32) -> Self {
        self.size = SizeParam::Tau(tau);
        self
    }

    /// Selects the mining strategy for phase (i).
    pub fn with_strategy(mut self, strategy: TopKStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Selects the global aggregate of the utility function.
    pub fn with_aggregator(mut self, aggregator: GlobalAggregator) -> Self {
        self.aggregator = aggregator;
        self
    }

    /// Selects the local (per-occurrence) window function. `Product`
    /// locals require strictly positive weights and, combined with the
    /// `Sum` aggregate, answer *expected frequency* queries.
    pub fn with_local_window(mut self, local: LocalWindow) -> Self {
        self.local = local;
        self
    }

    /// Makes fingerprints (and hence the index) deterministic.
    pub fn deterministic(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// A no-op kept for callers that still pass a thread count. Every
    /// construction step (SA-IS, the Φ LCP array, phase (i)'s histogram
    /// selection and phase (ii)'s text-order pass) is serial, so a build
    /// starts no thread and writes the same bytes at any count.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Builds the index over `ws`, on the calling thread.
    pub fn build(&self, ws: WeightedString) -> UsiIndex {
        let build_started = Instant::now();
        let n = ws.len();
        let fingerprinter = match self.seed {
            Some(seed) => Fingerprinter::new(&mut StdRng::seed_from_u64(seed)),
            None => Fingerprinter::new(&mut rand::thread_rng()),
        };
        let utility = GlobalUtility::with_parts(self.aggregator, self.local);

        // Phase (iii) structures first: phases (i) and (ii) read the SA,
        // and phase (ii) reads PSW.
        let t0 = Instant::now();
        let sa = suffix_array(ws.text());
        let psw = utility.local_index(ws.weights());
        let phase_index = t0.elapsed();

        // Phase (i): resolve K, then mine the top-K frequent substrings.
        // The exact strategy and τ read the LCP array's frequency
        // histogram; both are dropped before phase (ii).
        let t1 = Instant::now();
        let need_histogram =
            matches!(self.strategy, TopKStrategy::Exact) || matches!(self.size, SizeParam::Tau(_));
        let lcp = need_histogram.then(|| lcp_array(ws.text(), &sa));
        let oracle = lcp.as_deref().map(|lcp| TopKOracle::new(n, &sa, lcp));
        let k = match self.size {
            SizeParam::K(k) => k,
            SizeParam::Default => (n / 100).max(1),
            SizeParam::Tau(tau) => {
                oracle.as_ref().expect("histogram built for tau resolution").k_for_tau(tau) as usize
            }
        };
        let mut stats = BuildStats { n, k_requested: k, ..BuildStats::default() };
        let mined = match self.strategy {
            TopKStrategy::Exact => {
                let oracle = oracle.as_ref().expect("histogram built for the exact strategy");
                let items = oracle.top_k(k);
                stats.tau = items.iter().map(|s| s.freq()).min();
                Mined::Triplets(items)
            }
            TopKStrategy::Approximate { rounds, lce } => {
                let cfg = ApproxConfig {
                    k,
                    rounds,
                    lce,
                    fingerprint_base: self.seed.unwrap_or(0x5eed_cafe),
                };
                let res = approximate_top_k(ws.text(), &cfg);
                stats.miner_peak_bytes = res.peak_tracked_bytes;
                Mined::Estimates(res.items)
            }
        };
        drop(oracle);
        drop(lcp);
        stats.phase_topk = t1.elapsed();

        // Phase (ii): populate H.
        let t2 = Instant::now();
        let (h, distinct_lengths) = match &mined {
            Mined::Triplets(items) => {
                UsiIndex::populate_from_triplets(ws.text(), &sa, &psw, &fingerprinter, items)
            }
            Mined::Estimates(items) => {
                UsiIndex::populate_from_estimates(ws.text(), &psw, &fingerprinter, items)
            }
        };
        stats.phase_populate = t2.elapsed();
        stats.phase_index = phase_index;
        stats.k_stored = h.len();
        stats.distinct_lengths = distinct_lengths;

        let index = UsiIndex::from_parts(ws, sa, psw, fingerprinter, utility, h, stats);
        // cold path: a few registry lookups and one observation per
        // series per build
        let registry = usi_obs::global();
        registry
            .histogram(
                "usi_index_build_seconds",
                "End-to-end UsiBuilder::build wall-clock time",
                usi_obs::default_latency_buckets(),
            )
            .observe_duration(build_started.elapsed());
        let phases = registry.histogram_vec(
            "usi_index_build_phase_seconds",
            "UsiBuilder::build wall-clock time by construction phase",
            &["phase"],
            usi_obs::default_latency_buckets(),
        );
        let stats = index.stats();
        for (phase, took) in [
            ("index", stats.phase_index),
            ("topk", stats.phase_topk),
            ("populate", stats.phase_populate),
        ] {
            phases.with(&[phase]).observe_duration(took);
        }
        usi_obs::tracer().record(usi_obs::Span::since(
            "index.build",
            build_started,
            vec![("n".into(), n.to_string()), ("k".into(), index.cached_substrings().to_string())],
        ));
        index
    }
}

enum Mined {
    Triplets(Vec<crate::topk::TopKSubstring>),
    Estimates(Vec<TopKEstimate>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::QuerySource;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_ws(seed: u64, n: usize, sigma: u8) -> WeightedString {
        let mut rng = StdRng::seed_from_u64(seed);
        let text: Vec<u8> = (0..n).map(|_| b'a' + rng.gen_range(0..sigma)).collect();
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..2.0)).collect();
        WeightedString::new(text, weights).unwrap()
    }

    fn check_against_brute_force(index: &UsiIndex, patterns: &[Vec<u8>]) {
        let u = index.utility();
        for pat in patterns {
            let want = u.brute_force(index.weighted_string().expect("built index is owned"), pat);
            let got = index.query(pat);
            assert_eq!(got.occurrences, want.count(), "pattern {pat:?}");
            match (got.value, want.finish(u.aggregator)) {
                (Some(a), Some(b)) => {
                    assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()), "pattern {pat:?}: {a} vs {b}")
                }
                (a, b) => assert_eq!(a, b, "pattern {pat:?}"),
            }
        }
    }

    fn all_short_substrings(text: &[u8], max_len: usize) -> Vec<Vec<u8>> {
        let mut out = std::collections::HashSet::new();
        for i in 0..text.len() {
            for len in 1..=max_len.min(text.len() - i) {
                out.insert(text[i..i + len].to_vec());
            }
        }
        out.into_iter().collect()
    }

    #[test]
    fn exact_index_answers_every_substring() {
        let ws = random_ws(1, 300, 3);
        let patterns = all_short_substrings(ws.text(), 5);
        for k in [1usize, 10, 100] {
            let index = UsiBuilder::new().with_k(k).deterministic(7).build(ws.clone());
            check_against_brute_force(&index, &patterns);
        }
    }

    #[test]
    fn approx_index_answers_every_substring() {
        let ws = random_ws(2, 300, 3);
        let patterns = all_short_substrings(ws.text(), 5);
        let index = UsiBuilder::new()
            .with_k(20)
            .with_strategy(TopKStrategy::Approximate { rounds: 4, lce: LceBackend::Naive })
            .deterministic(7)
            .build(ws);
        check_against_brute_force(&index, &patterns);
    }

    #[test]
    fn absent_patterns_and_edge_lengths() {
        let ws = random_ws(3, 120, 2); // alphabet {a, b}
        let index = UsiBuilder::new().with_k(15).deterministic(9).build(ws.clone());
        let q = index.query(b"zzz");
        assert_eq!(q.occurrences, 0);
        assert_eq!(q.value, Some(0.0)); // sum of no occurrences
        assert_eq!(index.query(b"").occurrences, 0);
        let too_long = vec![b'a'; ws.len() + 1];
        assert_eq!(index.query(&too_long).occurrences, 0);
        // the whole text occurs once
        let full = ws.text().to_vec();
        assert_eq!(index.query(&full).occurrences, 1);
    }

    #[test]
    fn frequent_patterns_hit_the_hash_table() {
        let ws = WeightedString::uniform(b"ab".repeat(100), 1.0);
        let index = UsiBuilder::new().with_k(5).deterministic(3).build(ws);
        // "a" and "ab" are among the most frequent substrings
        assert_eq!(index.query(b"a").source, QuerySource::HashTable);
        assert_eq!(index.query(b"ab").source, QuerySource::HashTable);
        // a rare long pattern goes through the text index
        let rare = b"ab".repeat(90);
        assert_eq!(index.query(&rare).source, QuerySource::TextIndex);
    }

    #[test]
    fn tau_parameterisation_caches_all_tau_frequent() {
        let ws = WeightedString::uniform(b"banana".repeat(10), 1.0);
        let tau = 10u32;
        let index = UsiBuilder::new().with_tau(tau).deterministic(5).build(ws.clone());
        // every substring with frequency ≥ tau must be served from H
        let u = GlobalUtility::sum_of_sums();
        for pat in all_short_substrings(ws.text(), 6) {
            let freq = u.brute_force(&ws, &pat).count();
            if freq >= tau as u64 {
                assert_eq!(
                    index.query(&pat).source,
                    QuerySource::HashTable,
                    "pattern {pat:?} freq {freq}"
                );
            }
        }
    }

    #[test]
    fn aggregators_all_work() {
        use usi_strings::GlobalAggregator::*;
        let ws = random_ws(5, 150, 3);
        let patterns = all_short_substrings(ws.text(), 4);
        for agg in [Sum, Min, Max, Avg, Count] {
            let index = UsiBuilder::new()
                .with_k(20)
                .with_aggregator(agg)
                .deterministic(11)
                .build(ws.clone());
            check_against_brute_force(&index, &patterns);
        }
    }

    #[test]
    fn stats_are_populated() {
        let ws = random_ws(6, 200, 3);
        let index = UsiBuilder::new().with_k(25).deterministic(13).build(ws);
        let stats = index.stats();
        assert_eq!(stats.n, 200);
        assert_eq!(stats.k_requested, 25);
        assert!(stats.k_stored > 0 && stats.k_stored <= 25);
        assert!(stats.tau.is_some());
        assert!(stats.distinct_lengths > 0);
        let size = index.size_breakdown();
        assert!(size.suffix_array >= 200 * 4);
        assert!(size.hash_table > 0);
        assert!(size.total() > 0);
    }

    #[test]
    fn parallel_phase2_equals_sequential() {
        let ws = random_ws(9, 600, 3);
        let seq = UsiBuilder::new().with_k(60).deterministic(19).build(ws.clone());
        let par = UsiBuilder::new().with_k(60).with_threads(4).deterministic(19).build(ws.clone());
        assert_eq!(seq.cached_substrings(), par.cached_substrings());
        for pat in all_short_substrings(ws.text(), 5) {
            let a = seq.query(&pat);
            let b = par.query(&pat);
            assert_eq!(a.occurrences, b.occurrences, "{pat:?}");
            assert_eq!(a.value, b.value, "{pat:?}");
            assert_eq!(a.source, b.source, "{pat:?}");
        }
    }

    #[test]
    fn k_stored_counts_distinct_substrings() {
        // K distinct substrings must create exactly K hash entries
        // (multiple occurrences aggregate into one entry).
        let ws = WeightedString::uniform(b"abcabcabc".to_vec(), 1.0);
        let index = UsiBuilder::new().with_k(4).deterministic(17).build(ws);
        assert_eq!(index.cached_substrings(), 4);
    }
}
