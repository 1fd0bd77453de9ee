//! Approximate-Top-K: estimating the top-K frequent substrings in small
//! space (paper, Section VI).
//!
//! The algorithm runs `s` rounds. Round `i` samples the positions
//! `{i + r·s}` of `S` (the `s` samples partition the text positions),
//! builds a *sparse* suffix/LCP array over just the sampled suffixes
//! (Step 2), extracts the top-K frequent substrings **of the sample** via
//! the bottom-up lcp-interval traversal (Step 3), and merges them with
//! the running result, keeping the best `K` by accumulated frequency
//! (Step 4). All string comparisons go through an [`LceOracle`].
//!
//! The error is one-sided (Theorem 3): a substring's occurrences are
//! partitioned across the `s` samples, and it only accumulates the counts
//! of rounds where it survived into the sample's top-K — so reported
//! frequencies never exceed the truth.
//!
//! Time `Õ(n + sK)`; tracked working space `O(n/s + K)` on top of the
//! text and the (shared) LCE oracle, which stands in for Prezza's
//! in-place LCE structure (see [`usi_suffix::lce`]).

use crate::oracle::TopKOracle;
use crate::topk::TopKEstimate;
use usi_strings::{Fingerprinter, HeapSize};
use usi_suffix::sparse::arithmetic_sample;
use usi_suffix::{sparse_suffix_array, FingerprintLce, LceBackend, LceOracle, NaiveLce, RmqLce};

/// Configuration for [`approximate_top_k`].
#[derive(Debug, Clone)]
pub struct ApproxConfig {
    /// Number of substrings to report.
    pub k: usize,
    /// Number of sampling rounds `s ∈ [1, n]`; `s = 1` is exact. The
    /// paper recommends `s = O(log n)`.
    pub rounds: usize,
    /// LCE oracle backend for all suffix comparisons.
    pub lce: LceBackend,
    /// Base for the fingerprint LCE backend (deterministic builds).
    pub fingerprint_base: u64,
}

impl ApproxConfig {
    /// A configuration with the given `k` and `s`, naive LCE.
    pub fn new(k: usize, rounds: usize) -> Self {
        Self { k, rounds, lce: LceBackend::Naive, fingerprint_base: 0x5eed_cafe }
    }

    /// Selects an LCE backend.
    pub fn with_lce(mut self, lce: LceBackend) -> Self {
        self.lce = lce;
        self
    }
}

/// Output of [`approximate_top_k`].
#[derive(Debug, Clone)]
pub struct ApproxResult {
    /// The estimated top-K substrings, sorted by estimated frequency
    /// descending (ties: shorter first, then smaller witness).
    pub items: Vec<TopKEstimate>,
    /// Peak bytes of the sampler's own working state (sparse arrays, the
    /// round oracle's histogram and the nodes it keeps, merge buffers) —
    /// the quantity the paper's Fig. 5 space plots track for AT.
    pub peak_tracked_bytes: usize,
    /// Number of rounds actually executed.
    pub rounds: usize,
}

enum Oracle<'t> {
    Naive(NaiveLce<'t>),
    Fingerprint(FingerprintLce),
    Rmq(RmqLce),
}

impl LceOracle for Oracle<'_> {
    fn text_len(&self) -> usize {
        match self {
            Self::Naive(o) => o.text_len(),
            Self::Fingerprint(o) => o.text_len(),
            Self::Rmq(o) => o.text_len(),
        }
    }

    fn lce(&self, i: usize, j: usize) -> usize {
        match self {
            Self::Naive(o) => o.lce(i, j),
            Self::Fingerprint(o) => o.lce(i, j),
            Self::Rmq(o) => o.lce(i, j),
        }
    }
}

/// Runs Approximate-Top-K on `text` (Theorem 3).
pub fn approximate_top_k(text: &[u8], cfg: &ApproxConfig) -> ApproxResult {
    let n = text.len();
    if n == 0 || cfg.k == 0 {
        return ApproxResult { items: Vec::new(), peak_tracked_bytes: 0, rounds: 0 };
    }
    let s = cfg.rounds.clamp(1, n);
    let oracle = match cfg.lce {
        LceBackend::Naive => Oracle::Naive(NaiveLce::new(text)),
        LceBackend::Fingerprint => Oracle::Fingerprint(FingerprintLce::new(
            text,
            Fingerprinter::with_base(cfg.fingerprint_base),
        )),
        LceBackend::Rmq => Oracle::Rmq(RmqLce::new(text)),
    };

    let mut acc: Vec<TopKEstimate> = Vec::new();
    let mut peak = 0usize;
    for round in 0..s {
        // Step 1 + 2: sample and build the sparse index.
        let sample = arithmetic_sample(n, round, s);
        if sample.is_empty() {
            continue;
        }
        let idx = sparse_suffix_array(text, sample, &oracle);

        // Step 3: top-K of the sample via the lcp-interval traversal.
        let round_oracle = TopKOracle::new(n, &idx.ssa, &idx.slcp);
        let round_items: Vec<TopKEstimate> = round_oracle
            .top_k(cfg.k)
            .into_iter()
            .map(|t| TopKEstimate {
                witness: idx.ssa[t.lb as usize],
                len: t.len,
                freq: t.freq() as u64,
            })
            .collect();

        peak = peak.max(
            idx.heap_bytes()
                + round_oracle.heap_bytes()
                + (acc.len() + round_items.len()) * 2 * std::mem::size_of::<TopKEstimate>(),
        );

        // Step 4: merge with the accumulated list, keep the top-K.
        acc = merge_top_k(text, &oracle, acc, round_items, cfg.k);
    }
    ApproxResult { items: acc, peak_tracked_bytes: peak, rounds: s }
}

/// Lexicographically compares the substrings `S[a.witness..+a.len)` and
/// `S[b.witness..+b.len)` with one LCE query.
fn cmp_substrings(
    text: &[u8],
    oracle: &impl LceOracle,
    a: &TopKEstimate,
    b: &TopKEstimate,
) -> std::cmp::Ordering {
    let (wa, wb) = (a.witness as usize, b.witness as usize);
    let common = oracle.lce(wa, wb).min(a.len as usize).min(b.len as usize);
    if common < a.len as usize && common < b.len as usize {
        text[wa + common].cmp(&text[wb + common])
    } else {
        a.len.cmp(&b.len) // one is a prefix of the other
    }
}

/// Step 4: concatenate, sort lexicographically, fold duplicates by
/// summing their frequencies, re-sort by frequency, truncate to `k`.
fn merge_top_k(
    text: &[u8],
    oracle: &impl LceOracle,
    acc: Vec<TopKEstimate>,
    fresh: Vec<TopKEstimate>,
    k: usize,
) -> Vec<TopKEstimate> {
    let mut combined = acc;
    combined.extend(fresh);
    combined.sort_unstable_by(|a, b| cmp_substrings(text, oracle, a, b));

    let mut merged: Vec<TopKEstimate> = Vec::with_capacity(combined.len());
    for item in combined {
        if let Some(last) = merged.last_mut() {
            if last.len == item.len
                && oracle.lce(last.witness as usize, item.witness as usize) >= item.len as usize
            {
                last.freq += item.freq;
                continue;
            }
        }
        merged.push(item);
    }
    merged.sort_unstable_by(|a, b| {
        b.freq.cmp(&a.freq).then(a.len.cmp(&b.len)).then(a.witness.cmp(&b.witness))
    });
    merged.truncate(k);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::exact_top_k;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use usi_suffix::naive::substring_frequencies_naive;

    #[test]
    fn single_round_is_exact() {
        for text in [&b"banana"[..], b"mississippi", b"abracadabra", b"aaaa"] {
            for k in [1usize, 3, 8, 20] {
                let approx = approximate_top_k(text, &ApproxConfig::new(k, 1));
                let (exact, sa) = exact_top_k(text, k);
                assert_eq!(approx.items.len(), exact.len());
                // same substrings with same frequencies (as sets)
                let mut got: Vec<(Vec<u8>, u64)> =
                    approx.items.iter().map(|e| (e.bytes(text).to_vec(), e.freq)).collect();
                let mut want: Vec<(Vec<u8>, u64)> =
                    exact.iter().map(|t| (t.bytes(text, &sa).to_vec(), t.freq() as u64)).collect();
                got.sort();
                want.sort();
                // frequency multisets must agree even if tie-broken differently
                let gf: Vec<u64> = got.iter().map(|x| x.1).collect();
                let wf: Vec<u64> = want.iter().map(|x| x.1).collect();
                let mut gfs = gf.clone();
                let mut wfs = wf.clone();
                gfs.sort_unstable();
                wfs.sort_unstable();
                assert_eq!(gfs, wfs, "text={text:?} k={k}");
            }
        }
    }

    #[test]
    fn frequencies_never_overestimated() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..20 {
            let n = rng.gen_range(10..150);
            let text: Vec<u8> = (0..n).map(|_| b'a' + rng.gen_range(0..3u8)).collect();
            let truth = substring_frequencies_naive(&text);
            for s in [1usize, 2, 3, 5, 8] {
                let res = approximate_top_k(&text, &ApproxConfig::new(10, s));
                for item in &res.items {
                    let bytes = item.bytes(&text).to_vec();
                    let true_freq = truth[&bytes] as u64;
                    assert!(
                        item.freq <= true_freq,
                        "overestimate: {bytes:?} est={} true={true_freq} s={s}",
                        item.freq
                    );
                }
            }
        }
    }

    #[test]
    fn backends_agree() {
        let mut rng = StdRng::seed_from_u64(31);
        let text: Vec<u8> = (0..300).map(|_| b'a' + rng.gen_range(0..4u8)).collect();
        for s in [2usize, 4, 7] {
            let base = ApproxConfig::new(12, s);
            let naive = approximate_top_k(&text, &base.clone().with_lce(LceBackend::Naive));
            let fp = approximate_top_k(&text, &base.clone().with_lce(LceBackend::Fingerprint));
            let rmq = approximate_top_k(&text, &base.with_lce(LceBackend::Rmq));
            assert_eq!(naive.items, fp.items, "s={s}");
            assert_eq!(naive.items, rmq.items, "s={s}");
        }
    }

    #[test]
    fn degenerate_inputs() {
        assert!(approximate_top_k(b"", &ApproxConfig::new(5, 3)).items.is_empty());
        assert!(approximate_top_k(b"abc", &ApproxConfig::new(0, 3)).items.is_empty());
        // s larger than n is clamped
        let res = approximate_top_k(b"ab", &ApproxConfig::new(3, 100));
        assert_eq!(res.rounds, 2);
        assert!(!res.items.is_empty());
    }

    #[test]
    fn unary_text_estimates() {
        // "aaaa...": top substrings are "a", "aa", ... — AT must find them.
        let text = vec![b'a'; 64];
        let res = approximate_top_k(&text, &ApproxConfig::new(3, 4));
        let strings: Vec<Vec<u8>> = res.items.iter().map(|e| e.bytes(&text).to_vec()).collect();
        assert_eq!(strings[0], b"a".to_vec());
        // frequencies are lower bounds but the ordering must hold
        assert!(res.items[0].freq >= res.items[1].freq);
    }

    #[test]
    fn high_accuracy_on_structured_text() {
        // A text with clear heavy hitters: "the " planted repeatedly.
        let mut rng = StdRng::seed_from_u64(77);
        let mut text = Vec::new();
        for _ in 0..200 {
            if rng.gen_bool(0.4) {
                text.extend_from_slice(b"the ");
            } else {
                text.push(b'a' + rng.gen_range(0..6u8));
            }
        }
        let k = 20;
        let res = approximate_top_k(&text, &ApproxConfig::new(k, 4));
        let truth = substring_frequencies_naive(&text);
        let (exact, _) = exact_top_k(&text, k);
        let tau = exact.iter().map(|t| t.freq()).min().unwrap() as u64;
        // most reported items should have their exact frequency
        let exact_hits =
            res.items.iter().filter(|e| truth[&e.bytes(&text).to_vec()] as u64 == e.freq).count();
        assert!(exact_hits * 2 >= k, "only {exact_hits}/{k} exact (tau={tau})");
    }
}
