//! Query workloads `W1` and `W2,p` (paper, Section IX-C "Parameters").
//!
//! * `W1`: 90% of the query patterns are drawn from the top-`n/50`
//!   frequent substrings (top-`n/60` for ECOLI in the paper); the
//!   remaining 10% are either repeats of those frequent patterns or
//!   random fragments with length drawn from the dataset's range.
//! * `W2,p`: `p%` of the queries come from the top-`n/100` frequent
//!   substrings; the rest are drawn as in `W1`.
//!
//! Both ensure the mix the paper wants: "queries of frequent substrings
//! and/or queries appearing multiple times".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use usi_core::oracle::TopKOracle;

/// A generated query workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Report label (`"W1"`, `"W2,40"`, …).
    pub name: String,
    /// The query patterns, in playback order.
    pub queries: Vec<Vec<u8>>,
}

impl Workload {
    /// Total number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

/// Materialises `count` patterns from the top-`k` frequent substrings of
/// `text` as `(pos, len)` picks, avoiding one giant byte copy per
/// distinct substring.
struct FrequentPool {
    picks: Vec<(u32, u32)>, // (witness, len)
}

impl FrequentPool {
    fn new(text: &[u8], oracle: &TopKOracle, sa: &[u32], k: usize) -> Self {
        let _ = text;
        let picks =
            oracle.top_k(k.max(1)).into_iter().map(|t| (sa[t.lb as usize], t.len)).collect();
        Self { picks }
    }

    fn sample<'t>(&self, text: &'t [u8], rng: &mut StdRng) -> &'t [u8] {
        let (pos, len) = self.picks[rng.gen_range(0..self.picks.len())];
        &text[pos as usize..(pos + len) as usize]
    }
}

fn random_fragment<'t>(text: &'t [u8], len_range: (usize, usize), rng: &mut StdRng) -> &'t [u8] {
    let n = text.len();
    let lo = len_range.0.clamp(1, n);
    let hi = len_range.1.clamp(lo, n);
    let len = rng.gen_range(lo..=hi);
    let start = rng.gen_range(0..=(n - len));
    &text[start..start + len]
}

/// Builds a `W1` workload of `count` queries over `text`.
///
/// `top_denominator` is the paper's 50 (or 60 for ECOLI);
/// `len_range` is the dataset's random-pattern length range.
pub fn w1(
    text: &[u8],
    oracle: &TopKOracle,
    sa: &[u32],
    count: usize,
    top_denominator: usize,
    len_range: (usize, usize),
    seed: u64,
) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = FrequentPool::new(text, oracle, sa, text.len() / top_denominator.max(1));
    let mut queries = Vec::with_capacity(count);
    let frequent_count = count * 9 / 10;
    for _ in 0..frequent_count {
        queries.push(pool.sample(text, &mut rng).to_vec());
    }
    for _ in frequent_count..count {
        if rng.gen_bool(0.5) && !queries.is_empty() {
            // repeat a previously selected frequent pattern
            let i = rng.gen_range(0..queries.len());
            queries.push(queries[i].clone());
        } else {
            queries.push(random_fragment(text, len_range, &mut rng).to_vec());
        }
    }
    // interleave so caches see a realistic mix
    shuffle(&mut queries, &mut rng);
    Workload { name: "W1".into(), queries }
}

/// Builds a `W2,p` workload: `p%` of queries from the top-`n/100`
/// frequent substrings, the rest drawn as in `W1`.
#[allow(clippy::too_many_arguments)]
pub fn w2p(
    text: &[u8],
    oracle: &TopKOracle,
    sa: &[u32],
    count: usize,
    p_percent: usize,
    top_denominator: usize,
    len_range: (usize, usize),
    seed: u64,
) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let hot_pool = FrequentPool::new(text, oracle, sa, text.len() / 100);
    let w1_pool = FrequentPool::new(text, oracle, sa, text.len() / top_denominator.max(1));
    let mut queries = Vec::with_capacity(count);
    let hot = count * p_percent.min(100) / 100;
    for _ in 0..hot {
        queries.push(hot_pool.sample(text, &mut rng).to_vec());
    }
    for _ in hot..count {
        // "as in W1": 90% frequent, 10% repeats-or-random
        if rng.gen_bool(0.9) {
            queries.push(w1_pool.sample(text, &mut rng).to_vec());
        } else if rng.gen_bool(0.5) && !queries.is_empty() {
            let i = rng.gen_range(0..queries.len());
            queries.push(queries[i].clone());
        } else {
            queries.push(random_fragment(text, len_range, &mut rng).to_vec());
        }
    }
    shuffle(&mut queries, &mut rng);
    Workload { name: format!("W2,{p_percent}"), queries }
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usi_core::oracle::TopKOracle;
    use usi_suffix::{lcp_array, suffix_array};

    /// The oracle over `text` and its suffix array. The arrays are leaked
    /// so the oracle can borrow them for the rest of the test.
    fn setup(text: &[u8]) -> (TopKOracle<'static>, &'static [u32]) {
        let sa = suffix_array(text).leak();
        let lcp = lcp_array(text, sa).leak();
        (TopKOracle::new(text.len(), sa, lcp), sa)
    }

    #[test]
    fn w1_has_requested_count_and_valid_patterns() {
        let text = b"abracadabra_abracadabra_abracadabra!".repeat(30);
        let (oracle, sa) = setup(&text);
        let w = w1(&text, &oracle, sa, 200, 50, (1, 50), 1);
        assert_eq!(w.len(), 200);
        for q in &w.queries {
            assert!(!q.is_empty() && q.len() <= text.len());
        }
    }

    #[test]
    fn w1_is_dominated_by_frequent_patterns() {
        let text = b"xyxyxyxyzz".repeat(100);
        let (oracle, sa) = setup(&text);
        let w = w1(&text, &oracle, sa, 300, 50, (1, 20), 2);
        // at least 80% of the queries must occur ≥ τ times where τ is the
        // top-(n/50) threshold
        let k = text.len() / 50;
        let tau = oracle.tune_for_k(k as u64).unwrap().tau as usize;
        let frequent = w
            .queries
            .iter()
            .filter(|q| text.windows(q.len()).filter(|w| w == &&q[..]).count() >= tau)
            .count();
        assert!(frequent * 10 >= w.len() * 8, "{frequent}/{}", w.len());
    }

    #[test]
    fn w2p_hot_fraction_scales_with_p() {
        let text = b"abcabcabcdefdef".repeat(80);
        let (oracle, sa) = setup(&text);
        let hot_k = text.len() / 100;
        let tau_hot = oracle.tune_for_k(hot_k as u64).unwrap().tau as usize;
        let count_hot = |w: &Workload| {
            w.queries
                .iter()
                .filter(|q| text.windows(q.len()).filter(|x| x == &&q[..]).count() >= tau_hot)
                .count()
        };
        let w20 = w2p(&text, &oracle, sa, 200, 20, 50, (1, 30), 3);
        let w80 = w2p(&text, &oracle, sa, 200, 80, 50, (1, 30), 3);
        assert!(count_hot(&w80) >= count_hot(&w20));
        assert_eq!(w20.name, "W2,20");
    }

    #[test]
    fn workloads_are_deterministic() {
        let text = b"banana".repeat(100);
        let (oracle, sa) = setup(&text);
        let a = w1(&text, &oracle, sa, 50, 50, (1, 10), 9);
        let b = w1(&text, &oracle, sa, 50, 50, (1, 10), 9);
        assert_eq!(a.queries, b.queries);
    }

    #[test]
    fn len_range_clamped_to_text() {
        let text = b"short".repeat(10); // n = 50
        let (oracle, sa) = setup(&text);
        let w = w1(&text, &oracle, sa, 40, 50, (1, 20_000), 4);
        for q in &w.queries {
            assert!(q.len() <= 50);
        }
    }
}
