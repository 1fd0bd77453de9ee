//! Cross-crate checks of the Section-V oracle against real builds and
//! real workloads: the tuning predictions must match what the built
//! index actually does.

use usi::core::oracle::TopKOracle;
use usi::datasets::Dataset;
use usi::prelude::*;
use usi::suffix::{lcp_array, suffix_array};

/// The oracle over `text` and its suffix array. The arrays are leaked so
/// the oracle can borrow them for the rest of the test.
fn oracle_of(text: &[u8]) -> (TopKOracle<'static>, &'static [u32]) {
    let sa = suffix_array(text).leak();
    let lcp = lcp_array(text, sa).leak();
    (TopKOracle::new(text.len(), sa, lcp), sa)
}

#[test]
fn predictions_match_built_index_across_k() {
    let ws = Dataset::Adv.generate(8_000, 71);
    let (oracle, _) = oracle_of(ws.text());
    for k in [10u64, 50, 200, 1000] {
        let predicted = oracle.tune_for_k(k).unwrap();
        let index = UsiBuilder::new().with_k(k as usize).deterministic(73).build(ws.clone());
        let stats = index.stats();
        assert_eq!(stats.tau, Some(predicted.tau), "k={k}");
        assert_eq!(stats.distinct_lengths, predicted.distinct_lengths as usize, "k={k}");
        assert_eq!(stats.k_stored, k as usize, "k={k}");
    }
}

#[test]
fn tau_parameterisation_matches_task_iii() {
    let ws = Dataset::Hum.generate(8_000, 81);
    let (oracle, _) = oracle_of(ws.text());
    for tau in [5u32, 10, 40] {
        let predicted = oracle.tune_for_tau(tau);
        let index = UsiBuilder::new().with_tau(tau).deterministic(83).build(ws.clone());
        assert_eq!(index.cached_substrings() as u64, predicted.k, "tau={tau}");
    }
}

#[test]
fn tau_bounds_fallback_occurrences() {
    // Theorem 1: any pattern answered through the text index occurs at
    // most τ_K times.
    let ws = Dataset::Ecoli.generate(8_000, 91);
    let index = UsiBuilder::new().with_k(300).deterministic(93).build(ws.clone());
    let tau = index.stats().tau.unwrap() as u64;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(95);
    for _ in 0..300 {
        let m = rng.gen_range(1..10usize);
        let i = rng.gen_range(0..ws.len() - m);
        let pat = &ws.text()[i..i + m];
        let q = index.query(pat);
        if q.source == QuerySource::TextIndex {
            assert!(
                q.occurrences <= tau,
                "uncached pattern {pat:?} has {} occurrences > tau {tau}",
                q.occurrences
            );
        }
    }
}

#[test]
fn workloads_exercise_both_query_paths() {
    use usi::datasets::w1;
    let ws = Dataset::Xml.generate(20_000, 101);
    let (oracle, sa) = oracle_of(ws.text());
    let workload = w1(ws.text(), &oracle, sa, 500, 50, (1, 100), 103);
    let index = UsiBuilder::new().with_k(ws.len() / 100).deterministic(105).build(ws.clone());
    let mut hits = 0usize;
    let mut misses = 0usize;
    for q in &workload.queries {
        match index.query(q).source {
            QuerySource::HashTable => hits += 1,
            QuerySource::TextIndex => misses += 1,
        }
    }
    // W1 draws 90% of its queries from the top-(n/50) frequent
    // substrings while the index caches only the top-(n/100), so a
    // substantial share of queries hits the hash table and the rest
    // (outside the cached set, or the random 10%) use the fallback.
    assert!(hits * 4 >= workload.len(), "too few hits: {hits} vs misses {misses}");
    assert!(misses > 0, "workload never used the fallback path");
}
