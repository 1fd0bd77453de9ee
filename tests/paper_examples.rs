//! The paper's worked examples, verified end to end, plus a cross-check
//! of the index's counts against a naive scan.

use usi::prelude::*;
use usi::suffix::naive::occurrences_naive;

fn example1() -> WeightedString {
    WeightedString::new(
        b"ATACCCCGATAATACCCCAG".to_vec(),
        vec![
            0.9, 1.0, 3.0, 2.0, 0.7, 1.0, 1.0, 0.6, 0.5, 0.5, 0.5, 0.8, 1.0, 1.0, 1.0, 0.9, 1.0,
            1.0, 0.8, 1.0,
        ],
    )
    .unwrap()
}

#[test]
fn paper_example_1_via_the_index() {
    // "P = TACCCC occurs in S at positions 1 and 12. USI returns
    //  U(P) = (1+3+2+0.7+1+1) + (1+1+1+0.9+1+1) = 14.6."
    for k in [1usize, 4, 16, 64] {
        let index = UsiBuilder::new().with_k(k).deterministic(171).build(example1());
        let q = index.query(b"TACCCC");
        assert_eq!(q.occurrences, 2, "k={k}");
        assert!((q.value.unwrap() - 14.6).abs() < 1e-9, "k={k}");
    }
}

#[test]
fn paper_example_1_via_the_sampler_built_index() {
    let index = UsiBuilder::new()
        .with_k(16)
        .with_strategy(TopKStrategy::Approximate { rounds: 3, lce: LceBackend::Naive })
        .deterministic(173)
        .build(example1());
    let q = index.query(b"TACCCC");
    assert_eq!(q.occurrences, 2);
    assert!((q.value.unwrap() - 14.6).abs() < 1e-9);
}

#[test]
fn index_counts_match_a_naive_scan() {
    // every substring of the Example-1 text (up to length 8), whether
    // answered from H or by the suffix-array search, counts exactly the
    // occurrences a naive scan finds
    let ws = example1();
    let index = UsiBuilder::new().with_k(8).deterministic(177).build(ws.clone());
    let n = ws.len();
    for i in 0..n {
        for len in 1..=(n - i).min(8) {
            let pat = &ws.text()[i..i + len];
            let want = occurrences_naive(ws.text(), pat).len() as u64;
            assert_eq!(index.query(pat).occurrences, want, "pattern {pat:?}");
        }
    }
}

#[test]
fn top_k_frequent_substrings_of_example_1() {
    use usi::core::exact_top_k;
    let ws = example1();
    // The single most frequent substring of S is "C" (8 occurrences,
    // vs 7 for "A").
    let (top, sa) = exact_top_k(ws.text(), 3);
    assert_eq!(top[0].bytes(ws.text(), &sa), b"C");
    assert_eq!(top[0].freq(), 8);
    assert_eq!(top[1].bytes(ws.text(), &sa), b"A");
    assert_eq!(top[1].freq(), 7);
    // K = 1 ⇒ τ_K = max frequency: the paper's extreme-case discussion.
    use usi::core::TopKOracle;
    let lcp = usi::suffix::lcp_array(ws.text(), &sa);
    let oracle = TopKOracle::new(ws.len(), &sa, &lcp);
    assert_eq!(oracle.tune_for_k(1).unwrap().tau, 8);
}
