//! End-to-end: build `USI_TOP-K` over every synthetic corpus and verify
//! queries against brute force, across both mining strategies.

use usi::datasets::{Dataset, ALL_DATASETS};
use usi::prelude::*;
use usi::strings::GlobalUtility;

fn check_index(index: &UsiIndex, patterns: &[Vec<u8>]) {
    let u = index.utility();
    for pat in patterns {
        let want = u.brute_force(index.weighted_string().expect("owned index"), pat);
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

fn sample_patterns(text: &[u8], seed: u64) -> Vec<Vec<u8>> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pats = Vec::new();
    for _ in 0..60 {
        let m = rng.gen_range(1..12usize).min(text.len());
        let i = rng.gen_range(0..=text.len() - m);
        pats.push(text[i..i + m].to_vec());
    }
    pats.push(b"\xff\xfe\xfd".to_vec()); // absent
    pats.push(text[..text.len().min(64)].to_vec()); // long prefix
    pats
}

#[test]
fn every_dataset_exact_strategy() {
    for ds in ALL_DATASETS {
        let ws = ds.generate(4_000, 21);
        let patterns = sample_patterns(ws.text(), 22);
        let index = UsiBuilder::new().with_k(100).deterministic(23).build(ws);
        check_index(&index, &patterns);
    }
}

#[test]
fn every_dataset_approximate_strategy() {
    for ds in ALL_DATASETS {
        let ws = ds.generate(4_000, 31);
        let patterns = sample_patterns(ws.text(), 32);
        let index = UsiBuilder::new()
            .with_k(100)
            .with_strategy(TopKStrategy::Approximate {
                rounds: ds.spec().default_s.min(8),
                lce: LceBackend::Naive,
            })
            .deterministic(33)
            .build(ws);
        check_index(&index, &patterns);
    }
}

#[test]
fn exact_and_approximate_agree_on_answers() {
    // UAT may cache a different substring set, but every answer must be
    // identical — only the query path may differ.
    let ws = Dataset::Hum.generate(6_000, 41);
    let uet = UsiBuilder::new().with_k(150).deterministic(43).build(ws.clone());
    let uat = UsiBuilder::new()
        .with_k(150)
        .with_strategy(TopKStrategy::Approximate { rounds: 4, lce: LceBackend::Naive })
        .deterministic(43)
        .build(ws.clone());
    for pat in sample_patterns(ws.text(), 44) {
        let a = uet.query(&pat);
        let b = uat.query(&pat);
        assert_eq!(a.occurrences, b.occurrences, "{pat:?}");
        match (a.value, b.value) {
            (Some(x), Some(y)) => assert!((x - y).abs() < 1e-6 * (1.0 + y.abs()), "{pat:?}"),
            (x, y) => assert_eq!(x, y, "{pat:?}"),
        }
    }
}

#[test]
fn utility_weighted_vs_count_consistency() {
    // With unit weights and the Sum aggregator, U(P) = |occ(P)| · |P|.
    let ws = WeightedString::uniform(Dataset::Adv.generate(3_000, 51).text().to_vec(), 1.0);
    let index = UsiBuilder::new().with_k(80).deterministic(53).build(ws.clone());
    let u = GlobalUtility::sum_of_sums();
    for pat in sample_patterns(ws.text(), 54) {
        let q = index.query(&pat);
        let occ = u.brute_force(&ws, &pat).count();
        assert_eq!(q.occurrences, occ);
        assert!((q.value.unwrap() - (occ as f64 * pat.len() as f64)).abs() < 1e-9);
    }
}

#[test]
fn index_size_reports_are_complete() {
    let ws = Dataset::Xml.generate(5_000, 61);
    let index = UsiBuilder::new().with_k(100).deterministic(63).build(ws);
    let size = index.size_breakdown();
    assert_eq!(size.text, 5_000);
    assert_eq!(size.weights, 5_000 * 8);
    assert!(size.suffix_array >= 5_000 * 4);
    // one f64 prefix-sum sample per 8 letters, PSW[0] included
    assert_eq!(size.psw, (5_000 / 8 + 1) * 8);
    assert!(size.hash_table > 0);
    assert_eq!(
        size.total(),
        size.text + size.weights + size.suffix_array + size.psw + size.hash_table
    );
}
