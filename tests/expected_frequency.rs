//! Expected-frequency queries: the paper's Section-I bioinformatics
//! motivation ("researchers are interested in evaluating the quality of
//! a DNA pattern by computing its expected frequency in a collection of
//! DNA strings with confidence scores"). With per-base correctness
//! probabilities as weights, a `Product` local window and a `Sum`
//! aggregate, `U(P)` is the expected number of correctly-read
//! occurrences of `P`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use usi::prelude::*;
use usi::strings::LocalWindow;

fn dna_with_probabilities(n: usize, seed: u64) -> WeightedString {
    let mut rng = StdRng::seed_from_u64(seed);
    let text: Vec<u8> = (0..n).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect();
    let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.8..1.0)).collect();
    WeightedString::new(text, weights).unwrap()
}

fn brute_expected_frequency(ws: &WeightedString, pat: &[u8]) -> f64 {
    let (n, m) = (ws.len(), pat.len());
    let mut total = 0.0;
    for i in 0..=(n - m) {
        if &ws.text()[i..i + m] == pat {
            total += ws.weights()[i..i + m].iter().product::<f64>();
        }
    }
    total
}

#[test]
fn expected_frequency_matches_brute_force() {
    let ws = dna_with_probabilities(2_000, 301);
    let index = UsiBuilder::new()
        .with_k(100)
        .with_local_window(LocalWindow::Product)
        .deterministic(303)
        .build(ws.clone());
    let mut rng = StdRng::seed_from_u64(305);
    for _ in 0..100 {
        let m = rng.gen_range(1..8usize);
        let i = rng.gen_range(0..ws.len() - m);
        let pat = &ws.text()[i..i + m];
        let want = brute_expected_frequency(&ws, pat);
        let got = index.query(pat).value.unwrap();
        assert!((got - want).abs() < 1e-9 * (1.0 + want), "pattern {pat:?}: {got} vs {want}");
    }
}

#[test]
fn expected_frequency_bounded_by_count() {
    // with probabilities < 1, E[freq] < true frequency, and both agree
    // in the limit of weight 1.0
    let ws = dna_with_probabilities(1_500, 311);
    let product_idx = UsiBuilder::new()
        .with_k(60)
        .with_local_window(LocalWindow::Product)
        .deterministic(313)
        .build(ws.clone());
    let certain = WeightedString::uniform(ws.text().to_vec(), 1.0);
    let certain_idx = UsiBuilder::new()
        .with_k(60)
        .with_local_window(LocalWindow::Product)
        .deterministic(313)
        .build(certain);
    let mut rng = StdRng::seed_from_u64(315);
    for _ in 0..60 {
        let m = rng.gen_range(1..6usize);
        let i = rng.gen_range(0..ws.len() - m);
        let pat = &ws.text()[i..i + m];
        let expected = product_idx.query(pat).value.unwrap();
        let q = certain_idx.query(pat);
        assert!(expected <= q.occurrences as f64 + 1e-9, "pattern {pat:?}");
        assert!((q.value.unwrap() - q.occurrences as f64).abs() < 1e-9);
    }
}

#[test]
fn expected_frequency_survives_persistence() {
    let ws = dna_with_probabilities(800, 321);
    let index = UsiBuilder::new()
        .with_k(40)
        .with_local_window(LocalWindow::Product)
        .deterministic(323)
        .build(ws.clone());
    let mut buf = Vec::new();
    index.write_to(&mut buf).unwrap();
    let loaded = UsiIndex::read_from(&mut buf.as_slice()).unwrap();
    for pat in [&ws.text()[0..4], &ws.text()[10..13], b"ACGT"] {
        assert_eq!(index.query(pat).value, loaded.query(pat).value);
    }
}

#[test]
fn dynamic_appends_with_product_locals() {
    let ws = dna_with_probabilities(300, 331);
    let mut idx = IngestIndex::new(
        UsiBuilder::new()
            .with_k(20)
            .with_local_window(LocalWindow::Product)
            .deterministic(333)
            .build(ws.clone()),
        IngestOptions { seal_threshold: 16, compact_fanout: 2, ..IngestOptions::default() },
    );
    let mut rng = StdRng::seed_from_u64(335);
    let mut shadow_text = ws.text().to_vec();
    let mut shadow_weights = ws.weights().to_vec();
    for _ in 0..50 {
        let b = b"ACGT"[rng.gen_range(0..4)];
        let w = rng.gen_range(0.8..1.0);
        idx.push(b, w);
        idx.compact_to_quiescence();
        shadow_text.push(b);
        shadow_weights.push(w);
    }
    // segments are product-local indexes of their own, and the boundary
    // scan multiplies the weights of every occurrence it stitches in
    assert!(idx.seals() > 0, "the tail never sealed");
    assert!(idx.compactions() > 0, "segments never merged");
    let shadow = WeightedString::new(shadow_text, shadow_weights).unwrap();
    for _ in 0..40 {
        let m = rng.gen_range(1..6usize);
        let i = rng.gen_range(0..shadow.len() - m);
        let pat = &shadow.text()[i..i + m];
        let want = brute_expected_frequency(&shadow, pat);
        let got = idx.query(pat).value.unwrap();
        assert!((got - want).abs() < 1e-9 * (1.0 + want), "pattern {pat:?}");
    }
}
