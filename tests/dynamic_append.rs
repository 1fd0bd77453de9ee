//! Dynamic USI (Section X): appends to an `IngestIndex` must preserve
//! exact answers at all times, across seals and tier merges, on
//! realistic corpora.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use usi::datasets::Dataset;
use usi::prelude::*;

#[test]
fn streaming_appends_stay_exact_across_epochs() {
    let history = Dataset::Iot.generate(3_000, 151);
    let live = Dataset::Iot.generate(1_500, 152);
    let mut index = IngestIndex::new(
        UsiBuilder::new().with_k(60).deterministic(153).build(history.clone()),
        // several seals over the stream, merged pairwise
        IngestOptions { seal_threshold: 500, compact_fanout: 2, ..IngestOptions::default() },
    );

    let mut shadow_text = history.text().to_vec();
    let mut shadow_weights = history.weights().to_vec();
    let mut rng = StdRng::seed_from_u64(154);

    for (i, (&b, &w)) in live.text().iter().zip(live.weights()).enumerate() {
        index.push(b, w);
        index.compact_to_quiescence();
        shadow_text.push(b);
        shadow_weights.push(w);
        if i % 250 == 37 {
            let shadow = WeightedString::new(shadow_text.clone(), shadow_weights.clone()).unwrap();
            let u = shadow.psw();
            for _ in 0..12 {
                let m = rng.gen_range(1..8usize);
                let start = rng.gen_range(0..shadow.len() - m);
                let pat = shadow.text()[start..start + m].to_vec();
                let q = index.query(&pat);
                // brute force over the shadow
                let mut occ = 0u64;
                let mut sum = 0.0f64;
                for j in 0..=(shadow.len() - m) {
                    if &shadow.text()[j..j + m] == pat.as_slice() {
                        occ += 1;
                        sum += u.local(j, m);
                    }
                }
                assert_eq!(q.occurrences, occ, "pattern {pat:?} at step {i}");
                assert!(
                    (q.value.unwrap() - sum).abs() < 1e-6 * (1.0 + sum.abs()),
                    "pattern {pat:?} at step {i}"
                );
            }
        }
    }
    assert!(index.seals() >= 2, "the tail never sealed");
    assert!(index.compactions() >= 1, "segments never merged");
    assert_eq!(index.len(), 4_500);
}

#[test]
fn manual_seal_is_transparent() {
    let ws = Dataset::Adv.generate(2_000, 161);
    let mut index = IngestIndex::new(
        UsiBuilder::new().with_k(40).deterministic(163).build(ws),
        IngestOptions { seal_threshold: 1_000_000, ..IngestOptions::default() }, // no automatic seals
    );
    for b in b"abcabcabc" {
        index.push(*b, 0.5);
    }
    let pat = b"abcabc".to_vec();
    let before = index.query(&pat);
    index.seal();
    let after = index.query(&pat);
    assert_eq!(before.occurrences, after.occurrences);
    assert!((before.value.unwrap() - after.value.unwrap()).abs() < 1e-9);
    assert_eq!(index.tail_len(), 0);
    assert_eq!(index.seals(), 1);
}
