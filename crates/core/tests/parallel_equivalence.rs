//! Build reproducibility: two deterministic builds of one input must
//! serialise to **byte-identical** `USIX` images, and the image must
//! load back. This is the invariant the CI smoke job enforces with
//! `cmp` on two `usi build` outputs of one input, checked here at
//! property-test granularity (including the degenerate inputs the CLI
//! fixture cannot cover).

use proptest::prelude::*;
use usi_core::{UsiBuilder, UsiIndex};
use usi_strings::WeightedString;

/// Serialises one deterministic build.
fn usix_bytes(ws: &WeightedString, k: usize) -> Vec<u8> {
    let index = UsiBuilder::new().with_k(k).deterministic(0xfeed).build(ws.clone());
    let mut buf = Vec::new();
    index.write_to(&mut buf).expect("in-memory serialisation cannot fail");
    buf
}

fn assert_reproducible(ws: &WeightedString, k: usize) {
    let first = usix_bytes(ws, k);
    assert_eq!(first, usix_bytes(ws, k), "a second build differs (n={}, k={k})", ws.len());
    // and the serialisation loads back into a working index
    let loaded = UsiIndex::read_from(&mut first.as_slice()).expect("round-trip");
    assert_eq!(loaded.text(), ws.text());
}

proptest! {
    #[test]
    fn parallel_build_bytes_equal_serial(
        text in proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..400),
        k in 1usize..60,
    ) {
        let ws = WeightedString::uniform(text, 1.0);
        assert_reproducible(&ws, k);
    }

    #[test]
    fn parallel_build_bytes_equal_serial_weighted(
        text in proptest::collection::vec(any::<u8>(), 1..250),
        seed in any::<u32>(),
    ) {
        // varied weights: accumulator contents must match bit-for-bit,
        // which requires the same occurrence-aggregation results
        let weights: Vec<f64> =
            (0..text.len()).map(|i| ((i as u64 * 2654435761 + seed as u64) % 97) as f64 / 7.0).collect();
        let ws = WeightedString::new(text, weights).unwrap();
        assert_reproducible(&ws, 25);
    }
}

#[test]
fn degenerate_inputs_are_thread_count_invariant() {
    // empty text
    assert_reproducible(&WeightedString::uniform(Vec::new(), 1.0), 5);
    // single byte
    assert_reproducible(&WeightedString::uniform(vec![b'x'], 1.0), 5);
    // every substring occurs once
    assert_reproducible(&WeightedString::uniform(b"abc".to_vec(), 1.0), 3);
    // all-equal bytes: one substring per length, every position marked
    assert_reproducible(&WeightedString::uniform(vec![b'z'; 700], 1.0), 20);
    // zero bytes, the smallest letter value
    assert_reproducible(&WeightedString::uniform(vec![0u8; 120], 1.0), 10);
}

#[test]
fn tau_and_default_k_builds_are_thread_count_invariant() {
    let text = b"abracadabra_abracadabra_abracadabra".repeat(8);
    let ws = WeightedString::uniform(text, 1.0);
    let serialise = |builder: UsiBuilder| {
        let mut buf = Vec::new();
        builder.deterministic(99).build(ws.clone()).write_to(&mut buf).unwrap();
        buf
    };
    assert_eq!(
        serialise(UsiBuilder::new().with_tau(6)),
        serialise(UsiBuilder::new().with_tau(6)),
        "tau build"
    );
    assert_eq!(serialise(UsiBuilder::new()), serialise(UsiBuilder::new()), "default-K build");
}
