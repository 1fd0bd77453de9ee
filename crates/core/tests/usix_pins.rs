//! Cross-commit pins on `.usix` bytes. The determinism gates
//! (`parallel_equivalence.rs`, CI's `cmp`) compare two builds made by
//! one commit, so they cannot notice a change in the order phase (ii)
//! sums local utilities. These FNV-1a-64 digests were recorded once and
//! hold every later commit to the same bytes.
//!
//! The inputs come from integer arithmetic plus one correctly rounded
//! IEEE-754 division per weight, and the local window is `Sum`, so the
//! bytes are the same on every IEEE-754 platform. The weights `k/1000`
//! are not binary fractions, so reordering any float sum changes some
//! low bits. A deliberate change to the format or to the answers must
//! re-record the constants and say why.

use usi_core::UsiBuilder;
use usi_strings::WeightedString;

/// Letters per text.
const N: usize = 16 * 1024;

/// splitmix64 step: the integer-only input generator.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// `k / 1000` for `k` in `1..=1000`.
fn weights(state: &mut u64) -> Vec<f64> {
    (0..N).map(|_| (next(state) % 1000 + 1) as f64 / 1000.0).collect()
}

/// Uniform over `acgt`: few top-K lengths, each dense.
fn uniform_text(state: &mut u64) -> Vec<u8> {
    (0..N).map(|_| b"acgt"[(next(state) % 4) as usize]).collect()
}

/// Uniform over 16 letters with four copies of a 320-letter run of
/// period 7 planted in it. The run's substrings outrank the random
/// pairs, so the top-K spans two dozen lengths, each covering a
/// small share of the text, next to the dense length 1.
fn planted_text(state: &mut u64) -> Vec<u8> {
    let mut text: Vec<u8> = (0..N).map(|_| b'a' + (next(state) % 16) as u8).collect();
    let period: Vec<u8> = (0..7).map(|_| b'a' + (next(state) % 16) as u8).collect();
    let run: Vec<u8> = period.iter().copied().cycle().take(320).collect();
    for copy in 0..4 {
        let at = 1000 + copy * 4000;
        text[at..at + run.len()].copy_from_slice(&run);
    }
    text
}

/// Digest of the `.usix` bytes built at `threads`, and `L_K`.
fn build(ws: &WeightedString, threads: usize) -> (u64, usize) {
    let index = UsiBuilder::new()
        .with_k(N / 100)
        .with_threads(threads)
        .deterministic(0x5eed)
        .build(ws.clone());
    let mut bytes = Vec::new();
    index.write_to(&mut bytes).expect("in-memory serialisation cannot fail");
    (fnv1a64(&bytes), index.stats().distinct_lengths)
}

#[test]
fn usix_bytes_match_recorded_digests() {
    let mut state = 17;
    let uniform = uniform_text(&mut state);
    let uniform_weights = weights(&mut state);
    let planted = planted_text(&mut state);
    let planted_weights = weights(&mut state);
    let cases = [
        ("uniform", uniform, uniform_weights, 0x4cbe_65ec_2ead_12ff, 1..=8),
        ("planted", planted, planted_weights, 0x17ae_263e_0809_385f, 12..=64),
    ];
    for (name, text, weights, want, lengths) in cases {
        let ws = WeightedString::new(text, weights).unwrap();
        for threads in [1, 2] {
            let (digest, distinct_lengths) = build(&ws, threads);
            assert!(lengths.contains(&distinct_lengths), "{name}: L_K {distinct_lengths}");
            assert_eq!(
                digest, want,
                "{name} at threads {threads}: .usix bytes moved ({digest:#018x})"
            );
        }
    }
}
