//! Failure-injection tests for the `USIX` loader: arbitrary corruption
//! must produce an error, never a panic, an abort or a silently wrong
//! index. `read_from` and `open_mmap` share one validator, so these
//! cover both load paths.

use proptest::prelude::*;
use std::sync::OnceLock;
use usi_core::persist::HEADER_BYTES;
use usi_core::UsiBuilder;
use usi_strings::{LocalWindow, WeightedString};

fn serialized_index(seed: u64) -> Vec<u8> {
    serialized_index_with(seed, LocalWindow::Sum)
}

fn serialized_index_with(seed: u64, local: LocalWindow) -> Vec<u8> {
    let text = b"abracadabra_banana".repeat(8);
    let weights: Vec<f64> = (0..text.len()).map(|i| 0.5 + (i % 7) as f64 * 0.1).collect();
    let ws = WeightedString::new(text, weights).unwrap();
    let index = UsiBuilder::new().with_k(25).with_local_window(local).deterministic(seed).build(ws);
    let mut buf = Vec::new();
    index.write_to(&mut buf).unwrap();
    buf
}

/// Letters in [`large_index`]: enough that a count of up to n² names
/// far more memory than the machine has.
const LARGE_N: usize = 30_000;

/// A valid image of `LARGE_N` letters, built once per test binary.
fn large_index() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let text: Vec<u8> = (0..LARGE_N).map(|i| b"acgt"[(i * 7 + i / 13) % 4]).collect();
        let ws = WeightedString::uniform(text, 1.0);
        let index = UsiBuilder::new().with_k(50).deterministic(3).build(ws);
        let mut buf = Vec::new();
        index.write_to(&mut buf).unwrap();
        buf
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Counts the file cannot hold are refused, whatever memory they
    /// name: `n` and the `H` count overwritten with values up to n².
    #[test]
    fn oversized_counts_are_refused(
        n in 0u64..=(LARGE_N * LARGE_N) as u64,
        h in 0u64..=(LARGE_N * LARGE_N) as u64,
        which in 0u8..3,
    ) {
        let mut buf = large_index().to_vec();
        let h_count_off = HEADER_BYTES + 13 * LARGE_N;
        let original_h = u64::from_le_bytes(buf[h_count_off..h_count_off + 8].try_into().unwrap());
        // 0: n only, 1: the H count only, 2: both
        let n = if which == 1 { LARGE_N as u64 } else { n };
        let h = if which == 0 { original_h } else { h };
        prop_assume!((n, h) != (LARGE_N as u64, original_h));
        buf[HEADER_BYTES - 8..HEADER_BYTES].copy_from_slice(&n.to_le_bytes());
        buf[h_count_off..h_count_off + 8].copy_from_slice(&h.to_le_bytes());
        prop_assert!(usi_core::UsiIndex::read_from(&mut buf.as_slice()).is_err());
    }

    /// Truncation at any offset is rejected (or, at worst for a byte-exact
    /// prefix of a valid file, never produces wrong answers — but with a
    /// length-prefixed format every strict prefix must fail).
    #[test]
    fn truncation_never_panics(cut in 0usize..4096) {
        let buf = serialized_index(1);
        let cut = cut.min(buf.len().saturating_sub(1));
        let short = &buf[..cut];
        prop_assert!(usi_core::UsiIndex::read_from(&mut &short[..]).is_err());
    }

    /// Single-byte corruption never panics; it either fails validation or
    /// yields an index whose text/weights arithmetic still holds (flips
    /// in utility payload bytes are undetectable by design, like any
    /// checksum-free format). Product-local images too, whose `PSW`
    /// takes the logarithm of every weight.
    #[test]
    fn byte_flip_never_panics(pos in 0usize..4096, xor in 1u8..=255, product in any::<bool>()) {
        let local = if product { LocalWindow::Product } else { LocalWindow::Sum };
        let mut buf = serialized_index_with(2, local);
        let pos = pos % buf.len();
        buf[pos] ^= xor;
        match usi_core::UsiIndex::read_from(&mut buf.as_slice()) {
            Err(_) => {} // rejected: fine
            Ok(index) => {
                // loaded: it must at least be internally consistent enough
                // to answer queries without panicking
                let _ = index.query(b"banana");
                let _ = index.query(b"zzz");
                let _ = index.query(b"");
            }
        }
    }

    /// Garbage input of any length is rejected.
    #[test]
    fn garbage_never_panics(garbage in proptest::collection::vec(any::<u8>(), 0..600)) {
        prop_assert!(usi_core::UsiIndex::read_from(&mut garbage.as_slice()).is_err()
            || garbage.len() >= 40);
    }
}
