//! The zero-copy contract of the one `.usix` reader, `from_storage`
//! (behind both `persist::open_mmap` and `read_from`): an index loaded
//! from storage must be **observationally identical** to the heap-built
//! index that wrote the bytes — every query answer bit-for-bit equal
//! (proptested) — and must reject malformed files cleanly, including
//! truncation at every section boundary.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;
use usi_core::storage::IndexStorage;
use usi_core::{PersistError, UsiBuilder, UsiIndex};
use usi_strings::{GlobalAggregator, LocalWindow, WeightedString};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("usi-storage-equivalence-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn build_index(seed: u64, n: usize) -> UsiIndex {
    let mut rng = StdRng::seed_from_u64(seed);
    let text: Vec<u8> = (0..n).map(|_| b'a' + rng.gen_range(0..4u8)).collect();
    let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..2.0)).collect();
    let ws = WeightedString::new(text, weights).unwrap();
    UsiBuilder::new().with_k(n / 10).deterministic(seed).build(ws)
}

/// Opens serialised bytes through the validator `open_mmap` and
/// `read_from` share, minus the filesystem.
fn open_view(bytes: &[u8]) -> Result<UsiIndex, PersistError> {
    UsiIndex::from_storage(Arc::new(IndexStorage::Owned(bytes.to_vec())))
}

#[test]
fn open_mmap_answers_match_read_from_through_a_real_file() {
    let index = build_index(11, 1_500);
    let path = tmp("real-file.usix");
    let mut buf = Vec::new();
    index.write_to(&mut buf).unwrap();
    std::fs::write(&path, &buf).unwrap();

    let owned = index;
    let mapped = usi_core::persist::open_mmap(&path).unwrap();
    #[cfg(all(unix, target_pointer_width = "64"))]
    assert!(mapped.is_memory_mapped(), "unix mmap wrapper must be used");
    assert!(!owned.is_memory_mapped());
    // the heap load is a view over owned bytes, not a mapping
    assert!(!UsiIndex::read_from(&mut buf.as_slice()).unwrap().is_memory_mapped());

    assert_eq!(mapped.cached_substrings(), owned.cached_substrings());
    assert_eq!(mapped.stats().tau, owned.stats().tau);
    assert_eq!(mapped.stats().distinct_lengths, owned.stats().distinct_lengths);
    assert_eq!(mapped.text(), owned.text());
    assert_eq!(
        mapped.suffix_array().iter().collect::<Vec<_>>(),
        owned.suffix_array().iter().collect::<Vec<_>>()
    );
    assert_eq!(mapped.weights().to_vec(), owned.weights().to_vec());

    let text = owned.text().to_vec();
    let mut rng = StdRng::seed_from_u64(13);
    let mut patterns: Vec<Vec<u8>> = (0..300)
        .map(|_| {
            let m = rng.gen_range(1..14usize);
            let i = rng.gen_range(0..text.len() - m);
            text[i..i + m].to_vec()
        })
        .collect();
    patterns.push(Vec::new());
    patterns.push(b"zzzz".to_vec());
    patterns.push(text.clone());
    for pattern in &patterns {
        assert_eq!(mapped.query(pattern), owned.query(pattern), "pattern {pattern:?}");
    }
    // batch paths agree too (they share the dedup logic but dispatch
    // to different searcher backings)
    let refs: Vec<&[u8]> = patterns.iter().map(Vec::as_slice).collect();
    assert_eq!(mapped.query_batch(&refs), owned.query_batch(&refs));
}

#[test]
fn view_reserialisation_is_byte_identical() {
    // write → open zero-copy → write again must reproduce the file
    // exactly: the view decodes to the same canonical encoding
    let index = build_index(17, 900);
    let mut first = Vec::new();
    index.write_to(&mut first).unwrap();
    let view = open_view(&first).unwrap();
    let mut second = Vec::new();
    view.write_to(&mut second).unwrap();
    assert_eq!(first, second);
}

/// Byte offsets of every section boundary (mirrors the layout at the
/// top of `crates/core/src/persist.rs`).
fn section_boundaries(index: &UsiIndex, total: usize) -> Vec<usize> {
    let n = index.text().len();
    let h = index.cached_substrings();
    let sections = [8, 1, 1, 8, 8, n, 8 * n, 4 * n, 8, 44 * h, 8, 8, 4, 8];
    let mut boundaries = Vec::new();
    let mut offset = 0usize;
    for size in sections {
        offset += size;
        boundaries.push(offset);
    }
    assert_eq!(offset, total, "section sizes must cover the whole file");
    boundaries
}

#[test]
fn truncation_at_every_section_boundary_is_a_clean_error() {
    let (index, buf) = {
        let index = build_index(19, 1_200);
        let mut buf = Vec::new();
        index.write_to(&mut buf).unwrap();
        (index, buf)
    };
    let boundaries = section_boundaries(&index, buf.len());
    let mut cuts: Vec<usize> = vec![0];
    for &b in &boundaries {
        cuts.extend([b.saturating_sub(1), b, b + 1]);
    }
    cuts.retain(|&c| c < buf.len());
    for cut in cuts {
        let result = std::panic::catch_unwind(|| open_view(&buf[..cut]));
        match result {
            Ok(Err(_)) => {} // clean PersistError: what we want
            Ok(Ok(_)) => panic!("cut at {cut}/{} accepted as a full index", buf.len()),
            Err(_) => panic!("cut at {cut}/{} panicked instead of erroring", buf.len()),
        }
    }
    // the whole file still opens — and also through a real mapping,
    // where a truncated copy must fail identically
    assert!(open_view(&buf).is_ok());
    let path = tmp("truncated.usix");
    std::fs::write(&path, &buf[..buf.len() - 3]).unwrap();
    assert!(usi_core::persist::open_mmap(&path).is_err());
    std::fs::write(&path, &buf).unwrap();
    assert!(usi_core::persist::open_mmap(&path).is_ok());
}

#[test]
fn trailing_bytes_and_unsorted_entries_are_rejected() {
    let index = build_index(23, 800);
    let mut buf = Vec::new();
    index.write_to(&mut buf).unwrap();

    // the view demands an exact layout match: even a trailing newline
    // is refused
    let mut padded = buf.clone();
    padded.push(b'\n');
    assert!(matches!(open_view(&padded), Err(PersistError::Corrupt("file size"))));
    // and a stream is held to the same layout as a mapping
    assert!(matches!(
        UsiIndex::read_from(&mut padded.as_slice()),
        Err(PersistError::Corrupt("file size"))
    ));

    // swapping two adjacent hash-table entries breaks the canonical
    // order the binary-search probe relies on
    assert!(index.cached_substrings() >= 2, "need two entries to swap");
    let n = index.text().len();
    let h_off = 26 + 13 * n + 8;
    let mut swapped = buf.clone();
    let (a, b) = (h_off, h_off + 44);
    let first: Vec<u8> = swapped[a..a + 44].to_vec();
    let second: Vec<u8> = swapped[b..b + 44].to_vec();
    swapped[a..a + 44].copy_from_slice(&second);
    swapped[b..b + 44].copy_from_slice(&first);
    assert!(matches!(open_view(&swapped), Err(PersistError::Corrupt("hash table order"))));

    // duplicated suffix-array entry: caught by the permutation check
    let sa_off = 26 + 9 * n;
    let mut corrupt = buf.clone();
    let first: [u8; 4] = corrupt[sa_off..sa_off + 4].try_into().unwrap();
    corrupt[sa_off + 4..sa_off + 8].copy_from_slice(&first);
    assert!(matches!(open_view(&corrupt), Err(PersistError::Corrupt("suffix array permutation"))));
    // an out-of-range entry (n) in the last slot, the last two slots
    // equal, and the first slot's entry repeated in the last, far from
    // where it was first seen
    let last = sa_off + 4 * (n - 1);
    let mut corrupt = buf.clone();
    corrupt[last..last + 4].copy_from_slice(&(n as u32).to_le_bytes());
    assert!(matches!(open_view(&corrupt), Err(PersistError::Corrupt("suffix array permutation"))));
    for from in [last - 4, sa_off] {
        let mut corrupt = buf.clone();
        corrupt.copy_within(from..from + 4, last);
        assert!(matches!(
            open_view(&corrupt),
            Err(PersistError::Corrupt("suffix array permutation"))
        ));
    }

    // NaN and both infinities at a middle and at the last weight
    let weights_off = 26 + n;
    for at in [weights_off + 8 * (n / 2), weights_off + 8 * (n - 1)] {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut corrupt = buf.clone();
            corrupt[at..at + 8].copy_from_slice(&bad.to_le_bytes());
            assert!(
                matches!(open_view(&corrupt), Err(PersistError::Corrupt("non-finite weight"))),
                "{bad} at byte {at}"
            );
        }
    }

    // non-finite weight is caught field-precisely
    let mut corrupt = buf;
    corrupt[weights_off..weights_off + 8].copy_from_slice(&f64::NAN.to_le_bytes());
    assert!(matches!(open_view(&corrupt), Err(PersistError::Corrupt("non-finite weight"))));
}

#[test]
fn every_aggregator_and_local_window_round_trips_through_a_view() {
    let mut rng = StdRng::seed_from_u64(29);
    for agg in [
        GlobalAggregator::Sum,
        GlobalAggregator::Min,
        GlobalAggregator::Max,
        GlobalAggregator::Avg,
        GlobalAggregator::Count,
    ] {
        for local in [LocalWindow::Sum, LocalWindow::Product] {
            let n = 300;
            let text: Vec<u8> = (0..n).map(|_| b'a' + rng.gen_range(0..3u8)).collect();
            // strictly positive so Product locals are valid
            let weights: Vec<f64> =
                (0..n).map(|_| 0.25 + rng.gen_range(0..8) as f64 * 0.25).collect();
            let ws = WeightedString::new(text.clone(), weights).unwrap();
            let index = UsiBuilder::new()
                .with_k(20)
                .with_aggregator(agg)
                .with_local_window(local)
                .deterministic(31)
                .build(ws);
            let mut buf = Vec::new();
            index.write_to(&mut buf).unwrap();
            let view = open_view(&buf).unwrap();
            for _ in 0..40 {
                let m = rng.gen_range(1..8usize);
                let i = rng.gen_range(0..n - m);
                let pattern = &text[i..i + m];
                assert_eq!(view.query(pattern), index.query(pattern), "{agg:?}/{local:?}");
            }
            if local != LocalWindow::Product {
                continue;
            }
            // a product local takes logarithms: a zero, negative zero or
            // negative weight anywhere is refused, never reaching `ln`
            let weights_off = 26 + n;
            for at in [0, n / 2, n - 1].map(|i| weights_off + 8 * i) {
                for bad in [0.0, -0.0, -1.0f64] {
                    let mut corrupt = buf.clone();
                    corrupt[at..at + 8].copy_from_slice(&bad.to_le_bytes());
                    assert!(
                        matches!(
                            open_view(&corrupt),
                            Err(PersistError::Corrupt("non-positive weight for product local"))
                        ),
                        "{agg:?}: {bad} at byte {at}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole invariant: for any indexed string, the heap-built
    /// index and the storage view of its serialised bytes answer every
    /// query identically — value, occurrence count and source.
    #[test]
    fn owned_and_view_backings_answer_identically(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..400usize);
        let text: Vec<u8> = (0..n).map(|_| b'a' + rng.gen_range(0..3u8)).collect();
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0..16) as f64 * 0.125 - 1.0).collect();
        let ws = WeightedString::new(text.clone(), weights).unwrap();
        let index = UsiBuilder::new().with_k(1 + n / 8).deterministic(seed).build(ws);
        let mut buf = Vec::new();
        index.write_to(&mut buf).unwrap();
        let owned = index;
        let view = open_view(&buf).unwrap();
        prop_assert_eq!(view.cached_substrings(), owned.cached_substrings());
        for _ in 0..30 {
            let m = rng.gen_range(1..=n.min(12));
            let i = rng.gen_range(0..=n - m);
            let pattern = &text[i..i + m];
            prop_assert_eq!(view.query(pattern), owned.query(pattern));
        }
        // absent and empty patterns too
        prop_assert_eq!(view.query(b"zzzz"), owned.query(b"zzzz"));
        prop_assert_eq!(view.query(b""), owned.query(b""));
    }
}
