//! WAL torture: **any** byte-truncation of a `.usil` log replays to a
//! valid prefix of the append history — the crash-recovery contract,
//! mirroring the section-boundary truncation tests the `.usix` format
//! has in `crates/core/tests/persist_file.rs`. Truncation is exercised
//! both through the raw byte parser and through a reopened
//! [`IngestPipeline`], which must answer queries as if only the
//! surviving prefix had ever been appended. The parser is also fuzzed
//! past truncation: arbitrary bytes after the magic never panic it and
//! replay to a clean prefix, and one flipped byte cuts replay off
//! before the record that holds it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use usi_core::UsiBuilder;
use usi_ingest::wal::{encode_records, MAGIC};
use usi_ingest::{replay_bytes, IngestConfig, IngestPipeline, Wal};
use usi_strings::WeightedString;

fn letters(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![Just(b'x'), Just(b'y'), Just(b'z')], 1..max_len)
}

/// Random append batches of `lens` letters each over `x`/`y`/`z`, with
/// weights in quarter steps.
fn random_batches(rng: &mut StdRng, lens: &[usize]) -> Vec<(Vec<u8>, Vec<f64>)> {
    lens.iter()
        .map(|&len| {
            let text: Vec<u8> = (0..len).map(|_| b'x' + rng.gen_range(0..3u8)).collect();
            let weights: Vec<f64> = (0..len).map(|_| rng.gen_range(0..8) as f64 * 0.25).collect();
            (text, weights)
        })
        .collect()
}

/// Encodes `batches` as a log image in memory, returning its bytes and
/// the byte offset where each batch's record ends.
fn encode_log(batches: &[(Vec<u8>, Vec<f64>)]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = MAGIC.to_vec();
    let mut ends = Vec::new();
    for (text, weights) in batches {
        encode_records(text, weights, &mut bytes);
        ends.push(bytes.len());
    }
    (bytes, ends)
}

/// Writes `batches` into a fresh log at `path`, returning the full log
/// bytes and the cumulative letter counts after each batch.
fn write_log(path: &std::path::Path, batches: &[(Vec<u8>, Vec<f64>)]) -> (Vec<u8>, Vec<usize>) {
    let _ = std::fs::remove_file(path);
    let (mut wal, _) = Wal::open(path, false).unwrap();
    let mut prefix_lens = vec![0usize];
    for (text, weights) in batches {
        wal.append(text, weights).unwrap();
        prefix_lens.push(prefix_lens.last().unwrap() + text.len());
    }
    drop(wal);
    (std::fs::read(path).unwrap(), prefix_lens)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parser-level contract: every truncation point yields some whole
    /// prefix of the batches, never a partial or corrupted record.
    #[test]
    fn every_truncation_replays_to_a_batch_prefix(
        batch_lens in proptest::collection::vec(1usize..12, 1..8),
        seed in any::<u64>(),
    ) {
        let batches = random_batches(&mut StdRng::seed_from_u64(seed), &batch_lens);
        let dir = std::env::temp_dir().join("usi-wal-torture");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("parser-{seed:016x}.usil"));
        let (bytes, _) = write_log(&path, &batches);
        let _ = std::fs::remove_file(&path);

        for cut in 0..=bytes.len() {
            let replay = replay_bytes(&bytes[..cut]).unwrap_or_else(|e| {
                panic!("cut at {cut}/{} must recover, got {e}", bytes.len())
            });
            // the recovered records are exactly a prefix of the batches
            prop_assert!(replay.records.len() <= batches.len());
            for (record, (text, weights)) in replay.records.iter().zip(&batches) {
                prop_assert_eq!(&record.text, text);
                prop_assert_eq!(&record.weights, weights);
            }
            prop_assert_eq!(replay.valid_len as usize <= cut, true);
            if cut == bytes.len() {
                prop_assert_eq!(replay.records.len(), batches.len());
                prop_assert!(!replay.truncated);
            }
        }
    }

    /// Pipeline-level contract: reopening over a truncated log answers
    /// queries exactly like a from-scratch build over the surviving
    /// prefix of the append history.
    #[test]
    fn truncated_logs_reopen_to_a_valid_prefix_state(
        base in letters(40),
        batch_lens in proptest::collection::vec(1usize..10, 1..6),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let batches = random_batches(&mut rng, &batch_lens);
        let dir = std::env::temp_dir().join("usi-wal-torture");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("pipeline-{seed:016x}.usil"));
        let (bytes, prefix_lens) = write_log(&path, &batches);

        let base_weights: Vec<f64> =
            (0..base.len()).map(|_| rng.gen_range(0..8) as f64 * 0.25).collect();
        let build_base = || {
            UsiBuilder::new().with_k(8).deterministic(6).build(
                WeightedString::new(base.clone(), base_weights.clone()).unwrap(),
            )
        };
        let config = IngestConfig {
            seal_threshold: 5,
            compact_fanout: 2,
            sync_wal: false,
            ..IngestConfig::default()
        };

        // a handful of random cuts plus the no-op cut
        let mut cuts: Vec<usize> = (0..6).map(|_| rng.gen_range(0..=bytes.len())).collect();
        cuts.push(bytes.len());
        for cut in cuts {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (pipeline, replay) =
                IngestPipeline::open(build_base(), &path, config.clone()).unwrap();
            let survived = prefix_lens[replay.records.len()];

            // expected: base + the surviving whole batches
            let mut text = base.clone();
            let mut weights = base_weights.clone();
            for (t, w) in &batches[..replay.records.len()] {
                text.extend_from_slice(t);
                weights.extend_from_slice(w);
            }
            prop_assert_eq!(pipeline.stats().n, base.len() + survived);
            let scratch = UsiBuilder::new()
                .with_k(8)
                .deterministic(6)
                .build(WeightedString::new(text.clone(), weights).unwrap());
            for m in 1..=text.len().min(6) {
                let start = rng.gen_range(0..=text.len() - m);
                let pattern = &text[start..start + m];
                let got = pipeline.query(pattern);
                let want = scratch.query(pattern);
                prop_assert!(
                    got.occurrences == want.occurrences && got.value == want.value,
                    "cut {} pattern {:?}: {:?} vs {:?}",
                    cut,
                    pattern,
                    got,
                    want
                );
            }
            drop(pipeline);
        }
        let _ = std::fs::remove_file(&path);
    }
}

proptest! {
    // in memory and cheap: many more cases than the file-backed tests
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes after the magic, alone or behind valid records,
    /// never panic the parser, and the clean prefix it reports replays
    /// to the same records with nothing left to drop.
    #[test]
    fn arbitrary_bytes_replay_to_a_clean_prefix(
        batch_lens in proptest::collection::vec(1usize..12, 0..4),
        tail in proptest::collection::vec(any::<u8>(), 0..96),
        seed in any::<u64>(),
    ) {
        let batches = random_batches(&mut StdRng::seed_from_u64(seed), &batch_lens);
        let (mut bytes, _) = encode_log(&batches);
        bytes.extend_from_slice(&tail);

        let replay = replay_bytes(&bytes).expect("the magic is intact");
        let valid_len = replay.valid_len as usize;
        prop_assert!((MAGIC.len()..=bytes.len()).contains(&valid_len));
        prop_assert_eq!(replay.truncated, valid_len < bytes.len());
        // the valid records ahead of the garbage all survive it
        prop_assert!(replay.records.len() >= batches.len());
        for (record, (text, weights)) in replay.records.iter().zip(&batches) {
            prop_assert_eq!(&record.text, text);
            prop_assert_eq!(&record.weights, weights);
        }

        let clean = replay_bytes(&bytes[..valid_len]).expect("a clean prefix replays");
        prop_assert!(!clean.truncated);
        prop_assert_eq!(clean.valid_len, replay.valid_len);
        prop_assert_eq!(clean.records, replay.records);
    }

    /// One flipped byte anywhere past the magic: replay keeps a prefix
    /// of the appended batches that ends before the flipped record.
    #[test]
    fn a_flipped_byte_stops_replay_before_its_record(
        batch_lens in proptest::collection::vec(1usize..12, 1..6),
        at in any::<usize>(),
        mask in 1u8..=255,
        seed in any::<u64>(),
    ) {
        let batches = random_batches(&mut StdRng::seed_from_u64(seed), &batch_lens);
        let (mut bytes, ends) = encode_log(&batches);
        let at = MAGIC.len() + at % (bytes.len() - MAGIC.len());
        bytes[at] ^= mask;
        let flipped = ends.iter().position(|&end| at < end).expect("every byte is in a record");

        let replay = replay_bytes(&bytes).expect("the magic is intact");
        prop_assert!(replay.truncated, "flip at {} went unnoticed", at);
        prop_assert!(replay.records.len() <= flipped, "flip at {} in record {}", at, flipped);
        for (record, (text, weights)) in replay.records.iter().zip(&batches) {
            prop_assert_eq!(&record.text, text);
            prop_assert_eq!(&record.weights, weights);
        }
    }
}
