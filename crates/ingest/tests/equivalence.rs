//! The ingestion subsystem's central invariant, proptested: for any
//! base text, append sequence, seal threshold and compaction schedule,
//! [`IngestIndex::query`] returns results identical to a from-scratch
//! [`UsiBuilder`] build over the fully concatenated weighted string —
//! occurrences always, and values with `==` when weights are drawn from
//! dyadic rationals, so every aggregate is exact in f64 and
//! accumulation order cannot perturb it. Patterns are sampled from the
//! concatenated text, so base/segment/tail-boundary-spanning
//! occurrences are exercised constantly, and WAL replay after a
//! simulated crash must restore the same answers. A background
//! pipeline, queried while its seals are still pending, answers the
//! same and settles on the inline pipeline's segments; with the
//! weights of HUM's grid, which are not dyadic, values stay within the
//! float contract's relative `1e-9`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;
use usi_core::{UsiBuilder, UsiIndex};
use usi_ingest::{
    CompactionPlan, IngestConfig, IngestIndex, IngestOptions, IngestPipeline, SealPlan,
};
use usi_strings::WeightedString;

mod temp_dir;
use temp_dir::TempDir;

fn letters(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..max_len)
}

/// Dyadic weights in `{0, 0.25, …, 1.75}`: exactly representable, so
/// sums/products of any association are bit-identical.
fn weights_for(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..8) as f64 * 0.25).collect()
}

fn sample_patterns(text: &[u8], seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut patterns: Vec<Vec<u8>> = Vec::new();
    if !text.is_empty() {
        for _ in 0..40 {
            let m = rng.gen_range(1..=text.len().min(24));
            let i = rng.gen_range(0..=text.len() - m);
            patterns.push(text[i..i + m].to_vec());
        }
        patterns.push(text.to_vec()); // the whole string
    }
    patterns.push(b"cba".to_vec());
    patterns.push(b"zz".to_vec());
    patterns.push(Vec::new());
    patterns
}

/// The weights of HUM's grid, `0.7 + 0.05·j` for `j` in `0..7`, drawn
/// as `usi_datasets::utilities::uniform_grid` draws them. They are not
/// dyadic: `0.7 + 0.05·4` is `0.8999999999999999`.
fn grid_weights(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| 0.7 + 0.05 * rng.gen_range(0..7) as f64).collect()
}

/// Random batch lengths summing to `n`, up to three seal thresholds
/// each, so some batches leave more than one seal due.
fn batch_lens(seed: u64, n: usize, seal_threshold: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lens = Vec::new();
    let mut left = n;
    while left > 0 {
        let len = rng.gen_range(1..=left.min(3 * seal_threshold));
        lens.push(len);
        left -= len;
    }
    lens
}

/// `(offset, length, generation)` of every segment, oldest first.
fn layout(pipeline: &IngestPipeline) -> Vec<(usize, usize, u32)> {
    pipeline.with_state(|idx| {
        let mut offset = idx.base().text().len();
        idx.segments()
            .iter()
            .map(|seg| {
                offset += seg.len();
                (offset - seg.len(), seg.len(), seg.generation())
            })
            .collect()
    })
}

/// Every file under `dir` with its bytes, by name.
fn files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            (entry.file_name().to_string_lossy().into_owned(), std::fs::read(entry.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

fn assert_matches_scratch(idx: &IngestIndex, k: usize, seed: u64, patterns: &[Vec<u8>]) {
    let full = WeightedString::new(idx.text(), idx.weights()).unwrap();
    let scratch = UsiBuilder::new().with_k(k).deterministic(seed).build(full);
    for pattern in patterns {
        let got = idx.query(pattern);
        let want = scratch.query(pattern);
        assert_eq!(got.occurrences, want.occurrences, "occurrences diverge for {pattern:?}");
        assert_eq!(got.value, want.value, "value diverges for {pattern:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Queries over any segmented layout equal a from-scratch build.
    #[test]
    fn segmented_queries_equal_from_scratch_build(
        base in letters(120),
        appended in letters(200),
        seal_threshold in 1usize..40,
        compact_fanout in 2usize..6,
        schedule_seed in any::<u64>(),
    ) {
        let base_ws =
            WeightedString::new(base.clone(), weights_for(1, base.len())).unwrap();
        let mut idx = IngestIndex::new(
            UsiBuilder::new().with_k(15).deterministic(9).build(base_ws),
            IngestOptions {
                seal_threshold,
                compact_fanout,
                ..IngestOptions::default()
            },
        );
        // random compaction schedule: sometimes after a push, sometimes
        // never, sometimes to quiescence
        let mut schedule = StdRng::seed_from_u64(schedule_seed);
        let appended_weights = weights_for(2, appended.len());
        for (&letter, &weight) in appended.iter().zip(&appended_weights) {
            idx.push(letter, weight);
            match schedule.gen_range(0..10) {
                0 => {
                    idx.compact_once();
                }
                1 => idx.compact_to_quiescence(),
                _ => {}
            }
        }
        let patterns = sample_patterns(&idx.text(), schedule_seed ^ 0xabcd);
        assert_matches_scratch(&idx, 15, 9, &patterns);

        // full quiescence afterwards changes nothing observable
        idx.compact_to_quiescence();
        assert_matches_scratch(&idx, 15, 9, &patterns);
    }

    /// A crash (drop without any shutdown step) followed by a WAL
    /// replay restores the same answers.
    #[test]
    fn wal_replay_restores_the_same_state(
        base in letters(60),
        appended in letters(120),
        seal_threshold in 1usize..24,
        batch_seed in any::<u64>(),
    ) {
        let dir = TempDir::new("usi-ingest-equivalence-replay");
        let path = dir.join("replay.usil");

        let config = IngestConfig {
            seal_threshold,
            compact_fanout: 3,
            sync_wal: false, // the test tears down cleanly; torture is in wal_torture.rs
            ..IngestConfig::default()
        };
        let build_base = || {
            let ws = WeightedString::new(base.clone(), weights_for(3, base.len())).unwrap();
            UsiBuilder::new().with_k(10).deterministic(4).build(ws)
        };
        let (pipeline, _) = IngestPipeline::open(build_base(), &path, config.clone()).unwrap();
        // split the appends into random batches
        let mut rng = StdRng::seed_from_u64(batch_seed);
        let appended_weights = weights_for(5, appended.len());
        let mut at = 0usize;
        while at < appended.len() {
            let take = rng.gen_range(1..=appended.len() - at);
            pipeline
                .append(&appended[at..at + take], &appended_weights[at..at + take])
                .unwrap();
            at += take;
        }
        let full_text = pipeline.with_state(|s| s.text());
        drop(pipeline); // simulated crash

        let (reopened, replay) = IngestPipeline::open(build_base(), &path, config).unwrap();
        prop_assert!(!replay.truncated);
        prop_assert_eq!(reopened.with_state(|s| s.text()), full_text.clone());

        // recovered answers equal a from-scratch build of the whole text
        let full = WeightedString::new(
            reopened.with_state(|s| s.text()),
            reopened.with_state(|s| s.weights()),
        )
        .unwrap();
        let scratch = UsiBuilder::new().with_k(10).deterministic(4).build(full);
        for pattern in sample_patterns(&full_text, batch_seed ^ 0x77) {
            let got = reopened.query(&pattern);
            let want = scratch.query(&pattern);
            prop_assert!(
                got.occurrences == want.occurrences && got.value == want.value,
                "replayed answer diverges for {:?}: {:?} vs {:?}",
                pattern,
                got,
                want
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A background pipeline takes random batches, some longer than the
    /// seal threshold, and is queried after each append, while its
    /// seals may still be pending (the read lock held by the check
    /// keeps them pending until it ends): every answer equals a
    /// from-scratch build's. Once quiescent, its segments — offsets,
    /// lengths, generations and file bytes — equal an inline
    /// pipeline's over the same appends.
    #[test]
    fn background_pipeline_answers_with_seals_pending_and_settles_like_inline(
        base in letters(80),
        appended in letters(240),
        seal_threshold in 1usize..32,
        compact_fanout in 2usize..5,
        batch_seed in any::<u64>(),
    ) {
        let background_dir = TempDir::new("usi-ingest-equivalence-background");
        let inline_dir = TempDir::new("usi-ingest-equivalence-inline");
        let config = |dir: &TempDir, background_compaction| IngestConfig {
            seal_threshold,
            compact_fanout,
            sync_wal: false,
            background_compaction,
            segment_dir: Some(dir.join("segments")),
            ..IngestConfig::default()
        };
        let build_base = || {
            let ws = WeightedString::new(base.clone(), weights_for(1, base.len())).unwrap();
            UsiBuilder::new().with_k(15).deterministic(9).build(ws)
        };
        let (background, _) = IngestPipeline::open(
            build_base(),
            &background_dir.join("log.usil"),
            config(&background_dir, true),
        )
        .unwrap();
        let (inline, _) =
            IngestPipeline::open(build_base(), &inline_dir.join("log.usil"), config(&inline_dir, false))
                .unwrap();
        let weights = weights_for(2, appended.len());
        let mut at = 0usize;
        for len in batch_lens(batch_seed, appended.len(), seal_threshold) {
            let (text, w) = (&appended[at..at + len], &weights[at..at + len]);
            background.append(text, w).unwrap();
            inline.append(text, w).unwrap();
            at += len;
            background.with_state(|idx| {
                let patterns = sample_patterns(&idx.text(), batch_seed ^ at as u64);
                assert_matches_scratch(idx, 15, 9, &patterns);
            });
        }
        prop_assert!(background.wait_for_quiescence(Duration::from_secs(60)), "workers stalled");
        prop_assert_eq!(layout(&background), layout(&inline));
        prop_assert_eq!(
            background.with_state(|idx| idx.tail_len()),
            inline.with_state(|idx| idx.tail_len())
        );
        prop_assert_eq!(
            files(&background_dir.join("segments")),
            files(&inline_dir.join("segments"))
        );
        background.with_state(|idx| {
            assert_matches_scratch(idx, 15, 9, &sample_patterns(&idx.text(), batch_seed));
        });
    }

    /// The sealer's and the compactor's steps, forced into any
    /// interleaving with appends and queries: seal and merge plans wait
    /// unbuilt or built while batches land in the tail and the other
    /// worker installs. Every answer in between equals a from-scratch
    /// build's, no install is refused, and once both are drained the
    /// segments equal an inline index's over the same appends.
    #[test]
    fn worker_steps_interleave_with_appends_and_queries(
        base in letters(60),
        appended in letters(200),
        seal_threshold in 1usize..24,
        compact_fanout in 2usize..5,
        schedule_seed in any::<u64>(),
    ) {
        let opts = IngestOptions { seal_threshold, compact_fanout, ..IngestOptions::default() };
        let build_base = || {
            let ws = WeightedString::new(base.clone(), weights_for(1, base.len())).unwrap();
            UsiBuilder::new().with_k(15).deterministic(9).build(ws)
        };
        let mut idx = IngestIndex::new(build_base(), opts.clone());
        let mut inline = IngestIndex::new(build_base(), opts);
        let weights = weights_for(2, appended.len());
        let mut schedule = StdRng::seed_from_u64(schedule_seed);
        let (mut at, mut queried) = (0usize, 0u64);
        let mut seal: Option<(SealPlan, Option<UsiIndex>)> = None;
        let mut merge: Option<(CompactionPlan, Option<UsiIndex>)> = None;
        loop {
            match schedule.gen_range(0..4) {
                0 if at < appended.len() => {
                    let len = schedule.gen_range(1..=(appended.len() - at).min(3 * seal_threshold));
                    idx.extend_tail(&appended[at..at + len], &weights[at..at + len]);
                    inline.append(&appended[at..at + len], &weights[at..at + len]);
                    at += len;
                }
                1 => match seal.take() {
                    None => seal = idx.seal_plan().map(|plan| (plan, None)),
                    Some((plan, None)) => {
                        let index = plan.build(&idx.segment_builder());
                        seal = Some((plan, Some(index)));
                    }
                    Some((plan, Some(index))) => prop_assert!(idx.install_seal(&plan, index)),
                },
                2 => match merge.take() {
                    None => merge = idx.compaction_plan().map(|plan| (plan, None)),
                    Some((plan, None)) => {
                        let merged = plan.build(&idx.segment_builder());
                        merge = Some((plan, Some(merged)));
                    }
                    Some((plan, Some(merged))) => prop_assert!(idx.install_compaction(&plan, merged)),
                },
                _ => {
                    queried += 1;
                    assert_matches_scratch(&idx, 15, 9, &sample_patterns(&idx.text(), queried));
                }
            }
            let drained = seal.is_none() && merge.is_none();
            if at == appended.len() && drained && !idx.seal_due() && idx.compaction_plan().is_none() {
                break;
            }
        }
        inline.compact_to_quiescence();
        let layout = |idx: &IngestIndex| -> Vec<(usize, u32)> {
            idx.segments().iter().map(|seg| (seg.len(), seg.generation())).collect()
        };
        prop_assert_eq!(layout(&idx), layout(&inline));
        prop_assert_eq!(idx.tail_len(), inline.tail_len());
        assert_matches_scratch(&idx, 15, 9, &sample_patterns(&idx.text(), schedule_seed));
    }

    /// The float contract: with HUM's grid weights, which are not
    /// dyadic, a background pipeline queried while its seals are
    /// pending counts every occurrence exactly and stays within a
    /// relative `1e-9` of a from-scratch build's value, the bound the
    /// benchmark's answer check uses.
    #[test]
    fn non_dyadic_weights_stay_within_the_float_contract(
        base in letters(200),
        appended in letters(400),
        seal_threshold in 1usize..48,
        batch_seed in any::<u64>(),
    ) {
        let dir = TempDir::new("usi-ingest-equivalence-float");
        let config = IngestConfig {
            seal_threshold,
            compact_fanout: 3,
            sync_wal: false,
            background_compaction: true,
            ..IngestConfig::default()
        };
        let ws = WeightedString::new(base.clone(), grid_weights(3, base.len())).unwrap();
        let (pipeline, _) = IngestPipeline::open(
            UsiBuilder::new().with_k(20).deterministic(5).build(ws),
            &dir.join("log.usil"),
            config,
        )
        .unwrap();
        let weights = grid_weights(4, appended.len());
        let mut at = 0usize;
        for len in batch_lens(batch_seed, appended.len(), seal_threshold) {
            pipeline.append(&appended[at..at + len], &weights[at..at + len]).unwrap();
            at += len;
            pipeline.with_state(|idx| {
                assert_within_float_contract(idx, &sample_patterns(&idx.text(), batch_seed ^ at as u64));
            });
        }
        prop_assert!(pipeline.wait_for_quiescence(Duration::from_secs(60)), "workers stalled");
        pipeline.with_state(|idx| {
            assert_within_float_contract(idx, &sample_patterns(&idx.text(), batch_seed));
        });
    }

    /// The tail is scanned where it lies: a tail longer than the seal
    /// threshold (as a background pipeline leaves it), after a base
    /// that is empty or not and after zero or more segments, answers
    /// every pattern length from 1 to past the tail's length like a
    /// from-scratch build — inside the tail, and across base → tail
    /// and segment → tail.
    #[test]
    fn tail_scan_equals_from_scratch_build(
        base in letters(30),
        sealed in letters(40),
        tail in letters(60),
        seal_threshold in 1usize..16,
    ) {
        for (base, sealed) in [(&base[..], &sealed[..]), (&[][..], &sealed[..]), (&base[..], &[][..])] {
            let ws = WeightedString::new(base.to_vec(), weights_for(6, base.len())).unwrap();
            let mut idx = IngestIndex::new(
                UsiBuilder::new().with_k(15).deterministic(9).build(ws),
                IngestOptions { seal_threshold, compact_fanout: 3, ..IngestOptions::default() },
            );
            idx.append(sealed, &weights_for(7, sealed.len()));
            idx.extend_tail(&tail, &weights_for(8, tail.len()));
            let text = idx.text();
            let tail_start = text.len() - idx.tail_len();
            let mut patterns = Vec::new();
            for m in 1..=(idx.tail_len() + 2).min(text.len()) {
                // at the tail's start and end, and reaching back across
                // its first letter by one letter and by m − 1
                for start in [tail_start, text.len() - m, tail_start.saturating_sub(1), tail_start.saturating_sub(m - 1)] {
                    let start = start.min(text.len() - m);
                    patterns.push(text[start..start + m].to_vec());
                }
            }
            assert_matches_scratch(&idx, 15, 9, &patterns);
        }
    }
}

fn assert_within_float_contract(idx: &IngestIndex, patterns: &[Vec<u8>]) {
    let full = WeightedString::new(idx.text(), idx.weights()).unwrap();
    let scratch = UsiBuilder::new().with_k(20).deterministic(5).build(full);
    for pattern in patterns {
        let got = idx.query(pattern);
        let want = scratch.query(pattern);
        assert_eq!(got.occurrences, want.occurrences, "occurrences diverge for {pattern:?}");
        match (got.value, want.value) {
            (Some(a), Some(b)) => assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "value {a} against {b} for {pattern:?}"
            ),
            (a, b) => assert_eq!(a, b, "value diverges for {pattern:?}"),
        }
    }
}
