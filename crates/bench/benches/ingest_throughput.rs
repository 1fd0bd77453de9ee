//! Steady-state append throughput of the segmented ingestion index
//! (`usi_ingest`: seal small segments, tier-merge them): `O(threshold)`
//! per seal plus amortised tier merges, never a whole-index rebuild.
//!
//! Tracked by the nightly gate via `ci/nightly-thresholds.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use usi_core::UsiBuilder;
use usi_datasets::Dataset;
use usi_ingest::{IngestIndex, IngestOptions};

/// Base document size (letters already indexed when appends start).
const BASE: usize = 1 << 16; // 64 Ki
/// Letters appended per measured iteration.
const APPENDS: usize = 1 << 13; // 8 Ki
/// Seal threshold.
const THRESHOLD: usize = 1 << 10; // 1 Ki

fn bench_append_throughput(c: &mut Criterion) {
    let base_ws = Dataset::Hum.generate(BASE, 17);
    let tail_ws = Dataset::Hum.generate(APPENDS, 18);
    let base = UsiBuilder::new().with_k(BASE / 200).deterministic(3).build(base_ws);

    let mut group = c.benchmark_group("ingest_throughput");
    group.sample_size(5);
    group.throughput(Throughput::Elements(APPENDS as u64));

    group.bench_function("segmented_append", |b| {
        b.iter(|| {
            let mut idx = IngestIndex::new(
                base.clone(),
                IngestOptions {
                    seal_threshold: THRESHOLD,
                    compact_fanout: 4,
                    ..IngestOptions::default()
                },
            );
            for (&letter, &weight) in tail_ws.text().iter().zip(tail_ws.weights()) {
                idx.push(letter, weight);
            }
            idx.compact_to_quiescence();
            idx.len()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_append_throughput);
criterion_main!(benches);
