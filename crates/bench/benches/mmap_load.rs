//! Cold-load latency of a persisted index through its two backings:
//! the heap load (`read_from`, which reads the file's bytes onto the
//! heap) and the file mapping (`open_mmap`). Both then run the one
//! validator, `from_storage`, and materialise only `PSW`, so the gap
//! is the copy the mapping skips: open time stops scaling with bytes,
//! and a catalog of N corpora cold-starts in O(N · validation).
//!
//! Also measures the first query after each load kind, so the page-in
//! cost the mapping defers is visible rather than hidden, and a corpus
//! of four such files opened the way `usi serve --mmap` opens its
//! arguments: through `usi_server::open_corpus`, one file per core.
//!
//! Tracked by the nightly gate via `ci/nightly-thresholds.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::io::Write;
use std::path::{Path, PathBuf};
use usi_core::{UsiBuilder, UsiIndex};
use usi_datasets::Dataset;
use usi_server::LoadOptions;

/// Indexed letters: big enough that copying vs not copying dominates.
const N: usize = 1 << 20; // 1 Mi

/// Builds a 1 Mi-letter index of `dataset` and persists it at `path`.
/// Returns the file's size.
fn persist(path: &Path, dataset: Dataset, seed: u64) -> u64 {
    let ws = dataset.generate(N, seed);
    let index = UsiBuilder::new().with_k(N / 200).deterministic(5).build(ws);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).unwrap());
    index.write_to(&mut out).unwrap();
    out.flush().unwrap();
    std::fs::metadata(path).unwrap().len()
}

fn bench_mmap_load(c: &mut Criterion) {
    let dir = std::env::temp_dir().join("usi-bench-mmap-load");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mmap_load.usix");
    let bytes = persist(&path, Dataset::Hum, 23);

    let mut group = c.benchmark_group("mmap_load");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(bytes));

    group.bench_function("read_from_cold", |b| {
        b.iter(|| {
            let file = std::fs::File::open(&path).unwrap();
            let mut reader = std::io::BufReader::new(file);
            let index = UsiIndex::read_from(&mut reader).unwrap();
            index.cached_substrings()
        })
    });

    group.bench_function("open_mmap_cold", |b| {
        b.iter(|| {
            let index = usi_core::persist::open_mmap(&path).unwrap();
            index.cached_substrings()
        })
    });

    group.bench_function("read_from_cold_plus_query", |b| {
        b.iter(|| {
            let file = std::fs::File::open(&path).unwrap();
            let mut reader = std::io::BufReader::new(file);
            let index = UsiIndex::read_from(&mut reader).unwrap();
            index.query(b"ACGT").occurrences
        })
    });

    group.bench_function("open_mmap_cold_plus_query", |b| {
        b.iter(|| {
            let index = usi_core::persist::open_mmap(&path).unwrap();
            index.query(b"ACGT").occurrences
        })
    });

    // the four profiles of the served benchmark corpus, listed as files
    let profiles = [Dataset::Hum, Dataset::Xml, Dataset::Iot, Dataset::Adv];
    let files: Vec<PathBuf> = (0..4).map(|i| dir.join(format!("corpus-{i}.usix"))).collect();
    let corpus_bytes: u64 =
        files.iter().zip(profiles).zip(29..).map(|((f, p), seed)| persist(f, p, seed)).sum();
    group.throughput(Throughput::Bytes(corpus_bytes));
    group.bench_function("open_corpus_four_files", |b| {
        b.iter(|| {
            let opts = LoadOptions { mmap: true, threads: 0 };
            usi_server::open_corpus(&files, opts).unwrap().len()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_mmap_load);
criterion_main!(benches);
