//! Serial-vs-parallel construction medians: the speedup behind
//! `usi build --threads N` is measured here, not asserted. The nightly
//! workflow runs this bench with `CRITERION_JSON` set and gates the
//! medians against `ci/nightly-thresholds.json`.
//!
//! The input is a ≥ 1 MiB DNA-like Markov text (the paper's HUM
//! profile): realistic repeat structure, so the per-length phase-(ii)
//! fan-out, the only parallel step, does representative work. The
//! suffix and LCP arrays and phase (i)'s histogram selection are serial
//! at every thread count; `parallel_substrates` times the two arrays
//! once each.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use usi_core::{BuildOptions, UsiBuilder};
use usi_datasets::Dataset;
use usi_suffix::{lcp_array, suffix_array};

const N: usize = 1 << 20; // 1 MiB
const K: usize = N / 200;

fn bench_end_to_end_build(c: &mut Criterion) {
    let ws = Dataset::Hum.generate(N, 11);
    let mut group = c.benchmark_group("parallel_build");
    group.sample_size(5);
    group.throughput(Throughput::Bytes(N as u64));
    for threads in [1usize, 2, 4, 8] {
        let builder =
            UsiBuilder::new().with_k(K).with_options(BuildOptions { threads }).deterministic(3);
        group.bench_with_input(BenchmarkId::new("build", threads), &builder, |b, builder| {
            b.iter(|| builder.build(ws.clone()))
        });
    }
    group.finish();
}

fn bench_substrate_parallelism(c: &mut Criterion) {
    let ws = Dataset::Hum.generate(N, 11);
    let text = ws.text();
    let mut group = c.benchmark_group("parallel_substrates");
    group.sample_size(5);
    group.throughput(Throughput::Bytes(N as u64));
    group.bench_function("suffix_array/t1", |b| b.iter(|| suffix_array(text)));
    let sa = suffix_array(text);
    group.bench_function("lcp/t1", |b| b.iter(|| lcp_array(text, &sa)));
    group.finish();
}

criterion_group!(benches, bench_end_to_end_build, bench_substrate_parallelism);
criterion_main!(benches);
