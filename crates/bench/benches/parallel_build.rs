//! Construction medians on a 1 Mi-letter text. Every step (SA-IS, the
//! Φ LCP array, phase (i)'s histogram selection and phase (ii)'s
//! text-order pass) is serial, so a thread count no longer changes the
//! work and `build/1` times the one build there is. The nightly
//! workflow runs this bench with `CRITERION_JSON` set and gates the
//! medians against `ci/nightly-thresholds.json`.
//!
//! The input is a ≥ 1 MiB DNA-like Markov text (the paper's HUM
//! profile), with realistic repeat structure. `parallel_substrates`
//! times the suffix array, the LCP array, phase (i) and phase (ii)
//! alone, once each.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::SeedableRng;
use usi_core::{TopKOracle, UsiBuilder, UsiIndex};
use usi_datasets::Dataset;
use usi_strings::{Fingerprinter, GlobalUtility};
use usi_suffix::{lcp_array, suffix_array};

const N: usize = 1 << 20; // 1 MiB
const K: usize = N / 200;

fn bench_end_to_end_build(c: &mut Criterion) {
    let ws = Dataset::Hum.generate(N, 11);
    let mut group = c.benchmark_group("parallel_build");
    group.sample_size(5);
    group.throughput(Throughput::Bytes(N as u64));
    let builder = UsiBuilder::new().with_k(K).deterministic(3);
    group.bench_function("build/1", |b| b.iter(|| builder.build(ws.clone())));
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
    // Phase (i) as a build runs it: the oracle's histogram, then the
    // top-K listing.
    let lcp = lcp_array(text, &sa);
    group.bench_function("topk/t1", |b| b.iter(|| TopKOracle::new(N, &sa, &lcp).top_k(K)));
    // Phase (ii) alone, over the triplets phase (i) lists.
    let items = TopKOracle::new(N, &sa, &lcp).top_k(K);
    let psw = GlobalUtility::sum_of_sums().local_index(ws.weights());
    let fingerprinter = Fingerprinter::new(&mut rand::rngs::StdRng::seed_from_u64(3));
    group.bench_function("populate/t1", |b| {
        b.iter(|| UsiIndex::populate_from_triplets(text, &sa, &psw, &fingerprinter, &items))
    });
    group.finish();
}

criterion_group!(benches, bench_end_to_end_build, bench_substrate_parallelism);
criterion_main!(benches);
