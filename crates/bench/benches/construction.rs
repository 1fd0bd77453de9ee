//! Criterion micro-benchmarks for index construction (behind Fig. 6q–t)
//! and its substrate phases (SA-IS, the Φ LCP array, and phase (i): the
//! Section-V oracle's histogram and its top-K listing).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use usi_bench::experiments::methods::{build_method, Method};
use usi_core::oracle::TopKOracle;
use usi_datasets::Dataset;
use usi_suffix::{lcp_array, suffix_array};

fn bench_method_construction(c: &mut Criterion) {
    let ds = Dataset::Xml;
    let ws = ds.generate(60_000, 7);
    let k = 600;
    let mut group = c.benchmark_group("construction_fig6qr");
    group.sample_size(10);
    for method in Method::lineup(ds.spec().default_s) {
        group.bench_with_input(
            BenchmarkId::from_parameter(method.label()),
            &method,
            |b, &method| b.iter(|| build_method(method, &ws, k, 3).build_time),
        );
    }
    group.finish();
}

fn bench_substrates(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrates");
    group.sample_size(10);
    for n in [50_000usize, 200_000] {
        let ws = Dataset::Hum.generate(n, 7);
        group.throughput(Throughput::Bytes(n as u64));
        group.bench_with_input(BenchmarkId::new("sa_is", n), &(), |b, _| {
            b.iter(|| suffix_array(ws.text()))
        });
        let sa = suffix_array(ws.text());
        group.bench_with_input(BenchmarkId::new("lcp", n), &(), |b, _| {
            b.iter(|| lcp_array(ws.text(), &sa))
        });
        let lcp = lcp_array(ws.text(), &sa);
        let k = (n / 100).max(1);
        group.bench_with_input(BenchmarkId::new("topk", n), &(), |b, _| {
            b.iter(|| TopKOracle::new(n, &sa, &lcp).top_k(k))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_method_construction, bench_substrates);
criterion_main!(benches);
