//! Criterion micro-benchmarks for query answering (the per-point
//! measurements behind Fig. 6a–j): `UET` / `UAT` vs BSL1–BSL4 on a `W1`
//! workload, plus the frequent/infrequent split inside `USI_TOP-K`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use usi_bench::experiments::methods::{build_method, Method};
use usi_core::oracle::TopKOracle;
use usi_core::{QuerySource, UsiBuilder};
use usi_datasets::{w1, Dataset};
use usi_suffix::{lcp_array, suffix_array};

fn bench_methods_on_w1(c: &mut Criterion) {
    let ds = Dataset::Xml;
    let ws = ds.generate(60_000, 7);
    let k = 600;
    let sa = suffix_array(ws.text());
    let lcp = lcp_array(ws.text(), &sa);
    let oracle = TopKOracle::new(ws.len(), &sa, &lcp);
    let workload = w1(ws.text(), &oracle, &sa, 2_000, 50, (1, 500), 9);

    let mut group = c.benchmark_group("query_w1_fig6");
    for method in Method::lineup(ds.spec().default_s) {
        let mut built = build_method(method, &ws, k, 3);
        let mut i = 0usize;
        group.bench_with_input(BenchmarkId::from_parameter(method.label()), &(), |b, _| {
            b.iter(|| {
                let q = &workload.queries[i % workload.len()];
                i += 1;
                built.engine.query(q)
            })
        });
    }
    group.finish();
}

fn bench_hash_vs_fallback(c: &mut Criterion) {
    // The two query paths of Theorem 1: O(m) hash hits vs O(m log n + occ)
    // suffix-array fallbacks.
    let ws = Dataset::Hum.generate(100_000, 7);
    let index = UsiBuilder::new().with_k(1_000).deterministic(5).build(ws.clone());

    // a cached (frequent) pattern and an uncached (rare) one
    let frequent = ws.text()[..4].to_vec();
    assert_eq!(index.query(&frequent).source, QuerySource::HashTable);
    let mut rare = ws.text()[..40].to_vec();
    if index.query(&rare).source != QuerySource::TextIndex {
        rare = ws.text()[1..60].to_vec();
    }

    let mut group = c.benchmark_group("query_paths");
    group.bench_function("hash_table_hit", |b| b.iter(|| index.query(&frequent)));
    group.bench_function("text_index_fallback", |b| b.iter(|| index.query(&rare)));
    group.finish();
}

criterion_group!(benches, bench_methods_on_w1, bench_hash_vs_fallback);
criterion_main!(benches);
