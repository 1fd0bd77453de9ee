//! Criterion micro-benchmarks for query answering (the per-point
//! measurements behind Fig. 6a–j): `UET` / `UAT` vs BSL1–BSL4 on a `W1`
//! workload, plus the frequent/infrequent split inside `USI_TOP-K`,
//! and the infrequent path of the same index mapped from a `.usix`
//! file (`query_paths/text_index_mapped`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::io::Write;
use usi_bench::experiments::methods::{build_method, Method};
use usi_core::oracle::TopKOracle;
use usi_core::{open_mmap, QuerySource, UsiBuilder, UsiIndex};
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

    // The same index written to a file and mapped, the way `usi serve
    // --mmap` holds it, queried with uncached patterns of several
    // occurrences each: the text-index path over the mapped sections
    // and the sampled `PSW`, one pattern per iteration in turn.
    let path = std::env::temp_dir().join(format!("usi-bench-query-{}.usix", std::process::id()));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
    index.write_to(&mut out).unwrap();
    out.flush().unwrap();
    drop(out);
    let mapped = open_mmap(&path).unwrap();
    let uncached = uncached_repeats(&mapped, 32);

    let mut group = c.benchmark_group("query_paths");
    group.bench_function("hash_table_hit", |b| b.iter(|| index.query(&frequent)));
    group.bench_function("text_index_fallback", |b| b.iter(|| index.query(&rare)));
    let mut i = 0usize;
    group.bench_function("text_index_mapped", |b| {
        b.iter(|| {
            let q = mapped.query(&uncached[i % uncached.len()]);
            i += 1;
            q
        })
    });
    group.finish();
    drop(mapped);
    std::fs::remove_file(&path).unwrap();
}

/// `count` patterns of 8–11 letters, read from evenly spaced text
/// positions, that `H` does not hold and that occur 4 times or more:
/// a fixed list for a fixed index.
fn uncached_repeats(index: &UsiIndex, count: usize) -> Vec<Vec<u8>> {
    let text = index.text();
    let mut out = Vec::with_capacity(count);
    for (k, at) in (0..text.len() - 16).step_by(331).enumerate() {
        let pattern = &text[at..at + 8 + k % 4];
        let q = index.query(pattern);
        if q.source == QuerySource::TextIndex && q.occurrences >= 4 {
            out.push(pattern.to_vec());
            if out.len() == count {
                return out;
            }
        }
    }
    panic!("only {} of {count} uncached patterns occur 4 times or more", out.len());
}

criterion_group!(benches, bench_methods_on_w1, bench_hash_vs_fallback);
criterion_main!(benches);
