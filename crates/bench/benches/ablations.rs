//! Ablation benchmarks for the design choices the index rests on: the
//! LCE backend inside Approximate-Top-K, the suffix-array locator on
//! long patterns, the hasher and key of the hash table `H`, and how
//! phase (ii) marks its entries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::HashMap;
use usi_core::oracle::TopKOracle;
use usi_core::{approximate_top_k, ApproxConfig, UsiIndex};
use usi_datasets::Dataset;
use usi_strings::{Fingerprinter, FxHashMap, GlobalUtility};
use usi_suffix::{lcp_array, suffix_array, LceBackend, SuffixArraySearcher};

fn bench_lce_backends(c: &mut Criterion) {
    // DNA has enough repeat structure that the backends separate.
    let ws = Dataset::Hum.generate(60_000, 7);
    let mut group = c.benchmark_group("ablation_lce_backends");
    group.sample_size(10);
    for (name, lce) in [
        ("naive", LceBackend::Naive),
        ("fingerprint", LceBackend::Fingerprint),
        ("rmq", LceBackend::Rmq),
    ] {
        let cfg = ApproxConfig::new(600, 6).with_lce(lce);
        group.bench_with_input(BenchmarkId::from_parameter(name), &(), |b, _| {
            b.iter(|| approximate_top_k(ws.text(), &cfg))
        });
    }
    group.finish();
}

fn bench_sa_search(c: &mut Criterion) {
    let ws = Dataset::Xml.generate(100_000, 7);
    let sa = suffix_array(ws.text());
    let searcher = SuffixArraySearcher::new(ws.text(), &sa);
    // long patterns with long shared prefixes: each comparison reads
    // far into the suffix before it decides
    let patterns: Vec<&[u8]> = (0..64).map(|i| &ws.text()[i * 37..i * 37 + 200]).collect();
    let mut group = c.benchmark_group("ablation_sa_search");
    group.bench_function("plain_binary_search", |b| {
        b.iter(|| {
            patterns
                .iter()
                .map(|p| searcher.interval(p).map(|r| r.len()).unwrap_or(0))
                .sum::<usize>()
        })
    });
    group.finish();
}

fn bench_hashers(c: &mut Criterion) {
    // The H table is keyed by (len, fingerprint); FxHash vs SipHash.
    let keys: Vec<(u32, u64)> =
        (0..10_000u64).map(|i| (i as u32 & 63, i.wrapping_mul(0x9e37_79b9_7f4a_7c15))).collect();
    let mut fx: FxHashMap<(u32, u64), f64> = FxHashMap::default();
    let mut sip: HashMap<(u32, u64), f64> = HashMap::new();
    for &k in &keys {
        fx.insert(k, 1.0);
        sip.insert(k, 1.0);
    }
    let mut group = c.benchmark_group("ablation_hashers");
    group.bench_function("fx_hash_probe", |b| {
        b.iter(|| keys.iter().map(|k| fx.get(k).copied().unwrap_or(0.0)).sum::<f64>())
    });
    group.bench_function("sip_hash_probe", |b| {
        b.iter(|| keys.iter().map(|k| sip.get(k).copied().unwrap_or(0.0)).sum::<f64>())
    });
    group.finish();
}

fn bench_phase2_marking(c: &mut Criterion) {
    // Phase (ii) of construction: one text-order pass over the chains of
    // nested SA intervals (exact triplets) vs a rolling-fingerprint pass
    // against witness-fingerprint sets (estimates). Same top-K input,
    // identical resulting hash tables.
    let ws = Dataset::Xml.generate(60_000, 7);
    let sa = suffix_array(ws.text());
    let lcp = lcp_array(ws.text(), &sa);
    let oracle = TopKOracle::new(ws.len(), &sa, &lcp);
    let triplets = oracle.top_k(600);
    let estimates: Vec<_> = triplets.iter().map(|t| t.to_estimate(&sa)).collect();
    let psw = GlobalUtility::sum_of_sums().local_index(ws.weights());
    let fp = Fingerprinter::with_base(3);

    let mut group = c.benchmark_group("ablation_phase2");
    group.sample_size(10);
    group.bench_function("text_order_pass", |b| {
        b.iter(|| UsiIndex::populate_from_triplets(ws.text(), &sa, &psw, &fp, &triplets))
    });
    group.bench_function("fingerprint_set_marking", |b| {
        b.iter(|| UsiIndex::populate_from_estimates(ws.text(), &psw, &fp, &estimates))
    });
    group.finish();
}

fn bench_hash_keys(c: &mut Criterion) {
    // Keying H by fingerprint only vs (length, fingerprint): the paper
    // keys by fingerprint; the pair key removes cross-length collisions
    // for free. Measures probe cost of both schemes.
    let keys: Vec<(u32, u64)> =
        (0..10_000u64).map(|i| ((i % 40) as u32, i.wrapping_mul(0x2545_f491_4f6c_dd1d))).collect();
    let mut pair: FxHashMap<(u32, u64), f64> = FxHashMap::default();
    let mut fp_only: FxHashMap<u64, f64> = FxHashMap::default();
    for &(len, fp) in &keys {
        pair.insert((len, fp), 1.0);
        fp_only.insert(fp, 1.0);
    }
    let mut group = c.benchmark_group("ablation_hash_keys");
    group.bench_function("pair_key", |b| {
        b.iter(|| keys.iter().map(|k| pair.get(k).copied().unwrap_or(0.0)).sum::<f64>())
    });
    group.bench_function("fingerprint_only_key", |b| {
        b.iter(|| keys.iter().map(|(_, f)| fp_only.get(f).copied().unwrap_or(0.0)).sum::<f64>())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_lce_backends,
    bench_sa_search,
    bench_hashers,
    bench_phase2_marking,
    bench_hash_keys
);
criterion_main!(benches);
