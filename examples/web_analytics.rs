//! Web analytics: navigation-path value in a server log (the paper's
//! Section-I web-analytics motivation: "finding the total time spent
//! visiting a sequence of web pages can improve website services, offer
//! navigation recommendations, and improve web page design").
//!
//! Each letter is a visited page; each position's utility is the dwell
//! time on that page. `U(path)` under different aggregates answers
//! different product questions:
//!
//! * `Sum`  — total engagement time the path has generated overall;
//! * `Avg`  — typical session time for users following the path;
//! * `Min`/`Max` — best/worst observed session time for the path.
//!
//! Run with: `cargo run --release --example web_analytics`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use usi::core::oracle::TopKOracle;
use usi::prelude::*;
use usi::suffix::{lcp_array, suffix_array};

/// Builds a synthetic click-stream: pages 'a'..='t', with a popular
/// navigation funnel "home → search → product → checkout" planted as
/// the sequence "hspc".
fn click_stream(n: usize, seed: u64) -> WeightedString {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut text = Vec::with_capacity(n + 4);
    let mut weights = Vec::with_capacity(n + 4);
    while text.len() < n {
        if rng.gen_bool(0.25) {
            // the funnel, with realistic dwell times per step
            text.extend_from_slice(b"hspc");
            weights.push(rng.gen_range(2.0..8.0)); // home
            weights.push(rng.gen_range(5.0..30.0)); // search
            weights.push(rng.gen_range(20.0..120.0)); // product page
            weights.push(rng.gen_range(30.0..90.0)); // checkout
        } else {
            text.push(b'a' + rng.gen_range(0..20u8));
            weights.push(rng.gen_range(1.0..60.0));
        }
    }
    text.truncate(n);
    weights.truncate(n);
    WeightedString::new(text, weights).expect("matched arrays")
}

fn main() {
    let ws = click_stream(300_000, 99);
    // Pick K from the trade-off curve: spend space until τ ≤ 64.
    let sa = suffix_array(ws.text());
    let lcp = lcp_array(ws.text(), &sa);
    let curve = TopKOracle::new(ws.len(), &sa, &lcp).tradeoff_curve();
    let point = curve.into_iter().find(|p| p.tau <= 64).expect("curve reaches tau = 1");
    println!(
        "trade-off pick: cache K = {} substrings → worst fallback τ = {}, {} lengths",
        point.k, point.tau, point.distinct_lengths
    );

    let funnel = b"hspc";
    for agg in [
        GlobalAggregator::Sum,
        GlobalAggregator::Avg,
        GlobalAggregator::Min,
        GlobalAggregator::Max,
        GlobalAggregator::Count,
    ] {
        let index = UsiBuilder::new()
            .with_k(point.k as usize)
            .with_aggregator(agg)
            .deterministic(101)
            .build(ws.clone());
        let q = index.query(funnel);
        println!(
            "{:>5}(home→search→product→checkout) = {:>12.1}   [{} occurrences, {:?}]",
            agg.name(),
            q.value.unwrap_or(0.0),
            q.occurrences,
            q.source,
        );
    }

    // Compare the funnel against a random 4-page path.
    let index = UsiBuilder::new()
        .with_k(point.k as usize)
        .with_aggregator(GlobalAggregator::Avg)
        .deterministic(101)
        .build(ws.clone());
    let random_path = &ws.text()[12_345..12_349];
    let funnel_avg = index.query(funnel).value.unwrap_or(0.0);
    let other_avg = index.query(random_path).value.unwrap_or(0.0);
    println!(
        "\navg dwell: funnel {funnel_avg:.1}s vs random path {other_avg:.1}s — \
         the funnel keeps users {}x longer",
        (funnel_avg / other_avg.max(1e-9)).round()
    );
}
