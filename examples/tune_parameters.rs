//! Tuning `K` and `τ` with the Section-V oracle (Tasks (ii) and (iii)).
//!
//! Before building `USI_TOP-K`, the linear-space oracle predicts, for
//! any candidate `K`, the query-time bound `τ_K` and the construction
//! factor `L_K` — and inversely, for any target query time `τ`, the
//! space `K_τ` it will cost. The oracle is the frequency histogram a
//! build's phase (i) reads, over the text's suffix and LCP arrays; each
//! prediction is one `O(n)` sweep of those arrays. This example sweeps
//! both directions and verifies the predictions against a real build.
//!
//! Run with: `cargo run --release --example tune_parameters`

use usi::core::oracle::TopKOracle;
use usi::datasets::Dataset;
use usi::prelude::*;
use usi::suffix::{lcp_array, suffix_array};

fn main() {
    let ws = Dataset::Xml.generate(200_000, 9);
    let n = ws.len();
    let sa = suffix_array(ws.text());
    let lcp = lcp_array(ws.text(), &sa);
    let oracle = TopKOracle::new(n, &sa, &lcp);
    println!("n = {n}, distinct substrings = {}", oracle.total_distinct_substrings());

    // Task (ii): given K, predict query time (τ_K) and construction (L_K).
    println!("\nK → (τ_K, L_K): pick your size, read off query/construction cost");
    println!("{:>10} {:>8} {:>6}", "K", "τ_K", "L_K");
    for exp in [10u32, 12, 14, 16] {
        let k = 1u64 << exp;
        if let Some(t) = oracle.tune_for_k(k) {
            println!("{:>10} {:>8} {:>6}", k, t.tau, t.distinct_lengths);
        }
    }

    // Task (iii): given τ, predict the space K_τ.
    println!("\nτ → (K_τ, L_τ): pick your query-time bound, read off the space");
    println!("{:>8} {:>10} {:>6}", "τ", "K_τ", "L_τ");
    for tau in [500u32, 200, 100, 50, 20] {
        let t = oracle.tune_for_tau(tau);
        println!("{:>8} {:>10} {:>6}", tau, t.k, t.distinct_lengths);
    }

    // Verify one prediction against an actual build.
    let k = 1 << 12;
    let predicted = oracle.tune_for_k(k).expect("non-trivial text");
    let index = UsiBuilder::new().with_k(k as usize).deterministic(1).build(ws);
    let stats = index.stats();
    println!("\nverification for K = {k}:");
    println!("  predicted τ_K = {}, built index reports τ_K = {:?}", predicted.tau, stats.tau);
    println!(
        "  predicted L_K = {}, built index swept {} lengths in phase (ii)",
        predicted.distinct_lengths, stats.distinct_lengths
    );
    assert_eq!(Some(predicted.tau), stats.tau);
    assert_eq!(predicted.distinct_lengths as usize, stats.distinct_lengths);
    println!("  predictions match the built structure.");
}
