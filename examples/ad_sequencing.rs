//! Ad sequencing (the paper's Section II case study).
//!
//! An advertising company's history is a string of ad categories where
//! every position carries a click-through rate (CTR). Marketers check
//! the effectiveness of candidate ad sequences by querying their global
//! utility; the company mines the most *useful* sequences and contrasts
//! them with the merely most *frequent* ones (Table I).
//!
//! Run with: `cargo run --release --example ad_sequencing`

use usi::core::oracle::TopKOracle;
use usi::datasets::Dataset;
use usi::prelude::*;
use usi::strings::text::display_bytes;
use usi::suffix::{lcp_array, suffix_array};

fn main() {
    // ADV-like corpus: 200k ad-category letters with CTR utilities.
    let ws = Dataset::Adv.generate(200_000, 3);
    let n = ws.len();
    let index = UsiBuilder::new().with_k(n / 36).deterministic(5).build(ws.clone());

    // A marketer checks two candidate campaigns of their own.
    println!("marketer queries:");
    for campaign in [&ws.text()[100..105].to_vec(), &b"nnnnn".to_vec()] {
        let q = index.query(campaign);
        println!(
            "  sequence {:?}: shown {} times, total CTR utility {:.1}",
            display_bytes(campaign),
            q.occurrences,
            q.value.unwrap_or(0.0)
        );
    }

    // The company mines: every substring of length >= 3 is a candidate;
    // rank by global utility and contrast with the frequency ranking.
    // The candidates are the 150 000 most frequent of length 3..=200.
    let sa = suffix_array(ws.text());
    let lcp = lcp_array(ws.text(), &sa);
    let mut scored: Vec<(u32, u32, u64, f64)> = Vec::new(); // (pos, len, freq, utility)
    for s in TopKOracle::new(n, &sa, &lcp).top_k_in(150_000, 3..=200) {
        let q = index.query(s.bytes(ws.text(), &sa));
        scored.push((sa[s.lb as usize], s.len, q.occurrences, q.value.unwrap_or(0.0)));
    }

    let show = |items: &[(u32, u32, u64, f64)]| {
        for (rank, &(pos, len, freq, utility)) in items.iter().take(4).enumerate() {
            let pat = &ws.text()[pos as usize..(pos + len) as usize];
            println!(
                "  {}. {:<12} freq {:>6}  utility {:>12.1}",
                rank + 1,
                display_bytes(&pat[..pat.len().min(12)]),
                freq,
                utility
            );
        }
    };

    let mut by_utility = scored.clone();
    by_utility.sort_unstable_by(|a, b| b.3.total_cmp(&a.3));
    println!("\ntop ad sequences by GLOBAL UTILITY (Table Ia):");
    show(&by_utility);

    let mut by_freq = scored.clone();
    by_freq.sort_unstable_by_key(|x| std::cmp::Reverse(x.2));
    println!("\ntop ad sequences by FREQUENCY (Table Ib):");
    show(&by_freq);

    // The paper's observation: the most frequent sequences are usually
    // NOT the most useful ones.
    let top_frequent_utility_rank = 1 + by_utility
        .iter()
        .position(|x| (x.0, x.1) == (by_freq[0].0, by_freq[0].1))
        .unwrap_or(usize::MAX - 1);
    println!(
        "\nthe most frequent sequence only ranks #{top_frequent_utility_rank} by utility \
         (paper: #21 on the real ADV data)"
    );
}
