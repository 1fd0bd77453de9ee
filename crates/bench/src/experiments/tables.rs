//! Table I (the ADV case study of Section II) and Table II (dataset
//! properties).

use crate::context::ExperimentContext;
use crate::report::{fmt_duration, Report};
use std::time::Instant;
use usi_core::oracle::TopKOracle;
use usi_core::UsiBuilder;
use usi_datasets::Dataset;
use usi_strings::text::display_bytes;
use usi_strings::Alphabet;
use usi_suffix::{lcp_array, suffix_array};

/// Cap on the number of distinct substrings enumerated for the case
/// study (the real ADV has 187,883 of length 3..=200; synthetic
/// instances can have more).
const MAX_PATTERNS: usize = 250_000;

/// Table I / Section II: query every length-\[3,200\] substring of ADV,
/// report total query time, and contrast the top-4 substrings by global
/// utility with the top-4 by frequency.
pub fn table1(ctx: &ExperimentContext) -> Vec<Report> {
    let ds = Dataset::Adv;
    let ws = ctx.generate(ds);
    let n = ws.len();
    let k = ctx.default_k(ds, n);
    let index = UsiBuilder::new().with_k(k).deterministic(ctx.seed).build(ws.clone());
    let sa = suffix_array(ws.text());
    let lcp = lcp_array(ws.text(), &sa);
    let oracle = TopKOracle::new(n, &sa, &lcp);

    // Enumerate the most frequent distinct substrings with length in
    // [3, 200] as (witness, len) pairs.
    let patterns: Vec<(u32, u32)> =
        oracle.top_k_in(MAX_PATTERNS, 3..=200).map(|s| (sa[s.lb as usize], s.len)).collect();

    // Query them all, timing the whole batch (the paper's 3.4 s for
    // 187,883 patterns) and remembering every utility for rank lookups.
    let start = Instant::now();
    let mut utilities: Vec<f64> = Vec::with_capacity(patterns.len());
    for &(pos, len) in &patterns {
        let pat = &ws.text()[pos as usize..(pos + len) as usize];
        utilities.push(index.query(pat).value.unwrap_or(0.0));
    }
    let total_time = start.elapsed();

    let rank_of = |u: f64| 1 + utilities.iter().filter(|&&x| x > u).count();

    // (a) top-4 by global utility
    let mut by_utility: Vec<usize> = (0..patterns.len()).collect();
    by_utility.sort_unstable_by(|&a, &b| utilities[b].total_cmp(&utilities[a]));
    let mut table_a = Report::new(
        "table1a",
        "Top-4 substrings (length ≥ 3) by global utility (Table Ia)",
        &["rank", "substring", "len", "freq", "utility"],
    );
    for (rank, &i) in by_utility.iter().take(4).enumerate() {
        let (pos, len) = patterns[i];
        let pat = &ws.text()[pos as usize..(pos + len) as usize];
        let freq = index.query(pat).occurrences;
        table_a.rowf(&[
            &(rank + 1),
            &display_bytes(&pat[..pat.len().min(24)]),
            &len,
            &freq,
            &format!("{:.1}", utilities[i]),
        ]);
    }

    // (b) top-4 by frequency (length ≥ 3) with their utility ranks
    let mut table_b = Report::new(
        "table1b",
        "Top-4 frequent substrings (length ≥ 3) and their utility ranks (Table Ib)",
        &["substring", "len", "freq", "utility", "utility rank"],
    );
    for s in oracle.top_k_in(4, 3..=u32::MAX) {
        let pat = s.bytes(ws.text(), &sa);
        let q = index.query(pat);
        let u = q.value.unwrap_or(0.0);
        table_b.rowf(&[
            &display_bytes(&pat[..pat.len().min(24)]),
            &s.len,
            &q.occurrences,
            &format!("{u:.1}"),
            &rank_of(u),
        ]);
    }

    let mut summary = Report::new(
        "table1-summary",
        "Case-study batch query cost (Section II: 187,883 patterns in 3.4 s on real ADV)",
        &["patterns", "total time", "avg / query"],
    );
    summary.rowf(&[
        &patterns.len(),
        &fmt_duration(total_time),
        &fmt_duration(total_time / patterns.len().max(1) as u32),
    ]);
    vec![table_a, table_b, summary]
}

/// Table II: dataset properties plus the oracle-derived tuning values.
pub fn table2(ctx: &ExperimentContext) -> Vec<Report> {
    let mut report = Report::new(
        "table2",
        "Dataset properties and defaults (Table II; lengths scaled to laptop size)",
        &["dataset", "n", "sigma", "K", "s", "distinct substrings", "tau_K", "L_K"],
    );
    for ds in ctx.datasets() {
        let ws = ctx.generate(ds);
        let n = ws.len();
        let sigma = Alphabet::from_text(ws.text()).sigma();
        let k = ctx.default_k(ds, n);
        let s = ctx.default_s(ds);
        let sa = suffix_array(ws.text());
        let lcp = lcp_array(ws.text(), &sa);
        let oracle = TopKOracle::new(n, &sa, &lcp);
        let tune = oracle.tune_for_k(k as u64).expect("non-empty dataset");
        report.rowf(&[
            &ds.spec().name,
            &n,
            &sigma,
            &k,
            &s,
            &oracle.total_distinct_substrings(),
            &tune.tau,
            &tune.distinct_lengths,
        ]);
    }
    vec![report]
}
