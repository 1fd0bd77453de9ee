//! Fig. 6: query time, index size and construction time of `UET`/`UAT`
//! versus the four baselines.

use crate::context::{scaled_k_sweep, ExperimentContext};
use crate::experiments::methods::{build_method, replay, Method};
use crate::report::{fmt_bytes, fmt_duration, Report};
use usi_core::oracle::TopKOracle;
use usi_datasets::{w1, w2p, Dataset, Workload};
use usi_strings::WeightedString;
use usi_suffix::{lcp_array, suffix_array};

/// Builds the `W1` workload for a dataset instance.
fn w1_for(ctx: &ExperimentContext, ds: Dataset, ws: &WeightedString) -> Workload {
    let sa = suffix_array(ws.text());
    let lcp = lcp_array(ws.text(), &sa);
    let oracle = TopKOracle::new(ws.len(), &sa, &lcp);
    let denom = if ds == Dataset::Ecoli { 60 } else { 50 };
    w1(
        ws.text(),
        &oracle,
        &sa,
        ctx.query_count(ds),
        denom,
        ds.spec().pattern_len_range,
        ctx.seed ^ 0x3031,
    )
}

/// Fig. 6a–e: average query time vs `K` on `W1`.
pub fn query_vs_k(ctx: &ExperimentContext) -> Vec<Report> {
    let mut report = Report::new(
        "fig6-query-k",
        "Average W1 query time vs K (Fig. 6a-e)",
        &["dataset", "n", "K", "UET", "UAT", "BSL1", "BSL2", "BSL3", "BSL4"],
    );
    for ds in ctx.datasets() {
        let ws = ctx.generate(ds);
        let n = ws.len();
        let s = ctx.default_s(ds);
        let workload = w1_for(ctx, ds, &ws);
        for k in scaled_k_sweep(ctx, ds, n) {
            let mut cells = vec![ds.spec().name.to_string(), n.to_string(), k.to_string()];
            for method in Method::lineup(s) {
                let mut built = build_method(method, &ws, k, ctx.seed);
                let avg = replay(built.engine.as_mut(), &workload.queries);
                cells.push(fmt_duration(avg));
            }
            report.row(&cells);
        }
    }
    vec![report]
}

/// Fig. 6f–j: average query time vs `p` on `W2,p`.
pub fn query_vs_p(ctx: &ExperimentContext) -> Vec<Report> {
    let mut report = Report::new(
        "fig6-query-p",
        "Average W2,p query time vs p (Fig. 6f-j)",
        &["dataset", "n", "p%", "UET", "UAT", "BSL1", "BSL2", "BSL3", "BSL4"],
    );
    for ds in ctx.datasets() {
        let ws = ctx.generate(ds);
        let n = ws.len();
        let k = ctx.default_k(ds, n);
        let s = ctx.default_s(ds);
        let sa = suffix_array(ws.text());
        let lcp = lcp_array(ws.text(), &sa);
        let oracle = TopKOracle::new(n, &sa, &lcp);
        let denom = if ds == Dataset::Ecoli { 60 } else { 50 };
        for p in [20usize, 40, 60, 80] {
            let workload = w2p(
                ws.text(),
                &oracle,
                &sa,
                ctx.query_count(ds),
                p,
                denom,
                ds.spec().pattern_len_range,
                ctx.seed ^ 0x3270 ^ p as u64,
            );
            let mut cells = vec![ds.spec().name.to_string(), n.to_string(), p.to_string()];
            for method in Method::lineup(s) {
                let mut built = build_method(method, &ws, k, ctx.seed);
                let avg = replay(built.engine.as_mut(), &workload.queries);
                cells.push(fmt_duration(avg));
            }
            report.row(&cells);
        }
    }
    vec![report]
}

/// The datasets plotted in the paper's size panels (Fig. 6k–p).
fn size_datasets() -> [Dataset; 3] {
    [Dataset::Xml, Dataset::Hum, Dataset::Adv]
}

/// Fig. 6k–m: index size vs `K`.
pub fn size_vs_k(ctx: &ExperimentContext) -> Vec<Report> {
    let mut report = Report::new(
        "fig6-size-k",
        "Index size vs K (Fig. 6k-m) — SA-dominated, near-identical",
        &["dataset", "n", "K", "UET", "UAT", "BSL1", "BSL2", "BSL3", "BSL4"],
    );
    for ds in size_datasets() {
        let ws = ctx.generate(ds);
        let n = ws.len();
        let s = ctx.default_s(ds);
        let workload = w1_for(ctx, ds, &ws);
        for k in scaled_k_sweep(ctx, ds, n) {
            let mut cells = vec![ds.spec().name.to_string(), n.to_string(), k.to_string()];
            for method in Method::lineup(s) {
                let mut built = build_method(method, &ws, k, ctx.seed);
                // caches fill up before they are measured, as in the paper
                replay(built.engine.as_mut(), &workload.queries[..workload.len().min(500)]);
                cells.push(fmt_bytes(built.engine.index_size()));
            }
            report.row(&cells);
        }
    }
    vec![report]
}

/// Fig. 6n–p: index size vs `n`.
pub fn size_vs_n(ctx: &ExperimentContext) -> Vec<Report> {
    let mut report = Report::new(
        "fig6-size-n",
        "Index size vs n (Fig. 6n-p)",
        &["dataset", "n", "K", "UET", "UAT", "BSL1", "BSL2", "BSL3", "BSL4"],
    );
    for ds in size_datasets() {
        let full = ctx.generate(ds);
        let s = ctx.default_s(ds);
        for n in ctx.n_sweep(ds) {
            let ws = WeightedString::new(full.text()[..n].to_vec(), full.weights()[..n].to_vec())
                .expect("prefix slicing preserves lengths");
            let k = ctx.default_k(ds, n);
            let mut cells = vec![ds.spec().name.to_string(), n.to_string(), k.to_string()];
            for method in Method::lineup(s) {
                let built = build_method(method, &ws, k, ctx.seed);
                cells.push(fmt_bytes(built.engine.index_size()));
            }
            report.row(&cells);
        }
    }
    vec![report]
}

/// The datasets plotted in the construction-time panels (Fig. 6q–t).
fn build_datasets() -> [Dataset; 2] {
    [Dataset::Xml, Dataset::Hum]
}

/// Fig. 6q,r: construction time vs `K`.
pub fn build_vs_k(ctx: &ExperimentContext) -> Vec<Report> {
    let mut report = Report::new(
        "fig6-build-k",
        "Construction time vs K (Fig. 6q,r)",
        &["dataset", "n", "K", "UET", "UAT", "BSL1", "BSL2", "BSL3", "BSL4"],
    );
    for ds in build_datasets() {
        let ws = ctx.generate(ds);
        let n = ws.len();
        let s = ctx.default_s(ds);
        for k in scaled_k_sweep(ctx, ds, n) {
            let mut cells = vec![ds.spec().name.to_string(), n.to_string(), k.to_string()];
            for method in Method::lineup(s) {
                let built = build_method(method, &ws, k, ctx.seed);
                cells.push(fmt_duration(built.build_time));
            }
            report.row(&cells);
        }
    }
    vec![report]
}

/// Fig. 6s,t: construction time vs `n`.
pub fn build_vs_n(ctx: &ExperimentContext) -> Vec<Report> {
    let mut report = Report::new(
        "fig6-build-n",
        "Construction time vs n (Fig. 6s,t)",
        &["dataset", "n", "K", "UET", "UAT", "BSL1", "BSL2", "BSL3", "BSL4"],
    );
    for ds in build_datasets() {
        let full = ctx.generate(ds);
        let s = ctx.default_s(ds);
        for n in ctx.n_sweep(ds) {
            let ws = WeightedString::new(full.text()[..n].to_vec(), full.weights()[..n].to_vec())
                .expect("prefix slicing preserves lengths");
            let k = ctx.default_k(ds, n);
            let mut cells = vec![ds.spec().name.to_string(), n.to_string(), k.to_string()];
            for method in Method::lineup(s) {
                let built = build_method(method, &ws, k, ctx.seed);
                cells.push(fmt_duration(built.build_time));
            }
            report.row(&cells);
        }
    }
    vec![report]
}
