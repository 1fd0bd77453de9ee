//! Experiment harness regenerating every table and figure of the USI
//! paper (Bernardini et al., ICDE 2025), plus shared plumbing for the
//! Criterion micro-benchmarks.
//!
//! Run `cargo run -p usi_bench --release --bin experiments -- list` for
//! the experiment catalogue; each experiment prints paper-shaped rows to
//! stdout and writes a TSV under `reports/`. `list` also names the paper
//! artifact each experiment id regenerates.

pub mod context;
pub mod experiments;
pub mod miners;
pub mod report;

pub use context::{scaled_k_sweep, ExperimentContext};
pub use miners::{run_miner, MinerKind, MinerRun};
pub use report::Report;
