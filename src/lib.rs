//! # usi — Useful String Indexing
//!
//! A from-scratch Rust implementation of **“Indexing Strings with
//! Utilities”** (Bernardini, Chen, Conte, Grossi, Guerrini, Loukides,
//! Pisanti, Pissis — ICDE 2025): index a string whose positions carry
//! numerical *utilities* so that the global utility `U(P)` of any query
//! pattern `P` — aggregated over **all** of its occurrences — is
//! answered in `O(|P| + τ_K)` time from an `O(n + K)`-space structure.
//!
//! ## Quick start
//!
//! ```
//! use usi::prelude::*;
//!
//! // a text whose positions carry utilities (e.g. confidence scores)
//! let ws = WeightedString::new(
//!     b"ATACCCCGATAATACCCCAG".to_vec(),
//!     vec![0.9, 1.0, 3.0, 2.0, 0.7, 1.0, 1.0, 0.6, 0.5, 0.5,
//!          0.5, 0.8, 1.0, 1.0, 1.0, 0.9, 1.0, 1.0, 0.8, 1.0],
//! ).unwrap();
//!
//! // index it: top-K frequent substrings get precomputed utilities
//! let index = UsiBuilder::new().with_k(8).deterministic(42).build(ws);
//!
//! // Example 1 of the paper: U("TACCCC") = 8.7 + 5.9 = 14.6
//! let q = index.query(b"TACCCC");
//! assert_eq!(q.occurrences, 2);
//! assert!((q.value.unwrap() - 14.6).abs() < 1e-9);
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`usi_strings`] | weighted strings, Karp–Rabin fingerprints, utility functions, `PSW` |
//! | [`usi_suffix`] | SA-IS, LCP, RMQ, LCE oracles, lcp-intervals, sparse suffix arrays |
//! | [`usi_core`] | the top-K oracle and phase-(i) selection, Exact/Approximate-Top-K, the `USI_TOP-K` index, metrics |
//! | [`usi_streams`] | Misra–Gries, SpaceSaving, count-min, HeavyKeeper, SubstringHK, Top-K Trie |
//! | [`usi_baselines`] | the BSL1–BSL4 query baselines |
//! | [`usi_datasets`] | synthetic corpora, utility generators, `W1`/`W2,p` workloads |
//! | [`usi_ingest`] | WAL-durable append-log ingestion: sealed segments, tiered compaction |
//! | [`usi_server`] | sharded multi-index catalog, batch queries, HTTP serving layer |
//! | [`usi_repl`] | log-shipping replication: WAL shipper, followers, remote fan-out backend |
//!
//! The table above is the paper-to-module map; `experiments list` (the
//! `usi_bench` binary) maps each reproduced table and figure to the
//! experiment that regenerates it.

pub use usi_baselines as baselines;
pub use usi_core as core;
pub use usi_datasets as datasets;
pub use usi_ingest as ingest;
pub use usi_obs as obs;
pub use usi_repl as repl;
pub use usi_server as server;
pub use usi_streams as streams;
pub use usi_strings as strings;
pub use usi_suffix as suffix;

/// The most common imports in one place.
pub mod prelude {
    pub use usi_core::{
        approximate_top_k, exact_top_k, ApproxConfig, QuerySource, TopKOracle, TopKStrategy,
        UsiBuilder, UsiIndex, UsiQuery,
    };
    pub use usi_ingest::{IngestConfig, IngestIndex, IngestOptions, IngestPipeline};
    pub use usi_server::{Catalog, ServerConfig};
    pub use usi_strings::{GlobalAggregator, GlobalUtility, WeightedString};
    pub use usi_suffix::LceBackend;
}
