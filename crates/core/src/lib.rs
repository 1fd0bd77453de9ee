//! Useful String Indexing (USI) — the core of the reproduction of
//! Bernardini et al., *Indexing Strings with Utilities*, ICDE 2025.
//!
//! Given a weighted string `(S, w)` and a global utility function
//! `U ∈ 𝒰`, the [`UsiIndex`] answers `U(P)` queries in `O(m + τ_K)`
//! using `O(n + K)` space (Theorem 1):
//!
//! * the global utilities of the **top-K frequent substrings** are
//!   precomputed into a hash table keyed by Karp–Rabin fingerprints
//!   (query `O(m)`);
//! * every other pattern is located in the suffix array and aggregated on
//!   the fly through the prefix-sum array `PSW` (query `O(m + τ_K)`).
//!
//! Module map:
//!
//! * [`topk`] — shared top-K substring representations;
//! * [`oracle`] — the linear-space data structure of Section V, `Q`
//!   indexed by frequency: Exact-Top-K (phase (i) of every exact build)
//!   and parameter tuning;
//! * [`approx`] — the space-efficient Approximate-Top-K sampler of
//!   Section VI;
//! * [`index`] / [`builder`] — the `USI_TOP-K` data structure of
//!   Section IV;
//! * [`metrics`] — Accuracy, Relative Error and NDCG (Section IX-B);
//! * [`merge`] — the shared semantics for combining per-part answers
//!   (the server's cross-document fan-out, the ingestion layer's
//!   per-segment results);
//! * [`storage`] / [`persist`] — the byte-stable `.usix` format and the
//!   zero-copy storage views every load answers from, over a file
//!   mapping ([`persist::open_mmap`]) or heap bytes
//!   ([`UsiIndex::read_from`]);
//! * [`engine`] — the [`QueryEngine`] trait every backend (frozen,
//!   segmented-ingest, replicated, remote) implements, so consumers
//!   dispatch without knowing the concrete type.

pub mod approx;
pub mod builder;
pub mod engine;
pub mod index;
pub mod merge;
pub mod metrics;
pub mod oracle;
pub mod persist;
pub mod storage;
#[cfg(test)]
#[path = "../../ingest/tests/temp_dir/mod.rs"]
mod temp_dir;
pub mod topk;

pub use approx::{approximate_top_k, ApproxConfig, ApproxResult};
pub use builder::{TopKStrategy, UsiBuilder};
pub use engine::QueryEngine;
pub use index::{BuildStats, QuerySource, UsiIndex, UsiQuery};
pub use merge::{merge_accumulators, merged_total};
pub use oracle::{exact_top_k, TopKOracle, TradeoffPoint};
pub use persist::{open_mmap, PersistError};
pub use storage::{IndexStorage, SaRef, WeightsRef};
pub use topk::{SubstringRef, TopKEstimate, TopKSubstring};
