//! Suffix structures for Useful String Indexing.
//!
//! The paper's data structures are stated over the suffix tree `ST(S)`;
//! following standard practice (and the paper's own storage of ST leaves
//! as `SA(S)`), this crate provides the *enhanced suffix array* toolkit
//! that simulates every suffix-tree operation USI needs:
//!
//! * [`sais`] — linear-time suffix array construction (SA-IS), with the
//!   top-level classification/bucket phases optionally chunked over
//!   scoped threads;
//! * [`parallel`] — block-sharded parallel suffix-array construction
//!   (per-block seed sort + doubling merge) behind a thread-count-aware
//!   policy entry point;
//! * [`lcp`] — Kasai's linear-time LCP array, serial or blockwise
//!   parallel;
//! * [`rmq`] — sparse-table range-minimum queries;
//! * [`lce`] — longest-common-extension oracles (naive / Karp–Rabin /
//!   RMQ-based), the substitute for Prezza's in-place LCE structure;
//! * [`esa`] — bottom-up lcp-interval enumeration (Abouelhoda et al.,
//!   Algorithm 4.4): the explicit suffix-tree nodes with frequencies;
//! * [`search`] — pattern location over the suffix array;
//! * [`sparse`] — sparse suffix/LCP arrays over sampled positions, built
//!   with LCE comparisons (Section VI, Step 2);
//! * [`naive`] — quadratic reference implementations used by tests.

pub mod esa;
pub mod interval_tree;
pub mod lce;
pub mod lcp;
pub mod naive;
pub mod parallel;
pub mod rmq;
pub mod sais;
pub mod search;
pub mod sparse;

pub use esa::{lcp_intervals, LcpInterval};
pub use interval_tree::EsaSearcher;
pub use lce::{FingerprintLce, LceBackend, LceOracle, NaiveLce, RmqLce};
pub use lcp::{lcp_array, lcp_array_threads};
pub use parallel::{suffix_array_sharded, suffix_array_threads};
pub use rmq::SparseTableRmq;
pub use sais::{suffix_array, suffix_array_induced_threads, suffix_array_ints};
pub use search::{SaAccess, SuffixArraySearcher};
pub use sparse::{sparse_suffix_array, SparseIndex};
