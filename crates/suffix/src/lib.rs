//! Suffix structures for Useful String Indexing.
//!
//! The paper's data structures are stated over the suffix tree `ST(S)`;
//! following standard practice (and the paper's own storage of ST leaves
//! as `SA(S)`), this crate provides the *enhanced suffix array* toolkit
//! that simulates every suffix-tree operation USI needs:
//!
//! * [`sais`] — linear-time suffix array construction (SA-IS, laid out
//!   like sais-lite: the text read in place, the recursion inside the
//!   result's buffer), serial: on two cores it beat both a block-sharded
//!   parallel sort and SA-IS with threaded classify and histogram
//!   phases, so neither is kept;
//! * [`lcp`] — the linear-time LCP array through the permuted LCP
//!   array (Φ), serial: a blockwise parallel Kasai won nothing on two
//!   cores;
//! * [`rmq`] — sparse-table range-minimum queries;
//! * [`lce`] — longest-common-extension oracles (naive / Karp–Rabin /
//!   RMQ-based), the substitute for Prezza's in-place LCE structure;
//! * [`esa`] — bottom-up lcp-interval enumeration (Abouelhoda et al.,
//!   Algorithm 4.4): the explicit suffix-tree nodes with frequencies;
//! * [`search`] — pattern location over the suffix array: one
//!   equal-range binary search, `O(m log n)`. The suffix tree's `O(m)`
//!   descent, simulated over an lcp-interval tree, lost to it on 3 of
//!   the 4 dataset profiles, so it is not kept;
//! * [`sparse`] — sparse suffix/LCP arrays over sampled positions, built
//!   with LCE comparisons (Section VI, Step 2);
//! * [`naive`] — quadratic reference implementations used by tests.

pub mod esa;
pub mod lce;
pub mod lcp;
pub mod naive;
pub mod rmq;
pub mod sais;
pub mod search;
pub mod sparse;

pub use esa::{lcp_intervals, visit_lcp_intervals, LcpInterval};
pub use lce::{FingerprintLce, LceBackend, LceOracle, NaiveLce, RmqLce};
pub use lcp::{lcp_array, lcp_array_threads};
pub use rmq::SparseTableRmq;
pub use sais::{suffix_array, suffix_array_ints, suffix_array_threads};
pub use search::{SaAccess, SuffixArraySearcher};
pub use sparse::{sparse_suffix_array, SparseIndex};
