//! Query-time baselines BSL1–BSL4 (paper, Section IX-C).
//!
//! No prior system solves USI, so the paper compares `USI_TOP-K` against
//! four nontrivial baselines. All four answer queries *exactly* — they
//! share the suffix-array + `PSW` substrate — and differ only in which
//! queries they can serve from a cache:
//!
//! * [`Bsl1`] — no caching: every query walks the suffix array
//!   (the "Why is USI challenging?" strawman from Section I);
//! * [`Bsl2`] — LRU: caches the `K` most *recently* queried patterns;
//! * [`Bsl3`] — Top-K-seen-so-far: caches the `K` most *frequently*
//!   queried patterns, with exact query counts in a min-heap + hash map;
//! * [`Bsl4`] — space-efficient Top-K-seen-so-far: like BSL3 but tracks
//!   query counts with a count-min sketch (as in HeavyKeeper \[24\]).
//!
//! The contrast with `USI_TOP-K` is what Fig. 6 measures: caching *query
//! history* cannot beat caching the substrings that are frequent *in the
//! text*, because those are exactly the queries whose on-the-fly
//! aggregation is slow.

pub mod bsl1;
pub mod bsl2;
pub mod bsl3;
pub mod bsl4;
pub mod common;
pub mod lru;

pub use bsl1::Bsl1;
pub use bsl2::Bsl2;
pub use bsl3::Bsl3;
pub use bsl4::Bsl4;
pub use common::{BaselineAnswer, QueryBaseline, TextBackend};
pub use lru::LruCache;
