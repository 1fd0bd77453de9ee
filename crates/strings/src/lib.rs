//! String primitives for Useful String Indexing (USI).
//!
//! This crate provides the substrate types that every other `usi-*` crate
//! builds on:
//!
//! * [`WeightedString`] — a text `S` paired with a per-position utility
//!   `w[i]`, the paper's "weighted string" `(S, w)`;
//! * [`Alphabet`] — a compaction of arbitrary byte alphabets onto `[0, σ)`;
//! * [`fingerprint`] — Karp–Rabin fingerprints over the Mersenne prime
//!   `2^61 − 1`, including `O(1)`-per-step rolling windows and an `O(n)`
//!   prefix table answering substring fingerprints in `O(1)`;
//! * [`Psw`] — the prefix-sum-of-weights array implementing the
//!   sliding-window local utility `u(i, ℓ)` in `O(1)`;
//! * [`utility`] — the class `𝒰` of global utility functions (sum / min /
//!   max / avg / count of local utilities);
//! * [`hash`] — a fast non-cryptographic hasher for the fingerprint-keyed
//!   hash table `H`.
//!
//! Everything is implemented from scratch; no external index crates.

pub mod fingerprint;
pub mod hash;
pub mod psw;
pub mod text;
pub mod utility;
pub mod weighted;

pub use fingerprint::{Fingerprint, FingerprintTable, Fingerprinter, RollingWindow};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use psw::{LocalIndex, LocalWindow, Psw};
pub use text::Alphabet;
pub use utility::{GlobalAggregator, GlobalUtility, UtilityAccumulator};
pub use weighted::WeightedString;

/// Size accounting used across the workspace instead of `mallinfo2`.
///
/// Every index structure reports the heap bytes it owns; the experiment
/// harness sums these to reproduce the paper's index-size and peak-memory
/// plots deterministically.
pub trait HeapSize {
    /// Number of heap-allocated bytes owned by `self` (excluding inline
    /// struct fields, which are negligible for the structures we measure).
    fn heap_bytes(&self) -> usize;
}

impl<T: Copy> HeapSize for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }
}

impl<T: Copy> HeapSize for Box<[T]> {
    fn heap_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }
}
