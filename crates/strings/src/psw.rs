//! The prefix-sum-of-weights array `PSW` (paper, Sections I and IV).
//!
//! `PSW[i] = u(0, i+1) = w[0] + … + w[i]`. Thanks to the sliding-window
//! property of the windowed-sum local utility, the local utility of any
//! fragment is a difference of two prefix sums:
//! `u(i, ℓ) = PSW[i+ℓ−1] − PSW[i−1]`.
//!
//! [`Psw`] and [`LocalIndex`] keep the dense array, one `f64` per
//! letter: construction reads it (phase (ii)), and so do the baselines.
//! A built or loaded `usi_core::UsiIndex` keeps only every 8th sum of a
//! sum index ([`LocalIndex::prefix_sums`]) and adds up the rest of a
//! block on demand, in this array's order, so its values are the same
//! bits.

use crate::HeapSize;

/// Prefix sums of the weight array, answering the local utility
/// `u(i, ℓ)` of any fragment in `O(1)`.
///
/// Internally stores `n + 1` sums with a leading 0 so that no boundary
/// branch is needed: `local(i, ℓ) = sums[i + ℓ] − sums[i]`.
///
/// ```
/// use usi_strings::Psw;
/// let psw = Psw::new(&[0.9, 1.0, 3.0, 2.0]);
/// assert_eq!(psw.local(0, 4), 6.9);
/// assert_eq!(psw.local(1, 2), 4.0);
/// assert_eq!(psw.local(3, 1), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Psw {
    /// `sums[i]` = Σ w[0..i); length `n + 1`.
    sums: Vec<f64>,
}

impl Psw {
    /// Builds the array with a single scan (construction phase (iii)).
    pub fn new(weights: &[f64]) -> Self {
        Self::from_weights(weights.iter().copied())
    }

    /// Iterator variant of [`Psw::new`], for weight sequences that have
    /// no contiguous `&[f64]` to borrow (e.g. the little-endian weight
    /// section of a memory-mapped index file). Accumulates in the same
    /// order, so the resulting sums are bit-identical to the slice path.
    pub fn from_weights(weights: impl IntoIterator<Item = f64>) -> Self {
        let weights = weights.into_iter();
        let mut sums = Vec::with_capacity(weights.size_hint().0 + 1);
        let mut acc = 0.0f64;
        sums.push(acc);
        for w in weights {
            acc += w;
            sums.push(acc);
        }
        Self { sums }
    }

    /// Number of positions covered (`n`).
    #[inline]
    pub fn len(&self) -> usize {
        self.sums.len() - 1
    }

    /// Whether the weight array was empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Local utility `u(i, len)` of the fragment starting at `i`, i.e. the
    /// sum of its weights. `len` may be 0 (yields 0.0).
    ///
    /// # Panics
    /// Panics (in debug) if the fragment exceeds the boundary.
    #[inline]
    pub fn local(&self, i: usize, len: usize) -> f64 {
        debug_assert!(i + len < self.sums.len() + 1);
        self.sums[i + len] - self.sums[i]
    }

    /// Total utility of the whole string, `u(0, n)`.
    #[inline]
    pub fn total(&self) -> f64 {
        *self.sums.last().unwrap()
    }
}

impl HeapSize for Psw {
    fn heap_bytes(&self) -> usize {
        self.sums.heap_bytes()
    }
}

/// Which sliding-window local utility function `u(i, ℓ)` aggregates the
/// weights of a fragment (paper, Section III: any `u` with the
/// sliding-window property qualifies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LocalWindow {
    /// `u(i, ℓ) = Σ w[i..i+ℓ)` — the paper's default.
    #[default]
    Sum,
    /// `u(i, ℓ) = Π w[i..i+ℓ)` — per-occurrence probabilities; with a
    /// `Sum` global aggregate this yields the *expected frequency* of
    /// the pattern. Requires strictly positive weights.
    Product,
}

impl LocalWindow {
    /// Stable wire tag for persistence.
    pub fn to_tag(self) -> u8 {
        match self {
            Self::Sum => 0,
            Self::Product => 1,
        }
    }

    /// Inverse of [`LocalWindow::to_tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => Self::Sum,
            1 => Self::Product,
            _ => return None,
        })
    }
}

/// `O(1)` local utilities for either window kind: a plain [`Psw`] for
/// sums, or a `PSW` over logarithms for products
/// (`Π w = exp(Σ ln w)`).
///
/// ```
/// use usi_strings::{LocalIndex, LocalWindow};
/// let li = LocalIndex::new(&[0.5, 0.5, 0.8], LocalWindow::Product);
/// assert!((li.local(0, 2) - 0.25).abs() < 1e-12);
/// assert!((li.local(1, 2) - 0.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LocalIndex {
    kind: LocalWindow,
    psw: Psw,
}

impl LocalIndex {
    /// Builds the index.
    ///
    /// # Panics
    /// Panics for `Product` if any weight is not strictly positive —
    /// `ln` would poison the prefix sums (clamp zero probabilities to a
    /// small epsilon upstream if needed).
    pub fn new(weights: &[f64], kind: LocalWindow) -> Self {
        Self::from_weights(weights.iter().copied(), kind)
    }

    /// Iterator variant of [`LocalIndex::new`]; same panics, same
    /// bit-identical prefix sums (the accumulation order is unchanged).
    pub fn from_weights(weights: impl IntoIterator<Item = f64>, kind: LocalWindow) -> Self {
        let psw = match kind {
            LocalWindow::Sum => Psw::from_weights(weights),
            LocalWindow::Product => Psw::from_weights(weights.into_iter().map(|w| {
                assert!(w > 0.0, "product locals require strictly positive weights");
                w.ln()
            })),
        };
        Self { kind, psw }
    }

    /// The window kind.
    pub fn kind(&self) -> LocalWindow {
        self.kind
    }

    /// Number of positions covered.
    pub fn len(&self) -> usize {
        self.psw.len()
    }

    /// Whether the weight array was empty.
    pub fn is_empty(&self) -> bool {
        self.psw.is_empty()
    }

    /// The `n + 1` prefix sums `PSW[0] = 0, …, PSW[n]`: of the weights
    /// for sums, of their logarithms for products. An index that keeps
    /// only some of them (`usi_core` samples every 8th) takes them from
    /// here, so its samples are these very values.
    pub fn prefix_sums(&self) -> &[f64] {
        &self.psw.sums
    }

    /// Local utility `u(i, len)` of the fragment starting at `i`, in
    /// `O(1)`. A zero-length fragment yields the identity (0 for sums,
    /// 1 for products).
    #[inline]
    pub fn local(&self, i: usize, len: usize) -> f64 {
        match self.kind {
            LocalWindow::Sum => self.psw.local(i, len),
            LocalWindow::Product => self.psw.local(i, len).exp(),
        }
    }
}

impl HeapSize for LocalIndex {
    fn heap_bytes(&self) -> usize {
        self.psw.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_local(weights: &[f64], i: usize, len: usize) -> f64 {
        weights[i..i + len].iter().sum()
    }

    #[test]
    fn matches_naive_on_all_fragments() {
        let w = [0.9, 1.0, 3.0, 2.0, 0.7, 1.0, 1.0, 0.6];
        let psw = Psw::new(&w);
        for i in 0..w.len() {
            for len in 0..=(w.len() - i) {
                let got = psw.local(i, len);
                let want = naive_local(&w, i, len);
                assert!((got - want).abs() < 1e-9, "i={i} len={len}");
            }
        }
    }

    #[test]
    fn empty_weights() {
        let psw = Psw::new(&[]);
        assert!(psw.is_empty());
        assert_eq!(psw.total(), 0.0);
        assert_eq!(psw.local(0, 0), 0.0);
    }

    #[test]
    fn paper_example_1() {
        // S = ATACCCCGATAATACCCCAG with the weights from Example 1;
        // P = TACCCC occurs at 1 and 12 with local utilities 8.7 and 5.9.
        let w = [
            0.9, 1.0, 3.0, 2.0, 0.7, 1.0, 1.0, 0.6, 0.5, 0.5, 0.5, 0.8, 1.0, 1.0, 1.0, 0.9, 1.0,
            1.0, 0.8, 1.0,
        ];
        let psw = Psw::new(&w);
        let u1 = psw.local(1, 6);
        let u2 = psw.local(12, 6);
        assert!((u1 - 8.7).abs() < 1e-9);
        assert!((u2 - 5.9).abs() < 1e-9);
        assert!((u1 + u2 - 14.6).abs() < 1e-9); // U(P) from Example 1
    }

    #[test]
    fn local_index_product_matches_naive() {
        let w = [0.9, 0.5, 0.99, 0.7, 1.0, 0.85];
        let li = LocalIndex::new(&w, LocalWindow::Product);
        for i in 0..w.len() {
            for len in 0..=(w.len() - i) {
                let naive: f64 = w[i..i + len].iter().product();
                assert!(
                    (li.local(i, len) - naive).abs() < 1e-9 * naive.max(1.0),
                    "i={i} len={len}"
                );
            }
        }
        assert_eq!(li.kind(), LocalWindow::Product);
    }

    #[test]
    fn local_index_sum_matches_psw() {
        let w = [1.0, -2.0, 3.5];
        let li = LocalIndex::new(&w, LocalWindow::Sum);
        let psw = Psw::new(&w);
        for i in 0..3 {
            assert_eq!(li.local(i, 3 - i), psw.local(i, 3 - i));
        }
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn product_rejects_zero_weights() {
        LocalIndex::new(&[0.5, 0.0], LocalWindow::Product);
    }

    #[test]
    fn local_window_tags_roundtrip() {
        for k in [LocalWindow::Sum, LocalWindow::Product] {
            assert_eq!(LocalWindow::from_tag(k.to_tag()), Some(k));
        }
        assert_eq!(LocalWindow::from_tag(9), None);
    }

    #[test]
    fn negative_weights_supported() {
        // RSSI utilities are negative dBm values before normalization.
        let psw = Psw::new(&[-80.0, -51.0, -89.0]);
        assert_eq!(psw.local(0, 3), -220.0);
        assert_eq!(psw.local(1, 1), -51.0);
    }
}
