//! Pattern location over the suffix array.
//!
//! The paper answers infrequent queries by finding `occ_S(P)` with the
//! suffix tree in `O(m + occ)`; we locate the suffix-array interval with
//! one equal-range binary search in `O(m log n)` and read the
//! occurrences off `SA[lb..rb]`, the same set the suffix-tree node's
//! leaves hold. The locator stays `O(m log n)` on purpose: an `O(m)`
//! descent of the lcp-interval tree (the suffix-tree search itself) lost
//! to it on 3 of the 4 dataset profiles (HUM, XML, ADV; 1 Mi letters,
//! 8–32-letter text fragments) and took about 0.5 s to build per
//! document.

use std::cmp::Ordering;

/// Read access to a suffix array, however its ranks are stored.
///
/// The canonical backing is a `&[u32]` slice; storage-backed indexes
/// (e.g. a memory-mapped `.usix` file whose suffix-array section is not
/// 4-byte aligned) implement this over raw little-endian bytes instead,
/// decoding one rank per access.
pub trait SaAccess {
    /// Number of ranks (`n`).
    fn len(&self) -> usize;

    /// The suffix start position at `rank`.
    ///
    /// # Panics
    /// Panics if `rank >= len()`.
    fn at(&self, rank: usize) -> u32;

    /// Whether the array is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl SaAccess for &[u32] {
    #[inline]
    fn len(&self) -> usize {
        <[u32]>::len(self)
    }

    #[inline]
    fn at(&self, rank: usize) -> u32 {
        self[rank]
    }
}

/// Searches patterns in a text through its suffix array.
///
/// Generic over the suffix array's backing via [`SaAccess`]; the
/// default is a borrowed `&[u32]` slice (constructed with
/// [`SuffixArraySearcher::new`]), and storage views plug in through
/// [`SuffixArraySearcher::with_access`].
///
/// ```
/// use usi_suffix::{suffix_array, SuffixArraySearcher};
/// let text = b"banana";
/// let sa = suffix_array(text);
/// let s = SuffixArraySearcher::new(text, &sa);
/// let range = s.interval(b"ana").unwrap();
/// let mut occ: Vec<u32> = s.occurrences(b"ana").to_vec();
/// occ.sort_unstable();
/// assert_eq!(occ, vec![1, 3]);
/// assert_eq!(range.len(), 2);
/// assert!(s.interval(b"nab").is_none());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SuffixArraySearcher<'a, A: SaAccess = &'a [u32]> {
    text: &'a [u8],
    sa: A,
}

impl<'a> SuffixArraySearcher<'a> {
    /// Wraps a text and its suffix array (borrowed; the searcher is a
    /// lightweight view).
    pub fn new(text: &'a [u8], sa: &'a [u32]) -> Self {
        Self::with_access(text, sa)
    }

    /// The underlying suffix array.
    #[inline]
    pub fn suffix_array(&self) -> &'a [u32] {
        self.sa
    }

    /// The starting positions of `pattern` in the text, as the slice
    /// `SA[lb..rb]` (unsorted: suffix-array order). Empty if absent.
    pub fn occurrences(&self, pattern: &[u8]) -> &'a [u32] {
        match self.interval(pattern) {
            Some(r) => &self.sa[r],
            None => &[],
        }
    }
}

impl<'a, A: SaAccess> SuffixArraySearcher<'a, A> {
    /// Wraps a text and any [`SaAccess`] backing of its suffix array.
    pub fn with_access(text: &'a [u8], sa: A) -> Self {
        debug_assert_eq!(text.len(), sa.len());
        Self { text, sa }
    }

    /// The underlying text.
    #[inline]
    pub fn text(&self) -> &'a [u8] {
        self.text
    }

    /// The suffix-array backing.
    #[inline]
    pub fn access(&self) -> &A {
        &self.sa
    }

    /// Compares the length-`|pattern|` prefix of the suffix at `pos`
    /// against `pattern`; a shorter suffix that is a prefix of `pattern`
    /// compares `Less`.
    #[inline]
    fn cmp_prefix(&self, pos: u32, pattern: &[u8]) -> Ordering {
        let start = pos as usize;
        let end = (start + pattern.len()).min(self.text.len());
        self.text[start..end].cmp(pattern)
    }

    /// Suffix-array interval `lb..rb` (half-open ranks) of all suffixes
    /// with `pattern` as prefix, or `None` if the pattern does not occur.
    /// The empty pattern matches everywhere. `O(m log n)`.
    ///
    /// One equal-range search: the descent halves `lo..hi` until the
    /// suffix at `mid` matches, then the lower bound is searched in
    /// `lo..mid` and the upper bound in `mid + 1..hi`, the bracket the
    /// descent already set.
    pub fn interval(&self, pattern: &[u8]) -> Option<std::ops::Range<usize>> {
        if pattern.is_empty() {
            return if self.sa.is_empty() { None } else { Some(0..self.sa.len()) };
        }
        let cmp = |rank: usize| self.cmp_prefix(self.sa.at(rank), pattern);
        let (mut lo, mut hi) = (0usize, self.sa.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match cmp(mid) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => {
                    let lb = partition_point(lo, mid, |i| cmp(i) == Ordering::Less);
                    let rb = partition_point(mid + 1, hi, |i| cmp(i) == Ordering::Equal);
                    return Some(lb..rb);
                }
            }
        }
        None
    }

    /// Number of occurrences of `pattern`.
    pub fn count(&self, pattern: &[u8]) -> usize {
        self.interval(pattern).map_or(0, |r| r.len())
    }
}

/// The first index in `lo..hi` at which `pred` fails; `pred` must hold
/// on a prefix of the range and fail on the rest.
fn partition_point(mut lo: usize, mut hi: usize, pred: impl Fn(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::occurrences_naive;
    use crate::sais::suffix_array;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check_pattern(text: &[u8], pattern: &[u8]) {
        let sa = suffix_array(text);
        let s = SuffixArraySearcher::new(text, &sa);
        let mut got: Vec<u32> = s.occurrences(pattern).to_vec();
        got.sort_unstable();
        assert_eq!(got, occurrences_naive(text, pattern), "{text:?} / {pattern:?}");
    }

    #[test]
    fn fixtures() {
        let text = b"abracadabra";
        for pat in [
            &b"a"[..],
            b"ab",
            b"abra",
            b"abracadabra",
            b"bra",
            b"cad",
            b"d",
            b"x",
            b"abx",
            b"raa",
            b"ra",
        ] {
            check_pattern(text, pat);
        }
    }

    #[test]
    fn empty_pattern_matches_all() {
        let text = b"abc";
        let sa = suffix_array(text);
        let s = SuffixArraySearcher::new(text, &sa);
        assert_eq!(s.interval(b""), Some(0..3));
        assert_eq!(s.count(b""), 3);
    }

    #[test]
    fn empty_text() {
        let s = SuffixArraySearcher::new(b"", &[]);
        assert_eq!(s.interval(b""), None);
        assert_eq!(s.interval(b"a"), None);
        assert_eq!(s.count(b"a"), 0);
    }

    #[test]
    fn pattern_longer_than_text() {
        check_pattern(b"ab", b"abc");
    }

    #[test]
    fn overlapping_occurrences() {
        check_pattern(b"aaaaaa", b"aa");
        check_pattern(b"aaaaaa", b"aaa");
    }

    #[test]
    fn unary_and_periodic() {
        check_pattern(b"aaaaaa", b"aa");
        check_pattern(b"aaaaaa", b"aaaaaa");
        check_pattern(&b"ab".repeat(30), b"abab");
        check_pattern(&b"abc".repeat(20), b"cabc");
    }

    #[test]
    fn random_cross_check() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..30 {
            let n = rng.gen_range(1..200);
            let text: Vec<u8> = (0..n).map(|_| b'a' + rng.gen_range(0..3u8)).collect();
            for _ in 0..20 {
                let m = rng.gen_range(1..8usize);
                let pat: Vec<u8> = (0..m).map(|_| b'a' + rng.gen_range(0..3u8)).collect();
                check_pattern(&text, &pat);
            }
            // also existing substrings
            for _ in 0..10 {
                let i = rng.gen_range(0..text.len());
                let m = rng.gen_range(1..=(text.len() - i).min(10));
                let pat = text[i..i + m].to_vec();
                check_pattern(&text, &pat);
            }
        }
    }
}
