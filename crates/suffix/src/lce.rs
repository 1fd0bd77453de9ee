//! Longest-common-extension (LCE) oracles.
//!
//! `lce(i, j)` is the length of the longest common prefix of the suffixes
//! `S[i..]` and `S[j..]`. Approximate-Top-K (paper, Section VI) drives all
//! of its suffix comparisons through such an oracle; the paper uses
//! Prezza's in-place structure (`O(1)` extra space, `polylog` query).
//!
//! We substitute a pluggable trait with three backends, all answering
//! the same `lce(i, j)`:
//!
//! * [`NaiveLce`] — `O(1)` space, `O(lce)` query: the right default for
//!   texts without pathological repeats;
//! * [`FingerprintLce`] — Karp–Rabin prefix table (`O(n)` space shared
//!   with the index) + exponential/binary search, `O(log n)` query,
//!   correct w.h.p.;
//! * [`RmqLce`] — SA + rank + LCP + sparse-table RMQ, `O(1)` query,
//!   `O(n log n)` space: the fastest when the structures already exist.

use crate::lcp::{lcp_array, rank_array};
use crate::rmq::SparseTableRmq;
use crate::sais::suffix_array;
use usi_strings::{FingerprintTable, Fingerprinter, HeapSize};

/// An oracle answering longest-common-extension queries on a fixed text.
pub trait LceOracle {
    /// Length of the text the oracle covers.
    fn text_len(&self) -> usize;

    /// Length of the longest common prefix of `S[i..]` and `S[j..]`.
    fn lce(&self, i: usize, j: usize) -> usize;

    /// Compares the suffixes `S[i..]` and `S[j..]` lexicographically,
    /// using one LCE query plus one letter comparison.
    fn compare_suffixes(&self, text: &[u8], i: usize, j: usize) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        if i == j {
            return Ordering::Equal;
        }
        let l = self.lce(i, j);
        let (ri, rj) = (i + l, j + l);
        match (ri >= text.len(), rj >= text.len()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less, // shorter suffix is a prefix
            (false, true) => Ordering::Greater,
            (false, false) => text[ri].cmp(&text[rj]),
        }
    }
}

/// Which LCE backend to use; plumbed through `ApproximateTopK` options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LceBackend {
    /// Scan letters directly.
    #[default]
    Naive,
    /// Karp–Rabin fingerprint binary search.
    Fingerprint,
    /// Range-minimum over the LCP array.
    Rmq,
}

/// Letter-by-letter scanning oracle. Zero extra space.
#[derive(Debug, Clone)]
pub struct NaiveLce<'t> {
    text: &'t [u8],
}

impl<'t> NaiveLce<'t> {
    /// Wraps a text.
    pub fn new(text: &'t [u8]) -> Self {
        Self { text }
    }
}

impl LceOracle for NaiveLce<'_> {
    fn text_len(&self) -> usize {
        self.text.len()
    }

    fn lce(&self, i: usize, j: usize) -> usize {
        let n = self.text.len();
        debug_assert!(i <= n && j <= n);
        if i == j {
            return n - i;
        }
        let mut l = 0usize;
        while i + l < n && j + l < n && self.text[i + l] == self.text[j + l] {
            l += 1;
        }
        l
    }
}

/// Karp–Rabin oracle: binary search for the longest equal-fingerprint
/// prefix. Correct with high probability (collision odds `≤ n²·log n / p`
/// with `p = 2^61 − 1`).
#[derive(Debug, Clone)]
pub struct FingerprintLce {
    table: FingerprintTable,
}

impl FingerprintLce {
    /// Builds the `O(n)` prefix table for `text`.
    pub fn new(text: &[u8], fingerprinter: Fingerprinter) -> Self {
        Self { table: fingerprinter.table(text) }
    }

    /// Reuses an existing prefix table (shared with the USI index).
    pub fn from_table(table: FingerprintTable) -> Self {
        Self { table }
    }
}

impl LceOracle for FingerprintLce {
    fn text_len(&self) -> usize {
        self.table.len()
    }

    fn lce(&self, i: usize, j: usize) -> usize {
        let n = self.table.len();
        debug_assert!(i <= n && j <= n);
        if i == j {
            return n - i;
        }
        let max = (n - i).min(n - j);
        // Invariant: prefix of length `lo` matches, `hi + 1` does not.
        if max == 0 || self.table.substring(i, i + 1) != self.table.substring(j, j + 1) {
            return 0;
        }
        let (mut lo, mut hi) = (1usize, max);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if self.table.substring(i, i + mid) == self.table.substring(j, j + mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }
}

impl HeapSize for FingerprintLce {
    fn heap_bytes(&self) -> usize {
        self.table.heap_bytes()
    }
}

/// SA/LCP/RMQ oracle: `lce(i, j)` is the minimum of the LCP array between
/// the ranks of the two suffixes. `O(1)` query after `O(n log n)` setup.
#[derive(Debug, Clone)]
pub struct RmqLce {
    rank: Vec<u32>,
    rmq: SparseTableRmq,
    text_len: usize,
}

impl RmqLce {
    /// Builds SA, LCP and the sparse table from scratch.
    pub fn new(text: &[u8]) -> Self {
        let sa = suffix_array(text);
        let lcp = lcp_array(text, &sa);
        Self::from_parts(text.len(), &sa, &lcp)
    }

    /// Builds from precomputed SA and LCP arrays (shared with the index).
    pub fn from_parts(text_len: usize, sa: &[u32], lcp: &[u32]) -> Self {
        Self { rank: rank_array(sa), rmq: SparseTableRmq::new(lcp), text_len }
    }
}

impl LceOracle for RmqLce {
    fn text_len(&self) -> usize {
        self.text_len
    }

    fn lce(&self, i: usize, j: usize) -> usize {
        let n = self.text_len;
        debug_assert!(i <= n && j <= n);
        if i == j {
            return n - i;
        }
        if i == n || j == n {
            return 0;
        }
        let (mut a, mut b) = (self.rank[i] as usize, self.rank[j] as usize);
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        self.rmq.min(a + 1, b + 1) as usize
    }
}

impl HeapSize for RmqLce {
    fn heap_bytes(&self) -> usize {
        self.rank.heap_bytes() + self.rmq.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::lce_naive;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check_all(text: &[u8]) {
        let naive = NaiveLce::new(text);
        let fp = FingerprintLce::new(text, Fingerprinter::with_base(0xACE));
        let rmq = RmqLce::new(text);
        let n = text.len();
        for i in 0..=n {
            for j in 0..=n {
                let want = if i == j {
                    n - i
                } else if i == n || j == n {
                    0
                } else {
                    lce_naive(text, i, j)
                };
                assert_eq!(naive.lce(i, j), want, "naive {i},{j} on {text:?}");
                assert_eq!(fp.lce(i, j), want, "fp {i},{j} on {text:?}");
                assert_eq!(rmq.lce(i, j), want, "rmq {i},{j} on {text:?}");
            }
        }
    }

    #[test]
    fn fixtures() {
        check_all(b"");
        check_all(b"a");
        check_all(b"aaaaaaa");
        check_all(b"banana");
        check_all(b"abcabcabc");
        check_all(b"mississippi");
    }

    #[test]
    fn random_texts() {
        let mut rng = StdRng::seed_from_u64(11);
        for sigma in [2usize, 4] {
            for len in [10usize, 60] {
                let text: Vec<u8> =
                    (0..len).map(|_| b'a' + rng.gen_range(0..sigma) as u8).collect();
                check_all(&text);
            }
        }
    }

    #[test]
    fn compare_suffixes_orders_like_slices() {
        use std::cmp::Ordering;
        let text = b"abaabab";
        let oracle = RmqLce::new(text);
        for i in 0..text.len() {
            for j in 0..text.len() {
                let want = text[i..].cmp(&text[j..]);
                assert_eq!(oracle.compare_suffixes(text, i, j), want, "{i} {j}");
            }
        }
        assert_eq!(NaiveLce::new(text).compare_suffixes(text, 2, 2), Ordering::Equal);
    }
}
