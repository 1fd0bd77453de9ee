//! Kasai's linear-time LCP array construction.
//!
//! `LCP[0] = 0` and, for `j > 0`, `LCP[j]` is the length of the longest
//! common prefix of the suffixes starting at `SA[j−1]` and `SA[j]`
//! (paper, Section III, \[30\]).

/// Computes the LCP array of `text` given its suffix array, in `O(n)`.
///
/// ```
/// use usi_suffix::{suffix_array, lcp_array};
/// let text = b"banana";
/// let sa = suffix_array(text);
/// assert_eq!(lcp_array(text, &sa), vec![0, 1, 3, 0, 0, 2]);
/// ```
pub fn lcp_array(text: &[u8], sa: &[u32]) -> Vec<u32> {
    let n = text.len();
    assert_eq!(sa.len(), n, "suffix array length must match text length");
    let mut lcp = vec![0u32; n];
    if n == 0 {
        return lcp;
    }
    // rank[i] = position of suffix i in the suffix array
    let rank = rank_array(sa);
    let mut h = 0usize;
    for i in 0..n {
        let r = rank[i] as usize;
        if r > 0 {
            let j = sa[r - 1] as usize;
            while i + h < n && j + h < n && text[i + h] == text[j + h] {
                h += 1;
            }
            lcp[r] = h as u32;
            h = h.saturating_sub(1);
        } else {
            h = 0;
        }
    }
    lcp
}

/// [`lcp_array`], whatever `threads` is: a blockwise parallel Kasai
/// won nothing over the serial pass on two cores and lost on repetitive
/// text. Kept for callers that still pass a thread count.
pub fn lcp_array_threads(text: &[u8], sa: &[u32], _threads: usize) -> Vec<u32> {
    lcp_array(text, sa)
}

/// Computes the rank (inverse suffix array): `rank[sa[i]] = i`.
pub fn rank_array(sa: &[u32]) -> Vec<u32> {
    let mut rank = vec![0u32; sa.len()];
    for (r, &p) in sa.iter().enumerate() {
        rank[p as usize] = r as u32;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{lcp_array_naive, suffix_array_naive};
    use crate::sais::suffix_array;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check(text: &[u8]) {
        let sa = suffix_array(text);
        assert_eq!(lcp_array(text, &sa), lcp_array_naive(text, &sa), "text {text:?}");
    }

    #[test]
    fn fixtures() {
        check(b"");
        check(b"a");
        check(b"aaaa");
        check(b"banana");
        check(b"mississippi");
        check(&b"ab".repeat(20));
    }

    #[test]
    fn random_texts() {
        let mut rng = StdRng::seed_from_u64(99);
        for sigma in [2usize, 4, 26] {
            for len in [5usize, 64, 500] {
                let text: Vec<u8> =
                    (0..len).map(|_| b'a' + rng.gen_range(0..sigma) as u8).collect();
                check(&text);
            }
        }
    }

    #[test]
    fn rank_is_inverse() {
        let text = b"abracadabra";
        let sa = suffix_array_naive(text);
        let rank = rank_array(&sa);
        for (r, &p) in sa.iter().enumerate() {
            assert_eq!(rank[p as usize] as usize, r);
        }
    }
}
