//! The LCP array, through the permuted LCP array (Φ).
//!
//! `LCP[0] = 0` and, for `j > 0`, `LCP[j]` is the length of the longest
//! common prefix of the suffixes starting at `SA[j−1]` and `SA[j]`
//! (paper, Section III, \[30\]).
//!
//! The construction is the Φ algorithm of Kärkkäinen, Manzini and
//! Puglisi ("Permuted Longest-Common-Prefix Array", CPM 2009). It
//! computes the same array as Kasai et al.'s algorithm, but fills it in
//! text order instead of reading the suffix array at random: first
//! `Φ[SA[r]] = SA[r−1]`, then `PLCP[i] = lcp(i, Φ[i])` for `i = 0, 1, …`
//! in the same buffer (each value is at least its predecessor minus
//! one), and last `LCP[r] = PLCP[SA[r]]`.

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
    if n == 0 {
        return Vec::new();
    }
    // Φ: each suffix's predecessor in SA order; the smallest suffix has
    // none, and `n` points past the text so that it matches nothing.
    let mut plcp = vec![0u32; n];
    plcp[sa[0] as usize] = u32::try_from(n).expect("texts have fewer than 2^32 letters");
    for pair in sa.windows(2) {
        plcp[pair[1] as usize] = pair[0];
    }
    // PLCP in text order, over Φ in place. `h` starts at the previous
    // value minus one, a lower bound; it is already 0 on reaching the
    // smallest suffix.
    let mut h = 0usize;
    for i in 0..n {
        let j = plcp[i] as usize;
        h += text[i + h..].iter().zip(&text[j + h..]).take_while(|(a, b)| a == b).count();
        plcp[i] = h as u32;
        h = h.saturating_sub(1);
    }
    sa.iter().map(|&p| plcp[p as usize]).collect()
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
