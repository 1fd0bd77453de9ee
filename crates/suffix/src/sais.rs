//! Linear-time suffix array construction (SA-IS).
//!
//! Implementation of the induced-sorting algorithm of Nong, Zhang and Chan
//! (DCC 2009), the `O(n)` construction the paper cites for `SA(S)` over
//! integer alphabets. We append an internal sentinel (letter 0 after
//! shifting the alphabet by one) so every recursion level enjoys the
//! unique-smallest-last-character invariant, then drop it from the result.
//!
//! Construction is serial. The induced-sorting sweeps are inherently
//! sequential (every placement depends on earlier placements). Two
//! parallel variants were measured on a 2-vCPU machine, over four 1
//! Mi-letter documents, and dropped. Threading the top-level
//! classification and bucket histogram saved nothing (104–139 ms serial
//! against 112–137 ms). Sharding the sort over text blocks, with
//! prefix-doubling merges, took 1.5–6× longer.

/// Marker for an empty SA slot during induced sorting.
const EMPTY: u32 = u32::MAX;

/// Builds the suffix array of `text`: the permutation `sa` of `[0, n)`
/// such that `sa[i]` is the start of the `i`-th lexicographically smallest
/// suffix. `O(n)` time and `O(n)` words of space.
///
/// ```
/// use usi_suffix::suffix_array;
/// assert_eq!(suffix_array(b"banana"), vec![5, 3, 1, 0, 4, 2]);
/// assert_eq!(suffix_array(b""), Vec::<u32>::new());
/// ```
pub fn suffix_array(text: &[u8]) -> Vec<u32> {
    if text.is_empty() {
        return Vec::new();
    }
    assert!(text.len() < u32::MAX as usize - 1, "texts must fit in u32 index space");
    // Shift the alphabet by one and append the sentinel 0.
    let mut s: Vec<u32> = Vec::with_capacity(text.len() + 1);
    s.extend(text.iter().map(|&b| b as u32 + 1));
    s.push(0);
    let sa = sais(&s, 257);
    // sa[0] is the sentinel suffix; drop it.
    sa[1..].to_vec()
}

/// [`suffix_array`], whatever `threads` is: construction is serial (see
/// the module docs). Kept for callers that still pass a thread count.
///
/// ```
/// use usi_suffix::{suffix_array, suffix_array_threads};
/// let text = b"banana".repeat(30);
/// assert_eq!(suffix_array_threads(&text, 4), suffix_array(&text));
/// ```
pub fn suffix_array_threads(text: &[u8], _threads: usize) -> Vec<u32> {
    suffix_array(text)
}

/// Builds the suffix array of an *integer* string over the alphabet
/// `[0, sigma)` — the paper's general setting `Σ = [0, n^{O(1)})`.
/// Same `O(n + sigma)` algorithm as [`suffix_array`].
///
/// ```
/// use usi_suffix::sais::suffix_array_ints;
/// // 2 0 1 0 — suffixes sorted: [0,...]@1? compare: s=[2,0,1,0]
/// let sa = suffix_array_ints(&[2, 0, 1, 0], 3);
/// assert_eq!(sa, vec![3, 1, 2, 0]);
/// ```
///
/// # Panics
/// Panics if any letter is ≥ `sigma` or `sigma + 1` overflows `u32`.
pub fn suffix_array_ints(text: &[u32], sigma: usize) -> Vec<u32> {
    if text.is_empty() {
        return Vec::new();
    }
    assert!(
        (sigma as u64) < u32::MAX as u64,
        "alphabet too large for the shifted sentinel encoding"
    );
    assert!(text.iter().all(|&c| (c as usize) < sigma), "letter out of the declared alphabet");
    let mut s: Vec<u32> = Vec::with_capacity(text.len() + 1);
    s.extend(text.iter().map(|&c| c + 1));
    s.push(0);
    let sa = sais(&s, sigma + 2);
    sa[1..].to_vec()
}

/// Suffix-type classification: S-type (true) or L-type (false).
fn classify(s: &[u32]) -> Vec<bool> {
    let n = s.len();
    let mut stype = vec![false; n];
    stype[n - 1] = true;
    for i in (0..n - 1).rev() {
        stype[i] = s[i] < s[i + 1] || (s[i] == s[i + 1] && stype[i + 1]);
    }
    stype
}

/// Letter histogram (bucket sizes).
fn histogram(s: &[u32], sigma: usize) -> Vec<u32> {
    let mut bkt = vec![0u32; sigma];
    for &c in s {
        bkt[c as usize] += 1;
    }
    bkt
}

/// SA-IS over an integer string whose last character is the unique
/// smallest (the sentinel invariant). `sigma` bounds the letter values.
fn sais(s: &[u32], sigma: usize) -> Vec<u32> {
    let n = s.len();
    debug_assert!(n >= 1);
    if n == 1 {
        return vec![0];
    }
    if n == 2 {
        // sentinel invariant: s[1] < s[0]
        return vec![1, 0];
    }

    // --- classify suffixes: S-type (true) or L-type (false) ---
    let stype = classify(s);
    let is_lms = |i: usize| i > 0 && stype[i] && !stype[i - 1];

    // --- bucket sizes ---
    let bkt = histogram(s, sigma);
    let bucket_heads = |bkt: &[u32]| {
        let mut heads = vec![0u32; bkt.len()];
        let mut acc = 0u32;
        for (h, &c) in heads.iter_mut().zip(bkt) {
            *h = acc;
            acc += c;
        }
        heads
    };
    let bucket_tails = |bkt: &[u32]| {
        let mut tails = vec![0u32; bkt.len()];
        let mut acc = 0u32;
        for (t, &c) in tails.iter_mut().zip(bkt) {
            acc += c;
            *t = acc;
        }
        tails
    };

    let induce = |sa: &mut [u32]| {
        // Induce L-type suffixes left to right.
        let mut heads = bucket_heads(&bkt);
        for i in 0..n {
            let j = sa[i];
            if j != EMPTY && j > 0 && !stype[j as usize - 1] {
                let c = s[j as usize - 1] as usize;
                sa[heads[c] as usize] = j - 1;
                heads[c] += 1;
            }
        }
        // Induce S-type suffixes right to left.
        let mut tails = bucket_tails(&bkt);
        for i in (0..n).rev() {
            let j = sa[i];
            if j != EMPTY && j > 0 && stype[j as usize - 1] {
                let c = s[j as usize - 1] as usize;
                tails[c] -= 1;
                sa[tails[c] as usize] = j - 1;
            }
        }
    };

    // --- stage 1: approximately sort LMS suffixes by induced sorting ---
    let mut sa = vec![EMPTY; n];
    {
        let mut tails = bucket_tails(&bkt);
        for i in (1..n).rev() {
            if is_lms(i) {
                let c = s[i] as usize;
                tails[c] -= 1;
                sa[tails[c] as usize] = i as u32;
            }
        }
        induce(&mut sa);
    }

    // --- name sorted LMS substrings ---
    // Two LMS positions are ≥ 2 apart, so indexing names by p/2 is injective.
    let mut name_of = vec![EMPTY; n / 2 + 1];
    let mut name: u32 = 0;
    let mut prev: u32 = EMPTY;
    for &p in sa.iter().take(n) {
        if p == EMPTY || !is_lms(p as usize) {
            continue;
        }
        if prev != EMPTY && !lms_substrings_equal(s, &stype, prev as usize, p as usize) {
            name += 1;
        }
        name_of[p as usize / 2] = name;
        prev = p;
    }
    let num_names = name as usize + 1;

    // --- reduced string over LMS positions in text order ---
    let lms_positions: Vec<u32> = (1..n).filter(|&i| is_lms(i)).map(|i| i as u32).collect();
    let s1: Vec<u32> = lms_positions.iter().map(|&p| name_of[p as usize / 2]).collect();

    let sa1: Vec<u32> = if num_names == s1.len() {
        // All names distinct: the order is the inverse permutation.
        let mut sa1 = vec![0u32; s1.len()];
        for (i, &nm) in s1.iter().enumerate() {
            sa1[nm as usize] = i as u32;
        }
        sa1
    } else {
        sais(&s1, num_names)
    };

    // --- stage 2: place LMS suffixes in their true order, induce again ---
    sa.fill(EMPTY);
    {
        let mut tails = bucket_tails(&bkt);
        for &i1 in sa1.iter().rev() {
            let p = lms_positions[i1 as usize];
            let c = s[p as usize] as usize;
            tails[c] -= 1;
            sa[tails[c] as usize] = p;
        }
        induce(&mut sa);
    }
    sa
}

/// Compares the LMS substrings starting at `a` and `b` (letters and types
/// up to and including the next LMS position).
fn lms_substrings_equal(s: &[u32], stype: &[bool], a: usize, b: usize) -> bool {
    let n = s.len();
    if a == b {
        return true;
    }
    // The sentinel LMS substring (at n−1) is unique.
    if a == n - 1 || b == n - 1 {
        return false;
    }
    let is_lms = |i: usize| i > 0 && stype[i] && !stype[i - 1];
    let mut k = 0usize;
    loop {
        let a_end = k > 0 && is_lms(a + k);
        let b_end = k > 0 && is_lms(b + k);
        if a_end && b_end {
            return true;
        }
        if a_end != b_end {
            return false;
        }
        if s[a + k] != s[b + k] || stype[a + k] != stype[b + k] {
            return false;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::suffix_array_naive;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check(text: &[u8]) {
        assert_eq!(suffix_array(text), suffix_array_naive(text), "text {text:?}");
    }

    #[test]
    fn classic_fixtures() {
        check(b"");
        check(b"a");
        check(b"aa");
        check(b"ab");
        check(b"ba");
        check(b"banana");
        check(b"mississippi");
        check(b"abracadabra");
        check(b"GATTACA");
    }

    #[test]
    fn unary_and_periodic_texts() {
        check(&[b'a'; 1]);
        check(&[b'a'; 2]);
        check(&[b'a'; 100]);
        check(&b"ab".repeat(50));
        check(&b"aab".repeat(33));
        check(&b"abcabcabc".repeat(10));
    }

    #[test]
    fn boundary_byte_values() {
        check(&[0]);
        check(&[0, 0, 0]);
        check(&[255, 0, 255, 0]);
        check(&[255; 10]);
        check(&[0, 255, 0, 255, 255, 0]);
    }

    #[test]
    fn exhaustive_short_binary_strings() {
        for len in 1..=12usize {
            for bits in 0..(1u32 << len) {
                let text: Vec<u8> =
                    (0..len).map(|i| if bits >> i & 1 == 1 { b'b' } else { b'a' }).collect();
                check(&text);
            }
        }
    }

    #[test]
    fn random_texts_various_alphabets() {
        let mut rng = StdRng::seed_from_u64(7);
        for sigma in [2usize, 3, 4, 16, 256] {
            for len in [10usize, 50, 200, 1000] {
                let text: Vec<u8> = (0..len).map(|_| rng.gen_range(0..sigma) as u8).collect();
                check(&text);
            }
        }
    }

    #[test]
    fn deep_recursion_text() {
        // Fibonacci-like strings force many SA-IS recursion levels.
        let (mut a, mut b) = (b"a".to_vec(), b"ab".to_vec());
        for _ in 0..15 {
            let next = [b.clone(), a.clone()].concat();
            a = b;
            b = next;
        }
        check(&b);
    }

    #[test]
    fn integer_alphabet_matches_byte_path() {
        let text = b"mississippi";
        let as_ints: Vec<u32> = text.iter().map(|&b| b as u32).collect();
        assert_eq!(suffix_array_ints(&as_ints, 256), suffix_array(text));
    }

    #[test]
    fn large_integer_alphabet() {
        // letters far beyond u8: ranks of a shuffled dictionary
        let mut rng = StdRng::seed_from_u64(12);
        let text: Vec<u32> = (0..400).map(|_| rng.gen_range(0..50_000u32)).collect();
        let sa = suffix_array_ints(&text, 50_000);
        // verify sortedness directly
        for w in sa.windows(2) {
            assert!(text[w[0] as usize..] < text[w[1] as usize..]);
        }
        let mut seen = vec![false; text.len()];
        for &p in &sa {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
    }

    #[test]
    #[should_panic(expected = "out of the declared alphabet")]
    fn integer_alphabet_validates_letters() {
        suffix_array_ints(&[0, 5], 3);
    }

    #[test]
    fn sa_is_permutation() {
        let text = b"the quick brown fox jumps over the lazy dog";
        let sa = suffix_array(text);
        let mut seen = vec![false; text.len()];
        for &p in &sa {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }
}
