//! Linear-time suffix array construction (SA-IS).
//!
//! The induced-sorting algorithm of Nong, Zhang and Chan (DCC 2009), the
//! `O(n)` construction the paper cites for `SA(S)` over integer
//! alphabets, laid out like Yuta Mori's sais-lite:
//!
//! * the text is read in place, bytes as bytes, and ends in a *virtual*
//!   sentinel smaller than every letter, so the last suffix is L-type;
//! * there is no type array: an SA slot holds a suffix, or while the
//!   LMS substrings are sorted its predecessor, and its sign bit says
//!   whether the scan still induces from it; types are read off
//!   neighbouring letters;
//! * LMS substrings are named from their stored lengths: two are equal
//!   when their lengths and letters are;
//! * the reduced string and its recursion live inside the SA buffer.
//!
//! So the working memory is the result's `4n` bytes plus two bucket
//! arrays per level. The signed slots limit texts to fewer than `2^31`
//! letters. Bucket pointers are indexed by letter at every placement:
//! sais-lite's cached pointer to the current bucket read 5–7% slower
//! over four 1 Mi-letter documents on a 2-vCPU machine.
//!
//! Construction is serial. The induced-sorting sweeps are inherently
//! sequential (every placement depends on earlier placements). Two
//! parallel variants were measured on a 2-vCPU machine, over four 1
//! Mi-letter documents, and dropped. Threading the top-level
//! classification and bucket histogram saved nothing (104–139 ms serial
//! against 112–137 ms). Sharding the sort over text blocks, with
//! prefix-doubling merges, took 1.5–6× longer.

/// Builds the suffix array of `text`: the permutation `sa` of `[0, n)`
/// such that `sa[i]` is the start of the `i`-th lexicographically smallest
/// suffix. `O(n)` time; beyond the result, the work space is two
/// bucket arrays per recursion level (see the module docs).
///
/// ```
/// use usi_suffix::suffix_array;
/// assert_eq!(suffix_array(b"banana"), vec![5, 3, 1, 0, 4, 2]);
/// assert_eq!(suffix_array(b""), Vec::<u32>::new());
/// ```
///
/// # Panics
/// Panics if `text` has `2^31` letters or more.
pub fn suffix_array(text: &[u8]) -> Vec<u32> {
    sort_suffixes(text, 256)
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
/// The same `O(n + sigma)` code as [`suffix_array`].
///
/// ```
/// use usi_suffix::sais::suffix_array_ints;
/// // suffixes of 2 0 1 0, smallest first: "0", "0 1 0", "1 0", "2 0 1 0"
/// let sa = suffix_array_ints(&[2, 0, 1, 0], 3);
/// assert_eq!(sa, vec![3, 1, 2, 0]);
/// ```
///
/// # Panics
/// Panics if any letter is ≥ `sigma`, or `text` has `2^31` letters or
/// more.
pub fn suffix_array_ints(text: &[u32], sigma: usize) -> Vec<u32> {
    assert!(text.iter().all(|&c| (c as usize) < sigma), "letter out of the declared alphabet");
    sort_suffixes(text, sigma)
}

/// A letter SA-IS sorts: a byte, an integer letter, or a name of the
/// reduced string (never negative).
trait Letter: Copy + Ord {
    /// The letter's bucket.
    fn bucket(self) -> usize;
}

impl Letter for u8 {
    #[inline]
    fn bucket(self) -> usize {
        self as usize
    }
}

impl Letter for u32 {
    #[inline]
    fn bucket(self) -> usize {
        self as usize
    }
}

impl Letter for i32 {
    #[inline]
    fn bucket(self) -> usize {
        self as usize
    }
}

fn sort_suffixes<T: Letter>(text: &[T], sigma: usize) -> Vec<u32> {
    assert!(text.len() <= i32::MAX as usize, "texts must have fewer than 2^31 letters");
    let mut sa = vec![0i32; text.len()];
    if !text.is_empty() {
        sais(text, &mut sa, sigma);
    }
    sa.into_iter().map(|p| p as u32).collect()
}

/// SA-IS of `text` (letters below `sigma`) into `sa[..n]`; the rest of
/// `sa` is free space for the recursion.
fn sais<T: Letter>(text: &[T], sa: &mut [i32], sigma: usize) {
    let n = text.len();
    if n == 1 {
        sa[0] = 0;
        return;
    }
    let mut counts = vec![0u32; sigma];
    for &c in text {
        counts[c.bucket()] += 1;
    }
    let mut bkt = vec![0u32; sigma];

    // Stage 1: seed every LMS suffix but the leftmost at the tail of its
    // bucket, as its predecessor (the leftmost one only orders suffixes
    // to its left, none of them LMS), sort the LMS substrings by
    // induction and name them.
    sa[..n].fill(0);
    bucket_ends(&counts, &mut bkt);
    let (mut m, mut leftmost) = (0, None);
    for_each_lms_rev(text, |p| {
        if let Some(q) = leftmost.replace(p) {
            let c = text[q].bucket();
            bkt[c] -= 1;
            sa[bkt[c] as usize] = q as i32 - 1;
        }
        m += 1;
    });
    let names = match leftmost {
        None => 0,
        Some(p) if m == 1 => {
            // The one LMS suffix already sits where stage 3 puts it.
            sa[bkt[text[p].bucket()] as usize - 1] = p as i32;
            1
        }
        Some(_) => {
            sort_lms_substrings(text, &mut sa[..n], &counts, &mut bkt);
            name_lms_substrings(text, &mut sa[..n], m)
        }
    };

    // Stage 2: if names repeat, order the LMS suffixes by the suffix
    // array of the reduced string, their names in text order, which is
    // gathered at the end of the buffer and sorted in front of it.
    if names < m {
        let end = sa.len();
        let mut j = end;
        for i in (m..m + n / 2).rev() {
            if sa[i] != 0 {
                j -= 1;
                sa[j] = sa[i] - 1;
            }
        }
        let (work, reduced) = sa.split_at_mut(end - m);
        sais(&*reduced, work, names);
        let mut k = m;
        for_each_lms_rev(text, |p| {
            k -= 1;
            reduced[k] = p as i32;
        });
        for r in &mut work[..m] {
            *r = reduced[*r as usize];
        }
    }

    // Stage 3: move the sorted LMS suffixes to their bucket tails, then
    // induce every other suffix from them.
    if m > 1 {
        bucket_ends(&counts, &mut bkt);
        let mut j = n;
        for i in (0..m).rev() {
            let p = sa[i];
            let c = text[p as usize].bucket();
            bkt[c] -= 1;
            let t = bkt[c] as usize;
            sa[t + 1..j].fill(0);
            sa[t] = p;
            j = t;
        }
        sa[..j].fill(0);
    }
    induce(text, &mut sa[..n], &counts, &mut bkt);
}

/// Calls `visit` with every LMS position of `text` (an S-type position
/// after an L-type one), right to left. The last letter is L-type
/// against the virtual sentinel, and a letter equal to its right
/// neighbour has that neighbour's type.
fn for_each_lms_rev<T: Letter>(text: &[T], mut visit: impl FnMut(usize)) {
    let mut i = text.len() - 1;
    loop {
        // `i` is L-type: walk to the start of its run.
        while i > 0 && text[i - 1] >= text[i] {
            i -= 1;
        }
        if i == 0 {
            return;
        }
        // `i - 1` is S-type: walk to the start of its run.
        i -= 1;
        while i > 0 && text[i - 1] <= text[i] {
            i -= 1;
        }
        if i == 0 {
            return;
        }
        visit(i);
        i -= 1;
    }
}

/// Stage 1's induced sort of the LMS substrings, from the seeds. A slot
/// holds the predecessor of its suffix, complemented when that
/// predecessor is of the other type than the scan induces, and is
/// cleared once induced from. What is left are the LMS positions,
/// complemented, in the order of their substrings.
fn sort_lms_substrings<T: Letter>(text: &[T], sa: &mut [i32], counts: &[u32], bkt: &mut [u32]) {
    let n = text.len();
    // L-type suffixes, left to right, from the last suffix on.
    bucket_starts(counts, bkt);
    let mut place_l = |sa: &mut [i32], j: usize| {
        let c = text[j].bucket();
        let pred = j as i32 - 1;
        sa[bkt[c] as usize] = if text[j - 1] < text[j] { !pred } else { pred };
        bkt[c] += 1;
    };
    place_l(sa, n - 1);
    for i in 0..n {
        let j = sa[i];
        if j > 0 {
            place_l(sa, j as usize);
            sa[i] = 0;
        } else if j < 0 {
            sa[i] = !j;
        }
    }
    // S-type suffixes, right to left; an LMS suffix is kept as itself.
    bucket_ends(counts, bkt);
    for i in (0..n).rev() {
        let j = sa[i];
        if j > 0 {
            let j = j as usize;
            let c = text[j].bucket();
            bkt[c] -= 1;
            sa[bkt[c] as usize] = if text[j - 1] > text[j] { !(j as i32) } else { j as i32 - 1 };
            sa[i] = 0;
        }
    }
}

/// Names the sorted LMS substrings: moves them to `sa[..m]`, and stores
/// the 1-based name of the substring at `p` in `sa[m + p / 2]` (LMS
/// positions are at least two apart). Substrings are equal when their
/// lengths and letters are, since equal letters up to an LMS end imply
/// equal types; the last one, which runs into the virtual sentinel, is
/// unique. Returns the number of names.
fn name_lms_substrings<T: Letter>(text: &[T], sa: &mut [i32], m: usize) -> usize {
    let n = text.len();
    let mut j = 0;
    for i in 0..n {
        let p = sa[i];
        if p < 0 {
            sa[i] = 0;
            sa[j] = !p;
            j += 1;
            if j == m {
                break;
            }
        }
    }
    debug_assert_eq!(j, m, "every LMS substring is sorted");
    let (sorted, rest) = sa.split_at_mut(m);
    let mut end = n;
    for_each_lms_rev(text, |p| {
        rest[p / 2] = (end - p) as i32;
        end = p + 1;
    });
    let (mut name, mut q, mut qlen) = (0, n, 0);
    for &p in sorted.iter() {
        let p = p as usize;
        let plen = rest[p / 2] as usize;
        if plen != qlen || q + plen >= n || text[p..p + plen] != text[q..q + plen] {
            name += 1;
            (q, qlen) = (p, plen);
        }
        rest[p / 2] = name as i32;
    }
    name
}

/// Induces the whole suffix array from the LMS suffixes at their bucket
/// tails. A slot holds its suffix, complemented when the scan must not
/// induce from it (its predecessor is of the other type, or missing).
fn induce<T: Letter>(text: &[T], sa: &mut [i32], counts: &[u32], bkt: &mut [u32]) {
    let n = text.len();
    // L-type suffixes, left to right, from the last suffix on.
    bucket_starts(counts, bkt);
    let mut place_l = |sa: &mut [i32], j: usize| {
        let c = text[j].bucket();
        sa[bkt[c] as usize] = if j > 0 && text[j - 1] < text[j] { !(j as i32) } else { j as i32 };
        bkt[c] += 1;
    };
    place_l(sa, n - 1);
    for i in 0..n {
        let j = sa[i];
        sa[i] = !j;
        if j > 0 {
            place_l(sa, j as usize - 1);
        }
    }
    // S-type suffixes, right to left.
    bucket_ends(counts, bkt);
    for i in (0..n).rev() {
        let j = sa[i];
        if j > 0 {
            let j = j as usize - 1;
            let c = text[j].bucket();
            bkt[c] -= 1;
            sa[bkt[c] as usize] =
                if j == 0 || text[j - 1] > text[j] { !(j as i32) } else { j as i32 };
        } else {
            sa[i] = !j;
        }
    }
}

/// Points each letter's bucket at its first slot.
fn bucket_starts(counts: &[u32], bkt: &mut [u32]) {
    let mut sum = 0;
    for (b, &c) in bkt.iter_mut().zip(counts) {
        *b = sum;
        sum += c;
    }
}

/// Points each letter's bucket one past its last slot.
fn bucket_ends(counts: &[u32], bkt: &mut [u32]) {
    let mut sum = 0;
    for (b, &c) in bkt.iter_mut().zip(counts) {
        sum += c;
        *b = sum;
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
