//! Property-based tests for the suffix structures.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use usi_strings::Fingerprinter;
use usi_suffix::naive::{lcp_array_naive, occurrences_naive, suffix_array_naive};
use usi_suffix::{
    lcp_array, lcp_array_threads, lcp_intervals, sparse_suffix_array, suffix_array,
    suffix_array_ints, suffix_array_threads, FingerprintLce, LceOracle, NaiveLce, RmqLce,
    SuffixArraySearcher,
};

fn text_strategy(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..max_len)
}

/// For `shape` 1–5 a text of the same length as `text` that is unary,
/// of period 2 or 3, non-increasing (no LMS position) or a prefix of
/// the Fibonacci word (deep SA-IS recursion); `text` itself otherwise.
fn shaped(text: Vec<u8>, shape: usize) -> Vec<u8> {
    let len = text.len();
    match shape {
        1..=3 => b"abc"[..shape].iter().copied().cycle().take(len).collect(),
        4 => {
            let mut text = text;
            text.sort_unstable_by(|a, b| b.cmp(a));
            text
        }
        5 => {
            let (mut word, mut next) = (b"a".to_vec(), b"ab".to_vec());
            while word.len() < len {
                (word, next) = (next.clone(), [next, word].concat());
            }
            word.truncate(len);
            word
        }
        _ => text,
    }
}

proptest! {
    /// SA-IS against the naive sort. Half the cases keep the random
    /// text; the shaped ones run the branches with no LMS position,
    /// one, and deep recursion on every seed.
    #[test]
    fn sais_matches_naive(text in text_strategy(300), shape in 0usize..10) {
        let text = shaped(text, shape);
        prop_assert_eq!(suffix_array(&text), suffix_array_naive(&text));
    }

    /// The integer-alphabet entry point, which shares the byte path's
    /// code: a permutation whose suffixes strictly increase.
    #[test]
    fn sais_ints_matches_sorted_suffixes(
        sigma_pick in 0usize..4,
        len in 0usize..300,
        seed in any::<u64>(),
    ) {
        let sigma = [1u32, 2, 3, 1 << 16][sigma_pick];
        let mut rng = StdRng::seed_from_u64(seed);
        let text: Vec<u32> = (0..len).map(|_| rng.gen_range(0..sigma)).collect();
        let sa = suffix_array_ints(&text, sigma as usize);
        prop_assert_eq!(sa.len(), len);
        let mut seen = vec![false; len];
        for &p in &sa {
            prop_assert!((p as usize) < len && !seen[p as usize], "not a permutation: {:?}", sa);
            seen[p as usize] = true;
        }
        for pair in sa.windows(2) {
            prop_assert!(text[pair[0] as usize..] < text[pair[1] as usize..]);
        }
    }

    #[test]
    fn sais_wide_alphabet(text in proptest::collection::vec(any::<u8>(), 0..200)) {
        prop_assert_eq!(suffix_array(&text), suffix_array_naive(&text));
    }

    #[test]
    fn kasai_matches_naive(text in text_strategy(200)) {
        let sa = suffix_array(&text);
        prop_assert_eq!(lcp_array(&text, &sa), lcp_array_naive(&text, &sa));
    }

    /// The thread-count entry points, kept for callers that still pass
    /// a count, return the serial arrays at every count.
    #[test]
    fn parallel_sa_equals_serial(text in proptest::collection::vec(any::<u8>(), 0..400)) {
        let want = suffix_array(&text);
        for threads in [2usize, 3, 8] {
            prop_assert_eq!(&suffix_array_threads(&text, threads), &want);
        }
    }

    #[test]
    fn parallel_lcp_equals_serial(text in text_strategy(300)) {
        let sa = suffix_array(&text);
        let want = lcp_array(&text, &sa);
        for threads in [2usize, 3, 8] {
            prop_assert_eq!(&lcp_array_threads(&text, &sa, threads), &want);
        }
    }

    #[test]
    fn lce_oracles_agree(text in text_strategy(120), seed in any::<u64>()) {
        prop_assume!(!text.is_empty());
        let naive = NaiveLce::new(&text);
        let fp = FingerprintLce::new(&text, Fingerprinter::with_base(seed));
        let rmq = RmqLce::new(&text);
        let n = text.len();
        for i in (0..n).step_by(1 + n / 12) {
            for j in (0..n).step_by(1 + n / 12) {
                let want = naive.lce(i, j);
                prop_assert_eq!(fp.lce(i, j), want);
                prop_assert_eq!(rmq.lce(i, j), want);
            }
        }
    }

    /// The locator against a naive scan. Half the patterns are cut from
    /// the text, so they occur; `period` 1–3 swaps the text for a unary
    /// or periodic one of the same length, whose patterns span wide
    /// intervals.
    #[test]
    fn searcher_matches_naive(text in text_strategy(200), period in 0usize..4, seed in any::<u64>()) {
        let text: Vec<u8> = match period {
            0 => text,
            p => b"abc"[..p].iter().copied().cycle().take(text.len()).collect(),
        };
        let sa = suffix_array(&text);
        let s = SuffixArraySearcher::new(&text, &sa);
        let mut rng = StdRng::seed_from_u64(seed);
        for round in 0..16 {
            let pat: Vec<u8> = if round % 2 == 0 && !text.is_empty() {
                let i = rng.gen_range(0..text.len());
                let m = rng.gen_range(1..=(text.len() - i).min(12));
                text[i..i + m].to_vec()
            } else {
                (0..rng.gen_range(1..6)).map(|_| b'a' + rng.gen_range(0..3u8)).collect()
            };
            let want = occurrences_naive(&text, &pat);
            prop_assert_eq!(s.interval(&pat).map_or(0, |r| r.len()), want.len());
            let mut got: Vec<u32> = s.occurrences(&pat).to_vec();
            got.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn lcp_interval_frequencies_are_exact(text in text_strategy(60)) {
        prop_assume!(!text.is_empty());
        let sa = suffix_array(&text);
        let lcp = lcp_array(&text, &sa);
        let nodes = lcp_intervals(&lcp, |i| (text.len() - sa[i] as usize) as u32, true);
        // Σ q(v) = number of distinct substrings; each node's frequency is
        // the true frequency of its witness substring.
        let freqs = usi_suffix::naive::substring_frequencies_naive(&text);
        let covered: usize = nodes.iter().map(|n| n.q() as usize).sum();
        prop_assert_eq!(covered, freqs.len());
        for node in &nodes {
            let start = sa[node.lb as usize] as usize;
            let sub = &text[start..start + node.depth as usize];
            prop_assert_eq!(freqs[sub], node.freq());
        }
    }

    #[test]
    fn sparse_sample_is_suffix_sorted(text in text_strategy(150), step in 1usize..5) {
        prop_assume!(!text.is_empty());
        let positions: Vec<u32> = (0..text.len()).step_by(step).map(|p| p as u32).collect();
        let idx = sparse_suffix_array(&text, positions, &NaiveLce::new(&text));
        for w in idx.ssa.windows(2) {
            prop_assert!(text[w[0] as usize..] < text[w[1] as usize..]);
        }
    }
}
