//! Phase (i) of the construction from a frequency histogram.
//!
//! The builder needs only `τ_K` and the suffix-tree nodes whose frequency
//! reaches it (Theorem 2), not the whole sorted array `T` that the
//! Section-V [`TopKOracle`](crate::oracle::TopKOracle) keeps for its
//! tuning tasks. [`TopKSelector`] finds them in five steps:
//!
//! 1. one bottom-up sweep over the LCP array
//!    ([`visit_lcp_intervals`]) adds each internal node's `q(v)` into a
//!    histogram indexed by frequency;
//! 2. the leaves add their `q(v)` at frequency 1;
//! 3. a downward scan of the histogram gives `τ_K`, and `K_τ` is its sum
//!    over the frequencies ≥ `τ`;
//! 4. a second sweep keeps the nodes with frequency ≥ `τ_K`, in
//!    [`lcp_intervals`](usi_suffix::lcp_intervals)' order (the leaves
//!    only when `τ_K = 1`);
//! 5. a stable sort of those nodes by (frequency desc, depth asc)
//!    reproduces the oracle's order, ties included, because the oracle's
//!    radix sort is stable over the same enumeration.
//!
//! So [`TopKSelector::top_k`] lists the triplets of
//! [`TopKOracle::top_k`](crate::oracle::TopKOracle::top_k), in the same
//! order, while it sorts only the nodes that reach `τ_K` and allocates
//! one `u64` per possible frequency instead of the oracle's three arrays
//! over every node.

use crate::topk::{list_top_k, TopKSubstring};
use std::cmp::Reverse;
use usi_suffix::{visit_lcp_intervals, LcpInterval};

/// Distinct-substring counts by frequency over a text's suffix and LCP
/// arrays: the input of phase (i).
#[derive(Debug)]
pub struct TopKSelector<'a> {
    sa: &'a [u32],
    lcp: &'a [u32],
    /// `q_by_freq[f]`: the number of distinct substrings that occur
    /// exactly `f` times (`Σ q(v)` over the nodes with `f(v) = f`).
    q_by_freq: Vec<u64>,
}

impl<'a> TopKSelector<'a> {
    /// Sweeps the suffix-tree nodes of a whole text, given its suffix
    /// array and the LCP array over it, into the frequency histogram.
    /// `O(n)` time, `8(n + 1)` bytes.
    pub fn new(sa: &'a [u32], lcp: &'a [u32]) -> Self {
        assert_eq!(sa.len(), lcp.len(), "the suffix and LCP arrays of one text");
        let mut q_by_freq = vec![0u64; sa.len() + 1];
        sweep(sa, lcp, true, |node| q_by_freq[node.freq() as usize] += node.q() as u64);
        Self { sa, lcp, q_by_freq }
    }

    /// `K_τ`: the number of distinct substrings with frequency ≥ `tau`
    /// (the oracle's Task (iii)). A `tau` above the maximum frequency
    /// yields 0.
    pub fn k_for_tau(&self, tau: u32) -> u64 {
        self.q_by_freq.iter().skip(tau as usize).sum()
    }

    /// `τ_K`: the smallest frequency among the top-`k` substrings, with
    /// `k` clamped to the number of distinct substrings (the oracle's
    /// Task (ii)). `k = 0` or an empty text yields `None`.
    pub fn tau_for_k(&self, k: u64) -> Option<u32> {
        if k == 0 {
            return None;
        }
        let mut listed = 0u64;
        for (freq, &q) in self.q_by_freq.iter().enumerate().rev() {
            listed += q;
            if listed >= k {
                return Some(freq as u32);
            }
        }
        // fewer than k distinct substrings: all of them, down to the
        // text's once-occurring ones
        (listed > 0).then_some(1)
    }

    /// The top-`k` frequent substrings as SA-interval triplets, ties
    /// broken by shorter length first: exactly
    /// [`TopKOracle::top_k`](crate::oracle::TopKOracle::top_k)'s output.
    /// Returns fewer than `k` items only when the text has fewer distinct
    /// substrings.
    pub fn top_k(&self, k: usize) -> Vec<TopKSubstring> {
        let Some(tau) = self.tau_for_k(k as u64) else {
            return Vec::new();
        };
        let mut nodes = Vec::new();
        sweep(self.sa, self.lcp, tau == 1, |node| {
            if node.freq() >= tau {
                nodes.push(node);
            }
        });
        nodes.sort_by_key(|node| (Reverse(node.freq()), node.depth));
        list_top_k(nodes, k)
    }
}

/// Visits the suffix-tree nodes of the text whose suffix and LCP arrays
/// these are, in [`visit_lcp_intervals`]' order; the leaves only when
/// `leaves`.
fn sweep(sa: &[u32], lcp: &[u32], leaves: bool, visit: impl FnMut(LcpInterval)) {
    visit_lcp_intervals(lcp, |i| (sa.len() - sa[i] as usize) as u32, leaves, visit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::TopKOracle;
    use usi_suffix::{lcp_array, suffix_array};

    #[test]
    fn empty_text_selects_nothing() {
        let selector = TopKSelector::new(&[], &[]);
        assert_eq!(selector.tau_for_k(1), None);
        assert_eq!(selector.k_for_tau(0), 0);
        assert_eq!(selector.k_for_tau(1), 0);
        assert!(selector.top_k(5).is_empty());
    }

    #[test]
    fn one_letter_text_selects_that_letter() {
        let sa = suffix_array(b"z");
        let lcp = lcp_array(b"z", &sa);
        let selector = TopKSelector::new(&sa, &lcp);
        assert_eq!(selector.tau_for_k(0), None);
        assert_eq!(selector.tau_for_k(1), Some(1));
        assert_eq!(selector.tau_for_k(7), Some(1));
        assert_eq!(selector.k_for_tau(1), 1);
        assert_eq!(selector.k_for_tau(2), 0);
        assert!(selector.top_k(0).is_empty());
        let want = [TopKSubstring { len: 1, lb: 0, rb: 0 }];
        assert_eq!(selector.top_k(1), want);
        assert_eq!(selector.top_k(3), want);
    }

    #[test]
    fn tasks_match_the_oracle() {
        for text in [&b"banana"[..], b"mississippi", b"aaaa", b"abracadabra_abracadabra"] {
            let sa = suffix_array(text);
            let lcp = lcp_array(text, &sa);
            let oracle = TopKOracle::new(text.len(), &sa, &lcp);
            let selector = TopKSelector::new(&sa, &lcp);
            let distinct = oracle.total_distinct_substrings();
            for k in 0..=distinct + 2 {
                assert_eq!(selector.tau_for_k(k), oracle.tune_for_k(k).map(|t| t.tau), "k={k}");
                assert_eq!(selector.top_k(k as usize), oracle.top_k(k as usize), "k={k}");
            }
            for tau in 0..=text.len() as u32 + 1 {
                assert_eq!(selector.k_for_tau(tau), oracle.tune_for_tau(tau).k, "tau={tau}");
            }
        }
    }
}
