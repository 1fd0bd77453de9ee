//! Enhanced-suffix-array lcp-interval enumeration.
//!
//! The bottom-up traversal of Abouelhoda, Kurtz and Ohlebusch (Algorithm
//! 4.4, cited by the paper in Section VI Step 3) enumerates the
//! *lcp-intervals* of an (S)LCP array — exactly the explicit internal
//! nodes of the (sparse) suffix tree — without materialising the tree.
//! Together with the leaves, these intervals carry everything the top-K
//! oracle of Section V needs: for each node `v`, its string depth
//! `sd(v)`, its parent's string depth (hence the edge letter count
//! `q(v) = sd(v) − sd(parent)`), and its frequency `f(v) = rb − lb + 1`.

/// One explicit node of the (sparse) suffix tree, as an interval of the
/// (sparse) suffix array.
///
/// The node represents the `q() = depth − parent_depth` distinct
/// substrings of lengths `parent_depth + 1 ..= depth` that share the SA
/// interval `[lb, rb]`; each occurs exactly `freq() = rb − lb + 1` times
/// (in the sample, for sparse arrays).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LcpInterval {
    /// String depth `sd(v)`: the longest substring this node represents.
    pub depth: u32,
    /// String depth of the parent node (`0` for children of the root).
    pub parent_depth: u32,
    /// Left boundary in the suffix array (inclusive).
    pub lb: u32,
    /// Right boundary in the suffix array (inclusive).
    pub rb: u32,
}

impl LcpInterval {
    /// Frequency `f(v)`: number of suffixes in the interval.
    #[inline]
    pub fn freq(&self) -> u32 {
        self.rb - self.lb + 1
    }

    /// Edge letter count `q(v)`: number of distinct substrings (one per
    /// implicit node on the edge, plus the explicit endpoint).
    #[inline]
    pub fn q(&self) -> u32 {
        self.depth - self.parent_depth
    }

    /// Whether this node is a suffix-tree leaf (a single suffix).
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.lb == self.rb
    }
}

/// Enumerates all explicit suffix-tree nodes (internal lcp-intervals and,
/// when `include_leaves`, the leaves) from an LCP array: the nodes
/// [`visit_lcp_intervals`] visits, in its order.
///
/// * `lcp` — the (sparse) LCP array; `lcp[0] = 0`, `lcp[j]` = LCP of the
///   suffixes ranked `j−1` and `j`.
/// * `suffix_len(i)` — length of the suffix ranked `i` (for a full text
///   `n − sa[i]`; the same formula with full-text lengths for a sparse
///   sample).
pub fn lcp_intervals(
    lcp: &[u32],
    suffix_len: impl Fn(usize) -> u32,
    include_leaves: bool,
) -> Vec<LcpInterval> {
    let mut out = Vec::new();
    visit_lcp_intervals(lcp, suffix_len, include_leaves, |node| out.push(node));
    out
}

/// Calls `visit` on every explicit suffix-tree node without collecting
/// them: first each internal lcp-interval as the bottom-up sweep closes
/// it (children before their parent), then, when `include_leaves`, the
/// leaves in suffix-array order. Arguments as for [`lcp_intervals`].
///
/// Runs in `O(n)` with a single stack pass; the root (empty string) is
/// never visited. Leaves with `depth == parent_depth` (suffixes that are
/// prefixes of a neighbouring suffix, representing no extra substring)
/// are skipped.
pub fn visit_lcp_intervals(
    lcp: &[u32],
    suffix_len: impl Fn(usize) -> u32,
    include_leaves: bool,
    mut visit: impl FnMut(LcpInterval),
) {
    let n = lcp.len();
    if n == 0 {
        return;
    }
    // Internal nodes: classic bottom-up stack of (lcp value, left bound).
    let mut stack: Vec<(u32, u32)> = vec![(0, 0)];
    #[allow(clippy::needless_range_loop)]
    for i in 1..=n {
        let l = if i < n { lcp[i] } else { 0 };
        let mut lb = (i - 1) as u32;
        while stack.last().unwrap().0 > l {
            let (top_depth, top_lb) = stack.pop().unwrap();
            let rb = (i - 1) as u32;
            let parent_depth = stack.last().unwrap().0.max(l);
            visit(LcpInterval { depth: top_depth, parent_depth, lb: top_lb, rb });
            lb = top_lb;
        }
        if stack.last().unwrap().0 < l {
            stack.push((l, lb));
        }
    }
    debug_assert_eq!(stack.len(), 1, "only the root sentinel may remain");

    if include_leaves {
        for i in 0..n {
            let left = lcp[i];
            let right = if i + 1 < n { lcp[i + 1] } else { 0 };
            let parent_depth = left.max(right);
            let depth = suffix_len(i);
            if depth > parent_depth {
                visit(LcpInterval { depth, parent_depth, lb: i as u32, rb: i as u32 });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcp::lcp_array;
    use crate::naive::substring_frequencies_naive;
    use crate::sais::suffix_array;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Cross-checks every reported node against brute-force substring
    /// frequencies, and verifies the node set covers each distinct
    /// substring exactly once.
    fn check(text: &[u8]) {
        let n = text.len();
        let sa = suffix_array(text);
        let lcp = lcp_array(text, &sa);
        let nodes = lcp_intervals(&lcp, |i| (n - sa[i] as usize) as u32, true);
        let freqs = substring_frequencies_naive(text);

        let mut covered = 0usize;
        for node in &nodes {
            assert!(node.depth > node.parent_depth, "empty node {node:?}");
            assert!(node.lb <= node.rb);
            covered += node.q() as usize;
            // every substring length on the edge has the node's frequency
            for len in (node.parent_depth + 1)..=node.depth {
                let start = sa[node.lb as usize] as usize;
                let sub = &text[start..start + len as usize];
                assert_eq!(freqs[sub], node.freq(), "substring {sub:?} freq mismatch in {text:?}");
                // and the SA interval contains exactly the occurrences
                for r in node.lb..=node.rb {
                    let p = sa[r as usize] as usize;
                    assert_eq!(&text[p..p + len as usize], sub);
                }
            }
        }
        assert_eq!(covered, freqs.len(), "distinct substring count in {text:?}");
    }

    #[test]
    fn fixtures() {
        check(b"a");
        check(b"ab");
        check(b"aa");
        check(b"aaaa");
        check(b"banana");
        check(b"abab");
        check(b"mississippi");
        check(&b"ab".repeat(8));
    }

    #[test]
    fn empty_text_no_nodes() {
        assert!(lcp_intervals(&[], |_| 0, true).is_empty());
    }

    #[test]
    fn random_texts() {
        let mut rng = StdRng::seed_from_u64(5);
        for sigma in [2usize, 3, 5] {
            for len in [4usize, 9, 20, 40] {
                let text: Vec<u8> =
                    (0..len).map(|_| b'a' + rng.gen_range(0..sigma) as u8).collect();
                check(&text);
            }
        }
    }

    #[test]
    fn banana_internal_nodes() {
        let text = b"banana";
        let sa = suffix_array(text);
        let lcp = lcp_array(text, &sa);
        let mut internal: Vec<LcpInterval> =
            lcp_intervals(&lcp, |i| (text.len() - sa[i] as usize) as u32, false);
        internal.sort_by_key(|n| (n.depth, n.lb));
        // "banana": internal nodes are "a" [0,2], "na" [4,5], "ana" [1,2]
        assert_eq!(
            internal,
            vec![
                LcpInterval { depth: 1, parent_depth: 0, lb: 0, rb: 2 },
                LcpInterval { depth: 2, parent_depth: 0, lb: 4, rb: 5 },
                LcpInterval { depth: 3, parent_depth: 1, lb: 1, rb: 2 },
            ]
        );
    }

    #[test]
    fn unary_text_chain() {
        // "aaaa": internal nodes "a"(f4), "aa"(f3), "aaa"(f2), each q=1.
        let text = b"aaaa";
        let sa = suffix_array(text);
        let lcp = lcp_array(text, &sa);
        let internal = lcp_intervals(&lcp, |i| (text.len() - sa[i] as usize) as u32, false);
        let mut freqs: Vec<u32> = internal.iter().map(|n| n.freq()).collect();
        freqs.sort_unstable();
        assert_eq!(freqs, vec![2, 3, 4]);
        for n in &internal {
            assert_eq!(n.q(), 1);
        }
    }

    #[test]
    fn leaf_flag() {
        let text = b"ab";
        let sa = suffix_array(text);
        let lcp = lcp_array(text, &sa);
        let nodes = lcp_intervals(&lcp, |i| (text.len() - sa[i] as usize) as u32, true);
        assert!(nodes.iter().all(|n| n.is_leaf()));
        assert_eq!(nodes.len(), 2);
    }
}
