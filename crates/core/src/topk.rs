//! Shared representations of top-K frequent substrings.
//!
//! The paper uses two encodings:
//!
//! * `⟨lcp, lb, rb⟩` triplets — a substring length plus the suffix-array
//!   interval of all its occurrences ([`TopKSubstring`]; output of
//!   Exact-Top-K, input of the `USI_TOP-K` construction);
//! * `⟨j, ℓ, f⟩` tuples — a *witness occurrence* `S[j .. j+ℓ)` plus an
//!   estimated frequency ([`TopKEstimate`]; output of Approximate-Top-K
//!   and the streaming baselines, where full occurrence lists are
//!   unavailable).

/// A top-K frequent substring as a suffix-array interval triplet
/// `⟨lcp, lb, rb⟩` (paper, Section V, Task (i)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKSubstring {
    /// Substring length (`lcp` in the paper's triplet).
    pub len: u32,
    /// Left boundary of the SA interval (inclusive).
    pub lb: u32,
    /// Right boundary of the SA interval (inclusive).
    pub rb: u32,
}

impl TopKSubstring {
    /// Exact frequency: the SA interval size.
    #[inline]
    pub fn freq(&self) -> u32 {
        self.rb - self.lb + 1
    }

    /// Materialises the substring bytes using the suffix array and text:
    /// `S[SA[lb] .. SA[lb] + len)`.
    pub fn bytes<'t>(&self, text: &'t [u8], sa: &[u32]) -> &'t [u8] {
        let start = sa[self.lb as usize] as usize;
        &text[start..start + self.len as usize]
    }

    /// Witness form (first occurrence in SA order).
    pub fn to_estimate(&self, sa: &[u32]) -> TopKEstimate {
        TopKEstimate { witness: sa[self.lb as usize], len: self.len, freq: self.freq() as u64 }
    }
}

/// A top-K frequent substring as a witness tuple `⟨j, ℓ, f⟩` (paper,
/// Section VI): `S[j .. j+ℓ)` with (possibly estimated) frequency `f`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKEstimate {
    /// A position where the substring occurs.
    pub witness: u32,
    /// Substring length `ℓ`.
    pub len: u32,
    /// Reported frequency (a lower bound for Approximate-Top-K).
    pub freq: u64,
}

impl TopKEstimate {
    /// Materialises the substring bytes.
    pub fn bytes<'t>(&self, text: &'t [u8]) -> &'t [u8] {
        let j = self.witness as usize;
        &text[j..j + self.len as usize]
    }
}

/// A reported substring from any miner, for the effectiveness metrics:
/// either a witness into the indexed text or owned bytes (streaming
/// baselines that spell strings out of their own state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubstringRef {
    /// `S[pos .. pos + len)` of the indexed text.
    Witness {
        /// Start position in the text.
        pos: u32,
        /// Length.
        len: u32,
    },
    /// An explicit byte string.
    Owned(Vec<u8>),
}

impl SubstringRef {
    /// Resolves to bytes against `text`.
    pub fn resolve<'a>(&'a self, text: &'a [u8]) -> &'a [u8] {
        match self {
            Self::Witness { pos, len } => &text[*pos as usize..(*pos + *len) as usize],
            Self::Owned(b) => b,
        }
    }

    /// Length of the referenced substring.
    pub fn len(&self) -> usize {
        match self {
            Self::Witness { len, .. } => *len as usize,
            Self::Owned(b) => b.len(),
        }
    }

    /// Whether the referenced substring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usi_suffix::suffix_array;

    #[test]
    fn substring_materialisation() {
        let text = b"banana";
        let sa = suffix_array(text);
        // "ana" occupies SA ranks 1..=2 ("anana","ana" sorted: a, ana, anana...)
        // ranks: 0:"a"(5) 1:"ana"(3) 2:"anana"(1) 3:"banana"(0) 4:"na"(4) 5:"nana"(2)
        let s = TopKSubstring { len: 3, lb: 1, rb: 2 };
        assert_eq!(s.freq(), 2);
        assert_eq!(s.bytes(text, &sa), b"ana");
        let est = s.to_estimate(&sa);
        assert_eq!(est.bytes(text), b"ana");
        assert_eq!(est.freq, 2);
    }

    #[test]
    fn substring_ref_resolution() {
        let text = b"abcdef";
        let w = SubstringRef::Witness { pos: 2, len: 3 };
        assert_eq!(w.resolve(text), b"cde");
        assert_eq!(w.len(), 3);
        let o = SubstringRef::Owned(b"xyz".to_vec());
        assert_eq!(o.resolve(text), b"xyz");
        assert!(!o.is_empty());
    }
}
