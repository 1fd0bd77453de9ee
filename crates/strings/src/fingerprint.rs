//! Karp–Rabin fingerprints (paper, Section III, \[18\]).
//!
//! Fingerprints map strings to integers so that, with high probability, no
//! two distinct substrings of a given text collide. We work modulo the
//! Mersenne prime `p = 2^61 − 1` with a per-index random base `b`, so a
//! string `x_0 x_1 … x_{ℓ−1}` maps to
//! `Σ (x_i + 1) · b^{ℓ−1−i} mod p`.
//!
//! The `+1` shift keeps letter value 0 from collapsing (`"0"` vs `"00"`).
//! Collision probability for any fixed pair of distinct equal-length
//! strings of length `ℓ` is `≤ ℓ / p ≈ ℓ · 4.3·10⁻¹⁹`; with the number of
//! comparisons our indexes perform this is negligible, matching the
//! paper's w.h.p. guarantee.
//!
//! Three interfaces:
//! * [`Fingerprinter::fingerprint`] — `O(ℓ)` one-shot (used on query
//!   patterns: the `O(m)` part of the query bound);
//! * [`RollingWindow`] — all length-`ℓ` windows of a text in `O(1)` per
//!   slide (used in construction phase (ii));
//! * [`FingerprintTable`] — `O(n)` prefix table answering the fingerprint
//!   of any `S[i..j)` in `O(1)` (used by the fingerprint LCE backend).

use crate::HeapSize;
use rand::Rng;

/// The Mersenne prime `2^61 − 1` used as modulus.
pub const MODULUS: u64 = (1 << 61) - 1;

/// A Karp–Rabin fingerprint value in `[0, 2^61 − 1)`.
///
/// Fingerprints are only meaningful together with the [`Fingerprinter`]
/// that produced them and the length of the fingerprinted string; the hash
/// table `H` therefore keys on `(length, fingerprint)`.
pub type Fingerprint = u64;

/// Reduces `x < 2^122` modulo `2^61 − 1` using the Mersenne identity
/// `2^61 ≡ 1 (mod p)`.
#[inline]
fn reduce128(x: u128) -> u64 {
    let lo = (x & MODULUS as u128) as u64;
    let mid = ((x >> 61) & MODULUS as u128) as u64;
    let hi = (x >> 122) as u64;
    let mut r = lo + mid + hi;
    if r >= MODULUS {
        r -= MODULUS;
    }
    if r >= MODULUS {
        r -= MODULUS;
    }
    r
}

/// `a · b mod (2^61 − 1)`.
#[inline]
pub fn mul_mod(a: u64, b: u64) -> u64 {
    reduce128(a as u128 * b as u128)
}

/// `a + b mod (2^61 − 1)` for `a, b < p`.
#[inline]
pub fn add_mod(a: u64, b: u64) -> u64 {
    let s = a + b;
    if s >= MODULUS {
        s - MODULUS
    } else {
        s
    }
}

/// `a − b mod (2^61 − 1)` for `a, b < p`.
#[inline]
pub fn sub_mod(a: u64, b: u64) -> u64 {
    if a >= b {
        a - b
    } else {
        a + MODULUS - b
    }
}

#[inline]
fn letter(b: u8) -> u64 {
    b as u64 + 1
}

/// The fingerprint function: a randomly drawn base over the fixed modulus.
///
/// All fingerprints that are ever compared must come from the same
/// `Fingerprinter` (same base). Indexes embed one and reuse it for queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprinter {
    base: u64,
}

impl Fingerprinter {
    /// Draws a random base from `rng`, uniform in `[256, p − 1)` so that
    /// distinct single letters always map to distinct residues.
    pub fn new<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self { base: rng.gen_range(256..MODULUS - 1) }
    }

    /// Deterministic constructor for reproducible builds and tests.
    ///
    /// `base` is clamped into the valid range.
    pub fn with_base(base: u64) -> Self {
        Self { base: 256 + base % (MODULUS - 257) }
    }

    /// The base in use.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Reconstructs a fingerprinter from a persisted [`Fingerprinter::base`].
    ///
    /// # Panics
    /// Panics if `base` is outside the valid range (corrupted input).
    pub fn from_raw_base(base: u64) -> Self {
        assert!((256..MODULUS - 1).contains(&base), "invalid persisted base");
        Self { base }
    }

    /// Fingerprint of `s` in `O(|s|)` time (Horner's rule).
    pub fn fingerprint(&self, s: &[u8]) -> Fingerprint {
        let mut h = 0u64;
        for &b in s {
            h = add_mod(mul_mod(h, self.base), letter(b));
        }
        h
    }

    /// `base^e mod p` by binary exponentiation.
    pub fn pow(&self, mut e: u64) -> u64 {
        let mut acc = 1u64;
        let mut b = self.base;
        while e > 0 {
            if e & 1 == 1 {
                acc = mul_mod(acc, b);
            }
            b = mul_mod(b, b);
            e >>= 1;
        }
        acc
    }

    /// Starts a rolling window of length `len` over `text`, positioned at
    /// offset 0. Returns `None` if `len == 0` or `len > |text|`.
    pub fn rolling<'t>(&self, text: &'t [u8], len: usize) -> Option<RollingWindow<'t>> {
        RollingWindow::new(*self, text, len)
    }

    /// Builds the `O(n)` prefix-fingerprint table of `text`.
    pub fn table(&self, text: &[u8]) -> FingerprintTable {
        FingerprintTable::new(*self, text)
    }
}

/// All length-`len` windows of a text, each fingerprint in `O(1)` per slide.
///
/// ```
/// use usi_strings::Fingerprinter;
/// let fp = Fingerprinter::with_base(0xBEEF);
/// let text = b"abracadabra";
/// let mut w = fp.rolling(text, 4).unwrap();
/// let mut seen = vec![w.value()];
/// while w.slide() { seen.push(w.value()); }
/// assert_eq!(seen.len(), text.len() - 4 + 1);
/// assert_eq!(seen[0], seen[7]); // "abra" at 0 and 7
/// assert_eq!(seen[0], fp.fingerprint(b"abra"));
/// ```
#[derive(Debug, Clone)]
pub struct RollingWindow<'t> {
    fp: Fingerprinter,
    text: &'t [u8],
    len: usize,
    pos: usize,
    value: u64,
    /// `base^{len−1}`: weight of the outgoing letter.
    top_pow: u64,
}

impl<'t> RollingWindow<'t> {
    fn new(fp: Fingerprinter, text: &'t [u8], len: usize) -> Option<Self> {
        if len == 0 || len > text.len() {
            return None;
        }
        let value = fp.fingerprint(&text[..len]);
        let top_pow = fp.pow(len as u64 - 1);
        Some(Self { fp, text, len, pos: 0, value, top_pow })
    }

    /// Start position of the current window.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Fingerprint of `text[pos .. pos + len)`.
    #[inline]
    pub fn value(&self) -> Fingerprint {
        self.value
    }

    /// Advances the window one position; returns `false` (and stays put)
    /// if the window is already flush with the end of the text.
    #[inline]
    pub fn slide(&mut self) -> bool {
        if self.pos + self.len >= self.text.len() {
            return false;
        }
        let out = letter(self.text[self.pos]);
        let inc = letter(self.text[self.pos + self.len]);
        let without_out = sub_mod(self.value, mul_mod(out, self.top_pow));
        self.value = add_mod(mul_mod(without_out, self.fp.base), inc);
        self.pos += 1;
        true
    }
}

/// Prefix-fingerprint table: `O(n)` space, `O(1)` fingerprint of any
/// substring `S[i..j)`.
///
/// ```
/// use usi_strings::Fingerprinter;
/// let fp = Fingerprinter::with_base(7);
/// let t = fp.table(b"mississippi");
/// assert_eq!(t.substring(1, 4), t.substring(4, 7)); // "issi" == "issi"
/// assert_eq!(t.substring(0, 11), fp.fingerprint(b"mississippi"));
/// ```
#[derive(Debug, Clone)]
pub struct FingerprintTable {
    fp: Fingerprinter,
    /// `prefix[i]` = fingerprint of `S[0..i)`; length `n + 1`.
    prefix: Vec<u64>,
    /// `pow[i] = base^i`; length `n + 1`.
    pow: Vec<u64>,
}

impl FingerprintTable {
    fn new(fp: Fingerprinter, text: &[u8]) -> Self {
        let n = text.len();
        let mut prefix = Vec::with_capacity(n + 1);
        let mut pow = Vec::with_capacity(n + 1);
        prefix.push(0);
        pow.push(1);
        let mut h = 0u64;
        let mut p = 1u64;
        for &b in text {
            h = add_mod(mul_mod(h, fp.base), letter(b));
            p = mul_mod(p, fp.base);
            prefix.push(h);
            pow.push(p);
        }
        Self { fp, prefix, pow }
    }

    /// Length of the underlying text.
    #[inline]
    pub fn len(&self) -> usize {
        self.prefix.len() - 1
    }

    /// Whether the underlying text is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fingerprinter this table was built with.
    #[inline]
    pub fn fingerprinter(&self) -> Fingerprinter {
        self.fp
    }

    /// Fingerprint of `S[i..j)` in `O(1)`. Requires `i ≤ j ≤ n`.
    #[inline]
    pub fn substring(&self, i: usize, j: usize) -> Fingerprint {
        debug_assert!(i <= j && j < self.prefix.len());
        sub_mod(self.prefix[j], mul_mod(self.prefix[i], self.pow[j - i]))
    }
}

impl HeapSize for FingerprintTable {
    fn heap_bytes(&self) -> usize {
        self.prefix.heap_bytes() + self.pow.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fp() -> Fingerprinter {
        Fingerprinter::with_base(0x1234_5678_9abc)
    }

    #[test]
    fn modular_arithmetic_basics() {
        assert_eq!(add_mod(MODULUS - 1, 1), 0);
        assert_eq!(sub_mod(0, 1), MODULUS - 1);
        assert_eq!(mul_mod(MODULUS - 1, MODULUS - 1), 1); // (-1)² = 1
        assert_eq!(mul_mod(1 << 60, 4), 2); // 2^62 mod (2^61−1) = 2
    }

    #[test]
    fn pow_matches_iterated_mul() {
        let f = fp();
        let mut acc = 1u64;
        for e in 0..40u64 {
            assert_eq!(f.pow(e), acc);
            acc = mul_mod(acc, f.base());
        }
    }

    #[test]
    fn distinct_short_strings_distinct_fps() {
        let f = fp();
        let mut seen = std::collections::HashSet::new();
        // all strings of length ≤ 3 over {a, b, c}
        let sigma = b"abc";
        let mut strings: Vec<Vec<u8>> = vec![vec![]];
        let mut frontier: Vec<Vec<u8>> = vec![vec![]];
        for _ in 0..3 {
            let mut next = Vec::new();
            for s in &frontier {
                for &c in sigma {
                    let mut t = s.clone();
                    t.push(c);
                    next.push(t);
                }
            }
            strings.extend(next.iter().cloned());
            frontier = next;
        }
        for s in &strings {
            // include length in the key, as the index does
            assert!(seen.insert((s.len(), f.fingerprint(s))), "collision on {s:?}");
        }
    }

    #[test]
    fn rolling_matches_oneshot_on_random_text() {
        let mut rng = StdRng::seed_from_u64(42);
        let text: Vec<u8> = (0..500).map(|_| rng.gen_range(b'a'..=b'd')).collect();
        let f = Fingerprinter::new(&mut rng);
        for len in [1usize, 2, 3, 17, 499, 500] {
            let mut w = f.rolling(&text, len).unwrap();
            loop {
                let i = w.position();
                assert_eq!(w.value(), f.fingerprint(&text[i..i + len]), "len={len} i={i}");
                if !w.slide() {
                    break;
                }
            }
            assert_eq!(w.position(), text.len() - len);
        }
    }

    #[test]
    fn rolling_rejects_degenerate_lengths() {
        let f = fp();
        assert!(f.rolling(b"abc", 0).is_none());
        assert!(f.rolling(b"abc", 4).is_none());
        assert!(f.rolling(b"", 1).is_none());
    }

    #[test]
    fn table_matches_oneshot() {
        let f = fp();
        let text = b"abracadabra";
        let t = f.table(text);
        for i in 0..=text.len() {
            for j in i..=text.len() {
                assert_eq!(t.substring(i, j), f.fingerprint(&text[i..j]));
            }
        }
    }

    #[test]
    fn zero_letter_does_not_collapse() {
        let f = fp();
        assert_ne!(f.fingerprint(&[0]), f.fingerprint(&[0, 0]));
        assert_ne!(f.fingerprint(&[0, 1]), f.fingerprint(&[1]));
    }

    #[test]
    fn different_bases_differ() {
        let a = Fingerprinter::with_base(1);
        let b = Fingerprinter::with_base(2);
        assert_ne!(a.fingerprint(b"hello"), b.fingerprint(b"hello"));
    }
}
