//! Sparse-table range-minimum queries.
//!
//! `O(n log n)` construction, `O(1)` query. Used by [`crate::lce::RmqLce`]
//! to answer LCE queries as range minima over the LCP array.

use usi_strings::HeapSize;

/// Immutable RMQ structure over a `u32` array.
///
/// ```
/// use usi_suffix::SparseTableRmq;
/// let rmq = SparseTableRmq::new(&[3, 1, 4, 1, 5, 9, 2, 6]);
/// assert_eq!(rmq.min(0, 8), 1);
/// assert_eq!(rmq.min(4, 6), 5);
/// assert_eq!(rmq.min(6, 7), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SparseTableRmq {
    /// `table[k][i]` = min of `data[i .. i + 2^k)`; row 0 is the data.
    table: Vec<Vec<u32>>,
    len: usize,
}

impl SparseTableRmq {
    /// Builds the table. `O(n log n)` time and space.
    pub fn new(data: &[u32]) -> Self {
        let n = data.len();
        let levels = if n <= 1 { 1 } else { n.ilog2() as usize + 1 };
        let mut table = Vec::with_capacity(levels);
        table.push(data.to_vec());
        for k in 1..levels {
            let half = 1usize << (k - 1);
            let prev = &table[k - 1];
            let row_len = n + 1 - (1 << k);
            let mut row = Vec::with_capacity(row_len);
            for i in 0..row_len {
                row.push(prev[i].min(prev[i + half]));
            }
            table.push(row);
        }
        Self { table, len: n }
    }

    /// Number of elements covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying array was empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Minimum of `data[l..r)` in `O(1)`.
    ///
    /// # Panics
    /// Panics if `l >= r` or `r > len` — an empty range has no minimum.
    #[inline]
    pub fn min(&self, l: usize, r: usize) -> u32 {
        assert!(l < r && r <= self.len, "invalid RMQ range {l}..{r}");
        let k = (r - l).ilog2() as usize;
        let row = &self.table[k];
        row[l].min(row[r - (1 << k)])
    }
}

impl HeapSize for SparseTableRmq {
    fn heap_bytes(&self) -> usize {
        self.table.iter().map(|row| row.heap_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn matches_naive_scan() {
        let mut rng = StdRng::seed_from_u64(3);
        for len in [1usize, 2, 3, 17, 100] {
            let data: Vec<u32> = (0..len).map(|_| rng.gen_range(0..50)).collect();
            let rmq = SparseTableRmq::new(&data);
            for l in 0..len {
                for r in (l + 1)..=len {
                    let naive = *data[l..r].iter().min().unwrap();
                    assert_eq!(rmq.min(l, r), naive, "{l}..{r} of {data:?}");
                }
            }
        }
    }

    #[test]
    fn singleton() {
        let rmq = SparseTableRmq::new(&[42]);
        assert_eq!(rmq.min(0, 1), 42);
        assert_eq!(rmq.len(), 1);
    }

    #[test]
    #[should_panic(expected = "invalid RMQ range")]
    fn empty_range_panics() {
        SparseTableRmq::new(&[1, 2, 3]).min(1, 1);
    }

    #[test]
    #[should_panic(expected = "invalid RMQ range")]
    fn out_of_bounds_panics() {
        SparseTableRmq::new(&[1, 2, 3]).min(0, 4);
    }
}
