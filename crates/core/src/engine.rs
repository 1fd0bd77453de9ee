//! The unified query surface every index backend speaks.
//!
//! The serving layer used to be hard-wired to concrete types — a
//! `match` per call site over frozen [`UsiIndex`]es and live ingestion
//! pipelines. [`QueryEngine`] is the seam that replaces those matches:
//! anything that can answer `U(P)` queries over a weighted string
//! implements it, and consumers (the server's `Doc`, the CLI, tests)
//! dispatch through `&dyn QueryEngine` without caring whether the
//! answers come from owned heap structures, a `.usix` storage view
//! (mapped or read onto the heap), a segmented ingestion index, a
//! replica or another server.
//!
//! Implementations in this workspace:
//!
//! * [`UsiIndex`] — the frozen index, either backing;
//! * `usi_ingest::IngestIndex` / `usi_ingest::IngestPipeline` — the
//!   segmented append log (the pipeline locks internally, so it
//!   implements the trait directly on `&self`);
//! * `usi_repl::FollowerDoc` — a replica replaying a primary's shipped
//!   WAL records into its own `IngestIndex`;
//! * `usi_repl::RemoteDoc` — a document served by another `usi serve`
//!   process, queried over HTTP.

use crate::index::{IndexSize, QuerySource, UsiIndex, UsiQuery};
use usi_strings::{GlobalUtility, UtilityAccumulator};

/// A queryable utility index over one weighted string.
///
/// Batch methods have pattern-order answers identical to looping the
/// single-pattern calls; implementations override them only to amortise
/// per-query setup. The accumulator variants return raw
/// [`UtilityAccumulator`]s so multi-part callers (cross-document
/// fan-out, cross-segment stitching) can merge occurrences before
/// extracting an aggregate through [`crate::merge`].
pub trait QueryEngine {
    /// Answers the global utility `U(P)` of `pattern`.
    fn query(&self, pattern: &[u8]) -> UsiQuery;

    /// Like [`QueryEngine::query`], but returns the raw accumulator.
    fn query_accumulator(&self, pattern: &[u8]) -> (UtilityAccumulator, QuerySource);

    /// Answers a batch of queries, one [`UsiQuery`] per pattern in
    /// order.
    fn query_batch(&self, patterns: &[&[u8]]) -> Vec<UsiQuery> {
        patterns.iter().map(|p| self.query(p)).collect()
    }

    /// Batch variant of [`QueryEngine::query_accumulator`].
    fn query_accumulator_batch(
        &self,
        patterns: &[&[u8]],
    ) -> Vec<(UtilityAccumulator, QuerySource)> {
        patterns.iter().map(|p| self.query_accumulator(p)).collect()
    }

    /// The configured global utility function.
    fn utility(&self) -> GlobalUtility;

    /// Total indexed letters.
    fn indexed_len(&self) -> usize;

    /// Distinct substrings with precomputed utilities (summed over
    /// components for segmented backends).
    fn cached_substrings(&self) -> usize;

    /// Size breakdown of the backing structures.
    fn size_breakdown(&self) -> IndexSize;
}

impl QueryEngine for UsiIndex {
    fn query(&self, pattern: &[u8]) -> UsiQuery {
        UsiIndex::query(self, pattern)
    }

    fn query_accumulator(&self, pattern: &[u8]) -> (UtilityAccumulator, QuerySource) {
        UsiIndex::query_accumulator(self, pattern)
    }

    fn query_batch(&self, patterns: &[&[u8]]) -> Vec<UsiQuery> {
        UsiIndex::query_batch(self, patterns)
    }

    fn query_accumulator_batch(
        &self,
        patterns: &[&[u8]],
    ) -> Vec<(UtilityAccumulator, QuerySource)> {
        UsiIndex::query_accumulator_batch(self, patterns)
    }

    fn utility(&self) -> GlobalUtility {
        UsiIndex::utility(self)
    }

    fn indexed_len(&self) -> usize {
        self.text().len()
    }

    fn cached_substrings(&self) -> usize {
        UsiIndex::cached_substrings(self)
    }

    fn size_breakdown(&self) -> IndexSize {
        UsiIndex::size_breakdown(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UsiBuilder;
    use usi_strings::WeightedString;

    #[test]
    fn dyn_dispatch_matches_inherent_calls() {
        let ws = WeightedString::uniform(b"abracadabra".to_vec(), 1.0);
        let index = UsiBuilder::new().with_k(5).deterministic(9).build(ws);
        let engine: &dyn QueryEngine = &index;
        assert_eq!(engine.query(b"abra"), index.query(b"abra"));
        assert_eq!(engine.indexed_len(), 11);
        assert_eq!(engine.cached_substrings(), index.cached_substrings());
        assert_eq!(engine.utility().aggregator, index.utility().aggregator);
        let patterns: Vec<&[u8]> = vec![b"a", b"abra", b"zz"];
        assert_eq!(engine.query_batch(&patterns), index.query_batch(&patterns));
        let (acc, source) = engine.query_accumulator(b"bra");
        let (want_acc, want_source) = index.query_accumulator(b"bra");
        assert_eq!(acc.to_raw(), want_acc.to_raw());
        assert_eq!(source, want_source);
        assert_eq!(engine.size_breakdown().total(), index.size_breakdown().total());
    }
}
