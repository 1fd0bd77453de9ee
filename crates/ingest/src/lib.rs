//! `usi_ingest` — segmented append-log ingestion for Useful String
//! Indexing: the production-shaped answer to the paper's deferred
//! "online maintenance" problem.
//!
//! The paper observes that maintaining `USI_TOP-K` under appends "can
//! in general be very costly" and defers it (Section X). This crate
//! answers with an LSM-style pipeline per document (O'Neil et al., Acta
//! Informatica 1996): appends never rebuild the whole index, and every
//! acknowledged append survives a crash.
//!
//! * [`wal`] — the `.usil` write-ahead log: length-prefixed,
//!   CRC-checked records, fsync'd before acknowledgement, with clean
//!   truncated-tail recovery (any byte-truncation replays to a valid
//!   prefix state);
//! * [`index`] — the segmented [`IngestIndex`]: frozen base +
//!   immutable sealed segments + live tail, generation-tiered
//!   compaction, queries stitched across component boundaries and
//!   merged through the shared [`usi_core::merge`] seam;
//! * [`pipeline`] — the thread-safe [`IngestPipeline`]: WAL-durable
//!   appends, crash replay, and an optional background compactor that
//!   keeps merges off the write path.
//!
//! ```
//! use usi_core::UsiBuilder;
//! use usi_ingest::{IngestIndex, IngestOptions};
//! use usi_strings::WeightedString;
//!
//! let base = UsiBuilder::new().with_k(4).deterministic(1).build(
//!     WeightedString::uniform(b"abcabc".to_vec(), 1.0),
//! );
//! let mut idx = IngestIndex::new(
//!     base,
//!     IngestOptions { seal_threshold: 4, compact_fanout: 2, ..IngestOptions::default() },
//! );
//! idx.append(b"abcabc", &[1.0; 6]);
//! idx.compact_to_quiescence();
//! // "abc" occurs 4 times in "abcabcabcabc" — one spans the
//! // base/segment boundary and is stitched in by the boundary scan
//! let q = idx.query(b"abc");
//! assert_eq!(q.occurrences, 4);
//! assert_eq!(q.value, Some(12.0));
//! ```

pub mod index;
pub(crate) mod metrics;
pub mod pipeline;
pub mod wal;

pub use index::{check_append, CompactionPlan, IngestIndex, IngestOptions, Segment};
pub use pipeline::{IngestConfig, IngestError, IngestPipeline, IngestStats};
pub use wal::{
    parse_record_at, read_tail, replay_bytes, replay_file, Replay, TailChunk, Wal, WalError,
    WalRecord,
};
