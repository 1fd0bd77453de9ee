//! Pre-registered telemetry handles for the ingestion path: WAL
//! durability cost, seal/compaction build time, the live segment
//! count, and the queries that scan an unsealed tail. Resolved once at
//! first touch; the append hot path records through held handles only.

use std::sync::{Arc, OnceLock};
use usi_obs::{default_latency_buckets, Counter, Gauge, Histogram};

/// Every handle the ingestion path records into.
pub(crate) struct IngestMetrics {
    /// Time spent in `fdatasync` per acknowledged WAL batch.
    pub wal_fsync_seconds: Arc<Histogram>,
    pub wal_bytes_written_total: Arc<Counter>,
    pub wal_appends_total: Arc<Counter>,
    /// Time to build one sealed segment from the tail.
    pub seal_seconds: Arc<Histogram>,
    pub seals_total: Arc<Counter>,
    /// Time to build one tier-merge output.
    pub compaction_seconds: Arc<Histogram>,
    pub compactions_total: Arc<Counter>,
    /// Sealed segments currently live, summed across documents (moves
    /// by deltas: +1 per seal, `1 − fanout` per installed compaction).
    pub segments: Arc<Gauge>,
    /// Queries that scanned a non-empty unsealed tail, and the tail
    /// letters they scanned.
    pub tail_scans_total: Arc<Counter>,
    pub tail_letters_scanned_total: Arc<Counter>,
}

/// The process-global handle set, registered on first touch.
pub(crate) fn ingest() -> &'static IngestMetrics {
    static METRICS: OnceLock<IngestMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = usi_obs::global();
        IngestMetrics {
            wal_fsync_seconds: registry.histogram(
                "usi_wal_fsync_seconds",
                "fdatasync latency per acknowledged WAL append batch",
                default_latency_buckets(),
            ),
            wal_bytes_written_total: registry
                .counter("usi_wal_bytes_written_total", "Bytes appended to write-ahead logs"),
            wal_appends_total: registry
                .counter("usi_wal_appends_total", "WAL append batches written"),
            seal_seconds: registry.histogram(
                "usi_ingest_seal_seconds",
                "Time to build one sealed segment from the tail",
                default_latency_buckets(),
            ),
            seals_total: registry.counter("usi_ingest_seals_total", "Tail seals performed"),
            compaction_seconds: registry.histogram(
                "usi_ingest_compaction_seconds",
                "Time to build one tier-merge output",
                default_latency_buckets(),
            ),
            compactions_total: registry
                .counter("usi_ingest_compactions_total", "Tier merges installed"),
            segments: registry.gauge(
                "usi_ingest_segments",
                "Sealed segments currently live across all documents",
            ),
            tail_scans_total: registry.counter(
                "usi_ingest_tail_scans_total",
                "Queries that scanned a non-empty unsealed tail",
            ),
            tail_letters_scanned_total: registry.counter(
                "usi_ingest_tail_letters_scanned_total",
                "Unsealed tail letters scanned by queries",
            ),
        }
    })
}
