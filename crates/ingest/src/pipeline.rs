//! The WAL-durable, thread-safe ingestion pipeline: what a serving
//! process actually holds per live document.
//!
//! Write path (one lock order, `wal → state`, everywhere):
//!
//! 1. the append is written to the `.usil` log and fsync'd (with
//!    `sync_wal`, the default) — durability before visibility;
//! 2. still under the WAL lock, the letters are pushed into the
//!    in-memory [`IngestIndex`] (sealing the tail into a segment when
//!    the threshold trips), so WAL order always equals memory order;
//! 3. the background compactor is nudged (or, without one, due tiers
//!    are folded inline before returning).
//!
//! The compactor runs on an owned thread: it snapshots a
//! [`CompactionPlan`](crate::index::CompactionPlan) under a read lock,
//! builds the merged segment **off-lock** (queries and appends proceed
//! meanwhile), and installs it under a brief write lock — so the write
//! path never stalls behind a merge build.
//!
//! Crash recovery: [`IngestPipeline::open`] replays the log over the
//! base index (truncating a torn tail first). Replay re-runs the same
//! deterministic seal policy, and the equivalence invariant guarantees
//! any compaction schedule answers identically, so the recovered
//! pipeline is observationally the pre-crash one.

use crate::index::{check_append, IngestIndex, IngestOptions};
use crate::wal::{Replay, Wal, WalError};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;
use usi_core::{QuerySource, UsiIndex, UsiQuery};
use usi_strings::{LocalWindow, UtilityAccumulator};

/// Pipeline configuration: the in-memory knobs plus durability and
/// threading choices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestConfig {
    /// Seal the tail into a segment at this many letters.
    pub seal_threshold: usize,
    /// Merge a generation tier at this many segments.
    pub compact_fanout: usize,
    /// Deterministic fingerprint seed for segment builds.
    pub seed: u64,
    /// `fdatasync` the log on every append (durable acknowledgements).
    /// Disable only for benchmarks and bulk loads that re-replay on
    /// failure.
    pub sync_wal: bool,
    /// Run compaction on a background thread instead of inline on the
    /// append path.
    pub background_compaction: bool,
    /// Persist sealed/compacted segments under this directory and
    /// serve them through zero-copy storage views; created on open.
    /// See [`IngestOptions::segment_dir`].
    pub segment_dir: Option<std::path::PathBuf>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        let opts = IngestOptions::default();
        Self {
            seal_threshold: opts.seal_threshold,
            compact_fanout: opts.compact_fanout,
            seed: opts.seed,
            sync_wal: true,
            background_compaction: false,
            segment_dir: None,
        }
    }
}

impl IngestConfig {
    fn options(&self) -> IngestOptions {
        IngestOptions {
            seal_threshold: self.seal_threshold,
            compact_fanout: self.compact_fanout,
            seed: self.seed,
            segment_dir: self.segment_dir.clone(),
        }
    }
}

/// Errors surfaced by the append path.
#[derive(Debug)]
pub enum IngestError {
    /// WAL open/replay failure.
    Wal(WalError),
    /// WAL write failure (the in-memory state was **not** changed).
    Io(io::Error),
    /// Invalid input (see [`check_append`]), in an append or in a
    /// replayed log record.
    Input(String),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Wal(e) => write!(f, "write-ahead log: {e}"),
            Self::Io(e) => write!(f, "write-ahead log i/o: {e}"),
            Self::Input(what) => write!(f, "invalid append: {what}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<WalError> for IngestError {
    fn from(e: WalError) -> Self {
        Self::Wal(e)
    }
}

impl From<io::Error> for IngestError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Bounded-staleness statistics, the serving layer's
/// `/v1/docs/{id}/stats` payload.
#[derive(Debug, Clone, Copy)]
pub struct IngestStats {
    /// Total indexed letters (base + segments + tail).
    pub n: usize,
    /// Letters in the frozen base index.
    pub base_n: usize,
    /// Sealed segments currently live.
    pub segments: usize,
    /// Letters buffered in the unsealed tail.
    pub tail_len: usize,
    /// Bytes in the write-ahead log (magic + clean records).
    pub wal_bytes: u64,
    /// Tail seals performed since open.
    pub seals: u64,
    /// Tier merges performed since open.
    pub compactions: u64,
    /// Time since the last tier merge finished, if any ran.
    pub last_compaction: Option<Duration>,
}

/// Signalling between the append path and the background compactor.
#[derive(Debug, Default)]
struct CompactorSignal {
    nudge: Mutex<bool>,
    condvar: Condvar,
}

/// The WAL-durable ingestion pipeline. Cheap to share behind an `Arc`;
/// all methods take `&self`.
#[derive(Debug)]
pub struct IngestPipeline {
    state: Arc<RwLock<IngestIndex>>,
    wal: Mutex<Wal>,
    /// The base's local window, which every append is checked against.
    local: LocalWindow,
    background: bool,
    signal: Arc<CompactorSignal>,
    shutdown: Arc<AtomicBool>,
    compactor: Option<JoinHandle<()>>,
}

impl IngestPipeline {
    /// Opens the pipeline: wraps `base`, replays (and tail-truncates)
    /// the log at `wal_path`, and — with `background_compaction` —
    /// starts the compactor thread. Returns the pipeline and the
    /// replay report (how many records were recovered, whether a torn
    /// tail was dropped). A replayed record that [`check_append`]
    /// refuses fails the open with [`IngestError::Input`] naming it.
    pub fn open(
        base: UsiIndex,
        wal_path: &Path,
        config: IngestConfig,
    ) -> Result<(Self, Replay), IngestError> {
        if let Some(dir) = &config.segment_dir {
            std::fs::create_dir_all(dir)?;
        }
        let (wal, replay) = Wal::open(wal_path, config.sync_wal)?;
        let local = base.utility().local;
        let mut index = IngestIndex::new(base, config.options());
        for (i, record) in replay.records.iter().enumerate() {
            check_append(&record.text, &record.weights, local).map_err(|what| {
                IngestError::Input(format!(
                    "log record {} of {}: {what}",
                    i + 1,
                    replay.records.len()
                ))
            })?;
            index.append(&record.text, &record.weights);
        }
        if !config.background_compaction {
            index.compact_to_quiescence();
        }
        let state = Arc::new(RwLock::new(index));
        let signal = Arc::new(CompactorSignal::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let compactor = if config.background_compaction {
            Some(Self::spawn_compactor(&state, &signal, &shutdown)?)
        } else {
            None
        };
        let pipeline = Self {
            state,
            wal: Mutex::new(wal),
            local,
            background: config.background_compaction,
            signal,
            shutdown,
            compactor,
        };
        if pipeline.background {
            pipeline.nudge_compactor(); // replay may have left full tiers
        }
        Ok((pipeline, replay))
    }

    fn spawn_compactor(
        state: &Arc<RwLock<IngestIndex>>,
        signal: &Arc<CompactorSignal>,
        shutdown: &Arc<AtomicBool>,
    ) -> io::Result<JoinHandle<()>> {
        let state = Arc::clone(state);
        let signal = Arc::clone(signal);
        let shutdown = Arc::clone(shutdown);
        std::thread::Builder::new().name("usi-compactor".into()).spawn(move || {
            loop {
                {
                    let mut nudged = signal.nudge.lock().expect("compactor signal lock poisoned");
                    while !*nudged && !shutdown.load(Ordering::SeqCst) {
                        nudged =
                            signal.condvar.wait(nudged).expect("compactor signal lock poisoned");
                    }
                    *nudged = false;
                }
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // fold every due tier: plan under a read lock, build
                // off-lock, install under a brief write lock
                loop {
                    let plan_and_builder = {
                        let guard = state.read().expect("ingest state lock poisoned");
                        guard.compaction_plan().map(|plan| (plan, guard.segment_builder()))
                    };
                    let Some((plan, builder)) = plan_and_builder else { break };
                    let merged = plan.build(&builder);
                    let mut guard = state.write().expect("ingest state lock poisoned");
                    guard.install_compaction(&plan, merged);
                    // notify any wait_for_quiescence() sleeper
                    signal.condvar.notify_all();
                }
            }
        })
    }

    fn nudge_compactor(&self) {
        let mut nudged = self.signal.nudge.lock().expect("compactor signal lock poisoned");
        *nudged = true;
        self.signal.condvar.notify_all();
    }

    /// Appends a batch of weighted letters: WAL first (fsync'd under
    /// the default config), then memory, then compaction. On `Err` the
    /// in-memory state is unchanged; on `Ok` the append is durable.
    pub fn append(&self, text: &[u8], weights: &[f64]) -> Result<(), IngestError> {
        check_append(text, weights, self.local).map_err(IngestError::Input)?;
        if text.is_empty() {
            return Ok(());
        }
        {
            // hold the WAL lock across the state update so WAL order
            // always equals in-memory order (replay reproduces it)
            let mut wal = self.wal.lock().expect("wal lock poisoned");
            wal.append(text, weights)?;
            let mut state = self.state.write().expect("ingest state lock poisoned");
            state.append(text, weights);
            if !self.background {
                state.compact_to_quiescence();
            }
        }
        if self.background {
            self.nudge_compactor();
        }
        Ok(())
    }

    /// Appends every letter with the same weight.
    pub fn append_uniform(&self, text: &[u8], weight: f64) -> Result<(), IngestError> {
        self.append(text, &vec![weight; text.len()])
    }

    /// Answers `U(P)` over the full (base + segments + tail) string.
    pub fn query(&self, pattern: &[u8]) -> UsiQuery {
        self.state.read().expect("ingest state lock poisoned").query(pattern)
    }

    /// Raw-accumulator variant for fan-out callers.
    pub fn query_accumulator(&self, pattern: &[u8]) -> (UtilityAccumulator, QuerySource) {
        self.state.read().expect("ingest state lock poisoned").query_accumulator(pattern)
    }

    /// Batch variant; answers are in pattern order.
    pub fn query_batch(&self, patterns: &[&[u8]]) -> Vec<UsiQuery> {
        self.state.read().expect("ingest state lock poisoned").query_batch(patterns)
    }

    /// Raw-accumulator batch variant for fan-out callers, under one
    /// state read-lock acquisition.
    pub fn query_accumulator_batch(
        &self,
        patterns: &[&[u8]],
    ) -> Vec<(UtilityAccumulator, QuerySource)> {
        let state = self.state.read().expect("ingest state lock poisoned");
        patterns.iter().map(|p| state.query_accumulator(p)).collect()
    }

    /// Runs `f` over the current in-memory state (read lock held for
    /// the duration).
    pub fn with_state<T>(&self, f: impl FnOnce(&IngestIndex) -> T) -> T {
        f(&self.state.read().expect("ingest state lock poisoned"))
    }

    /// The write-ahead log's path and committed clean length, the view
    /// a WAL shipper tails: every byte below the returned length is a
    /// whole, CRC-valid record already acknowledged to a writer.
    pub fn wal_view(&self) -> (std::path::PathBuf, u64) {
        let wal = self.wal.lock().expect("wal lock poisoned");
        (wal.path().to_path_buf(), wal.bytes())
    }

    /// Bounded-staleness statistics.
    pub fn stats(&self) -> IngestStats {
        let wal_bytes = self.wal.lock().expect("wal lock poisoned").bytes();
        let state = self.state.read().expect("ingest state lock poisoned");
        IngestStats {
            n: state.len(),
            base_n: state.base().text().len(),
            segments: state.segments().len(),
            tail_len: state.tail_len(),
            wal_bytes,
            seals: state.seals(),
            compactions: state.compactions(),
            last_compaction: state.last_compaction().map(|at| at.elapsed()),
        }
    }

    /// Blocks until no tier is due for merging (or the timeout passes).
    /// Returns whether quiescence was reached. Meaningful with a
    /// background compactor; inline pipelines are always quiescent.
    pub fn wait_for_quiescence(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let due = {
                let state = self.state.read().expect("ingest state lock poisoned");
                state.compaction_plan().is_some()
            };
            if !due {
                return true;
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            let nudged = self.signal.nudge.lock().expect("compactor signal lock poisoned");
            let _ = self
                .signal
                .condvar
                .wait_timeout(nudged, Duration::from_millis(10))
                .expect("compactor signal lock poisoned");
        }
    }
}

impl usi_core::QueryEngine for IngestPipeline {
    fn query(&self, pattern: &[u8]) -> UsiQuery {
        IngestPipeline::query(self, pattern)
    }

    fn query_accumulator(&self, pattern: &[u8]) -> (UtilityAccumulator, QuerySource) {
        IngestPipeline::query_accumulator(self, pattern)
    }

    fn query_batch(&self, patterns: &[&[u8]]) -> Vec<UsiQuery> {
        IngestPipeline::query_batch(self, patterns)
    }

    fn query_accumulator_batch(
        &self,
        patterns: &[&[u8]],
    ) -> Vec<(UtilityAccumulator, QuerySource)> {
        IngestPipeline::query_accumulator_batch(self, patterns)
    }

    fn utility(&self) -> usi_strings::GlobalUtility {
        self.with_state(|s| s.utility())
    }

    fn indexed_len(&self) -> usize {
        self.with_state(|s| s.len())
    }

    fn cached_substrings(&self) -> usize {
        self.with_state(usi_core::QueryEngine::cached_substrings)
    }

    fn size_breakdown(&self) -> usi_core::index::IndexSize {
        self.with_state(|s| s.size_breakdown())
    }
}

impl Drop for IngestPipeline {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.signal.condvar.notify_all();
        if let Some(thread) = self.compactor.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::path::PathBuf;
    use usi_core::UsiBuilder;
    use usi_strings::WeightedString;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("usi-pipeline-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn base_index(seed: u64, n: usize) -> UsiIndex {
        let mut rng = StdRng::seed_from_u64(seed);
        let text: Vec<u8> = (0..n).map(|_| b'a' + rng.gen_range(0..3u8)).collect();
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0..8) as f64 * 0.25).collect();
        UsiBuilder::new()
            .with_k(20)
            .deterministic(seed)
            .build(WeightedString::new(text, weights).unwrap())
    }

    fn config() -> IngestConfig {
        IngestConfig {
            seal_threshold: 8,
            compact_fanout: 2,
            sync_wal: false,
            ..IngestConfig::default()
        }
    }

    #[test]
    fn append_then_reopen_replays_to_the_same_answers() {
        let path = tmp("reopen.usil");
        let _ = std::fs::remove_file(&path);
        let (pipeline, replay) = IngestPipeline::open(base_index(1, 100), &path, config()).unwrap();
        assert!(replay.records.is_empty());
        pipeline.append(b"abcabcabc", &[1.0; 9]).unwrap();
        pipeline.append_uniform(b"cab", 0.5).unwrap();
        let before: Vec<UsiQuery> =
            [&b"abc"[..], b"ca", b"b"].iter().map(|p| pipeline.query(p)).collect();
        let text_before = pipeline.with_state(|s| s.text());
        drop(pipeline); // "crash": nothing beyond the per-append fsyncs

        let (reopened, replay) = IngestPipeline::open(base_index(1, 100), &path, config()).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert!(!replay.truncated);
        assert_eq!(reopened.with_state(|s| s.text()), text_before);
        for (pattern, want) in [&b"abc"[..], b"ca", b"b"].iter().zip(&before) {
            let got = reopened.query(pattern);
            assert_eq!(got.occurrences, want.occurrences, "{pattern:?}");
            assert_eq!(got.value, want.value, "{pattern:?}");
        }
    }

    #[test]
    fn background_compactor_reaches_quiescence() {
        let path = tmp("background.usil");
        let _ = std::fs::remove_file(&path);
        let (pipeline, _) = IngestPipeline::open(
            base_index(2, 50),
            &path,
            IngestConfig { background_compaction: true, ..config() },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let letters: Vec<u8> = (0..10).map(|_| b'a' + rng.gen_range(0..3u8)).collect();
            pipeline.append_uniform(&letters, 1.0).unwrap();
        }
        assert!(pipeline.wait_for_quiescence(Duration::from_secs(30)), "compactor stalled");
        let stats = pipeline.stats();
        assert!(stats.compactions > 0, "background compactor never ran");
        assert!(stats.last_compaction.is_some());

        // answers equal a from-scratch build over the concatenated text
        let full = WeightedString::new(
            pipeline.with_state(|s| s.text()),
            pipeline.with_state(|s| s.weights()),
        )
        .unwrap();
        let scratch = UsiBuilder::new().with_k(20).deterministic(2).build(full);
        for pattern in [&b"a"[..], b"ab", b"bca", b"zzz"] {
            let got = pipeline.query(pattern);
            let want = scratch.query(pattern);
            assert_eq!(got.occurrences, want.occurrences, "{pattern:?}");
            assert_eq!(got.value, want.value, "{pattern:?}");
        }
    }

    #[test]
    fn invalid_appends_change_nothing() {
        let path = tmp("invalid.usil");
        let _ = std::fs::remove_file(&path);
        let (pipeline, _) = IngestPipeline::open(base_index(3, 30), &path, config()).unwrap();
        let n0 = pipeline.stats().n;
        assert!(matches!(pipeline.append(b"ab", &[1.0]), Err(IngestError::Input(_))));
        assert!(matches!(pipeline.append(b"a", &[f64::NAN]), Err(IngestError::Input(_))));
        pipeline.append(b"", &[]).unwrap(); // no-op, not an error
        assert_eq!(pipeline.stats().n, n0);
        assert_eq!(pipeline.stats().wal_bytes, crate::wal::MAGIC.len() as u64);
    }

    fn product_base() -> UsiIndex {
        UsiBuilder::new()
            .with_k(4)
            .with_local_window(LocalWindow::Product)
            .deterministic(6)
            .build(WeightedString::uniform(b"abcabc".to_vec(), 0.5))
    }

    #[test]
    fn non_positive_weights_on_a_product_doc_are_refused() {
        let path = tmp("product.usil");
        let _ = std::fs::remove_file(&path);
        let (pipeline, _) = IngestPipeline::open(product_base(), &path, config()).unwrap();
        let before = pipeline.query(b"abc");
        // eight letters fill the tail to the seal threshold: were they
        // accepted, the seal would take ln(0) or ln(-1)
        for weight in [0.0, -1.0] {
            let refused = pipeline.append_uniform(b"abababab", weight);
            assert!(matches!(refused, Err(IngestError::Input(_))), "weight {weight}: {refused:?}");
        }
        assert_eq!(pipeline.stats().wal_bytes, crate::wal::MAGIC.len() as u64);
        assert_eq!(pipeline.stats().n, 6);
        assert_eq!(pipeline.query(b"abc"), before);
        // the document keeps taking valid appends
        pipeline.append_uniform(b"abababab", 0.5).unwrap();
        assert_eq!(pipeline.stats().seals, 1);
        assert_eq!(pipeline.query(b"ab").occurrences, 6);
    }

    #[test]
    fn replaying_a_non_positive_product_weight_is_an_error() {
        // a log written before appends were checked against the local
        let path = tmp("product-replay.usil");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, false).unwrap();
        wal.append(b"cab", &[0.5; 3]).unwrap();
        wal.append(b"abababab", &[0.0; 8]).unwrap();
        drop(wal);
        let Err(IngestError::Input(what)) = IngestPipeline::open(product_base(), &path, config())
        else {
            panic!("the replay must refuse the zero weight");
        };
        assert!(what.contains("record 2 of 2"), "{what}");
    }

    #[test]
    fn stats_reflect_the_layout() {
        let path = tmp("stats.usil");
        let _ = std::fs::remove_file(&path);
        let (pipeline, _) = IngestPipeline::open(base_index(4, 40), &path, config()).unwrap();
        pipeline.append_uniform(b"abcabcabcab", 1.0).unwrap(); // 11 letters, threshold 8
        let stats = pipeline.stats();
        assert_eq!(stats.base_n, 40);
        assert_eq!(stats.n, 51);
        assert_eq!(stats.tail_len, 3);
        assert_eq!(stats.seals, 1);
        assert!(stats.wal_bytes > crate::wal::MAGIC.len() as u64);
    }
}
