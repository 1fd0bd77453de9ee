//! The WAL-durable, thread-safe ingestion pipeline: what a serving
//! process actually holds per live document.
//!
//! Write path (one lock order, `wal → state`, everywhere):
//!
//! 1. the append is written to the `.usil` log and fsync'd (with
//!    `sync_wal`, the default) — durability before visibility;
//! 2. still under the WAL lock, the letters are copied into the
//!    in-memory [`IngestIndex`]'s tail, so WAL order always equals
//!    memory order. With `background_compaction` (what `usi serve
//!    --ingest-wal` runs) the append first waits, if a seal is still
//!    due from the last batch, until the tail holds fewer than
//!    `seal_threshold` letters, and returns without sealing; inline
//!    pipelines seal every due segment and fold due tiers before
//!    returning;
//! 3. the background sealer is woken when a seal is due.
//!
//! A background pipeline runs two owned threads beside the append
//! path. The **sealer** plans a seal of the tail's first
//! `seal_threshold` letters under a read lock, builds the segment
//! **off-lock**, and installs it under a brief write lock; the
//! **compactor** does the same for each due tier merge
//! ([`CompactionPlan`](crate::index::CompactionPlan)). Seals never
//! queue behind a merge, and queries and appends proceed while either
//! builds. Both threads run under Linux's `SCHED_BATCH` policy, so a
//! build never preempts the request thread that woke it. Until its seal
//! installs, a batch's letters are answered from the tail, which the
//! query scans in place.
//!
//! Crash recovery: [`IngestPipeline::open`] replays the log over the
//! base index (truncating a torn tail first). Replay seals inline at
//! the same deterministic boundaries (every `seal_threshold` letters),
//! and the equivalence invariant guarantees any compaction schedule
//! answers identically, so the recovered pipeline is observationally
//! the pre-crash one.

use crate::index::{check_append, IngestIndex, IngestOptions};
use crate::wal::{Replay, Wal, WalError};
use std::io;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
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
    /// Run seals and compaction on two background threads per pipeline
    /// (a sealer and a compactor) instead of inline on the append path.
    /// An append then returns once its record is durable and its
    /// letters are in the tail; it waits only while a seal from an
    /// earlier batch is still due, so the tail stays below
    /// `seal_threshold` plus one batch.
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
    /// Letters buffered in the unsealed tail. In a background pipeline
    /// a seal may still be pending, so this can reach `seal_threshold`
    /// plus one batch until the sealer installs the segment.
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

/// Wake-ups between the append path, the sealer and the compactor.
/// Every flag changes, and every wait checks its condition, under the
/// one mutex, so no wake-up is lost between a check and its wait.
#[derive(Debug, Default)]
struct Signal {
    wake: Mutex<Wake>,
    condvar: Condvar,
}

#[derive(Debug, Default)]
struct Wake {
    /// A seal may be due.
    seal: bool,
    /// A tier merge may be due.
    compact: bool,
    /// The pipeline is dropping: both threads exit.
    shutdown: bool,
}

impl Signal {
    fn lock(&self) -> MutexGuard<'_, Wake> {
        self.wake.lock().expect("pipeline signal lock poisoned")
    }

    fn wait<'a>(&self, wake: MutexGuard<'a, Wake>) -> MutexGuard<'a, Wake> {
        self.condvar.wait(wake).expect("pipeline signal lock poisoned")
    }

    /// Updates the flags and wakes every waiter.
    fn raise(&self, update: impl FnOnce(&mut Wake)) {
        update(&mut self.lock());
        self.condvar.notify_all();
    }

    fn shutting_down(&self) -> bool {
        self.lock().shutdown
    }
}

/// The in-memory [`IngestIndex`] behind a reader-writer lock with a
/// turnstile. A writer holds the turnstile while it waits for the
/// readers in flight to leave, so new readers queue behind it. `std`'s
/// `RwLock` alone wakes the writer when the last reader leaves but does
/// not hand it the lock: a reader that queries in a tight loop takes it
/// back first, and with every core busy a seal's install lost that race
/// for up to 41 ms at a time.
#[derive(Debug)]
struct StateLock {
    turnstile: Mutex<()>,
    index: RwLock<IngestIndex>,
}

impl StateLock {
    fn new(index: IngestIndex) -> Self {
        Self { turnstile: Mutex::new(()), index: RwLock::new(index) }
    }

    fn read(&self) -> RwLockReadGuard<'_, IngestIndex> {
        let _turn = self.turnstile.lock().expect("ingest state turnstile poisoned");
        self.index.read().expect("ingest state lock poisoned")
    }

    fn write(&self) -> RwLockWriteGuard<'_, IngestIndex> {
        let _turn = self.turnstile.lock().expect("ingest state turnstile poisoned");
        self.index.write().expect("ingest state lock poisoned")
    }
}

/// The WAL-durable ingestion pipeline. Cheap to share behind an `Arc`;
/// all methods take `&self`.
#[derive(Debug)]
pub struct IngestPipeline {
    state: Arc<StateLock>,
    wal: Mutex<Wal>,
    /// The base's local window, which every append is checked against.
    local: LocalWindow,
    background: bool,
    signal: Arc<Signal>,
    /// The sealer and the compactor, when `background`.
    workers: Vec<JoinHandle<()>>,
}

impl IngestPipeline {
    /// Opens the pipeline: wraps `base`, replays (and tail-truncates)
    /// the log at `wal_path`, and — with `background_compaction` —
    /// starts the sealer and compactor threads. Returns the pipeline and
    /// the replay report (how many records were recovered, whether a
    /// torn tail was dropped). A replayed record that [`check_append`]
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
        let mut pipeline = Self {
            state: Arc::new(StateLock::new(index)),
            wal: Mutex::new(wal),
            local,
            background: config.background_compaction,
            signal: Arc::new(Signal::default()),
            workers: Vec::new(),
        };
        if pipeline.background {
            // each worker takes its flag, then runs its step until
            // nothing is due; every installed seal may fill a tier
            let sealer = pipeline.spawn_worker(
                "usi-sealer",
                |wake| std::mem::take(&mut wake.seal),
                seal_step,
                |wake| wake.compact = true,
            )?;
            pipeline.workers.push(sealer);
            let compactor = pipeline.spawn_worker(
                "usi-compactor",
                |wake| std::mem::take(&mut wake.compact),
                compact_step,
                |_| {},
            )?;
            pipeline.workers.push(compactor);
            // replay may have left full tiers
            pipeline.signal.raise(|wake| wake.compact = true);
        }
        Ok((pipeline, replay))
    }

    /// Spawns one background worker: it sleeps until `claim` takes its
    /// flag, then runs `step` (one plan, build and install) until
    /// `step` finds nothing due, raising `installed` after each install
    /// so waiters re-check the state. It exits on shutdown.
    fn spawn_worker(
        &self,
        name: &str,
        claim: fn(&mut Wake) -> bool,
        step: fn(&StateLock) -> bool,
        installed: fn(&mut Wake),
    ) -> io::Result<JoinHandle<()>> {
        let state = Arc::clone(&self.state);
        let signal = Arc::clone(&self.signal);
        std::thread::Builder::new().name(name.into()).spawn(move || {
            schedule_as_batch();
            loop {
                {
                    let mut wake = signal.lock();
                    while !wake.shutdown && !claim(&mut wake) {
                        wake = signal.wait(wake);
                    }
                    if wake.shutdown {
                        return;
                    }
                }
                while !signal.shutting_down() && step(&state) {
                    signal.raise(installed);
                }
            }
        })
    }

    /// Appends a batch of weighted letters: WAL first (fsync'd under
    /// the default config), then memory. On `Err` the in-memory state
    /// is unchanged; on `Ok` the append is durable and visible to
    /// queries. A background pipeline returns without sealing; see
    /// [`IngestConfig::background_compaction`].
    pub fn append(&self, text: &[u8], weights: &[f64]) -> Result<(), IngestError> {
        check_append(text, weights, self.local).map_err(IngestError::Input)?;
        if text.is_empty() {
            return Ok(());
        }
        // hold the WAL lock across the state update so WAL order
        // always equals in-memory order (replay reproduces it)
        let mut wal = self.wal.lock().expect("wal lock poisoned");
        wal.append(text, weights)?;
        if !self.background {
            let mut state = self.state.write();
            state.append(text, weights);
            state.compact_to_quiescence();
            return Ok(());
        }
        // backpressure: while an earlier batch's seal is still due, wait
        // for the sealer (under the WAL lock, so no other append slips
        // in, but not the state lock, so queries go on)
        let mut wake = self.signal.lock();
        while self.state.read().seal_due() {
            wake = self.signal.wait(wake);
        }
        drop(wake);
        let mut state = self.state.write();
        state.extend_tail(text, weights);
        let due = state.seal_due();
        drop(state);
        drop(wal);
        if due {
            self.signal.raise(|wake| wake.seal = true);
        }
        Ok(())
    }

    /// Appends every letter with the same weight.
    pub fn append_uniform(&self, text: &[u8], weight: f64) -> Result<(), IngestError> {
        self.append(text, &vec![weight; text.len()])
    }

    /// Answers `U(P)` over the full (base + segments + tail) string.
    pub fn query(&self, pattern: &[u8]) -> UsiQuery {
        self.state.read().query(pattern)
    }

    /// Raw-accumulator variant for fan-out callers.
    pub fn query_accumulator(&self, pattern: &[u8]) -> (UtilityAccumulator, QuerySource) {
        self.state.read().query_accumulator(pattern)
    }

    /// Batch variant; answers are in pattern order.
    pub fn query_batch(&self, patterns: &[&[u8]]) -> Vec<UsiQuery> {
        self.state.read().query_batch(patterns)
    }

    /// Raw-accumulator batch variant for fan-out callers, under one
    /// state read-lock acquisition.
    pub fn query_accumulator_batch(
        &self,
        patterns: &[&[u8]],
    ) -> Vec<(UtilityAccumulator, QuerySource)> {
        let state = self.state.read();
        patterns.iter().map(|p| state.query_accumulator(p)).collect()
    }

    /// Runs `f` over the current in-memory state (read lock held for
    /// the duration).
    pub fn with_state<T>(&self, f: impl FnOnce(&IngestIndex) -> T) -> T {
        f(&self.state.read())
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
        let state = self.state.read();
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

    /// Blocks until no seal and no tier merge is due (or the timeout
    /// passes). Returns whether quiescence was reached. Meaningful with
    /// background threads; inline pipelines are always quiescent.
    pub fn wait_for_quiescence(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut wake = self.signal.lock();
        loop {
            let due = {
                let state = self.state.read();
                state.seal_due() || state.compaction_plan().is_some()
            };
            let now = Instant::now();
            if !due || now >= deadline {
                return !due;
            }
            wake = self
                .signal
                .condvar
                .wait_timeout(wake, deadline - now)
                .expect("pipeline signal lock poisoned")
                .0;
        }
    }
}

/// The sealer's step: plans the next due seal under a read lock, builds
/// it off-lock and installs it under the write lock. Returns whether a
/// seal was due.
fn seal_step(state: &StateLock) -> bool {
    let planned = {
        let guard = state.read();
        guard.seal_plan().map(|plan| (plan, guard.segment_builder()))
    };
    let Some((plan, builder)) = planned else { return false };
    let index = plan.build(&builder);
    state.write().install_seal(&plan, index);
    true
}

/// The compactor's step: the same three steps for the next due tier
/// merge.
fn compact_step(state: &StateLock) -> bool {
    let planned = {
        let guard = state.read();
        guard.compaction_plan().map(|plan| (plan, guard.segment_builder()))
    };
    let Some((plan, builder)) = planned else { return false };
    let merged = plan.build(&builder);
    state.write().install_compaction(&plan, merged);
    true
}

/// Puts the calling thread under Linux's `SCHED_BATCH` policy: a batch
/// thread keeps its fair share of the CPU but never preempts a running
/// thread when it wakes. The append that wakes the sealer has yet to
/// answer its client; on a busy core a normal sealer would take the CPU
/// from it and put the whole build before the response. Best effort:
/// if the kernel refuses, the thread keeps the normal policy.
#[cfg(target_os = "linux")]
fn schedule_as_batch() {
    use std::ffi::c_int;

    /// The kernel's `struct sched_param`.
    #[repr(C)]
    struct SchedParam {
        sched_priority: c_int,
    }
    const SCHED_BATCH: c_int = 3;
    extern "C" {
        fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
    }
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: pid 0 names the calling thread, and `param` is a valid
    // `struct sched_param` (priority 0, as SCHED_BATCH requires) that
    // outlives the call, which only reads it.
    let _ = unsafe { sched_setscheduler(0, SCHED_BATCH, &param) };
}

#[cfg(not(target_os = "linux"))]
fn schedule_as_batch() {}

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
        // under the signal mutex, so a worker between its check and its
        // wait cannot miss it
        self.signal.raise(|wake| wake.shutdown = true);
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp_dir::TempDir;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::path::PathBuf;
    use usi_core::UsiBuilder;
    use usi_strings::WeightedString;

    /// A fresh directory for one test (removed on drop) and the log
    /// path `name` in it.
    fn tmp(name: &str) -> (TempDir, PathBuf) {
        let dir = TempDir::new(&format!("usi-pipeline-tests-{name}"));
        let path = dir.join(name);
        (dir, path)
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
        let (_dir, path) = tmp("reopen.usil");
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
        let (_dir, path) = tmp("background.usil");
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
    fn background_appends_keep_the_tail_bounded() {
        let (_dir, path) = tmp("bounded.usil");
        let config = IngestConfig { background_compaction: true, ..config() };
        let threshold = config.seal_threshold;
        let (pipeline, _) = IngestPipeline::open(base_index(6, 50), &path, config).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let len = rng.gen_range(1..4 * threshold);
            let letters: Vec<u8> = (0..len).map(|_| b'a' + rng.gen_range(0..3u8)).collect();
            pipeline.append_uniform(&letters, 1.0).unwrap();
            // back to back: nothing appends between the acknowledgement
            // and this read, and the sealer only shortens the tail
            let tail = pipeline.stats().tail_len;
            assert!(tail < threshold + len, "tail {tail} after a {len}-letter append");
        }
        assert!(pipeline.wait_for_quiescence(Duration::from_secs(30)), "workers stalled");
        assert!(pipeline.stats().tail_len < threshold);
    }

    #[test]
    fn invalid_appends_change_nothing() {
        let (_dir, path) = tmp("invalid.usil");
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
        let (_dir, path) = tmp("product.usil");
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
        let (_dir, path) = tmp("product-replay.usil");
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
        let (_dir, path) = tmp("stats.usil");
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
