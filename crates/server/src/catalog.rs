//! A sharded multi-index registry: many documents — frozen
//! [`UsiIndex`]es or live [`IngestPipeline`]s — served from one
//! process.
//!
//! Documents are partitioned over a fixed number of shards by a hash of
//! their id. Each shard is an `RwLock<map>` whose values are
//! `Arc<Doc>`: a query takes the shard read-lock only long enough to
//! clone the `Arc`, then runs against the document with no shard lock
//! held — so long queries never block loads and loads never block
//! queries on other shards.
//!
//! Every read goes straight to the document's engine. There is no
//! pattern cache in front of it: the index's hash table `H` already
//! answers the top-K frequent substrings in `O(m)`.
//!
//! Query surface:
//!
//! * [`Catalog::query`] / [`Catalog::query_batch`] — one document,
//!   routed by id;
//! * [`Catalog::query_all`] / [`Catalog::query_all_batch`] — fan-out: a
//!   pattern's utility on every loaded document, plus the merged
//!   accumulator across documents (the whole-corpus answer), combined
//!   through the shared [`usi_core::merge`] helper — the same
//!   implementation the ingestion layer uses to merge per-segment
//!   answers.
//!
//! Both run a batch inline on the caller's thread unless it holds at
//! least `MIN_LOOKUPS_PER_THREAD` (320) lookups — patterns × documents
//! — per thread; larger batches spread over up to `threads`
//! `std::thread::scope` workers in contiguous chunks, and answers stay
//! in pattern order. A fan-out that includes an engine-backed document
//! (a remote shard, a follower) always spreads across documents, since
//! each may wait on a network round trip.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};
use std::time::Instant;
use usi_core::index::IndexSize;
use usi_core::{
    merge_accumulators, merged_total, IndexStorage, PersistError, QueryEngine, QuerySource,
    UsiIndex, UsiQuery,
};
use usi_ingest::{IngestError, IngestPipeline, IngestStats};
use usi_strings::{GlobalUtility, UtilityAccumulator};

/// How a catalog materialises `.usix` files.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadOptions {
    /// Map files into memory ([`usi_core::persist::open_mmap`]) instead
    /// of reading their bytes onto the heap: no section is copied, and
    /// resident memory holds only the pages queries touch plus `PSW`.
    /// Either way the file is validated by [`UsiIndex::from_storage`],
    /// whose one pass over each section costs time linear in the
    /// letters, and queries answer from the same view.
    pub mmap: bool,
    /// Worker threads [`open_corpus`] validates files on, whether they
    /// come from a list of files, directories or both; `0` means
    /// `available_parallelism`.
    pub threads: usize,
}

/// One `.usix` file read and validated by [`open_corpus`].
#[derive(Debug)]
pub struct CorpusFile {
    /// The document id: the file stem.
    pub id: String,
    /// The file the index was read from.
    pub path: PathBuf,
    /// The validated index.
    pub index: UsiIndex,
}

/// The one corpus loader, behind [`Catalog::load_paths_with`] and every
/// `usi serve` mode. Each of `paths` is a `.usix` file (taken whatever
/// its extension) or a directory, which stands for its regular `.usix`
/// entries in sorted order; other entries (`.usil` WALs next to their
/// indexes, notes, subdirectories named `*.usix`) are skipped. Every
/// file is then read and validated through [`UsiIndex::from_storage`]
/// on up to `opts.threads` workers, in contiguous chunks, and the
/// indexes come back in argument order. On failure the error names the
/// first failing path in that order, not whichever worker lost the
/// race, and nothing is returned.
pub fn open_corpus<P: AsRef<Path>>(
    paths: &[P],
    opts: LoadOptions,
) -> Result<Vec<CorpusFile>, CatalogError> {
    let threads = match opts.threads {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        t => t,
    };
    let mut files = Vec::new();
    let mut unlisted = None;
    for path in paths {
        match corpus_files(path.as_ref()) {
            Ok(found) => files.extend(found),
            Err(e) => {
                // files of earlier arguments still fail first
                unlisted = Some(e);
                break;
            }
        }
    }
    // a file parse costs far more than a spawn: always spread
    let parsed = run_in_parts(&files, threads, |part| {
        part.iter().map(|file| parse_usix(file, opts.mmap)).collect()
    });
    let corpus = parsed.into_iter().collect::<Result<Vec<_>, _>>()?;
    match unlisted {
        Some(e) => Err(e),
        None => Ok(corpus),
    }
}

/// The `.usix` files one [`open_corpus`] argument stands for.
fn corpus_files(path: &Path) -> Result<Vec<PathBuf>, CatalogError> {
    let io_error = |e| CatalogError::Io(path.display().to_string(), e);
    if !std::fs::metadata(path).map_err(io_error)?.is_dir() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut files: Vec<_> = std::fs::read_dir(path)
        .map_err(io_error)?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "usix") && p.is_file())
        .collect();
    // deterministic across filesystems
    files.sort();
    Ok(files)
}

/// Reads and validates one `.usix` file; the document id is the file
/// stem. With `mmap` the index is a view over a file mapping;
/// otherwise it is a view over the file's bytes read onto the heap.
/// Both run the same validator.
fn parse_usix(path: &Path, mmap: bool) -> Result<CorpusFile, CatalogError> {
    let display = path.display().to_string();
    let storage =
        if mmap { IndexStorage::open(path) } else { std::fs::read(path).map(IndexStorage::Owned) }
            .map_err(|e| CatalogError::Io(display.clone(), e))?;
    let index =
        UsiIndex::from_storage(Arc::new(storage)).map_err(|e| CatalogError::Load(display, e))?;
    let id = path.file_stem().map_or_else(String::new, |s| s.to_string_lossy().into_owned());
    Ok(CorpusFile { id, path: path.to_path_buf(), index })
}

/// Lookups (patterns × documents) each thread of a spread query batch
/// must get; smaller batches run inline on the caller's thread.
///
/// Measured on a 2-vCPU VM: spawning and joining one scoped thread
/// costs about 35–48 µs, while one lookup costs 0.3–0.6 µs on the `H`
/// path and 0.8–6.5 µs on the SA path. Two threads beat one only once
/// the half of the batch they save outweighs two spawns, so a batch of
/// the cheapest lookups (0.3 µs) needs 2 × 48 / 0.3 = 320 per thread.
/// A 4-document × 8-pattern fan-out (32 lookups) stays inline; a
/// 1000-pattern batch still spreads.
const MIN_LOOKUPS_PER_THREAD: usize = 320;

/// How many threads a query batch of `lookups` spreads over: at most
/// `threads`, and only as many as get [`MIN_LOOKUPS_PER_THREAD`] each.
/// `1` means run inline.
fn query_parts(threads: usize, lookups: usize) -> usize {
    threads.min(lookups / MIN_LOOKUPS_PER_THREAD).max(1)
}

/// The one batch executor: runs `work` over `items` in up to `parts`
/// contiguous chunks and concatenates the answers in item order. One
/// part runs inline on the caller's thread; more spawn one scoped thread
/// per chunk.
fn run_in_parts<T: Sync, R: Send>(
    items: &[T],
    parts: usize,
    work: impl Fn(&[T]) -> Vec<R> + Sync,
) -> Vec<R> {
    if parts.min(items.len()) <= 1 {
        return work(items);
    }
    let chunk = items.len().div_ceil(parts);
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            items.chunks(chunk).map(|part| scope.spawn(move || work(part))).collect();
        handles.into_iter().flat_map(|h| h.join().expect("batch worker panicked")).collect()
    })
}

/// What answers a document's queries.
enum Backend {
    /// A frozen index loaded from a `.usix` file or built in-process.
    Static(UsiIndex),
    /// A live, append-able ingestion pipeline (WAL + segments + tail).
    Ingest(IngestPipeline),
    /// Any other [`QueryEngine`] — a replication follower's replaying
    /// index, a remote shard proxy, … The `Arc` lets the registrar keep
    /// a handle for feeding the engine (e.g. applying shipped records)
    /// while the catalog serves queries through it.
    Engine(Arc<dyn QueryEngine + Send + Sync>),
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Static(index) => f.debug_tuple("Static").field(index).finish(),
            Self::Ingest(pipeline) => f.debug_tuple("Ingest").field(pipeline).finish(),
            Self::Engine(_) => f.write_str("Engine(..)"),
        }
    }
}

/// This process's place in a replication topology, reported by
/// `/healthz` so probes and load balancers can tell writable primaries
/// from read-only followers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Role {
    /// No replication configured (the single-process default).
    #[default]
    Standalone,
    /// Accepts appends and ships its WALs to followers.
    Primary,
    /// Replays a primary's WALs; serves reads, refuses appends.
    Follower,
}

impl Role {
    /// The wire name `/healthz` reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::Standalone => "standalone",
            Self::Primary => "primary",
            Self::Follower => "follower",
        }
    }
}

/// Live replication facts a follower surfaces through `/healthz`.
/// Implemented by `usi_repl`'s follower; the server only reads it.
pub trait ReplicationStatus: Send + Sync {
    /// Whether every replication stream is currently connected (or, for
    /// directory watchers, has a readable source).
    fn connected(&self) -> bool;
    /// Shipped-but-unapplied records summed over all documents.
    fn lag_records(&self) -> u64;
}

/// How to re-open a document for [`Catalog::reload`]: the `.usix` file
/// it was loaded from and the load mode.
#[derive(Debug, Clone)]
struct ReloadSpec {
    path: PathBuf,
    mmap: bool,
}

/// Errors from [`Catalog::reload`].
#[derive(Debug)]
pub enum ReloadError {
    /// The id is not loaded.
    NoSuchDoc,
    /// The document was not loaded from a `.usix` file (built
    /// in-process, ingest-enabled, or an engine backend), so there is
    /// nothing on disk to re-open.
    NotReloadable,
    /// Re-opening the file failed; the old document keeps serving.
    Load(CatalogError),
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoSuchDoc => write!(f, "no such document"),
            Self::NotReloadable => write!(f, "document was not loaded from a .usix file"),
            Self::Load(e) => write!(f, "reload failed: {e}"),
        }
    }
}

impl std::error::Error for ReloadError {}

/// Errors from appending to a document.
#[derive(Debug)]
pub enum AppendError {
    /// The document is a frozen index, not an ingestion pipeline.
    StaticDoc,
    /// The pipeline rejected or failed the append.
    Ingest(IngestError),
}

impl std::fmt::Display for AppendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::StaticDoc => write!(f, "document is not ingest-enabled"),
            Self::Ingest(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AppendError {}

/// A named, queryable document held by a [`Catalog`].
#[derive(Debug)]
pub struct Doc {
    id: String,
    backend: Backend,
    /// Where the document came from, when it can be re-opened for a
    /// live reload; `None` for in-process and ingest-enabled documents.
    source: Option<ReloadSpec>,
    /// `usi_doc_queries_total{doc=<id>}`, resolved once at registration
    /// so the query path never touches the metric family lock.
    queries_total: Arc<usi_obs::Counter>,
}

impl Doc {
    fn new(id: String, backend: Backend, source: Option<ReloadSpec>) -> Self {
        let queries_total = crate::metrics::server().doc_queries.with(&[&id]);
        Self { id, backend, source, queries_total }
    }

    /// The document id (file stem for documents loaded from disk).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The underlying frozen index; `None` for ingest-enabled
    /// documents (whose state is segmented and changes under appends).
    pub fn index(&self) -> Option<&UsiIndex> {
        match &self.backend {
            Backend::Static(index) => Some(index),
            Backend::Ingest(_) | Backend::Engine(_) => None,
        }
    }

    /// The live ingestion pipeline; `None` for frozen documents.
    pub fn ingest(&self) -> Option<&IngestPipeline> {
        match &self.backend {
            Backend::Static(_) | Backend::Engine(_) => None,
            Backend::Ingest(pipeline) => Some(pipeline),
        }
    }

    /// Whether the document accepts appends.
    pub fn is_ingest(&self) -> bool {
        matches!(self.backend, Backend::Ingest(_))
    }

    /// The query engine behind this document. Every query-path and
    /// stats accessor dispatches through this one seam instead of
    /// matching on the backend — new backends only have to implement
    /// [`QueryEngine`].
    pub fn engine(&self) -> &dyn QueryEngine {
        match &self.backend {
            Backend::Static(index) => index,
            Backend::Ingest(pipeline) => pipeline,
            Backend::Engine(engine) => engine.as_ref(),
        }
    }

    /// The document's WAL file and its committed clean length, for
    /// replication shippers. `None` unless ingest-enabled.
    pub fn wal_view(&self) -> Option<(PathBuf, u64)> {
        self.ingest().map(IngestPipeline::wal_view)
    }

    /// Total indexed letters (for ingest documents: base + segments +
    /// tail).
    pub fn n(&self) -> usize {
        self.engine().indexed_len()
    }

    /// Cached substrings in the hash table(s) `H` (summed over base and
    /// segments for ingest documents).
    pub fn cached_substrings(&self) -> usize {
        self.engine().cached_substrings()
    }

    /// The utility function shared by every component of the document.
    pub fn utility(&self) -> GlobalUtility {
        self.engine().utility()
    }

    /// `τ_K` of the (base) index, when built exactly.
    pub fn tau(&self) -> Option<u32> {
        match &self.backend {
            Backend::Static(index) => index.stats().tau,
            Backend::Ingest(pipeline) => pipeline.with_state(|s| s.base().stats().tau),
            Backend::Engine(_) => None,
        }
    }

    /// `L_K` of the (base) index.
    pub fn distinct_lengths(&self) -> usize {
        match &self.backend {
            Backend::Static(index) => index.stats().distinct_lengths,
            Backend::Ingest(pipeline) => pipeline.with_state(|s| s.base().stats().distinct_lengths),
            Backend::Engine(_) => 0,
        }
    }

    /// Size breakdown (summed over base, segments and tail for ingest
    /// documents).
    pub fn size_breakdown(&self) -> IndexSize {
        self.engine().size_breakdown()
    }

    /// Bounded-staleness statistics; `None` for frozen documents.
    pub fn ingest_stats(&self) -> Option<IngestStats> {
        self.ingest().map(IngestPipeline::stats)
    }

    /// Always `(0, 0)`. Documents keep no pattern cache, so there are
    /// no hits or misses to report; the method stays for callers that
    /// still read it.
    pub fn cache_counters(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Appends weighted letters; only ingest-enabled documents accept.
    /// Every query that starts after this returns sees the letters.
    pub fn append(&self, text: &[u8], weights: &[f64]) -> Result<(), AppendError> {
        let Backend::Ingest(pipeline) = &self.backend else {
            return Err(AppendError::StaticDoc);
        };
        pipeline.append(text, weights).map_err(AppendError::Ingest)
    }

    /// Answers one pattern from the engine.
    pub fn query(&self, pattern: &[u8]) -> UsiQuery {
        self.query_batch(&[pattern], 1).pop().expect("one pattern in, one answer out")
    }

    /// Answers a pattern batch from the engine, in pattern order and
    /// identical to answering each pattern directly. The batch runs
    /// inline unless it holds 320 patterns per thread; then it spreads
    /// over up to `threads` scoped workers in contiguous chunks — a
    /// pipeline's state lock is a read-write lock, so concurrent chunk
    /// readers don't exclude each other.
    pub fn query_batch(&self, patterns: &[&[u8]], threads: usize) -> Vec<UsiQuery> {
        let engine_start = Instant::now();
        // global telemetry: pre-resolved handles, a few relaxed atomic
        // adds per *batch* — the per-pattern cost stays amortised
        self.queries_total.add(patterns.len() as u64);
        crate::metrics::server().query_batch_size.observe(patterns.len() as f64);
        let answers = run_in_parts(patterns, query_parts(threads, patterns.len()), |part| {
            self.engine().query_batch(part)
        });
        // the engine stage of the enclosing request's trace (a no-op
        // outside a request, where it lands in the global span ring)
        if usi_obs::enabled() {
            usi_obs::record_stage(
                usi_obs::SpanGuard::since("engine", engine_start)
                    .parent("http.request")
                    .field("doc", &*self.id)
                    .field("batch", patterns.len().to_string())
                    .finish(),
            );
        }
        answers
    }

    /// Raw accumulators for a pattern batch, so fan-out callers can
    /// merge per-document occurrences before extracting aggregates.
    /// The patterns count in `usi_doc_queries_total{doc}` like
    /// [`Doc::query_batch`]'s, but no `engine` stage is recorded here:
    /// a fan-out records one stage for all its documents.
    pub fn query_accumulator_batch(
        &self,
        patterns: &[&[u8]],
    ) -> Vec<(UtilityAccumulator, QuerySource)> {
        self.queries_total.add(patterns.len() as u64);
        self.engine().query_accumulator_batch(patterns)
    }
}

/// One pattern's fan-out answer: per-document results plus the merged
/// whole-corpus aggregate.
#[derive(Debug, Clone)]
pub struct FanOut {
    /// `(doc id, answer)` for every loaded document, sorted by id.
    pub per_doc: Vec<(String, UsiQuery)>,
    /// Total occurrences across all documents.
    pub total_occurrences: u64,
    /// The pattern's utility over the whole corpus: accumulators merged
    /// across documents, finished with the shared aggregator. `None`
    /// when the documents disagree on the aggregator (the merge would
    /// be meaningless) or the merged aggregate is undefined.
    pub total_value: Option<f64>,
    /// The raw merged accumulator, so remote callers (a fan-out front
    /// end proxying this catalog as one shard) can merge further
    /// without losing the min/max/sum components.
    pub total_acc: UtilityAccumulator,
    /// The utility function shared by every document, when they agree;
    /// `None` on an empty catalog or when aggregators are mixed.
    pub utility: Option<GlobalUtility>,
}

/// Errors raised while loading documents into a [`Catalog`].
#[derive(Debug)]
pub enum CatalogError {
    /// Filesystem-level failure (open, read dir, …), with the path.
    Io(String, io::Error),
    /// The file exists but is not a valid `.usix` index, with the path.
    Load(String, PersistError),
    /// The index loaded but its ingestion pipeline (WAL open/replay)
    /// failed, with the WAL path.
    Ingest(String, IngestError),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(path, e) => write!(f, "{path}: {e}"),
            Self::Load(path, e) => write!(f, "{path}: {e}"),
            Self::Ingest(path, e) => write!(f, "{path}: {e}"),
        }
    }
}

impl std::error::Error for CatalogError {}

type Shard = RwLock<BTreeMap<String, Arc<Doc>>>;

/// The sharded registry. Cheap to share: wrap it in an `Arc` and hand
/// clones to server workers.
pub struct Catalog {
    shards: Vec<Shard>,
    /// This process's replication role, surfaced by `/healthz`.
    role: RwLock<Role>,
    /// Follower-side replication status, when this process follows a
    /// primary; read by `/healthz`.
    replication: RwLock<Option<Arc<dyn ReplicationStatus>>>,
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog")
            .field("shards", &self.shards)
            .field("role", &self.role())
            .finish_non_exhaustive()
    }
}

/// FNV-1a over the id bytes: stable across processes, so shard
/// placement is deterministic for a given shard count.
fn shard_hash(id: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in id.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Catalog {
    /// Creates a catalog with `shards` shards (clamped to ≥ 1).
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| RwLock::new(BTreeMap::new())).collect(),
            role: RwLock::new(Role::Standalone),
            replication: RwLock::new(None),
        }
    }

    /// Declares this process's replication role (default
    /// [`Role::Standalone`]).
    pub fn set_role(&self, role: Role) {
        *self.role.write().expect("role lock poisoned") = role;
    }

    /// This process's replication role.
    pub fn role(&self) -> Role {
        *self.role.read().expect("role lock poisoned")
    }

    /// Installs the follower-side replication status source `/healthz`
    /// reports from.
    pub fn set_replication(&self, status: Arc<dyn ReplicationStatus>) {
        *self.replication.write().expect("replication lock poisoned") = Some(status);
    }

    /// The installed replication status source, if any.
    pub fn replication(&self) -> Option<Arc<dyn ReplicationStatus>> {
        self.replication.read().expect("replication lock poisoned").clone()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, id: &str) -> &Shard {
        &self.shards[(shard_hash(id) % self.shards.len() as u64) as usize]
    }

    fn register(&self, id: String, backend: Backend, source: Option<ReloadSpec>) -> Arc<Doc> {
        let doc = Arc::new(Doc::new(id.clone(), backend, source));
        self.shard_of(&id).write().expect("shard lock poisoned").insert(id, Arc::clone(&doc));
        doc
    }

    /// Inserts (or replaces) a frozen document built in-process from
    /// raw text + weights or loaded elsewhere. Returns the shared
    /// handle.
    pub fn insert(&self, id: impl Into<String>, index: UsiIndex) -> Arc<Doc> {
        self.register(id.into(), Backend::Static(index), None)
    }

    /// Inserts (or replaces) a live ingest-enabled document: queries
    /// see base + segments + tail, and `POST /v1/docs/{id}/append`
    /// (or [`Doc::append`]) grows it durably through the pipeline's
    /// write-ahead log.
    pub fn insert_ingest(&self, id: impl Into<String>, pipeline: IngestPipeline) -> Arc<Doc> {
        self.register(id.into(), Backend::Ingest(pipeline), None)
    }

    /// Inserts (or replaces) a document answered by an arbitrary
    /// [`QueryEngine`] — a replication follower's replaying index, a
    /// remote shard proxy. The caller keeps its own `Arc` to feed the
    /// engine; the catalog serves queries through it.
    pub fn insert_engine(
        &self,
        id: impl Into<String>,
        engine: Arc<dyn QueryEngine + Send + Sync>,
    ) -> Arc<Doc> {
        self.register(id.into(), Backend::Engine(engine), None)
    }

    /// Live reload: re-opens the `.usix` file a document was loaded
    /// from and atomically swaps the new view in under the same id.
    /// In-flight queries hold an `Arc` to the old document and complete
    /// against the old (immutable) view; the old mapping is unmapped
    /// when the last such query drops it. On any failure the old
    /// document keeps serving untouched.
    pub fn reload(&self, id: &str) -> Result<Arc<Doc>, ReloadError> {
        let doc = self.get(id).ok_or(ReloadError::NoSuchDoc)?;
        let spec = doc.source.clone().ok_or(ReloadError::NotReloadable)?;
        // parse fully before touching the registry: a corrupt or
        // half-written file must leave the serving doc in place
        let file = parse_usix(&spec.path, spec.mmap).map_err(ReloadError::Load)?;
        crate::metrics::server().catalog_reloads_total.inc();
        Ok(self.register(id.to_string(), Backend::Static(file.index), Some(spec)))
    }

    /// Loads one `.usix` file; the document id is the file stem.
    pub fn load_usix(&self, path: &Path) -> Result<Arc<Doc>, CatalogError> {
        self.load_usix_with(path, LoadOptions::default())
    }

    /// [`Catalog::load_usix`] with explicit [`LoadOptions`].
    pub fn load_usix_with(&self, path: &Path, opts: LoadOptions) -> Result<Arc<Doc>, CatalogError> {
        let file = parse_usix(path, opts.mmap)?;
        Ok(self.register_file(file, opts.mmap))
    }

    /// Registers a file [`open_corpus`] validated as a reloadable
    /// frozen document.
    fn register_file(&self, file: CorpusFile, mmap: bool) -> Arc<Doc> {
        let spec = ReloadSpec { path: file.path, mmap };
        self.register(file.id, Backend::Static(file.index), Some(spec))
    }

    /// Loads one `.usix` file straight into an ingest-enabled document
    /// with its write-ahead log at `wal_path` (created if absent,
    /// replayed — torn tail truncated — if present). The index is
    /// parsed exactly once and moves into the pipeline: no transient
    /// static copy is ever registered, so promoting a large corpus
    /// costs no extra peak memory. Returns the doc and the WAL replay
    /// report.
    pub fn load_usix_ingest(
        &self,
        path: &Path,
        wal_path: &Path,
        config: usi_ingest::IngestConfig,
    ) -> Result<(Arc<Doc>, usi_ingest::Replay), CatalogError> {
        self.load_usix_ingest_with(path, wal_path, config, LoadOptions::default())
    }

    /// [`Catalog::load_usix_ingest`] with explicit [`LoadOptions`]:
    /// with `mmap` the base index is a zero-copy storage view (sealed
    /// segments follow `config.segment_dir`).
    pub fn load_usix_ingest_with(
        &self,
        path: &Path,
        wal_path: &Path,
        config: usi_ingest::IngestConfig,
        opts: LoadOptions,
    ) -> Result<(Arc<Doc>, usi_ingest::Replay), CatalogError> {
        let file = parse_usix(path, opts.mmap)?;
        let (pipeline, replay) = IngestPipeline::open(file.index, wal_path, config)
            .map_err(|e| CatalogError::Ingest(wal_path.display().to_string(), e))?;
        Ok((self.insert_ingest(file.id, pipeline), replay))
    }

    /// Loads a path that is either one `.usix` file or a directory whose
    /// regular `.usix` entries are all loaded, through [`open_corpus`]
    /// on up to `available_parallelism` workers. Returns the ids loaded
    /// (sorted for a directory: deterministic across filesystems). See
    /// [`Catalog::load_paths_with`].
    pub fn load_path(&self, path: &Path) -> Result<Vec<String>, CatalogError> {
        self.load_path_with(path, LoadOptions::default())
    }

    /// [`Catalog::load_path`] with an explicit worker count.
    pub fn load_path_threads(
        &self,
        path: &Path,
        threads: usize,
    ) -> Result<Vec<String>, CatalogError> {
        self.load_path_with(path, LoadOptions { threads, ..LoadOptions::default() })
    }

    /// [`Catalog::load_path`] with explicit [`LoadOptions`]: a list of
    /// one for [`Catalog::load_paths_with`].
    pub fn load_path_with(
        &self,
        path: &Path,
        opts: LoadOptions,
    ) -> Result<Vec<String>, CatalogError> {
        self.load_paths_with(&[path], opts)
    }

    /// Loads every `.usix` file `paths` stands for (files, directories
    /// or both) through [`open_corpus`], which validates them
    /// concurrently on `opts.threads` workers, then registers them in
    /// argument order and returns their ids in that order. On failure
    /// the error reported is the **first** failing path in argument
    /// order, and no document from the list is registered: a failed
    /// load never leaves a half-loaded corpus behind.
    pub fn load_paths_with<P: AsRef<Path>>(
        &self,
        paths: &[P],
        opts: LoadOptions,
    ) -> Result<Vec<String>, CatalogError> {
        let corpus = open_corpus(paths, opts)?;
        Ok(corpus.into_iter().map(|file| self.register_file(file, opts.mmap).id.clone()).collect())
    }

    /// Removes a document; `true` if it was present.
    pub fn remove(&self, id: &str) -> bool {
        self.shard_of(id).write().expect("shard lock poisoned").remove(id).is_some()
    }

    /// Looks up a document by id (clones the `Arc`; no lock is held
    /// afterwards).
    pub fn get(&self, id: &str) -> Option<Arc<Doc>> {
        self.shard_of(id).read().expect("shard lock poisoned").get(id).cloned()
    }

    /// Number of loaded documents.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().expect("shard lock poisoned").len()).sum()
    }

    /// Whether the catalog holds no documents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A consistent-per-shard snapshot of all documents, sorted by id.
    pub fn docs(&self) -> Vec<Arc<Doc>> {
        let mut docs: Vec<Arc<Doc>> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read().expect("shard lock poisoned").values().cloned().collect::<Vec<_>>()
            })
            .collect();
        docs.sort_by(|a, b| a.id.cmp(&b.id));
        docs
    }

    /// The loaded document ids, sorted.
    pub fn doc_ids(&self) -> Vec<String> {
        self.docs().iter().map(|d| d.id.clone()).collect()
    }

    /// Queries one document; `None` if the id is not loaded.
    pub fn query(&self, id: &str, pattern: &[u8]) -> Option<UsiQuery> {
        self.get(id).map(|doc| doc.query(pattern))
    }

    /// Batch-queries one document. The batch runs inline, or spreads
    /// over up to `threads` scoped workers in contiguous chunks once
    /// there are 320 patterns per thread. Answers are in pattern order
    /// and identical to the serial loop. `None` if the id is not
    /// loaded.
    pub fn query_batch(
        &self,
        id: &str,
        patterns: &[&[u8]],
        threads: usize,
    ) -> Option<Vec<UsiQuery>> {
        let doc = self.get(id)?;
        Some(doc.query_batch(patterns, threads))
    }

    /// Fan-out: one pattern's utility on every loaded document plus the
    /// merged whole-corpus aggregate.
    pub fn query_all(&self, pattern: &[u8]) -> FanOut {
        self.fan_out_batch(&[pattern], 1).pop().expect("one pattern in, one fan-out")
    }

    /// Batch fan-out: each pattern against every loaded document. The
    /// documents spread over up to `threads` scoped workers when the
    /// batch holds 320 lookups (patterns × documents) per thread, or
    /// always when an engine-backed document (a remote shard, a
    /// follower) takes part, since each may wait on a network round
    /// trip. One [`FanOut`] per pattern, in pattern order.
    pub fn query_all_batch(&self, patterns: &[&[u8]], threads: usize) -> Vec<FanOut> {
        self.fan_out_batch(patterns, threads)
    }

    fn fan_out_batch(&self, patterns: &[&[u8]], threads: usize) -> Vec<FanOut> {
        let engine_start = Instant::now();
        let docs = self.docs();
        crate::metrics::server().fan_out_width.observe(docs.len() as f64);
        let parts = if docs.iter().any(|doc| matches!(doc.backend, Backend::Engine(_))) {
            threads
        } else {
            query_parts(threads, patterns.len() * docs.len())
        };
        // per document: the raw accumulators for every pattern
        let per_doc = run_in_parts(&docs, parts, |part| {
            part.iter().map(|doc| doc.query_accumulator_batch(patterns)).collect()
        });

        let utilities: Vec<GlobalUtility> = docs.iter().map(|d| d.utility()).collect();
        let shared_utility =
            utilities.first().copied().filter(|u| utilities.iter().all(|v| v == u));
        let fans = (0..patterns.len())
            .map(|pi| {
                let mut results = Vec::with_capacity(docs.len());
                let mut parts: Vec<(GlobalUtility, UtilityAccumulator)> =
                    Vec::with_capacity(docs.len());
                for ((doc, answers), &utility) in docs.iter().zip(&per_doc).zip(&utilities) {
                    let (acc, source) = answers[pi];
                    parts.push((utility, acc));
                    let value = acc.finish(utility.aggregator);
                    results.push((
                        doc.id().to_string(),
                        UsiQuery { value, occurrences: acc.count(), source },
                    ));
                }
                // merged through the shared helper the ingest layer
                // also uses — one implementation of the merge semantics
                let (total_occurrences, total_value) = merged_total(&parts);
                let total_acc = merge_accumulators(parts.iter().map(|(_, acc)| acc));
                FanOut {
                    per_doc: results,
                    total_occurrences,
                    total_value,
                    total_acc,
                    utility: shared_utility,
                }
            })
            .collect();
        // the fan-out engine stage: doc="*" plus how wide it spread (a
        // no-op outside a request, where it lands in the span ring)
        if usi_obs::enabled() {
            usi_obs::record_stage(
                usi_obs::SpanGuard::since("engine", engine_start)
                    .parent("http.request")
                    .field("doc", "*")
                    .field("batch", patterns.len().to_string())
                    .field("fan_out", docs.len().to_string())
                    .finish(),
            );
        }
        fans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Mutex;
    use usi_core::UsiBuilder;
    use usi_ingest::IngestConfig;
    use usi_strings::{GlobalAggregator, WeightedString};

    fn sample_ws(seed: u64, n: usize) -> WeightedString {
        let mut rng = StdRng::seed_from_u64(seed);
        let text: Vec<u8> = (0..n).map(|_| b'a' + rng.gen_range(0..3u8)).collect();
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..2.0)).collect();
        WeightedString::new(text, weights).unwrap()
    }

    fn filled_catalog() -> (Catalog, Vec<String>) {
        let catalog = Catalog::new(4);
        let mut ids = Vec::new();
        for (i, seed) in [11u64, 22, 33].iter().enumerate() {
            let id = format!("doc{i}");
            let index =
                UsiBuilder::new().with_k(50).deterministic(*seed).build(sample_ws(*seed, 800));
            catalog.insert(&id, index);
            ids.push(id);
        }
        (catalog, ids)
    }

    fn ingest_doc(catalog: &Catalog, id: &str, seed: u64) -> Arc<Doc> {
        let dir = std::env::temp_dir().join("usi-catalog-ingest-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join(format!("{id}-{seed}.usil"));
        let _ = std::fs::remove_file(&wal);
        let base = UsiBuilder::new().with_k(20).deterministic(seed).build(sample_ws(seed, 300));
        let (pipeline, _) = IngestPipeline::open(
            base,
            &wal,
            IngestConfig {
                seal_threshold: 8,
                compact_fanout: 2,
                sync_wal: false,
                ..IngestConfig::default()
            },
        )
        .unwrap();
        catalog.insert_ingest(id, pipeline)
    }

    #[test]
    fn routing_and_listing() {
        let (catalog, ids) = filled_catalog();
        assert_eq!(catalog.len(), 3);
        assert!(!catalog.is_empty());
        assert_eq!(catalog.doc_ids(), ids);
        for id in &ids {
            assert_eq!(catalog.get(id).unwrap().id(), id);
        }
        assert!(catalog.get("nope").is_none());
        assert!(catalog.remove("doc1"));
        assert!(!catalog.remove("doc1"));
        assert_eq!(catalog.len(), 2);
        // frozen documents refuse appends
        let doc = catalog.get(&ids[0]).unwrap();
        assert!(matches!(doc.append(b"a", &[1.0]), Err(AppendError::StaticDoc)));
    }

    #[test]
    fn single_shard_still_serves_all() {
        let catalog = Catalog::new(1);
        let index = UsiBuilder::new().with_k(10).deterministic(5).build(sample_ws(5, 200));
        catalog.insert("only", index);
        assert_eq!(catalog.shard_count(), 1);
        assert!(catalog.query("only", b"a").is_some());
    }

    #[test]
    fn batch_matches_serial_across_thread_counts() {
        let (catalog, ids) = filled_catalog();
        let doc = catalog.get(&ids[0]).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let text = doc.index().unwrap().text().to_vec();
        let patterns: Vec<Vec<u8>> = (0..100)
            .map(|_| {
                let m = rng.gen_range(1..8usize);
                let i = rng.gen_range(0..text.len() - m);
                text[i..i + m].to_vec()
            })
            .chain([b"zzz".to_vec(), Vec::new()])
            .collect();
        let refs: Vec<&[u8]> = patterns.iter().map(Vec::as_slice).collect();
        let serial: Vec<UsiQuery> = refs.iter().map(|p| doc.index().unwrap().query(p)).collect();
        assert_eq!(doc.index().unwrap().query_batch(&refs), serial);
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(catalog.query_batch(&ids[0], &refs, threads).unwrap(), serial);
        }
        assert!(catalog.query_batch("nope", &refs, 2).is_none());
        // past the inline threshold, so wider calls spread
        let wide: Vec<&[u8]> =
            refs.iter().copied().cycle().take(2 * MIN_LOOKUPS_PER_THREAD).collect();
        let wide_serial: Vec<UsiQuery> =
            wide.iter().map(|p| doc.index().unwrap().query(p)).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(catalog.query_batch(&ids[0], &wide, threads).unwrap(), wide_serial);
        }
    }

    #[test]
    fn small_batches_run_inline_and_large_ones_spread() {
        // the benchmark's fan-out, 4 documents × 8 patterns, sits at
        // least 10× below the threshold
        const { assert!(4 * 8 * 10 <= MIN_LOOKUPS_PER_THREAD) };
        assert_eq!(query_parts(2, 4 * 8), 1);
        assert_eq!(query_parts(8, 4 * 8), 1);
        for lookups in [0, 1, 32, 2 * MIN_LOOKUPS_PER_THREAD, 100 * MIN_LOOKUPS_PER_THREAD] {
            assert_eq!(query_parts(1, lookups), 1, "{lookups} lookups");
        }
        assert_eq!(query_parts(2, 2 * MIN_LOOKUPS_PER_THREAD - 1), 1);
        assert_eq!(query_parts(2, 2 * MIN_LOOKUPS_PER_THREAD), 2);
        assert_eq!(query_parts(8, 3 * MIN_LOOKUPS_PER_THREAD), 3);
        // the nightly catalog_batch_threads/2 batch still spreads
        assert_eq!(query_parts(2, 1000), 2);
    }

    /// A [`QueryEngine`] that answers every pattern empty and records
    /// the thread each pattern was answered on.
    #[derive(Default)]
    struct ThreadRecorder(Mutex<Vec<std::thread::ThreadId>>);

    impl QueryEngine for ThreadRecorder {
        fn query(&self, pattern: &[u8]) -> UsiQuery {
            let (acc, source) = self.query_accumulator(pattern);
            UsiQuery { value: acc.finish(GlobalAggregator::Sum), occurrences: 0, source }
        }

        fn query_accumulator(&self, _: &[u8]) -> (UtilityAccumulator, QuerySource) {
            self.0.lock().unwrap().push(std::thread::current().id());
            (UtilityAccumulator::new(), QuerySource::TextIndex)
        }

        fn utility(&self) -> GlobalUtility {
            GlobalUtility::sum_of_sums()
        }

        fn indexed_len(&self) -> usize {
            0
        }

        fn cached_substrings(&self) -> usize {
            0
        }

        fn size_breakdown(&self) -> IndexSize {
            IndexSize::default()
        }
    }

    #[test]
    fn fan_outs_query_engine_documents_concurrently() {
        // a --shard front end: each document may wait on a network
        // round trip, so even a tiny fan-out spreads across documents
        let catalog = Catalog::new(2);
        let shards: Vec<Arc<ThreadRecorder>> = (0..2).map(|_| Arc::default()).collect();
        for (i, shard) in shards.iter().enumerate() {
            catalog.insert_engine(format!("shard{i}"), Arc::clone(shard) as _);
        }
        let fans = catalog.query_all_batch(&[b"ab"], 2);
        assert_eq!(fans[0].per_doc.len(), 2);
        let caller = std::thread::current().id();
        let ran_on: Vec<_> = shards.iter().map(|s| s.0.lock().unwrap().clone()).collect();
        assert_eq!(ran_on.iter().map(Vec::len).collect::<Vec<_>>(), [1, 1]);
        assert!(ran_on[0][0] != caller && ran_on[1][0] != caller, "ran on the caller");
        assert_ne!(ran_on[0][0], ran_on[1][0], "both shards ran on one thread");
    }

    #[test]
    fn every_read_path_counts_per_document() {
        // ids no other test registers: usi_doc_queries_total is
        // process-global per id
        let catalog = Catalog::new(2);
        for (id, seed) in [("tally0", 3u64), ("tally1", 4)] {
            let index =
                UsiBuilder::new().with_k(10).deterministic(seed).build(sample_ws(seed, 200));
            catalog.insert(id, index);
        }
        let counts = || {
            ["tally0", "tally1"].map(|id| crate::metrics::server().doc_queries.with(&[id]).get())
        };
        let [a, b] = counts();
        catalog.query_batch("tally0", &[b"ab"], 1).unwrap();
        assert_eq!(counts(), [a + 1, b]);
        // a fan-out counts its patterns on every document
        catalog.query_all_batch(&[b"ab", b"ba", b"c"], 2);
        assert_eq!(counts(), [a + 4, b + 3]);
        // as does a single-document "acc": true batch
        catalog.get("tally1").unwrap().query_accumulator_batch(&[b"ab", b"zzz"]);
        assert_eq!(counts(), [a + 4, b + 5]);
    }

    #[test]
    fn ingest_docs_append_invalidate_and_serve() {
        let catalog = Catalog::new(2);
        let doc = ingest_doc(&catalog, "live", 91);
        assert!(doc.is_ingest());
        assert!(doc.index().is_none());
        let n0 = doc.n();
        let before = doc.query(b"abc");

        doc.append(b"abcabcabcabc", &[1.0; 12]).unwrap();
        assert_eq!(doc.n(), n0 + 12);
        let after = doc.query(b"abc");
        assert!(
            after.occurrences >= before.occurrences + 4,
            "append must be visible: {before:?} → {after:?}"
        );
        // the post-append answer agrees with a from-scratch build
        let pipeline = doc.ingest().unwrap();
        let full = WeightedString::new(
            pipeline.with_state(|s| s.text()),
            pipeline.with_state(|s| s.weights()),
        )
        .unwrap();
        let scratch = UsiBuilder::new().with_k(20).deterministic(91).build(full);
        assert_eq!(after.occurrences, scratch.query(b"abc").occurrences);
        let stats = doc.ingest_stats().unwrap();
        assert!(stats.seals >= 1);
        assert!(stats.wal_bytes > 8);
    }

    #[test]
    fn fan_out_merges_across_docs() {
        let (catalog, ids) = filled_catalog();
        let pattern = b"ab";
        let fan = catalog.query_all(pattern);
        assert_eq!(fan.per_doc.len(), 3);
        let mut expect_occ = 0;
        let mut expect_sum = 0.0;
        for (id, q) in &fan.per_doc {
            let direct = catalog.query(id, pattern).unwrap();
            assert_eq!(*q, direct);
            expect_occ += direct.occurrences;
            expect_sum += direct.value.unwrap_or(0.0);
        }
        assert!(ids.iter().eq(fan.per_doc.iter().map(|(id, _)| id)));
        assert_eq!(fan.total_occurrences, expect_occ);
        assert!((fan.total_value.unwrap() - expect_sum).abs() < 1e-9);

        // batched fan-out agrees with the one-pattern call, at any width
        let refs: Vec<&[u8]> = vec![b"ab", b"ba", b"zzz"];
        for threads in [1, 2, 7] {
            let fans = catalog.query_all_batch(&refs, threads);
            assert_eq!(fans.len(), 3);
            for (p, fan) in refs.iter().zip(&fans) {
                let single = catalog.query_all(p);
                assert_eq!(fan.per_doc, single.per_doc);
                assert_eq!(fan.total_occurrences, single.total_occurrences);
                assert_eq!(fan.total_value, single.total_value);
            }
        }
        // and past the inline threshold (3 documents × 640 patterns),
        // where wider calls spread across documents
        let singles: Vec<FanOut> = refs.iter().map(|p| catalog.query_all(p)).collect();
        let wide: Vec<&[u8]> =
            refs.iter().copied().cycle().take(2 * MIN_LOOKUPS_PER_THREAD).collect();
        for threads in [1, 2, 7] {
            let fans = catalog.query_all_batch(&wide, threads);
            assert_eq!(fans.len(), wide.len());
            for (fan, single) in fans.iter().zip(singles.iter().cycle()) {
                assert_eq!(fan.per_doc, single.per_doc);
                assert_eq!(fan.total_occurrences, single.total_occurrences);
                assert_eq!(fan.total_value, single.total_value);
            }
        }
    }

    #[test]
    fn fan_out_includes_ingest_docs() {
        let (catalog, _) = filled_catalog();
        let doc = ingest_doc(&catalog, "live", 92);
        doc.append(b"ababab", &[0.5; 6]).unwrap();
        let fan = catalog.query_all(b"ab");
        assert_eq!(fan.per_doc.len(), 4);
        let live = fan.per_doc.iter().find(|(id, _)| id == "live").unwrap();
        assert_eq!(live.1, doc.query(b"ab"));
        let sum: u64 = fan.per_doc.iter().map(|(_, q)| q.occurrences).sum();
        assert_eq!(fan.total_occurrences, sum);
    }

    #[test]
    fn concurrent_directory_loads_match_serial() {
        let dir = std::env::temp_dir().join("usi-catalog-load-tests").join("ok");
        std::fs::create_dir_all(&dir).unwrap();
        for seed in 0..6u64 {
            let index =
                UsiBuilder::new().with_k(20).deterministic(seed).build(sample_ws(seed, 400));
            let mut f = std::fs::File::create(dir.join(format!("doc{seed}.usix"))).unwrap();
            index.write_to(&mut f).unwrap();
        }
        let serial = Catalog::new(4);
        let serial_ids = serial.load_path_threads(&dir, 1).unwrap();
        for threads in [2usize, 3, 16] {
            let parallel = Catalog::new(4);
            let ids = parallel.load_path_threads(&dir, threads).unwrap();
            assert_eq!(ids, serial_ids, "threads {threads}");
            assert_eq!(parallel.doc_ids(), serial.doc_ids());
            for id in &ids {
                assert_eq!(
                    parallel.query(id, b"ab").unwrap(),
                    serial.query(id, b"ab").unwrap(),
                    "doc {id}"
                );
            }
        }

        // a list of files and a directory returns its ids in argument
        // order, the directory's entries sorted in its place
        let listed = std::env::temp_dir().join("usi-catalog-load-tests").join("ok-list");
        std::fs::create_dir_all(&listed).unwrap();
        for seed in 6..8u64 {
            let index =
                UsiBuilder::new().with_k(20).deterministic(seed).build(sample_ws(seed, 400));
            let mut f = std::fs::File::create(listed.join(format!("doc{seed}.usix"))).unwrap();
            index.write_to(&mut f).unwrap();
        }
        let list = [dir.join("doc4.usix"), listed, dir.join("doc1.usix"), dir.join("doc0.usix")];
        for threads in [1usize, 2, 3, 16] {
            let catalog = Catalog::new(4);
            let ids = catalog
                .load_paths_with(&list, LoadOptions { threads, ..LoadOptions::default() })
                .unwrap();
            assert_eq!(ids, ["doc4", "doc6", "doc7", "doc1", "doc0"], "threads {threads}");
            for id in ["doc4", "doc1", "doc0"] {
                assert_eq!(catalog.query(id, b"ab"), serial.query(id, b"ab"), "doc {id}");
            }
        }
    }

    #[test]
    fn directory_load_skips_stray_non_usix_entries() {
        let dir = std::env::temp_dir().join("usi-catalog-load-tests").join("mixed");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for seed in 0..2u64 {
            let index =
                UsiBuilder::new().with_k(10).deterministic(seed).build(sample_ws(seed, 200));
            let mut f = std::fs::File::create(dir.join(format!("doc{seed}.usix"))).unwrap();
            index.write_to(&mut f).unwrap();
        }
        // the stray files an ingest-enabled corpus directory actually
        // accumulates: a WAL next to its index, notes, a subdirectory
        // whose name happens to end in .usix
        std::fs::write(dir.join("doc0.usil"), b"USIL\x01\x00\x00\x00garbage").unwrap();
        std::fs::write(dir.join("README.txt"), b"not an index").unwrap();
        std::fs::create_dir_all(dir.join("segments.usix")).unwrap();
        let catalog = Catalog::new(2);
        let ids = catalog.load_path(&dir).expect("stray entries must be skipped, not errors");
        assert_eq!(ids, vec!["doc0".to_string(), "doc1".to_string()]);
        assert_eq!(catalog.len(), 2);
    }

    #[test]
    fn mmap_loads_answer_identically_to_owned_loads() {
        let dir = std::env::temp_dir().join("usi-catalog-load-tests").join("mmap");
        std::fs::create_dir_all(&dir).unwrap();
        for seed in 0..3u64 {
            let index =
                UsiBuilder::new().with_k(25).deterministic(seed).build(sample_ws(seed, 500));
            let mut f = std::fs::File::create(dir.join(format!("doc{seed}.usix"))).unwrap();
            index.write_to(&mut f).unwrap();
        }
        let owned = Catalog::new(2);
        owned.load_path(&dir).unwrap();
        let mapped = Catalog::new(2);
        let ids = mapped.load_path_with(&dir, LoadOptions { mmap: true, threads: 2 }).unwrap();
        assert_eq!(ids, owned.doc_ids());
        #[cfg(all(unix, target_pointer_width = "64"))]
        for id in &ids {
            let doc = mapped.get(id).unwrap();
            assert!(doc.index().unwrap().is_memory_mapped(), "doc {id}");
        }
        let patterns: Vec<&[u8]> = vec![b"a", b"ab", b"abc", b"bca", b"zzz", b""];
        for id in &ids {
            assert_eq!(
                mapped.query_batch(id, &patterns, 2).unwrap(),
                owned.query_batch(id, &patterns, 2).unwrap(),
                "doc {id}"
            );
        }
        // fan-out across mapped docs merges the same totals
        let fan_mapped = mapped.query_all(b"ab");
        let fan_owned = owned.query_all(b"ab");
        assert_eq!(fan_mapped.total_occurrences, fan_owned.total_occurrences);
        assert_eq!(fan_mapped.total_value, fan_owned.total_value);
    }

    #[test]
    fn concurrent_load_failure_surfaces_first_bad_file_and_loads_nothing() {
        let dir = std::env::temp_dir().join("usi-catalog-load-tests").join("bad");
        std::fs::create_dir_all(&dir).unwrap();
        for seed in 0..4u64 {
            let index =
                UsiBuilder::new().with_k(10).deterministic(seed).build(sample_ws(seed, 200));
            let mut f = std::fs::File::create(dir.join(format!("doc{seed}.usix"))).unwrap();
            index.write_to(&mut f).unwrap();
        }
        // two corrupt files; "a-corrupt" sorts before every valid doc
        std::fs::write(dir.join("a-corrupt.usix"), b"not an index").unwrap();
        std::fs::write(dir.join("z-corrupt.usix"), b"also not an index").unwrap();
        for threads in [1usize, 2, 8] {
            let catalog = Catalog::new(2);
            let err = catalog.load_path_threads(&dir, threads).unwrap_err();
            assert!(
                err.to_string().contains("a-corrupt"),
                "threads {threads}: expected the first bad file, got: {err}"
            );
            assert!(catalog.is_empty(), "threads {threads}: partial load left documents behind");
        }

        // a list mixing files and a directory: "m-corrupt", inside the
        // second argument, fails before "a-corrupt", the third, though
        // it sorts after it
        let listed = std::env::temp_dir().join("usi-catalog-load-tests").join("bad-list");
        std::fs::create_dir_all(&listed).unwrap();
        for seed in 4..6u64 {
            let index =
                UsiBuilder::new().with_k(10).deterministic(seed).build(sample_ws(seed, 200));
            let mut f = std::fs::File::create(listed.join(format!("doc{seed}.usix"))).unwrap();
            index.write_to(&mut f).unwrap();
        }
        std::fs::write(listed.join("m-corrupt.usix"), b"USIX\x01\x00\x00\x00 truncated").unwrap();
        let list =
            [dir.join("doc0.usix"), listed, dir.join("a-corrupt.usix"), dir.join("doc1.usix")];
        // and a bad file still fails before a later path that is missing
        let missing = [dir.join("doc0.usix"), dir.join("z-corrupt.usix"), dir.join("absent")];
        for (list, first_bad) in [(&list[..], "m-corrupt"), (&missing[..], "z-corrupt")] {
            for threads in [1usize, 2, 8] {
                let catalog = Catalog::new(2);
                let opts = LoadOptions { threads, ..LoadOptions::default() };
                let err = catalog.load_paths_with(list, opts).unwrap_err();
                assert!(
                    err.to_string().contains(first_bad),
                    "threads {threads}: expected {first_bad} first in argument order, got: {err}"
                );
                assert!(catalog.is_empty(), "threads {threads}: a failed load left documents");
            }
        }
    }

    #[test]
    fn fan_out_with_mixed_aggregators_has_no_total() {
        let catalog = Catalog::new(2);
        let a = UsiBuilder::new().with_k(10).deterministic(1).build(sample_ws(1, 300));
        let b = UsiBuilder::new()
            .with_k(10)
            .with_aggregator(GlobalAggregator::Max)
            .deterministic(2)
            .build(sample_ws(2, 300));
        catalog.insert("a", a);
        catalog.insert("b", b);
        let fan = catalog.query_all(b"a");
        assert_eq!(fan.per_doc.len(), 2);
        assert!(fan.total_value.is_none());
        assert!(fan.total_occurrences > 0);
    }

    #[test]
    fn empty_catalog_fan_out() {
        let catalog = Catalog::new(3);
        let fan = catalog.query_all(b"a");
        assert!(fan.per_doc.is_empty());
        assert_eq!(fan.total_occurrences, 0);
        assert_eq!(fan.total_value, None);
    }
}
