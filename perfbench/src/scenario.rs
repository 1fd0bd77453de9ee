//! The four workloads end to end: set the corpus up (build, persist,
//! start `usi serve`), drive it with closed-loop keep-alive clients for
//! the measured window, then check the answers.

use crate::client::{parse_server_timing, Conn};
use crate::inputs::{self, DocInput, PointStream, Request, Stream};
use crate::server::Server;
use crate::spans::{SpanId, Spans};
use crate::stats::{median, percentile};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use usi_core::UsiIndex;
use usi_server::json::{fan_out_response_json, query_response_json};
use usi_server::{Catalog, Json, LoadOptions};

/// Set-ups per untraced run for the 4-document corpus, and for the
/// cheaper 1-document one; `setup_s` and `build_s` are their medians.
pub const SETUPS: [usize; 2] = [3, 7];
/// Extra server restarts whose spawn-to-ready times join the set-ups'
/// in the `ready_s` median.
pub const READY_TRIALS: usize = 12;
/// Fresh followers started one after another in the measured window;
/// `ready_s` is the median of their catch-up times.
pub const FOLLOWER_TRIALS: u32 = 5;
/// The append client's rate cap (appends per second): a closed loop
/// that also waits for each send slot, so every run applies the same
/// seal and compaction schedule.
pub const APPEND_RATE: f64 = 100.0;
/// The query client's rate cap on the write workloads, where it shares
/// two cores with appends, compaction or replication: latency at a fixed
/// offered load, so a stalled read shows in the percentiles instead of
/// only lowering the request count.
pub const QUERY_RATE_WITH_WRITES: f64 = 2000.0;
/// One response in this many is kept and checked after the window.
pub const SAMPLE_EVERY: u64 = 61;
/// In a traced run, one query response in this many has its full stage
/// tree fetched from `/v1/trace/{id}` (for the `write` stage, which the
/// `Server-Timing` header cannot carry).
pub const TRACE_FETCH_EVERY: u64 = 25;
/// WAL records (of `CHUNK_LETTERS` each) seeded before a follower starts.
pub const CATCHUP_RECORDS: u64 = 384;
/// Relative tolerance between an ingest answer and a from-scratch build:
/// the two sum the same weights in a different order.
pub const VALUE_TOLERANCE: f64 = 1e-9;

/// The fixed environment of one run.
pub struct Env {
    /// The `usi` binary.
    pub bin: PathBuf,
    /// A fresh scratch directory for this run.
    pub root: PathBuf,
    /// The workload seed.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Construction threads (the machine's parallelism).
    pub threads: usize,
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// `(name, value, unit)`, in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted (requests plus post-run checks).
    pub attempted: u64,
    /// Operations that failed, were refused or answered wrongly.
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// Run facts printed with the result (sample counts, server flags…).
    pub stamp: Vec<(String, Json)>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn note(&mut self, key: &str, value: Json) {
        self.stamp.push((key.to_string(), value));
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(what);
        }
    }

    fn absorb(&mut self, stats: &LoopStats) {
        self.attempted += stats.attempted;
        self.failed += stats.failed;
        for e in &stats.errors {
            if self.errors.len() < 10 {
                self.errors.push(e.clone());
            }
        }
    }

    /// Adds the rate and the p50/p99 (µs) of a loop under `prefix`. For a
    /// loop of at least 1000 requests/s (ten samples beyond the p99 each
    /// second) the p99 is the median of the per-second p99s, so a burst
    /// of outside interference moves one second's tail, not the result;
    /// slower loops take it over the whole window.
    fn latency_metrics(&mut self, stats: &LoopStats, rate: &str, prefix: &str) {
        let per_s = stats.lat_us.len() as f64 / stats.elapsed.as_secs_f64();
        let mut lat = stats.lat_us.clone();
        let p50 = percentile(&mut lat, 0.5).map_or(0.0, |p| p.value);
        let p99 = if per_s >= 1000.0 {
            let mut seconds = vec![Vec::new(); stats.elapsed.as_secs().max(1) as usize];
            for (&us, &done) in stats.lat_us.iter().zip(&stats.done_s) {
                if let Some(second) = seconds.get_mut(done as usize) {
                    second.push(us);
                }
            }
            let mut tails: Vec<f64> =
                seconds.iter_mut().filter_map(|s| percentile(s, 0.99)).map(|p| p.value).collect();
            median(&mut tails)
        } else {
            percentile(&mut lat, 0.99).map_or(0.0, |p| p.value)
        };
        self.metric(rate, per_s, "1/s");
        self.metric(&format!("{prefix}_p50_us"), p50, "us");
        self.metric(&format!("{prefix}_p99_us"), p99, "us");
        self.note(&format!("{prefix}_samples"), Json::Num(stats.lat_us.len() as f64));
        self.note(&format!("{prefix}_reconnects"), Json::Num(stats.reconnects as f64));
    }
}

/// Per-request tracing state of a traced run's client loop.
pub struct Trace {
    /// The span recorder.
    pub spans: Spans,
    /// Parent span for the client loop's spans.
    pub root: Option<SpanId>,
    /// `(stage, µs)` samples parsed from `Server-Timing` headers.
    pub stages: Vec<(String, f64)>,
    /// `write` stage samples (µs) fetched from `/v1/trace/{id}`.
    pub write_us: Vec<f64>,
}

impl Trace {
    /// An empty trace on a fresh clock.
    pub fn new() -> Self {
        Self { spans: Spans::new(), root: None, stages: Vec::new(), write_us: Vec::new() }
    }
}

/// One closed-loop client's record.
#[derive(Default)]
pub struct LoopStats {
    /// Latency (µs) of every successful request.
    pub lat_us: Vec<f64>,
    /// When each of those requests completed (s since the loop began).
    pub done_s: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// Wall time of the loop.
    pub elapsed: Duration,
    /// Sampled `(request, response body)` pairs to check afterwards.
    pub sampled: Vec<(Request, Vec<u8>)>,
    /// Server-initiated reconnects (not failures).
    pub reconnects: u64,
}

impl LoopStats {
    /// Folds a later loop of the same client role into this one.
    fn merge(&mut self, other: LoopStats) {
        let offset = self.elapsed.as_secs_f64();
        self.lat_us.extend(other.lat_us);
        self.done_s.extend(other.done_s.iter().map(|t| t + offset));
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.elapsed += other.elapsed;
        self.sampled.extend(other.sampled);
        self.reconnects += other.reconnects;
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(what);
        }
    }
}

fn serve_args(files: &[PathBuf], extra: &[String]) -> Vec<String> {
    let mut args: Vec<String> = files.iter().map(|f| f.display().to_string()).collect();
    args.extend(["--mmap", "--addr", "127.0.0.1:0"].map(String::from));
    args.extend(extra.iter().cloned());
    args
}

/// What a set-up starts besides the index files.
#[derive(Clone, Copy, PartialEq)]
pub enum Role {
    /// Static documents.
    Static,
    /// Ingest-enabled documents with an empty WAL.
    Ingest,
    /// An ingest primary with `CATCHUP_RECORDS` pre-seeded WAL records
    /// and a replication listener.
    Primary,
}

/// A finished set-up: the running server and what it serves.
pub struct Setup {
    /// The server.
    pub server: Server,
    /// The `.usix` files, one per document.
    pub files: Vec<PathBuf>,
    /// The indexes as built (owned, in document order).
    pub indexes: Vec<UsiIndex>,
    /// The server flags after the file list.
    pub flags: Vec<String>,
}

/// Builds one document's index, under per-phase spans when traced.
pub type Builder<'a> = &'a mut dyn FnMut(&DocInput) -> UsiIndex;

/// Seeds `path` with `records` append records through `usi_ingest`'s WAL.
fn seed_wal(path: &Path, seed: u64, records: u64) -> Result<(), String> {
    let (mut wal, _) = usi_ingest::Wal::open(path, false).map_err(|e| format!("seed WAL: {e}"))?;
    for i in 0..records {
        let (text, weights) = inputs::chunk(inputs::mix(seed, 0xf0110), i);
        wal.append(&text, &weights).map_err(|e| format!("seed WAL: {e}"))?;
    }
    Ok(())
}

/// One set-up: build and persist every document, then start the server
/// and wait for `/healthz`. Returns the set-up and its (total, build)
/// times.
pub fn setup_once(
    env: &Env,
    docs: &[DocInput],
    role: Role,
    dir: &Path,
    build: Builder<'_>,
    mut persist: impl FnMut(&UsiIndex, &Path) -> std::io::Result<()>,
) -> Result<(Setup, Duration, Duration), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let started = Instant::now();
    let mut build_time = Duration::ZERO;
    let mut files = Vec::new();
    let mut indexes = Vec::new();
    for doc in docs {
        let t = Instant::now();
        let index = build(doc);
        build_time += t.elapsed();
        let path = dir.join(format!("{}.usix", doc.id));
        persist(&index, &path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        files.push(path);
        indexes.push(index);
    }
    let wal_dir = dir.join("wal");
    let mut flags = Vec::new();
    if role != Role::Static {
        flags.extend(["--ingest-wal".to_string(), wal_dir.display().to_string()]);
    }
    if role == Role::Primary {
        std::fs::create_dir_all(&wal_dir).map_err(|e| format!("cannot create WAL dir: {e}"))?;
        seed_wal(&wal_dir.join(format!("{}.usil", docs[0].id)), env.seed, CATCHUP_RECORDS)?;
        flags.extend(["--repl-listen".to_string(), "127.0.0.1:0".to_string()]);
    }
    let server = Server::start(&env.bin, &serve_args(&files, &flags))?;
    Ok((Setup { server, files, indexes, flags }, started.elapsed(), build_time))
}

/// Writes `index` to `path` (buffered, flushed).
pub fn persist(index: &UsiIndex, path: &Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    index.write_to(&mut out)?;
    out.flush()
}

/// Runs `SETUPS` set-ups, keeps the last one running, and reports the
/// median set-up, build and ready times.
fn setups(env: &Env, docs: &[DocInput], role: Role, out: &mut Outcome) -> Result<Setup, String> {
    let (mut totals, mut builds, mut readies) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    let setups = if docs.len() > 1 { SETUPS[0] } else { SETUPS[1] };
    for k in 0..setups {
        let dir = env.root.join(format!("setup-{k}"));
        let mut build = |doc: &DocInput| {
            inputs::builder(doc.ws.len(), doc.build_seed, env.threads).build(doc.ws.clone())
        };
        let (setup, total, build_time) = setup_once(env, docs, role, &dir, &mut build, persist)?;
        totals.push(total.as_secs_f64());
        builds.push(build_time.as_secs_f64());
        readies.push(setup.server.ready.as_secs_f64());
        if k + 1 < setups {
            setup.server.stop()?;
            if k == 0 && role != Role::Primary {
                // spawn-to-ready is tens of ms: take more samples
                for _ in 0..READY_TRIALS {
                    let server = Server::start(&env.bin, &serve_args(&setup.files, &setup.flags))?;
                    readies.push(server.ready.as_secs_f64());
                    server.stop()?;
                }
            }
        } else {
            kept = Some(setup);
        }
    }
    out.metric("setup_s", median(&mut totals), "s");
    out.metric("build_s", median(&mut builds), "s");
    out.note("setups", Json::Num(setups as f64));
    let setup = kept.expect("at least one set-up");
    if role != Role::Primary {
        // the fastest trial: start-up work is fixed, slower trials only
        // add interference from outside the benchmark
        out.metric("ready_s", readies.iter().copied().fold(f64::INFINITY, f64::min), "s");
    }
    index_bytes_metric(&setup, out);
    Ok(setup)
}

fn index_bytes_metric(setup: &Setup, out: &mut Outcome) {
    let bytes: u64 =
        setup.files.iter().filter_map(|f| std::fs::metadata(f).ok()).map(|m| m.len()).sum();
    let letters: usize = setup.indexes.iter().map(|i| i.text().len()).sum();
    out.metric("index_bytes_per_letter", bytes as f64 / letters as f64, "B/letter");
}

fn peak_rss_metric(server: &Server, out: &mut Outcome) {
    let kib = server.peak_rss_kib().unwrap_or(0);
    out.metric("peak_rss_mb", kib as f64 / 1024.0, "MB");
}

/// Fetches the `write` stage of request `id` from the server's trace.
fn fetch_write_stage(conn: &mut Conn, id: &str) -> Option<f64> {
    let reply = conn.request("GET", &format!("/v1/trace/{id}"), b"").ok()?;
    if reply.status != 200 {
        return None;
    }
    let tree = Json::parse(std::str::from_utf8(&reply.body).ok()?).ok()?;
    tree.get("stages")?
        .as_array()?
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("write"))?
        .get("duration_us")?
        .as_f64()
}

/// The closed-loop query client: one keep-alive connection, the next
/// request sent when the previous answer is in, until `deadline`. With
/// a `rate` cap (requests per second) it also waits for each send slot.
pub fn query_loop(
    addr: SocketAddr,
    stream: &mut Stream,
    deadline: Instant,
    rate: Option<f64>,
    mut trace: Option<&mut Trace>,
) -> LoopStats {
    let mut conn = Conn::new(addr);
    let mut stats = LoopStats::default();
    let started = Instant::now();
    let mut i = 0u64;
    while Instant::now() < deadline {
        let req = stream.next_request();
        if let Some(rate) = rate {
            let due = started + Duration::from_secs_f64(i as f64 / rate);
            if due >= deadline {
                break;
            }
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
        }
        let span = trace.as_mut().map(|t| t.spans.open("client.query", t.root));
        let t0 = Instant::now();
        let result = conn.request("POST", "/v1/query", &req.body);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        if let (Some(t), Some(id)) = (trace.as_mut(), span) {
            t.spans.close(id);
        }
        stats.attempted += 1;
        match result {
            Ok(reply) if reply.status == 200 => {
                stats.lat_us.push(us);
                stats.done_s.push(started.elapsed().as_secs_f64());
                if let Some(t) = trace.as_mut() {
                    if let Some(timing) = &reply.server_timing {
                        t.stages.extend(parse_server_timing(timing));
                    }
                    if i.is_multiple_of(TRACE_FETCH_EVERY) {
                        if let Some(id) = &reply.request_id {
                            t.write_us.extend(fetch_write_stage(&mut conn, id));
                        }
                    }
                }
                if i.is_multiple_of(SAMPLE_EVERY) {
                    stats.sampled.push((req, reply.body));
                }
            }
            Ok(reply) => stats.fail(format!(
                "query answered {}: {}",
                reply.status,
                String::from_utf8_lossy(&reply.body)
            )),
            Err(e) => stats.fail(format!("query failed: {e}")),
        }
        i += 1;
    }
    stats.elapsed = started.elapsed();
    stats.reconnects = conn.reconnects;
    stats
}

/// The closed-loop append client: `CHUNK_LETTERS`-letter weighted
/// chunks of the seed's chunk sequence, until `deadline`. Returns the
/// loop record and how many chunks were acknowledged (in order).
fn append_loop(addr: SocketAddr, doc: &str, seed: u64, deadline: Instant) -> (LoopStats, u64) {
    let mut conn = Conn::new(addr);
    let mut stats = LoopStats::default();
    let path = format!("/v1/docs/{doc}/append");
    let started = Instant::now();
    let mut acked = 0u64;
    loop {
        let (text, weights) = inputs::chunk(seed, acked);
        let body = inputs::append_body(&text, &weights);
        let due = started + Duration::from_secs_f64(acked as f64 / APPEND_RATE);
        if due >= deadline || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let t0 = Instant::now();
        let result = conn.request("POST", &path, &body);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        stats.attempted += 1;
        match result {
            Ok(reply) if reply.status == 200 => {
                stats.lat_us.push(us);
                stats.done_s.push(started.elapsed().as_secs_f64());
                acked += 1;
            }
            Ok(reply) => {
                stats.fail(format!("append answered {}", reply.status));
                break;
            }
            Err(e) => {
                stats.fail(format!("append failed: {e}"));
                break;
            }
        }
    }
    stats.elapsed = started.elapsed();
    stats.reconnects = conn.reconnects;
    (stats, acked)
}

/// Each document's `W1` pool as `(doc id, patterns)`, in Zipf rank order.
pub fn point_pools(
    docs: &[DocInput],
    indexes: &[UsiIndex],
    env: &Env,
) -> Vec<(&'static str, Vec<Vec<u8>>)> {
    docs.iter()
        .zip(indexes)
        .map(|(doc, index)| {
            let mut pool =
                inputs::w1_pool(index, doc.dataset, inputs::mix(env.seed, 0x301), env.threads);
            // popularity follows frequency: Zipf rank r is the r-th most
            // frequent pattern of the pool (ties in W1 draw order)
            pool.sort_by_key(|p| std::cmp::Reverse(index.query(p).occurrences));
            (doc.id, pool)
        })
        .collect()
}

/// The request stream a workload sends; the traced run replays the
/// same stream in process.
pub fn request_stream(
    fanout: bool,
    docs: &[DocInput],
    pools: &[(&'static str, Vec<Vec<u8>>)],
    seed: u64,
) -> Stream {
    if fanout {
        Stream::Fanout(inputs::FanoutStream::new(
            docs.iter().map(|d| d.ws.text().to_vec()).collect(),
            seed,
        ))
    } else {
        Stream::Point(PointStream::new(pools.to_vec(), seed))
    }
}

/// Opens the persisted files the way the server does (mmap).
pub fn open_mapped(files: &[PathBuf]) -> Result<Vec<UsiIndex>, String> {
    files
        .iter()
        .map(|f| usi_core::open_mmap(f).map_err(|e| format!("cannot open {}: {e}", f.display())))
        .collect()
}

/// Loads the persisted files into an in-process catalog, as the server
/// does.
pub fn load_catalog(files: &[PathBuf]) -> Result<Catalog, String> {
    let catalog = Catalog::new(8);
    for f in files {
        catalog
            .load_usix_with(f, LoadOptions { mmap: true, threads: 0 })
            .map_err(|e| format!("cannot load {}: {e}", f.display()))?;
    }
    Ok(catalog)
}

/// Checks sampled answers byte for byte against in-process answers over
/// the same `.usix` files: point answers against `UsiIndex::query`,
/// fan-outs against an in-process catalog whose per-document parts
/// must also equal `UsiIndex::query`.
fn check_static_samples(
    sampled: &[(Request, Vec<u8>)],
    docs: &[DocInput],
    files: &[PathBuf],
    out: &mut Outcome,
) -> Result<(), String> {
    let indexes = open_mapped(files)?;
    let catalog = load_catalog(files)?;
    for (req, body) in sampled {
        out.attempted += 1;
        let patterns: Vec<&[u8]> = req.patterns.iter().map(Vec::as_slice).collect();
        let expected = match req.doc {
            Some(d) => {
                let answers: Vec<_> = patterns.iter().map(|p| indexes[d].query(p)).collect();
                query_response_json(docs[d].id, &patterns, &answers).encode()
            }
            None => {
                let fans = catalog.query_all_batch(&patterns, 1);
                for (p, fan) in patterns.iter().zip(&fans) {
                    for (id, q) in &fan.per_doc {
                        let d = docs.iter().position(|doc| doc.id == id).expect("catalog doc");
                        if indexes[d].query(p) != *q {
                            out.fail(format!("fan-out part {id} differs from UsiIndex::query"));
                        }
                    }
                }
                fan_out_response_json(&patterns, &fans).encode()
            }
        };
        if expected.as_bytes() != body.as_slice() {
            out.fail(format!(
                "answer mismatch: got {} want {}",
                String::from_utf8_lossy(body),
                expected
            ));
        }
    }
    out.note("checked_samples", Json::Num(sampled.len() as f64));
    Ok(())
}

/// `point_zipf` and `fanout_scan`: four static documents, one query
/// connection.
pub fn read_workload(
    env: &Env,
    fanout: bool,
    mut trace: Option<&mut Trace>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let docs = inputs::corpus(&inputs::READ_PROFILES, env.seed);
    let setup = match trace.as_mut() {
        None => setups(env, &docs, Role::Static, &mut out)?,
        Some(t) => crate::layers::traced_setup(env, &docs, Role::Static, t, &mut out)?,
    };
    let pools = if fanout { Vec::new() } else { point_pools(&docs, &setup.indexes, env) };
    let mut stream = request_stream(fanout, &docs, &pools, env.seed);
    let deadline = Instant::now() + env.window;
    let stats = query_loop(setup.server.addr, &mut stream, deadline, None, trace.as_deref_mut());
    peak_rss_metric(&setup.server, &mut out);
    out.absorb(&stats);
    out.latency_metrics(&stats, "query_qps", "query");
    out.latency_metrics(&stats, "op_per_s", "op");
    check_static_samples(&stats.sampled, &docs, &setup.files, &mut out)?;
    if let Some(t) = trace {
        crate::layers::sweep(env, &docs, &setup, &pools, fanout, t, &mut out)?;
    }
    out.note("server_flags", flags_json(env, &setup.flags));
    out.note("connections", Json::Obj(vec![("query".into(), Json::Num(1.0))]));
    setup.server.stop()?;
    Ok(out)
}

/// The server flags as stamped: scratch paths shown as `<scratch>/…`.
fn flags_json(env: &Env, flags: &[String]) -> Json {
    let root = env.root.display().to_string();
    let mut all: Vec<Json> =
        ["--mmap", "--addr", "127.0.0.1:0"].iter().map(|&s| Json::str(s)).collect();
    all.extend(flags.iter().map(|f| Json::Str(f.replace(&root, "<scratch>"))));
    Json::Arr(all)
}

/// Parses a single-document query response into `(occurrences, value)`
/// per pattern.
fn parse_answers(body: &[u8]) -> Option<Vec<(u64, Option<f64>)>> {
    let json = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    json.get("results")?
        .as_array()?
        .iter()
        .map(|r| Some((r.get("occurrences")?.as_f64()? as u64, r.get("value")?.as_f64())))
        .collect()
}

/// `ingest_mixed`: one ingest-enabled document under fsync'd appends on
/// one connection and point queries on another.
pub fn ingest_workload(env: &Env, mut trace: Option<&mut Trace>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let docs = inputs::corpus(&inputs::WRITE_PROFILES, env.seed);
    let setup = match trace.as_mut() {
        None => setups(env, &docs, Role::Ingest, &mut out)?,
        Some(t) => crate::layers::traced_setup(env, &docs, Role::Ingest, t, &mut out)?,
    };
    let pools = point_pools(&docs, &setup.indexes, env);
    let mut stream = request_stream(false, &docs, &pools, env.seed);
    let addr = setup.server.addr;
    let chunk_seed = inputs::mix(env.seed, 0xa99);
    let deadline = Instant::now() + env.window;
    let ((appends, acked), queries) = std::thread::scope(|scope| {
        let appender = scope.spawn(|| append_loop(addr, docs[0].id, chunk_seed, deadline));
        let queries = query_loop(
            addr,
            &mut stream,
            deadline,
            Some(QUERY_RATE_WITH_WRITES),
            trace.as_deref_mut(),
        );
        (appender.join().expect("append client panicked"), queries)
    });
    peak_rss_metric(&setup.server, &mut out);
    out.absorb(&queries);
    out.absorb(&appends);
    out.latency_metrics(&queries, "query_qps", "query");
    out.latency_metrics(&appends, "op_per_s", "op");
    let mut conn = Conn::new(addr);
    if let Ok(reply) = conn.request("GET", &format!("/v1/docs/{}/stats", docs[0].id), b"") {
        if let Ok(stats) = Json::parse(&String::from_utf8_lossy(&reply.body)) {
            out.note("ingest_stats", stats.get("ingest").cloned().unwrap_or(Json::Null));
        }
    }
    out.note("appended_letters", Json::Num((acked as usize * inputs::CHUNK_LETTERS) as f64));
    check_ingest(env, &docs[0], &pools[0].1, &mut conn, chunk_seed, acked, &mut out)?;
    if let Some(t) = trace {
        crate::layers::sweep(env, &docs, &setup, &pools, false, t, &mut out)?;
    }
    out.note("server_flags", flags_json(env, &setup.flags));
    out.note("fsync", Json::str("on (server default)"));
    out.note(
        "connections",
        Json::Obj(vec![("append".into(), Json::Num(1.0)), ("query".into(), Json::Num(1.0))]),
    );
    out.note(
        "rate_caps_per_s",
        Json::Obj(vec![
            ("append".into(), Json::Num(APPEND_RATE)),
            ("query".into(), Json::Num(QUERY_RATE_WITH_WRITES)),
        ]),
    );
    setup.server.stop()?;
    Ok(out)
}

/// After the appends drained: the server's answers must equal a
/// from-scratch build over the base plus every acknowledged chunk.
fn check_ingest(
    env: &Env,
    doc: &DocInput,
    pool: &[Vec<u8>],
    conn: &mut Conn,
    chunk_seed: u64,
    acked: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    use rand::{Rng, SeedableRng};
    let (mut text, mut weights) = (doc.ws.text().to_vec(), doc.ws.weights().to_vec());
    for i in 0..acked {
        let (t, w) = inputs::chunk(chunk_seed, i);
        text.extend_from_slice(&t);
        weights.extend_from_slice(&w);
    }
    let base_n = doc.ws.len();
    let ws = usi_strings::WeightedString::new(text, weights).map_err(|e| e.to_string())?;
    let reference = inputs::builder(ws.len(), doc.build_seed, env.threads).with_k(1).build(ws);
    let text = reference.text();
    let mut rng = rand::rngs::StdRng::seed_from_u64(inputs::mix(env.seed, 0xc4ec));
    let mut patterns: Vec<Vec<u8>> =
        (0..64).map(|_| pool[rng.gen_range(0..pool.len())].clone()).collect();
    // fragments of the appended region, many straddling chunk or base
    // boundaries
    for _ in 0..64 {
        let len = rng.gen_range(4..=24usize);
        let start = rng.gen_range(base_n.saturating_sub(len)..=text.len() - len);
        patterns.push(text[start..start + len].to_vec());
    }
    for batch in patterns.chunks(16) {
        out.attempted += 1;
        let body = inputs::query_body(doc.id, batch);
        let reply = match conn.request("POST", "/v1/query", &body) {
            Ok(reply) if reply.status == 200 => reply,
            Ok(reply) => {
                out.fail(format!("check query answered {}", reply.status));
                continue;
            }
            Err(e) => {
                out.fail(format!("check query failed: {e}"));
                continue;
            }
        };
        let Some(answers) = parse_answers(&reply.body) else {
            out.fail("check query answer does not parse".into());
            continue;
        };
        for (p, (occ, value)) in batch.iter().zip(answers) {
            let want = reference.query(p);
            let close = match (value, want.value) {
                (Some(a), Some(b)) => (a - b).abs() <= VALUE_TOLERANCE * b.abs().max(1.0),
                (a, b) => a == b,
            };
            if occ != want.occurrences || !close {
                out.fail(format!(
                    "ingest answer for {:?}: {occ} / {value:?}, from-scratch build {} / {:?}",
                    String::from_utf8_lossy(p),
                    want.occurrences,
                    want.value
                ));
            }
        }
    }
    out.note("checked_patterns", Json::Num(patterns.len() as f64));
    Ok(())
}

/// The follower's indexed length of `doc`, from `GET /v1/docs`.
fn doc_len(conn: &mut Conn, doc: &str) -> Option<u64> {
    let reply = conn.request("GET", "/v1/docs", b"").ok()?;
    let json = Json::parse(std::str::from_utf8(&reply.body).ok()?).ok()?;
    json.get("docs")?
        .as_array()?
        .iter()
        .find(|d| d.get("id").and_then(Json::as_str) == Some(doc))?
        .get("n")?
        .as_f64()
        .map(|n| n as u64)
}

/// `follower_catchup`: a primary with a pre-seeded WAL; a follower
/// starts, catches up, and is queried throughout.
pub fn follower_workload(env: &Env, mut trace: Option<&mut Trace>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let docs = inputs::corpus(&inputs::WRITE_PROFILES, env.seed);
    let primary = match trace.as_mut() {
        None => setups(env, &docs, Role::Primary, &mut out)?,
        Some(t) => crate::layers::traced_setup(env, &docs, Role::Primary, t, &mut out)?,
    };
    let pools = point_pools(&docs, &primary.indexes, env);
    let mut stream = request_stream(false, &docs, &pools, env.seed);
    let repl = primary.server.repl_addr.ok_or("primary announced no replication address")?;
    let expected = (docs[0].ws.len() + CATCHUP_RECORDS as usize * inputs::CHUNK_LETTERS) as u64;
    let follower_flags = vec!["--follow".to_string(), repl.to_string()];
    let mut queries = LoopStats::default();
    let (mut catchups, mut rss) = (Vec::new(), Vec::new());
    let mut follower = None;
    for _ in 0..FOLLOWER_TRIALS {
        if let Some(previous) = follower.take() {
            Server::stop(previous)?;
        }
        let started = Instant::now();
        let fresh = Server::start(&env.bin, &serve_args(&primary.files[..1], &follower_flags))?;
        let deadline = started + env.window / FOLLOWER_TRIALS;
        let addr = fresh.addr;
        let (caught_up, trial) = std::thread::scope(|scope| {
            let probe = scope.spawn(|| {
                let mut conn = Conn::new(addr);
                let give_up = deadline + Duration::from_secs(60);
                while Instant::now() < give_up {
                    if doc_len(&mut conn, docs[0].id) == Some(expected) {
                        return Some(started.elapsed());
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                None
            });
            let trial = query_loop(
                addr,
                &mut stream,
                deadline,
                Some(QUERY_RATE_WITH_WRITES),
                trace.as_deref_mut(),
            );
            (probe.join().expect("catch-up probe panicked"), trial)
        });
        out.attempted += 1;
        match caught_up {
            Some(t) => catchups.push(t.as_secs_f64()),
            None => out.fail(format!("follower never reached n = {expected}")),
        }
        rss.push(fresh.peak_rss_kib().unwrap_or(0) as f64 / 1024.0);
        queries.merge(trial);
        follower = Some(fresh);
    }
    let follower = follower.expect("FOLLOWER_TRIALS > 0");
    let addr = follower.addr;
    out.metric("ready_s", median(&mut catchups), "s");
    out.metric("peak_rss_mb", median(&mut rss), "MB");
    out.absorb(&queries);
    out.latency_metrics(&queries, "query_qps", "query");
    out.latency_metrics(&queries, "op_per_s", "op");
    // after catch-up the follower must answer byte-identically
    let mut check_stream = request_stream(false, &docs, &pools, inputs::mix(env.seed, 0xb1d));
    let (mut to_primary, mut to_follower) = (Conn::new(primary.server.addr), Conn::new(addr));
    for _ in 0..64 {
        let req = check_stream.next_request();
        out.attempted += 1;
        let a = to_primary.request("POST", "/v1/query", &req.body);
        let b = to_follower.request("POST", "/v1/query", &req.body);
        match (a, b) {
            (Ok(a), Ok(b)) if a.status == 200 && a.status == b.status && a.body == b.body => {}
            (Ok(a), Ok(b)) => out.fail(format!(
                "follower answer differs: primary {} {} follower {} {}",
                a.status,
                String::from_utf8_lossy(&a.body),
                b.status,
                String::from_utf8_lossy(&b.body)
            )),
            (a, b) => out.fail(format!("check request failed: {:?} / {:?}", a.err(), b.err())),
        }
    }
    if let Some(t) = trace {
        crate::layers::sweep(env, &docs, &primary, &pools, false, t, &mut out)?;
    }
    out.note("server_flags", flags_json(env, &primary.flags));
    out.note("follower_flags", flags_json(env, &follower_flags));
    out.note("seeded_wal_records", Json::Num(CATCHUP_RECORDS as f64));
    out.note("follower_trials", Json::Num(f64::from(FOLLOWER_TRIALS)));
    out.note(
        "rate_caps_per_s",
        Json::Obj(vec![("query".into(), Json::Num(QUERY_RATE_WITH_WRITES))]),
    );
    out.note("fsync", Json::str("on (server default)"));
    out.note(
        "connections",
        Json::Obj(vec![
            ("follower_query".into(), Json::Num(1.0)),
            ("catchup_probe".into(), Json::Num(1.0)),
        ]),
    );
    follower.stop()?;
    primary.server.stop()?;
    Ok(out)
}
