//! The traced run's per-layer measurements. Every number comes from a
//! span the benchmark records around a call into one crate's public
//! API, replaying the workload's own inputs in process: construction
//! phases (`usi_suffix`, `usi_core`), persist and open, the query core,
//! the catalog, JSON, the in-process router (`usi_server::respond`),
//! `usi_ingest`, `usi_repl` and the `usi_obs` kill switch. The HTTP
//! stages come from the live server's `Server-Timing` headers.

use crate::inputs::{self, DocInput, Stream};
use crate::scenario::{self, Env, Outcome, Role, Setup, Trace};
use crate::spans::{SpanId, Spans};
use crate::stats::{median, percentile};
use rand::SeedableRng;
use std::cell::RefCell;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use usi_core::{IndexStorage, QueryEngine, QuerySource, TopKOracle, UsiIndex};
use usi_server::json::{fan_out_response_json, query_response_json};
use usi_server::{Catalog, Json, ServerConfig};
use usi_strings::{Fingerprinter, GlobalUtility, LocalIndex};

/// Point requests replayed through the query core and the catalog.
const POINT_REPLAY: usize = 20_000;
/// Fan-out requests replayed (each is 8 patterns × 4 documents).
const FANOUT_REPLAY: usize = 2_500;
/// Requests replayed through the JSON codec and the router.
const CODEC_REPLAY: usize = 5_000;
/// Requests per kill-switch round of the telemetry A/B.
const OBS_REPLAY: usize = 1_000;
/// Kill-switch rounds (each runs on and off, alternating which first).
const OBS_ROUNDS: usize = 4;
/// Appends through the in-process ingest pipeline and the bare WAL.
const INGEST_APPENDS: u64 = 96;
/// WAL records per replication frame applied to the follower.
const RECORDS_PER_FRAME: usize = 4;
/// Rounds of the tracing-overhead A/B (each runs both sides).
const OVERHEAD_ROUNDS: usize = 4;
/// Length of one side of one tracing-overhead round.
const OVERHEAD_SIDE: Duration = Duration::from_millis(400);

/// Builds one document phase by phase under spans (SA, LCP, top-K
/// oracle, `H` population), then through `UsiBuilder` (the index the
/// server gets), and checks the two agree on `H`.
fn traced_build(
    spans: &mut Spans,
    parent: SpanId,
    doc: &DocInput,
    threads: usize,
    out: &mut Outcome,
) -> UsiIndex {
    let text = doc.ws.text();
    let n = text.len();
    let phases = spans.open("core.build_phases", Some(parent));
    let sa =
        spans.time("suffix.sa", Some(phases), || usi_suffix::suffix_array_threads(text, threads));
    let lcp = spans
        .time("suffix.lcp", Some(phases), || usi_suffix::lcp_array_threads(text, &sa, threads));
    let items = spans.time("core.topk", Some(phases), || {
        TopKOracle::new_threads(n, &sa, &lcp, threads).top_k((n / 100).max(1))
    });
    let psw = GlobalUtility::sum_of_sums().local_index(doc.ws.weights());
    let fingerprinter = Fingerprinter::new(&mut rand::rngs::StdRng::seed_from_u64(doc.build_seed));
    let (h, lengths) = spans.time("core.populate", Some(phases), || {
        UsiIndex::populate_from_triplets_parallel(text, &sa, &psw, &fingerprinter, &items, threads)
    });
    spans.close(phases);
    let index = spans.time("core.build", Some(parent), || {
        inputs::builder(n, doc.build_seed, threads).build(doc.ws.clone())
    });
    out.attempted += 1;
    if h.len() != index.cached_substrings() || lengths != index.stats().distinct_lengths {
        out.failed += 1;
        out.errors.push(format!("{}: phase-by-phase H differs from UsiBuilder's", doc.id));
    }
    index
}

/// The traced run's single set-up: the same build, persist and server
/// start as the untraced run, with every phase under a span; then the
/// persisted files are re-opened under spans (validation, then `PSW`).
pub fn traced_setup(
    env: &Env,
    docs: &[DocInput],
    role: Role,
    trace: &mut Trace,
    out: &mut Outcome,
) -> Result<Setup, String> {
    let root = trace.spans.open("setup", None);
    let cell = RefCell::new((&mut trace.spans, Outcome::default()));
    let mut build = |doc: &DocInput| {
        let (spans, checks) = &mut *cell.borrow_mut();
        traced_build(spans, root, doc, env.threads, checks)
    };
    let persist = |index: &UsiIndex, path: &Path| {
        cell.borrow_mut()
            .0
            .time("core.persist_write", Some(root), || scenario::persist(index, path))
    };
    let dir = env.root.join("setup-traced");
    let setup = scenario::setup_once(env, docs, role, &dir, &mut build, persist);
    let (spans, checks) = cell.into_inner();
    out.attempted += checks.attempted;
    out.failed += checks.failed;
    out.errors.extend(checks.errors);
    let (setup, _, _) = setup?;
    for file in &setup.files {
        let storage = Arc::new(
            IndexStorage::open(file).map_err(|e| format!("open {}: {e}", file.display()))?,
        );
        let index = spans
            .time("core.open", Some(root), || UsiIndex::from_storage(storage))
            .map_err(|e| format!("open {}: {e}", file.display()))?;
        let local = index.utility().local;
        let psw = spans.time("core.open_psw", Some(root), || {
            LocalIndex::from_weights(index.weights().iter(), local)
        });
        std::hint::black_box(psw);
    }
    spans.close(root);
    trace.root = Some(spans.open("client", None));
    Ok(setup)
}

fn ms(spans: &Spans, name: &str) -> f64 {
    spans.total_ns(name) / 1e6
}

fn p50(mut xs: Vec<f64>) -> f64 {
    median(&mut xs)
}

/// Which documents a request's patterns go to.
fn targets(req: &inputs::Request, docs: usize) -> Vec<usize> {
    match req.doc {
        Some(d) => vec![d],
        None => (0..docs).collect(),
    }
}

/// Replays the workload's request stream through `UsiIndex::query`,
/// split by which path answered, asserting text-index answers scan at
/// most `τ_K` occurrences.
fn core_replay(
    spans: &mut Spans,
    indexes: &[UsiIndex],
    stream: &mut Stream,
    requests: usize,
    out: &mut Outcome,
) {
    let parent = spans.open("core.replay", None);
    let (mut h, mut sa, mut occ) = (0u64, 0u64, 0u64);
    for _ in 0..requests {
        let req = stream.next_request();
        for d in targets(&req, indexes.len()) {
            for p in &req.patterns {
                let id = spans.open("core.query.sa", Some(parent));
                let q = indexes[d].query(p);
                spans.close(id);
                if q.source == QuerySource::HashTable {
                    spans.rename(id, "core.query.h");
                    h += 1;
                    continue;
                }
                sa += 1;
                occ += q.occurrences;
                let tau = indexes[d].stats().tau.map_or(u64::MAX, u64::from);
                out.attempted += 1;
                if q.occurrences > tau {
                    out.failed += 1;
                    out.errors
                        .push(format!("text-index answer scanned {} > τ_K = {tau}", q.occurrences));
                }
            }
        }
    }
    spans.close(parent);
    out.metric("core.query_h_ns", p50(spans.durations("core.query.h")), "ns");
    out.metric("core.query_sa_ns", p50(spans.durations("core.query.sa")), "ns");
    out.metric("core.h_hit_ratio", h as f64 / (h + sa).max(1) as f64, "ratio");
    out.metric("core.replayed_queries", (h + sa) as f64, "count");
    out.metric("core.occ_per_sa_query", occ as f64 / sa.max(1) as f64, "count");
}

/// Point queries through `Catalog::query_batch` (pattern LRU included)
/// and 8-pattern fan-outs through `Catalog::query_all_batch` at the
/// server's default batch threads and inline.
fn catalog_replay(
    spans: &mut Spans,
    catalog: &Catalog,
    ids: &[&str],
    stream: &mut Stream,
    requests: usize,
    out: &mut Outcome,
) {
    let parent = spans.open("catalog.replay", None);
    let threads = ServerConfig::default().batch_threads;
    let mut group: Vec<Vec<u8>> = Vec::new();
    let mut k = 0usize;
    for _ in 0..requests {
        let req = stream.next_request();
        for p in &req.patterns {
            let doc = req.doc.unwrap_or(k % ids.len());
            k += 1;
            let answer = spans.time("catalog.point", Some(parent), || {
                catalog.query_batch(ids[doc], &[p.as_slice()], threads)
            });
            std::hint::black_box(answer);
            group.push(p.clone());
            if group.len() == inputs::FANOUT_PATTERNS {
                let patterns: Vec<&[u8]> = group.iter().map(Vec::as_slice).collect();
                // alternate which side runs first, so neither always
                // finds the caches warmed by the other
                let sides = if k.is_multiple_of(2) { [threads, 1] } else { [1, threads] };
                for t in sides {
                    let name = if t == 1 { "catalog.fanout_inline" } else { "catalog.fanout" };
                    let fans =
                        spans.time(name, Some(parent), || catalog.query_all_batch(&patterns, t));
                    std::hint::black_box(fans);
                }
                group.clear();
            }
        }
    }
    spans.close(parent);
    let (hits, misses) = catalog
        .docs()
        .iter()
        .map(|d| d.cache_counters())
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    out.metric("catalog.point_ns", p50(spans.durations("catalog.point")), "ns");
    out.metric("catalog.cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "ratio");
    out.metric("catalog.cache_lookups", (hits + misses) as f64, "count");
    out.metric("catalog.fanout_ns", p50(spans.durations("catalog.fanout")), "ns");
    out.metric("catalog.fanout_inline_ns", p50(spans.durations("catalog.fanout_inline")), "ns");
}

/// JSON decode of the request bodies and encode of their answers, then
/// the whole in-process router (`usi_server::respond`).
fn codec_replay(
    spans: &mut Spans,
    catalog: &Catalog,
    ids: &[&str],
    stream: &mut Stream,
    out: &mut Outcome,
) {
    let parent = spans.open("codec.replay", None);
    let threads = ServerConfig::default().batch_threads;
    for _ in 0..CODEC_REPLAY {
        let req = stream.next_request();
        let body = std::str::from_utf8(&req.body).expect("bodies are JSON text");
        let parsed = spans.time("json.parse", Some(parent), || Json::parse(body));
        std::hint::black_box(parsed.is_ok());
        let patterns: Vec<&[u8]> = req.patterns.iter().map(Vec::as_slice).collect();
        match req.doc {
            Some(d) => {
                let answers =
                    catalog.query_batch(ids[d], &patterns, threads).expect("doc is loaded");
                let encoded = spans.time("json.encode", Some(parent), || {
                    query_response_json(ids[d], &patterns, &answers).encode()
                });
                std::hint::black_box(encoded);
            }
            None => {
                let fans = catalog.query_all_batch(&patterns, threads);
                let encoded = spans.time("json.encode", Some(parent), || {
                    fan_out_response_json(&patterns, &fans).encode()
                });
                std::hint::black_box(encoded);
            }
        }
        let response = spans.time("http.respond", Some(parent), || {
            usi_server::respond(catalog, "POST", "/v1/query", &req.body)
        });
        out.attempted += 1;
        if response.status != 200 {
            out.failed += 1;
            out.errors.push(format!("respond answered {}", response.status));
        }
    }
    spans.close(parent);
    out.metric("json.parse_ns", p50(spans.durations("json.parse")), "ns");
    out.metric("json.encode_ns", p50(spans.durations("json.encode")), "ns");
    out.metric("http.respond_ns", p50(spans.durations("http.respond")), "ns");
}

/// Telemetry's own cost: `respond` per call with `usi_obs` enabled minus
/// disabled, at one caller and at `threads` concurrent callers.
fn obs_ab(
    spans: &mut Spans,
    catalog: &Catalog,
    stream: &mut Stream,
    threads: usize,
    out: &mut Outcome,
) {
    let bodies: Vec<Vec<u8>> = (0..OBS_REPLAY).map(|_| stream.next_request().body).collect();
    let run = |callers: usize| -> f64 {
        let started = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..callers {
                scope.spawn(|| {
                    for body in &bodies {
                        std::hint::black_box(usi_server::respond(
                            catalog,
                            "POST",
                            "/v1/query",
                            body,
                        ));
                    }
                });
            }
        });
        started.elapsed().as_nanos() as f64 / bodies.len() as f64
    };
    let parent = spans.open("obs.ab", None);
    let mut per_call: [Vec<f64>; 4] = Default::default(); // on_1, off_1, on_n, off_n
    for round in 0..OBS_ROUNDS {
        let order = if round % 2 == 0 { [true, false] } else { [false, true] };
        for on in order {
            usi_obs::set_enabled(on);
            for (slot, callers) in [(0, 1), (2, threads)] {
                let slot = slot + usize::from(!on);
                let id = spans
                    .open(["obs.on_1", "obs.off_1", "obs.on_n", "obs.off_n"][slot], Some(parent));
                per_call[slot].push(run(callers));
                spans.close(id);
            }
        }
    }
    usi_obs::set_enabled(true);
    spans.close(parent);
    let [on1, off1, onn, offn] = per_call.map(p50);
    out.metric("obs.respond_overhead_ns_1", on1 - off1, "ns");
    out.metric("obs.respond_overhead_ns_n", onn - offn, "ns");
}

/// Runs `work` while one extra thread queries `engine` in a loop under
/// `name` spans, recorded on a fork of `spans`.
fn with_reader<T>(
    spans: &mut Spans,
    parent: SpanId,
    name: &'static str,
    engine: &(dyn QueryEngine + Sync),
    patterns: &[Vec<u8>],
    work: impl FnOnce(&mut Spans) -> T,
) -> T {
    let done = AtomicBool::new(false);
    let mut fork = spans.fork();
    let result = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut i = 0;
            while !done.load(Ordering::SeqCst) {
                let p = &patterns[i % patterns.len()];
                fork.time(name, None, || std::hint::black_box(engine.query(p)));
                i += 1;
            }
        });
        let result = work(spans);
        done.store(true, Ordering::SeqCst);
        reader.join().expect("reader panicked");
        result
    });
    spans.absorb(fork, Some(parent));
    result
}

/// `usi_ingest` in process: fsync'd appends through the pipeline (with
/// background compaction, as `usi serve --ingest-wal` runs it) under a
/// concurrent reader, then the bare WAL; `usi_repl`: the resulting log
/// parsed and applied to a follower document under a concurrent reader.
fn ingest_and_repl(
    env: &Env,
    spans: &mut Spans,
    base: &UsiIndex,
    patterns: &[Vec<u8>],
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = env.root.join("layer-ingest");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let chunk_seed = inputs::mix(env.seed, 0x1a7e);
    let config = usi_ingest::IngestConfig { background_compaction: true, ..Default::default() };
    let wal_path = dir.join("pipeline.usil");
    let (pipeline, _) = usi_ingest::IngestPipeline::open(base.clone(), &wal_path, config)
        .map_err(|e| format!("cannot open ingest pipeline: {e}"))?;
    let parent = spans.open("ingest.pipeline", None);
    let mut letters = 0usize;
    let appended =
        with_reader(spans, parent, "ingest.query_during_append", &pipeline, patterns, |spans| {
            for i in 0..INGEST_APPENDS {
                let (text, weights) = inputs::chunk(chunk_seed, i);
                letters += text.len();
                let id = spans.open("ingest.pipeline_append", Some(parent));
                let result = pipeline.append(&text, &weights);
                spans.close(id);
                result.map_err(|e| format!("pipeline append failed: {e}"))?;
            }
            Ok::<_, String>(())
        });
    spans.close(parent);
    out.attempted += INGEST_APPENDS;
    appended?;
    pipeline.wait_for_quiescence(Duration::from_secs(60));
    let stats = pipeline.stats();
    drop(pipeline);
    let mut append_ms: Vec<f64> =
        spans.durations("ingest.pipeline_append").iter().map(|ns| ns / 1e6).collect();
    out.metric("ingest.pipeline_append_ms", median(&mut append_ms), "ms");
    out.metric(
        "ingest.pipeline_append_p99_ms",
        percentile(&mut append_ms, 0.99).map_or(0.0, |p| p.value),
        "ms",
    );
    let mut reads: Vec<f64> =
        spans.durations("ingest.query_during_append").iter().map(|ns| ns / 1e3).collect();
    out.metric(
        "ingest.query_during_append_p99_us",
        percentile(&mut reads, 0.99).map_or(0.0, |p| p.value),
        "us",
    );
    out.metric(
        "ingest.compactions_per_1k_appends",
        stats.compactions as f64 * 1000.0 / INGEST_APPENDS as f64,
        "count",
    );
    out.metric("ingest.appends", INGEST_APPENDS as f64, "count");
    out.metric("ingest.wal_bytes_per_letter", stats.wal_bytes as f64 / letters as f64, "B/letter");

    let (mut wal, _) = usi_ingest::Wal::open(&dir.join("bare.usil"), true)
        .map_err(|e| format!("cannot open WAL: {e}"))?;
    let parent = spans.open("ingest.wal", None);
    for i in 0..INGEST_APPENDS {
        let (text, weights) = inputs::chunk(chunk_seed, i);
        spans
            .time("ingest.wal_append", Some(parent), || wal.append(&text, &weights))
            .map_err(|e| format!("WAL append failed: {e}"))?;
    }
    spans.close(parent);
    out.metric("ingest.wal_append_ms", p50(spans.durations("ingest.wal_append")) / 1e6, "ms");

    // replication: parse the pipeline's log, then apply it frame by
    // frame to a follower document
    let bytes = std::fs::read(&wal_path).map_err(|e| format!("cannot read WAL: {e}"))?;
    let parent = spans.open("repl", None);
    let mut records = 0usize;
    for _ in 0..5 {
        let replay = spans
            .time("repl.parse", Some(parent), || usi_ingest::wal::replay_bytes(&bytes))
            .map_err(|e| format!("WAL replay failed: {e}"))?;
        records = replay.records.len();
    }
    let parse_ns = p50(spans.durations("repl.parse"));
    out.metric("repl.parse_records_per_s", records as f64 / (parse_ns / 1e9), "1/s");
    let magic = usi_ingest::wal::MAGIC.len();
    let mut frames = Vec::new();
    let (mut pos, mut start, mut in_frame) = (magic, magic, 0);
    while let Some((_, end)) = usi_ingest::wal::parse_record_at(&bytes, pos) {
        pos = end;
        in_frame += 1;
        if in_frame == RECORDS_PER_FRAME {
            frames.push((start, pos));
            (start, in_frame) = (pos, 0);
        }
    }
    if in_frame > 0 {
        frames.push((start, pos));
    }
    let follower =
        usi_repl::FollowerDoc::new("layer", base.clone(), usi_ingest::IngestOptions::default());
    let applied = with_reader(spans, parent, "repl.follower_query", &follower, patterns, |spans| {
        for &(from, to) in &frames {
            spans
                .time("repl.apply", Some(parent), || {
                    follower.apply_records(from as u64, &bytes[from..to])
                })
                .map_err(|e| format!("follower apply failed: {e}"))?;
        }
        Ok::<_, String>(())
    });
    spans.close(parent);
    applied?;
    out.attempted += 1;
    if follower.applied_records() != records as u64 {
        out.failed += 1;
        out.errors.push("follower applied a different record count".into());
    }
    out.metric("repl.apply_records_per_s", records as f64 / (ms(spans, "repl.apply") / 1e3), "1/s");
    let mut reads: Vec<f64> =
        spans.durations("repl.follower_query").iter().map(|ns| ns / 1e3).collect();
    out.metric(
        "repl.follower_query_p99_us",
        percentile(&mut reads, 0.99).map_or(0.0, |p| p.value),
        "us",
    );
    Ok(())
}

/// Tracing's own cost on the client loop: the query loop against the
/// same server with and without per-request spans, alternating.
fn trace_overhead(
    env: &Env,
    setup: &Setup,
    stream: impl Fn(u64) -> Stream,
    trace: &mut Trace,
    out: &mut Outcome,
) {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for round in 0..OVERHEAD_ROUNDS {
        let order = if round % 2 == 0 { [true, false] } else { [false, true] };
        for traced in order {
            let mut s = stream(inputs::mix(env.seed, 0x0e + round as u64));
            let deadline = Instant::now() + OVERHEAD_SIDE;
            let stats = scenario::query_loop(
                setup.server.addr,
                &mut s,
                deadline,
                None,
                traced.then_some(&mut *trace),
            );
            out.attempted += stats.attempted;
            out.failed += stats.failed;
            let mut lat = stats.lat_us;
            (if traced { &mut on } else { &mut off }).push(median(&mut lat));
        }
    }
    out.metric("trace.overhead_p50_us", p50(on) - p50(off), "us");
}

/// Everything after the traced run's client loop: the in-process layer
/// replays and the metrics computed from the spans.
pub fn sweep(
    env: &Env,
    docs: &[DocInput],
    setup: &Setup,
    pools: &[(&'static str, Vec<Vec<u8>>)],
    fanout: bool,
    trace: &mut Trace,
    out: &mut Outcome,
) -> Result<(), String> {
    if let Some(root) = trace.root.take() {
        trace.spans.close(root);
    }
    let stream = |seed: u64| scenario::request_stream(fanout, docs, pools, seed);
    let ids: Vec<&str> = docs.iter().map(|d| d.id).collect();
    let spans = &mut trace.spans;

    out.metric("suffix.sa_ms", ms(spans, "suffix.sa"), "ms");
    out.metric("suffix.lcp_ms", ms(spans, "suffix.lcp"), "ms");
    out.metric("core.topk_ms", ms(spans, "core.topk"), "ms");
    out.metric("core.populate_ms", ms(spans, "core.populate"), "ms");
    out.metric("core.persist_write_ms", ms(spans, "core.persist_write"), "ms");
    out.metric("core.open_ms", ms(spans, "core.open"), "ms");
    out.metric("core.open_psw_ms", ms(spans, "core.open_psw"), "ms");
    let sum = |f: fn(&UsiIndex) -> usize| setup.indexes.iter().map(f).sum::<usize>() as f64;
    out.metric("core.k_stored", sum(|i| i.stats().k_stored), "count");
    out.metric("core.tau_k", sum(|i| i.stats().tau.unwrap_or(0) as usize), "count");
    out.metric("core.l_k", sum(|i| i.stats().distinct_lengths), "count");

    let indexes = scenario::open_mapped(&setup.files)?;
    let replay = if fanout { FANOUT_REPLAY } else { POINT_REPLAY };
    core_replay(spans, &indexes, &mut stream(env.seed), replay, out);
    let catalog = scenario::load_catalog(&setup.files)?;
    catalog_replay(spans, &catalog, &ids, &mut stream(env.seed), replay, out);
    // a fresh catalog: the codec replay must not find the LRU warm
    let catalog = scenario::load_catalog(&setup.files)?;
    codec_replay(spans, &catalog, &ids, &mut stream(env.seed), out);
    obs_ab(spans, &catalog, &mut stream(env.seed), env.threads, out);

    let stage = |name: &str| {
        p50(trace.stages.iter().filter(|(s, _)| s == name).map(|&(_, us)| us).collect())
    };
    for name in ["queue", "parse", "engine", "serialize"] {
        out.metric(&format!("http.{name}_us"), stage(name), "us");
    }
    out.metric("http.write_us", p50(trace.write_us.clone()), "us");
    let client_p50 = out.metrics.iter().find(|m| m.0 == "query_p50_us").map_or(0.0, |m| m.1);
    let respond_us = p50(trace.spans.durations("http.respond")) / 1e3;
    out.metric("http.transport_us", client_p50 - respond_us, "us");
    out.metric("trace.query_p50_us", client_p50, "us");
    // the client tails: reported here, without a bound, because their
    // run-to-run spread exceeds any bound an end-to-end metric may have
    for tail in ["query_p99_us", "op_p99_us"] {
        let value = out.metrics.iter().find(|m| m.0 == tail).map_or(0.0, |m| m.1);
        out.metric(&format!("trace.{tail}"), value, "us");
    }

    let mut s = stream(env.seed);
    let patterns: Vec<Vec<u8>> = (0..256).flat_map(|_| s.next_request().patterns).collect();
    ingest_and_repl(env, &mut trace.spans, &indexes[0], &patterns, out)?;
    trace_overhead(env, setup, stream, trace, out);
    Ok(())
}
