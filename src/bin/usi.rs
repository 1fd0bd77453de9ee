//! `usi` — command-line front end for Useful String Indexing.
//!
//! ```text
//! usi build <text-file> [--weights FILE | --uniform W] [--k K | --tau T]
//!           [--approx S] [--agg sum|min|max|avg|count] [--local sum|product]
//!           [--seed N] [--threads N] -o OUT.usix
//! usi query <OUT.usix> <pattern> [<pattern>…] [--json] [--mmap]
//! usi stats <OUT.usix> [--mmap]
//! usi inspect <OUT.usix | WAL.usil>
//! usi topk  <text-file> --k K [--min-len L]
//! usi tradeoff <text-file> [--points N]
//! usi serve <dir-or-.usix>… [--addr HOST:PORT] [--workers N] [--shards N]
//!           [--mmap] [--ingest-wal DIR] [--seal-threshold N]
//!           [--compact-fanout F] [--segment-dir DIR] [--threads N] [--no-sync]
//!           [--slow-query-ms N] [--access-log off|text|json]
//!           [--flight-slow-ms N] [--trace-capacity N]
//!           [--max-connections N] [--idle-timeout-ms N]
//!           [--repl-listen HOST:PORT] [--follow HOST:PORT | --follow-dir DIR]
//!           [--shard HOST:PORT]… [--repl-poll-ms N]
//! usi ingest <base.usix> --wal PATH [--seal-threshold N] [--compact-fanout F]
//!           [--threads N] [--weight W] [--no-sync] [--mmap]
//!           [--segment-dir DIR] [--json] [--replay [--query P]…]
//! ```
//!
//! Each subcommand takes only the flags listed for it; any other flag
//! is a usage error that names it (exit 2).
//!
//! `--mmap` maps `.usix` files into memory
//! (`usi_core::persist::open_mmap`) instead of reading their bytes onto
//! the heap: no section is copied and resident memory holds only what
//! queries touch, at the price of the kernel paging sections in on
//! first touch. Both modes validate a file the same way, in one pass
//! over each section (time linear in its letters), and answer from the
//! same storage view. `build -o` replaces its
//! output by atomic rename, so rebuilding a file a `--mmap` server has
//! mapped leaves that server's view intact until a reload. `inspect`
//! validates a file and prints its header, section sizes and checksum
//! — the first tool to reach for over a suspect index file.
//!
//! Weights default to 1.0 per position; `--weights` reads
//! whitespace-separated floats (one per text byte). `serve` takes
//! `.usix` files and directories, a directory standing for its regular
//! `.usix` entries in sorted order, and opens them all through one
//! loader (`usi_server::open_corpus`) in every mode: the files validate
//! concurrently, one core each, and the first bad file in argument
//! order stops the start (exit 2, naming it). It then runs the HTTP
//! serving layer over every loaded index until stdin reaches EOF
//! (or the process receives SIGINT). Its `--workers` threads take turns
//! waiting on one epoll set (Linux), each serving the connection it
//! takes, so an idle keep-alive connection costs a descriptor, not a
//! thread; `--idle-timeout-ms` evicts silent ones and
//! `--max-connections` answers connects past the limit with a 503.
//! With `--ingest-wal DIR` every document becomes append-able
//! (`POST /v1/docs/{id}/append`) with its write-ahead log at
//! `DIR/<id>.usil`, replayed on startup. `ingest`
//! opens one base index + WAL directly: `--replay` recovers the log and
//! answers `--query` patterns (crash-recovery check), otherwise stdin
//! lines `append <text>` / `appendw <w> <text>` / `query <p>` / `stats`
//! drive the pipeline interactively.
//!
//! Replication (`usi_repl`): `--repl-listen` makes an ingest-enabled
//! server a **primary** that streams its documents' WALs to followers;
//! `usi serve base.usix --follow primary:port` runs a **follower** that
//! replays the stream into live indexes (serving reads the whole time,
//! staleness on `usi_repl_lag_records`); `--follow-dir` watches shipped
//! `.usil` files instead of a TCP stream; `--shard addr` (repeatable,
//! no local files needed) runs a **fan-out front end** whose documents
//! are remote shards, merged through the usual `"doc": "*"` path.

use std::fs::File;
use std::io::{BufRead, BufWriter, Read};
use std::net::TcpListener;
use std::path::Path;
use std::process::exit;
use std::sync::Arc;
use usi::core::oracle::TopKOracle;
use usi::core::IndexStorage;
use usi::prelude::*;
use usi::server::json::query_result_json;
use usi::strings::text::display_bytes;
use usi::strings::LocalWindow;

fn die(msg: &str) -> ! {
    eprintln!("usi: {msg}");
    exit(2);
}

fn read_text(path: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    File::open(path)
        .unwrap_or_else(|e| die(&format!("cannot open {path}: {e}")))
        .read_to_end(&mut buf)
        .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    // drop one trailing newline so `echo text > file` works naturally
    if buf.last() == Some(&b'\n') {
        buf.pop();
    }
    buf
}

fn read_weights(path: &str, n: usize) -> Vec<f64> {
    let mut s = String::new();
    File::open(path)
        .unwrap_or_else(|e| die(&format!("cannot open {path}: {e}")))
        .read_to_string(&mut s)
        .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let weights: Vec<f64> = s
        .split_whitespace()
        .map(|t| t.parse().unwrap_or_else(|_| die(&format!("bad weight {t:?}"))))
        .collect();
    if weights.len() != n {
        die(&format!("{} weights for a {n}-byte text", weights.len()));
    }
    weights
}

/// A subcommand: its entry point and the flags it accepts, each list
/// space-separated.
struct Command {
    run: fn(&Args),
    /// Flags that take the next argument as their value (`-o` is
    /// `--out`).
    flags: &'static str,
    /// Flags that never take a value, so `--json idx.usix` does not
    /// swallow the index path.
    switches: &'static str,
}

impl Command {
    fn named(name: &str) -> Option<Self> {
        let (run, flags, switches): (fn(&Args), _, _) = match name {
            "build" => (cmd_build, "weights uniform k tau approx agg local seed threads out", ""),
            "query" => (cmd_query, "", "json mmap"),
            "stats" => (cmd_stats, "", "mmap"),
            "inspect" => (cmd_inspect, "", ""),
            "topk" => (cmd_topk, "k min-len", ""),
            "tradeoff" => (cmd_tradeoff, "points", ""),
            "serve" => (
                cmd_serve,
                "addr workers shards ingest-wal seal-threshold compact-fanout threads \
                 segment-dir slow-query-ms access-log flight-slow-ms trace-capacity \
                 max-connections idle-timeout-ms repl-listen follow follow-dir shard repl-poll-ms",
                "mmap no-sync",
            ),
            "ingest" => (
                cmd_ingest,
                "wal seal-threshold compact-fanout threads segment-dir weight query",
                "no-sync mmap json replay",
            ),
            _ => return None,
        };
        Some(Self { run, flags, switches })
    }
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Splits `raw` into positionals and the flags `command` accepts;
    /// any other flag is a usage error that names it.
    fn parse(command_name: &str, command: &Command, raw: &[String]) -> Self {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let name = match raw[i].strip_prefix("--") {
                Some(name) => name,
                None if raw[i] == "-o" => "out",
                None => {
                    positional.push(raw[i].clone());
                    i += 1;
                    continue;
                }
            };
            let value = if command.switches.split_whitespace().any(|f| f == name) {
                None
            } else if command.flags.split_whitespace().any(|f| f == name) {
                // `-1` is a value; another flag is not
                match raw.get(i + 1) {
                    Some(v) if !v.starts_with("--") && v != "-o" => Some(v.clone()),
                    _ => die(&format!("{} expects a value", raw[i])),
                }
            } else {
                let known: Vec<String> = command
                    .flags
                    .split_whitespace()
                    .chain(command.switches.split_whitespace())
                    .map(|f| format!("--{f}"))
                    .collect();
                let known = if known.is_empty() { "no flags".into() } else { known.join(" ") };
                die(&format!("{command_name} does not take {}; it takes {known}", raw[i]));
            };
            if value.is_some() {
                i += 1;
            }
            flags.push((name.to_string(), value));
            i += 1;
        }
        Self { positional, flags }
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(n, _)| n == name).and_then(|(_, v)| v.as_deref())
    }

    /// Every value of a repeatable flag (e.g. `--query a --query b`).
    fn flags_all(&self, name: &str) -> Vec<&str> {
        self.flags.iter().filter(|(n, _)| n == name).filter_map(|(_, v)| v.as_deref()).collect()
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }
}

fn parse_agg(s: &str) -> GlobalAggregator {
    match s {
        "sum" => GlobalAggregator::Sum,
        "min" => GlobalAggregator::Min,
        "max" => GlobalAggregator::Max,
        "avg" => GlobalAggregator::Avg,
        "count" => GlobalAggregator::Count,
        other => die(&format!("unknown aggregator {other}")),
    }
}

fn cmd_build(args: &Args) {
    let [text_path] = &args.positional[..] else {
        die("build expects exactly one text file");
    };
    let text = read_text(text_path);
    let n = text.len();
    let weights = match (args.flag("weights"), args.flag("uniform")) {
        (Some(path), None) => read_weights(path, n),
        (None, Some(w)) => vec![w.parse().unwrap_or_else(|_| die("bad --uniform")); n],
        (None, None) => vec![1.0; n],
        _ => die("--weights and --uniform are mutually exclusive"),
    };
    let ws = WeightedString::new(text, weights).unwrap_or_else(|e| die(&e.to_string()));

    let mut builder = UsiBuilder::new();
    match (args.flag("k"), args.flag("tau")) {
        (Some(k), None) => builder = builder.with_k(k.parse().unwrap_or_else(|_| die("bad --k"))),
        (None, Some(t)) => {
            builder = builder.with_tau(t.parse().unwrap_or_else(|_| die("bad --tau")))
        }
        (None, None) => {}
        _ => die("--k and --tau are mutually exclusive"),
    }
    if let Some(s) = args.flag("approx") {
        builder = builder.with_strategy(TopKStrategy::Approximate {
            rounds: s.parse().unwrap_or_else(|_| die("bad --approx")),
            lce: LceBackend::Naive,
        });
    }
    if let Some(agg) = args.flag("agg") {
        builder = builder.with_aggregator(parse_agg(agg));
    }
    if let Some(local) = args.flag("local") {
        builder = builder.with_local_window(match local {
            "sum" => LocalWindow::Sum,
            "product" => LocalWindow::Product,
            other => die(&format!("unknown local window {other}")),
        });
    }
    builder = builder.deterministic(
        args.flag("seed")
            .map(|s| s.parse().unwrap_or_else(|_| die("bad --seed")))
            .unwrap_or(0xbeef),
    );
    // Parallel construction (phase (ii)'s length groups; the suffix and
    // LCP arrays and phase (i)'s histogram selection are serial): output
    // is byte-identical at any thread count (CI cmp-gates this), so
    // --threads is purely a speed knob.
    if let Some(t) = args.flag("threads") {
        builder = builder.with_threads(t.parse().unwrap_or_else(|_| die("bad --threads")));
    }

    let out_path = args.flag("out").unwrap_or_else(|| die("build requires -o OUT"));
    let index = builder.build(ws);
    let stats = index.stats();
    eprintln!(
        "built: n = {}, cached = {}, tau = {:?}, lengths = {}, construction = {:.2?}",
        stats.n,
        stats.k_stored,
        stats.tau,
        stats.distinct_lengths,
        stats.total_time()
    );
    write_replacing(&index, Path::new(out_path))
        .unwrap_or_else(|e| die(&format!("cannot write {out_path}: {e}")));
    eprintln!("wrote {out_path}");
}

/// Writes `index` to `path` by atomic rename: the bytes go to a
/// temporary file beside `path`, which is flushed and synced before it
/// replaces `path`, and the directory is synced after. A server that
/// has the old file mapped keeps the old inode until its last query on
/// that view ends, so rebuilding a served file never truncates pages
/// under it.
fn write_replacing(index: &UsiIndex, path: &Path) -> std::io::Result<()> {
    let name = path.file_name().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "output is not a file name")
    })?;
    let tmp =
        path.with_file_name(format!(".{}.tmp-{}", name.to_string_lossy(), std::process::id()));
    let written = File::create(&tmp)
        .and_then(|file| {
            let mut out = BufWriter::new(file);
            index.write_to(&mut out)?;
            out.into_inner().map_err(std::io::IntoInnerError::into_error)?.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return written;
    }
    let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty()).unwrap_or(Path::new("."));
    File::open(dir)?.sync_all()
}

/// Loads `path` through the one `.usix` validator, over a file mapping
/// with `mmap` and over the file's bytes on the heap without it.
fn load_index(path: &str, mmap: bool) -> UsiIndex {
    let storage = if mmap {
        IndexStorage::open(Path::new(path))
    } else {
        std::fs::read(path).map(IndexStorage::Owned)
    }
    .unwrap_or_else(|e| die(&format!("cannot open {path}: {e}")));
    UsiIndex::from_storage(Arc::new(storage))
        .unwrap_or_else(|e| die(&format!("load failed: {path}: {e}")))
}

fn cmd_query(args: &Args) {
    if args.positional.len() < 2 {
        die("query expects an index file and at least one pattern");
    }
    let index = load_index(&args.positional[0], args.has("mmap"));
    let agg = index.utility().aggregator;
    let json = args.has("json");
    for pattern in &args.positional[1..] {
        let q = index.query(pattern.as_bytes());
        if json {
            // one JSON object per pattern, same encoding as the server
            println!("{}", query_result_json(pattern.as_bytes(), &q).encode());
        } else {
            println!(
                "{}\t{}\t{}\t{}",
                pattern,
                q.occurrences,
                q.value.map_or("n/a".into(), |v| format!("{v}")),
                match q.source {
                    QuerySource::HashTable => "cached",
                    QuerySource::TextIndex => "computed",
                }
            );
        }
    }
    if !json {
        eprintln!("aggregator: {}", agg.name());
    }
}

/// The ingest knobs shared by `serve --ingest-wal` and `usi ingest`.
fn ingest_config(args: &Args) -> IngestConfig {
    let mut config = IngestConfig::default();
    if let Some(t) = args.flag("seal-threshold") {
        config.seal_threshold = t.parse().unwrap_or_else(|_| die("bad --seal-threshold"));
    }
    if let Some(f) = args.flag("compact-fanout") {
        config.compact_fanout = f.parse().unwrap_or_else(|_| die("bad --compact-fanout"));
    }
    if let Some(t) = args.flag("threads") {
        config.threads = t.parse().unwrap_or_else(|_| die("bad --threads"));
    }
    // segment-aware mmap: sealed/compacted segments are persisted here
    // and served through zero-copy storage views
    config.segment_dir = args.flag("segment-dir").map(std::path::PathBuf::from);
    config.sync_wal = !args.has("no-sync");
    config
}

/// Ids are file stems; a collision would silently shadow the earlier
/// index, so refuse to serve ambiguous corpora.
fn refuse_duplicate_ids<'a>(ids: impl IntoIterator<Item = &'a str>) {
    let mut seen = std::collections::HashSet::new();
    for id in ids {
        if !seen.insert(id) {
            die(&format!("duplicate document id {id:?} (file stems must be unique)"));
        }
    }
}

fn cmd_serve(args: &Args) {
    // replication topology flags (usi_repl): at most one role
    let repl_listen = args.flag("repl-listen");
    let follow = args.flag("follow");
    let follow_dir = args.flag("follow-dir");
    let shard_addrs = args.flags_all("shard");
    let repl_poll = std::time::Duration::from_millis(
        args.flag("repl-poll-ms")
            .map_or(50, |s| s.parse().unwrap_or_else(|_| die("bad --repl-poll-ms"))),
    );
    if follow.is_some() && follow_dir.is_some() {
        die("--follow and --follow-dir are mutually exclusive");
    }
    let follow_source = match (follow, follow_dir) {
        (Some(addr), None) => Some(usi::repl::FollowSource::Tcp(addr.to_string())),
        (None, Some(dir)) => Some(usi::repl::FollowSource::Dir(dir.into())),
        _ => None,
    };
    if follow_source.is_some() && (repl_listen.is_some() || args.has("ingest-wal")) {
        die("a follower is read-only: --follow conflicts with --repl-listen/--ingest-wal");
    }
    if !shard_addrs.is_empty() && (follow_source.is_some() || repl_listen.is_some()) {
        die("--shard runs a front end; it cannot also be a primary or follower");
    }
    if repl_listen.is_some() && !args.has("ingest-wal") {
        die("--repl-listen ships WALs and therefore requires --ingest-wal DIR");
    }
    if args.positional.is_empty() && shard_addrs.is_empty() {
        die("serve expects at least one .usix file or directory of .usix files");
    }
    if !args.positional.is_empty() && !shard_addrs.is_empty() {
        die("--shard serves remote documents only; drop the local .usix arguments");
    }
    let shards: usize =
        args.flag("shards").map_or(8, |s| s.parse().unwrap_or_else(|_| die("bad --shards")));
    let workers: usize =
        args.flag("workers").map_or(4, |s| s.parse().unwrap_or_else(|_| die("bad --workers")));
    let addr = args.flag("addr").unwrap_or("127.0.0.1:7878");
    // observability knobs: requests slower than the threshold are logged
    // to stderr (and counted in usi_http_slow_requests_total); the access
    // log mirrors every request in text or JSON
    let slow_query_ms: Option<u64> = args
        .flag("slow-query-ms")
        .map(|s| s.parse().unwrap_or_else(|_| die("bad --slow-query-ms")));
    let access_log = args.flag("access-log").map_or(usi::server::AccessLog::Off, |s| {
        usi::server::AccessLog::parse(s)
            .unwrap_or_else(|| die("bad --access-log (expected off, text or json)"))
    });
    // tracing knobs: requests whose whole lifetime exceeds the flight
    // threshold (default: --slow-query-ms; errors always) land in the
    // flight recorder at /debug/requests; trace-capacity resizes the
    // span ring behind /v1/trace
    let flight_slow_ms: Option<u64> = args
        .flag("flight-slow-ms")
        .map(|s| s.parse().unwrap_or_else(|_| die("bad --flight-slow-ms")));
    if let Some(capacity) = args.flag("trace-capacity") {
        let capacity: usize = capacity.parse().unwrap_or_else(|_| die("bad --trace-capacity"));
        usi_obs::tracer().set_capacity(capacity.max(1));
    }
    // connection-scale knobs: the workers park idle keep-alive sockets
    // in one epoll set they all wait on (Linux; other platforms pin a
    // worker per connection), max-connections bounds the descriptor
    // budget, idle-timeout-ms evicts silent clients
    let max_connections: Option<usize> = args
        .flag("max-connections")
        .map(|s| s.parse().unwrap_or_else(|_| die("bad --max-connections")));
    let idle_timeout_ms: Option<u64> = args
        .flag("idle-timeout-ms")
        .map(|s| s.parse().unwrap_or_else(|_| die("bad --idle-timeout-ms")));
    let ingest_wal = args.flag("ingest-wal").map(std::path::PathBuf::from);
    let load_opts = usi::server::LoadOptions { mmap: args.has("mmap"), threads: 0 };

    let catalog = Arc::new(Catalog::new(shards));
    // every mode opens its files through the one corpus loader: the
    // arguments expand by one rule, the files validate concurrently,
    // and the first bad file in argument order stops the start
    let open_files = || {
        let corpus = usi::server::open_corpus(&args.positional, load_opts)
            .unwrap_or_else(|e| die(&format!("cannot load {e}")));
        refuse_duplicate_ids(corpus.iter().map(|file| file.id.as_str()));
        corpus
    };
    let mut follower: Option<usi::repl::Follower> = None;
    if let Some(source) = &follow_source {
        // follower: every .usix becomes a replaying FollowerDoc served
        // through the catalog's engine backend (reads work the whole
        // time; appends are refused — the primary owns the WAL)
        let config = ingest_config(args);
        let opts = IngestOptions {
            seal_threshold: config.seal_threshold,
            compact_fanout: config.compact_fanout,
            threads: config.threads,
            seed: config.seed,
            segment_dir: None,
        };
        let mut docs = Vec::new();
        for file in open_files() {
            let doc =
                Arc::new(usi::repl::FollowerDoc::new(file.id.clone(), file.index, opts.clone()));
            catalog.insert_engine(file.id, Arc::clone(&doc) as _);
            docs.push(doc);
        }
        let running = usi::repl::Follower::start(
            docs,
            source,
            usi::repl::FollowerConfig {
                poll_interval: repl_poll,
                ..usi::repl::FollowerConfig::default()
            },
        );
        catalog.set_role(usi::server::Role::Follower);
        catalog.set_replication(running.status());
        follower = Some(running);
    } else if !shard_addrs.is_empty() {
        // fan-out front end: each shard's whole corpus ("*") appears as
        // one remote document; "doc": "*" here merges across shards
        let mut seen = std::collections::HashSet::new();
        for addr in &shard_addrs {
            if !seen.insert(*addr) {
                die(&format!("duplicate --shard {addr}"));
            }
            let remote =
                usi::repl::RemoteDoc::connect(*addr, "*", std::time::Duration::from_secs(5))
                    .unwrap_or_else(|e| die(&format!("cannot reach shard {addr}: {e}")));
            catalog.insert_engine((*addr).to_string(), Arc::new(remote) as _);
        }
    } else if let Some(wal_dir) = &ingest_wal {
        // every document is ingest-enabled: its index moves straight
        // into a pipeline (no transient static copy), its WAL lives at
        // DIR/<id>.usil and is replayed right now, and compaction runs
        // on a background thread per document
        std::fs::create_dir_all(wal_dir)
            .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", wal_dir.display())));
        let config = IngestConfig { background_compaction: true, ..ingest_config(args) };
        for file in open_files() {
            let wal_path = wal_dir.join(format!("{}.usil", file.id));
            let mut doc_config = config.clone();
            if let Some(dir) = &doc_config.segment_dir {
                // segment files are named by offset/length only, so
                // each document gets its own namespace under the dir
                doc_config.segment_dir = Some(dir.join(&file.id));
            }
            let (pipeline, replay) = IngestPipeline::open(file.index, &wal_path, doc_config)
                .unwrap_or_else(|e| {
                    die(&format!(
                        "cannot load {}: {}: {e}",
                        file.path.display(),
                        wal_path.display()
                    ))
                });
            if !replay.records.is_empty() || replay.truncated {
                eprintln!(
                    "replayed {} record(s) for {} from {}{}",
                    replay.records.len(),
                    file.id,
                    wal_path.display(),
                    if replay.truncated { " (torn tail dropped)" } else { "" },
                );
            }
            catalog.insert_ingest(file.id, pipeline);
        }
    } else {
        let ids = catalog
            .load_paths_with(&args.positional, load_opts)
            .unwrap_or_else(|e| die(&format!("cannot load {e}")));
        refuse_duplicate_ids(ids.iter().map(String::as_str));
    }
    for id in catalog.doc_ids() {
        let doc = catalog.get(&id).expect("listed");
        eprintln!(
            "loaded {id}: n = {}{}{}",
            doc.n(),
            if doc.is_ingest() { " (ingest-enabled)" } else { "" },
            if doc.index().is_some_and(UsiIndex::is_memory_mapped) { " (mmap)" } else { "" }
        );
    }
    if catalog.is_empty() {
        die("no .usix indexes found to serve");
    }

    let listener =
        TcpListener::bind(addr).unwrap_or_else(|e| die(&format!("cannot bind {addr}: {e}")));
    let mut config = ServerConfig {
        slow_query_ms,
        flight_slow_ms,
        access_log,
        ..ServerConfig::with_workers(workers)
    };
    if let Some(max) = max_connections {
        config.max_connections = max.max(1);
    }
    if let Some(ms) = idle_timeout_ms {
        config.idle_timeout = std::time::Duration::from_millis(ms.max(1));
    }
    let handle = usi::server::serve(Arc::clone(&catalog), listener, config)
        .unwrap_or_else(|e| die(&format!("cannot start server: {e}")));
    let mut shipper = None;
    if let Some(repl_addr) = repl_listen {
        let repl_listener = TcpListener::bind(repl_addr)
            .unwrap_or_else(|e| die(&format!("cannot bind --repl-listen {repl_addr}: {e}")));
        let running = usi::repl::Shipper::start(
            repl_listener,
            Arc::clone(&catalog) as _,
            usi::repl::ShipperConfig {
                poll_interval: repl_poll,
                ..usi::repl::ShipperConfig::default()
            },
        )
        .unwrap_or_else(|e| die(&format!("cannot start replication shipper: {e}")));
        catalog.set_role(usi::server::Role::Primary);
        eprintln!("replication: shipping WALs to followers on {}", running.addr());
        shipper = Some(running);
    }
    eprintln!(
        "serving {} doc(s) on http://{} with {workers} worker(s) as {}; \
         stdin EOF or SIGINT stops",
        catalog.len(),
        handle.addr(),
        catalog.role().name(),
    );

    // Block until the controlling input closes, then shut down
    // gracefully (SIGINT terminates the process the default way).
    let _ = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());
    eprintln!("stdin closed, shutting down");
    if let Some(shipper) = shipper.take() {
        shipper.shutdown();
    }
    if let Some(follower) = follower.take() {
        follower.shutdown();
    }
    handle.shutdown();
}

/// Prints one query answer: the shared JSON encoding with `--json`,
/// the `query` subcommand's tab format otherwise.
fn print_ingest_answer(pattern: &str, q: &usi::prelude::UsiQuery, json: bool) {
    if json {
        println!("{}", query_result_json(pattern.as_bytes(), q).encode());
    } else {
        println!(
            "{}\t{}\t{}\t{}",
            pattern,
            q.occurrences,
            q.value.map_or("n/a".into(), |v| format!("{v}")),
            match q.source {
                QuerySource::HashTable => "cached",
                QuerySource::TextIndex => "computed",
            }
        );
    }
}

fn print_ingest_stats(stats: &usi::ingest::IngestStats) {
    println!(
        "n\t{}\nbase\t{}\nsegments\t{}\ntail\t{}\nwal_bytes\t{}\nseals\t{}\ncompactions\t{}",
        stats.n,
        stats.base_n,
        stats.segments,
        stats.tail_len,
        stats.wal_bytes,
        stats.seals,
        stats.compactions,
    );
}

fn cmd_ingest(args: &Args) {
    let [base_path] = &args.positional[..] else {
        die("ingest expects exactly one base .usix file");
    };
    let wal_path = args.flag("wal").unwrap_or_else(|| die("ingest requires --wal PATH"));
    let base = load_index(base_path, args.has("mmap"));
    let config = ingest_config(args);
    let (pipeline, replay) = IngestPipeline::open(base, Path::new(wal_path), config)
        .unwrap_or_else(|e| die(&format!("cannot open {wal_path}: {e}")));
    let replayed_letters: usize = replay.records.iter().map(|r| r.text.len()).sum();
    let stats = pipeline.stats();
    eprintln!(
        "replayed {} record(s) ({} letters){}; n = {}, segments = {}, tail = {}",
        replay.records.len(),
        replayed_letters,
        if replay.truncated { " — torn tail dropped" } else { "" },
        stats.n,
        stats.segments,
        stats.tail_len,
    );
    let json = args.has("json");
    let weight: f64 =
        args.flag("weight").map_or(1.0, |w| w.parse().unwrap_or_else(|_| die("bad --weight")));

    if args.has("replay") {
        // crash-recovery mode: recover, answer, exit — no stdin
        for pattern in args.flags_all("query") {
            print_ingest_answer(pattern, &pipeline.query(pattern.as_bytes()), json);
        }
        return;
    }

    // interactive mode: one command per stdin line
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => die(&format!("stdin: {e}")),
        }
        let trimmed = line.trim_end_matches(['\n', '\r']);
        let (command, rest) = trimmed.split_once(' ').unwrap_or((trimmed, ""));
        match command {
            "" => {}
            "append" => match pipeline.append_uniform(rest.as_bytes(), weight) {
                Ok(()) => eprintln!("appended {} letter(s)", rest.len()),
                Err(e) => eprintln!("usi: append failed: {e}"),
            },
            "appendw" => {
                let Some((w, text)) = rest.split_once(' ') else {
                    eprintln!("usi: usage: appendw <weight> <text>");
                    continue;
                };
                match w.parse::<f64>() {
                    Ok(w) => match pipeline.append_uniform(text.as_bytes(), w) {
                        Ok(()) => eprintln!("appended {} letter(s) at weight {w}", text.len()),
                        Err(e) => eprintln!("usi: append failed: {e}"),
                    },
                    Err(_) => eprintln!("usi: bad weight {w:?}"),
                }
            }
            "query" => print_ingest_answer(rest, &pipeline.query(rest.as_bytes()), json),
            "stats" => print_ingest_stats(&pipeline.stats()),
            "quit" | "exit" => break,
            other => eprintln!("usi: unknown command {other:?} (append/appendw/query/stats/quit)"),
        }
    }
}

fn cmd_stats(args: &Args) {
    let [path] = &args.positional[..] else {
        die("stats expects exactly one index file");
    };
    let index = load_index(path, args.has("mmap"));
    let size = index.size_breakdown();
    println!("n\t{}", index.text().len());
    println!("cached substrings\t{}", index.cached_substrings());
    println!("tau\t{:?}", index.stats().tau);
    println!("aggregator\t{}", index.utility().aggregator.name());
    println!("text bytes\t{}", size.text);
    println!("weight bytes\t{}", size.weights);
    println!("suffix array bytes\t{}", size.suffix_array);
    println!("psw bytes\t{}", size.psw);
    println!("hash table bytes\t{}", size.hash_table);
    println!("total bytes\t{}", size.total());
}

/// `usi inspect <file.usix | file.usil>`: for an index file, header,
/// section layout and checksum status via the zero-copy open path — the
/// debugging tool for a `.usix` file that refuses to load. For an
/// ingest/replication WAL, the recovery report: record count, the valid
/// byte offset a follower would resume from, per-record CRC status and
/// whether a torn tail would be dropped.
fn cmd_inspect(args: &Args) {
    let [path] = &args.positional[..] else {
        die("inspect expects exactly one index file");
    };
    let bytes = std::fs::read(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    // informational content fingerprint: CRC-32, the same polynomial
    // the ingest WAL stamps its records with
    let crc = usi::ingest::wal::crc32(&bytes);
    println!("file\t{path}");
    println!("file bytes\t{}", bytes.len());
    println!("crc32\t{crc:#010x}");
    // a `.usil` WAL (by extension or magic): print the recovery report
    let wal_magic = bytes.starts_with(&usi::ingest::wal::MAGIC)
        || (!bytes.is_empty() && usi::ingest::wal::MAGIC.starts_with(&bytes));
    if Path::new(path).extension().is_some_and(|ext| ext == "usil") || wal_magic {
        return inspect_wal(&bytes);
    }
    let index = match usi::core::persist::open_mmap(Path::new(path)) {
        Ok(index) => index,
        Err(e) => {
            println!("status\tcorrupt: {e}");
            exit(1);
        }
    };
    let stats = index.stats();
    let size = index.size_breakdown();
    println!("status\tvalid (magic, tags, permutation, weights, entry order)");
    println!("format\tUSIX v1");
    println!("backing\t{}", if index.is_memory_mapped() { "mmap" } else { "heap" });
    println!("n\t{}", index.text().len());
    println!("aggregator\t{}", index.utility().aggregator.name());
    println!(
        "local window\t{}",
        match index.utility().local {
            LocalWindow::Sum => "sum",
            LocalWindow::Product => "product",
        }
    );
    println!("fingerprint base\t{}", index.fingerprinter().base());
    println!("cached substrings\t{}", index.cached_substrings());
    println!("k requested\t{}", stats.k_requested);
    println!("tau\t{}", stats.tau.map_or("n/a".into(), |t| t.to_string()));
    println!("distinct lengths\t{}", stats.distinct_lengths);
    println!(
        "section bytes\ttext {}, weights {}, suffix array {}, hash table {}",
        size.text, size.weights, size.suffix_array, size.hash_table
    );
    println!("psw bytes (derived on load)\t{}", size.psw);
    println!("total bytes\t{}", size.total());
}

/// The `.usil` half of `inspect`: replays the bytes with the WAL's own
/// crash-recovery parser and reports what a restart (or a follower
/// resuming from this file) would see. A torn tail is recoverable —
/// replay drops it — so it exits 0; a wrong magic exits 1.
fn inspect_wal(bytes: &[u8]) {
    println!("format\tUSIL v1 (ingest write-ahead log)");
    let replay = match usi::ingest::wal::replay_bytes(bytes) {
        Ok(replay) => replay,
        Err(e) => {
            println!("status\tcorrupt: {e}");
            exit(1);
        }
    };
    let letters: usize = replay.records.iter().map(|r| r.text.len()).sum();
    println!("status\t{}", if replay.truncated { "torn tail (recoverable)" } else { "clean" });
    println!("records\t{}", replay.records.len());
    println!("letters\t{letters}");
    println!("valid byte offset\t{}", replay.valid_len);
    println!("crc status\tall {} record(s) verified", replay.records.len());
    if replay.truncated {
        println!(
            "torn tail\t{} byte(s) past offset {} fail framing or CRC; replay drops them",
            bytes.len() as u64 - replay.valid_len,
            replay.valid_len
        );
    } else {
        println!("torn tail\tnone");
    }
}

fn cmd_topk(args: &Args) {
    let [path] = &args.positional[..] else {
        die("topk expects exactly one text file");
    };
    let text = read_text(path);
    let k: usize = args
        .flag("k")
        .unwrap_or_else(|| die("topk requires --k"))
        .parse()
        .unwrap_or_else(|_| die("bad --k"));
    let min_len: u32 =
        args.flag("min-len").map_or(1, |s| s.parse().unwrap_or_else(|_| die("bad --min-len")));
    let (oracle, sa) = TopKOracle::from_text(&text);
    let mut emitted = 0usize;
    'outer: for e in oracle.entries() {
        let lo = (e.parent_depth + 1).max(min_len);
        for len in lo..=e.depth {
            if emitted == k {
                break 'outer;
            }
            let pos = sa[e.lb as usize] as usize;
            let sub = &text[pos..pos + len as usize];
            println!("{}\t{}", e.freq, display_bytes(&sub[..sub.len().min(60)]));
            emitted += 1;
        }
    }
}

fn cmd_tradeoff(args: &Args) {
    let [path] = &args.positional[..] else {
        die("tradeoff expects exactly one text file");
    };
    let text = read_text(path);
    let points: usize =
        args.flag("points").map_or(20, |s| s.parse().unwrap_or_else(|_| die("bad --points")));
    let (oracle, _) = TopKOracle::from_text(&text);
    let curve = oracle.tradeoff_curve();
    let step = (curve.len() / points.max(1)).max(1);
    println!("tau\tK\tL");
    for p in curve.iter().step_by(step) {
        println!("{}\t{}\t{}", p.tau, p.k, p.distinct_lengths);
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = raw.first() else {
        die("usage: usi <build|query|stats|inspect|topk|tradeoff|serve|ingest> …");
    };
    let Some(command) = Command::named(name) else {
        die(&format!("unknown command {name}"));
    };
    (command.run)(&Args::parse(name, &command, &raw[1..]));
}
