//! `usi_perfbench` — the repository's benchmark: drives a real
//! `usi serve` child process with keep-alive HTTP clients and reports
//! end-to-end metrics (`--trace 0`) or, from a separate traced run that
//! times the calls into each crate, per-layer metrics (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload point_zipf --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run it from the repository root: it builds the shipped `usi` binary
//! there first (into `$CARGO_TARGET_DIR`, default `target`), keeps its
//! scratch files under `.perfbench/`, and prints one JSON result object
//! as the last line of its standard output. See `perfbench/METRICS.md`
//! for what each workload and metric means.

mod client;
mod inputs;
mod layers;
mod scenario;
mod server;
mod spans;
mod stats;

use scenario::{Env, Outcome, Trace};
use std::path::{Path, PathBuf};
use std::process::{exit, Command};
use std::time::Duration;
use usi_server::Json;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["point_zipf", "fanout_scan", "ingest_mixed", "follower_catchup"];

/// End-to-end metrics, reported by every untraced run.
const END_TO_END: [&str; 9] = [
    "setup_s",
    "build_s",
    "ready_s",
    "index_bytes_per_letter",
    "peak_rss_mb",
    "query_qps",
    "query_p50_us",
    "op_per_s",
    "op_p50_us",
];

/// Per-layer metrics, reported by every traced run.
const PER_LAYER: [&str; 45] = [
    "suffix.sa_ms",
    "suffix.lcp_ms",
    "core.topk_ms",
    "core.populate_ms",
    "core.persist_write_ms",
    "core.open_ms",
    "core.open_psw_ms",
    "core.k_stored",
    "core.tau_k",
    "core.l_k",
    "core.query_h_ns",
    "core.query_sa_ns",
    "core.h_hit_ratio",
    "core.replayed_queries",
    "core.occ_per_sa_query",
    "catalog.point_ns",
    "catalog.cache_hit_ratio",
    "catalog.cache_lookups",
    "catalog.fanout_ns",
    "catalog.fanout_inline_ns",
    "json.parse_ns",
    "json.encode_ns",
    "http.queue_us",
    "http.parse_us",
    "http.engine_us",
    "http.serialize_us",
    "http.write_us",
    "http.respond_ns",
    "http.transport_us",
    "ingest.wal_append_ms",
    "ingest.pipeline_append_ms",
    "ingest.pipeline_append_p99_ms",
    "ingest.query_during_append_p99_us",
    "ingest.compactions_per_1k_appends",
    "ingest.appends",
    "ingest.wal_bytes_per_letter",
    "repl.parse_records_per_s",
    "repl.apply_records_per_s",
    "repl.follower_query_p99_us",
    "obs.respond_overhead_ns_1",
    "obs.respond_overhead_ns_n",
    "trace.query_p50_us",
    "trace.query_p99_us",
    "trace.op_p99_us",
    "trace.overhead_p50_us",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<&str, String> {
        let at = raw.iter().position(|a| a == name).ok_or_else(|| format!("missing {name}"))?;
        raw.get(at + 1).map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (one of {})", WORKLOADS.join(", ")));
    }
    let number = |name: &str| -> Result<u64, String> {
        value(name)?.parse().map_err(|_| format!("{name} must be a non-negative integer"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args { workload, seed: number("--seed")?, seconds, trace })
}

/// Builds the shipped `usi` binary from the checkout and returns its path.
fn build_usi() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("src/bin/usi.rs").is_file() {
        return Err("run from the repository root (no Cargo.toml with src/bin/usi.rs here)".into());
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "--bin", "usi"])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building usi failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("usi");
    if !bin.is_file() {
        return Err(format!("built usi not found at {}", bin.display()));
    }
    Ok(bin)
}

/// The commit, when the checkout is a git repository.
fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable (not a git checkout)".into())
}

/// FNV-1a over the program's sources (paths and bytes, in sorted
/// order): identifies the code measured even without git.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for dir in ["src", "crates", "vendor"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for &b in file.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn run_workload(env: &Env, workload: &str, trace: Option<&mut Trace>) -> Result<Outcome, String> {
    match workload {
        "point_zipf" => scenario::read_workload(env, false, trace),
        "fanout_scan" => scenario::read_workload(env, true, trace),
        "ingest_mixed" => scenario::ingest_workload(env, trace),
        "follower_catchup" => scenario::follower_workload(env, trace),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn stamp(args: &Args, env: &Env, outcome: &Outcome) -> Json {
    let profiles = match args.workload.as_str() {
        "point_zipf" | "fanout_scan" => &inputs::READ_PROFILES[..],
        _ => &inputs::WRITE_PROFILES[..],
    };
    let corpus = Json::Obj(vec![
        (
            "profiles".into(),
            Json::Arr(profiles.iter().map(|p| Json::str(p.1.spec().name)).collect()),
        ),
        ("n_per_doc".into(), Json::Num(inputs::DOC_LETTERS as f64)),
        ("k".into(), Json::str("n/100, exact top-K")),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("zipf_s".into(), Json::Num(inputs::ZIPF_S)),
        ("w1_draws_per_doc".into(), Json::Num(inputs::W1_DRAWS as f64)),
        ("append_chunk_letters".into(), Json::Num(inputs::CHUNK_LETTERS as f64)),
    ]);
    let mut members = vec![
        ("workload".into(), Json::str(args.workload.clone())),
        ("trace".into(), Json::Bool(args.trace)),
        ("seconds".into(), Json::Num(args.seconds as f64)),
        ("git_sha".into(), Json::Str(git_sha())),
        ("source_digest".into(), Json::Str(source_digest())),
        ("nproc".into(), Json::Num(env.threads as f64)),
        ("build_threads".into(), Json::Num(env.threads as f64)),
        ("corpus".into(), corpus),
        ("loop".into(), Json::str("closed")),
    ];
    members.extend(outcome.stamp.iter().cloned());
    Json::Obj(vec![("stamp".into(), Json::Obj(members))])
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    let bin = build_usi()?;
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let scratch = PathBuf::from(".perfbench");
    let root = scratch.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).map_err(|e| format!("cannot create {}: {e}", root.display()))?;
    let root =
        root.canonicalize().map_err(|e| format!("cannot resolve {}: {e}", root.display()))?;
    let env = Env {
        bin,
        root: root.clone(),
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        threads,
    };
    let mut trace = args.trace.then(Trace::new);
    let outcome = run_workload(&env, &args.workload, trace.as_mut());
    let _ = std::fs::remove_dir_all(&root);
    let outcome = outcome?;
    if let Some(trace) = &trace {
        let path = scratch.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        trace
            .spans
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("perfbench: {} spans written to {}", trace.spans.len(), path.display());
    }
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &name in names {
        let (_, value, unit) = outcome
            .metrics
            .iter()
            .find(|m| m.0 == name)
            .ok_or_else(|| format!("workload did not measure {name}"))?;
        metrics.push((
            name.to_string(),
            Json::Obj(vec![("value".into(), Json::Num(*value)), ("unit".into(), Json::str(*unit))]),
        ));
    }
    for e in &outcome.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    let correct = outcome.failed == 0;
    println!("{}", stamp(&args, &env, &outcome).encode());
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(outcome.attempted.max(1) as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.encode());
    Ok(if correct { 0 } else { 1 })
}

fn main() {
    match run() {
        Ok(code) => exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this binary must agree on every name.
    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            json.get(key)
                .and_then(Json::as_array)
                .expect("list")
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).expect("name").to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
    }
}
