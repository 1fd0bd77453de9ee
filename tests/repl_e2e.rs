//! End-to-end replication: a primary catalog shipping its WAL over TCP
//! to an in-process follower, compared **byte-for-byte** through the
//! same HTTP handler (`usi::server::respond`); then a fan-out front end
//! whose documents are [`RemoteDoc`] proxies over two real HTTP shard
//! servers, checked against a single-process catalog holding the same
//! indexes.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use usi::prelude::*;
use usi::repl::{
    FollowSource, Follower, FollowerConfig, FollowerDoc, RemoteDoc, Shipper, ShipperConfig,
};
use usi::server::json::Json;
use usi::server::{respond, serve, LoadOptions, Role};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sample_ws(seed: u64, n: usize) -> WeightedString {
    let mut rng = StdRng::seed_from_u64(seed);
    let text: Vec<u8> = (0..n).map(|_| b'a' + rng.gen_range(0..3u8)).collect();
    let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..2.0)).collect();
    WeightedString::new(text, weights).unwrap()
}

fn build(seed: u64, n: usize) -> UsiIndex {
    UsiBuilder::new().with_k(64).deterministic(seed).build(sample_ws(seed, n))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("usi-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_usix(index: &UsiIndex, path: &std::path::Path) {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).unwrap());
    index.write_to(&mut out).unwrap();
    use std::io::Write;
    out.flush().unwrap();
}

fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let stop = Instant::now() + deadline;
    while Instant::now() < stop {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    done()
}

#[test]
fn follower_converges_to_byte_identical_answers_and_survives_the_primary() {
    let dir = temp_dir("repl-e2e");
    let usix = dir.join("d.usix");
    write_usix(&build(11, 400), &usix);

    // primary: one ingest-enabled document, synchronous compaction so
    // its structure is a deterministic function of the appended letters
    let primary = Arc::new(Catalog::new(4));
    let config = IngestConfig {
        seal_threshold: 32,
        compact_fanout: 2,
        sync_wal: false,
        background_compaction: false,
        ..IngestConfig::default()
    };
    let opts = LoadOptions { mmap: false, threads: 1 };
    primary.load_usix_ingest_with(&usix, &dir.join("d.usil"), config.clone(), opts).unwrap();
    primary.set_role(Role::Primary);
    let shipper = Shipper::start(
        TcpListener::bind("127.0.0.1:0").unwrap(),
        Arc::clone(&primary) as _,
        ShipperConfig { poll_interval: Duration::from_millis(10), ..ShipperConfig::default() },
    )
    .unwrap();

    // follower: the same base image, replayed live from the stream
    let fdoc = Arc::new(FollowerDoc::new(
        "d",
        build(11, 400),
        IngestOptions {
            seal_threshold: config.seal_threshold,
            compact_fanout: config.compact_fanout,
            seed: config.seed,
            segment_dir: None,
        },
    ));
    let follower_catalog = Arc::new(Catalog::new(4));
    follower_catalog.insert_engine("d", Arc::clone(&fdoc) as _);
    follower_catalog.set_role(Role::Follower);
    let follower = Follower::start(
        vec![Arc::clone(&fdoc)],
        &FollowSource::Tcp(shipper.addr().to_string()),
        FollowerConfig { poll_interval: Duration::from_millis(10), ..FollowerConfig::default() },
    );
    follower_catalog.set_replication(follower.status());

    // writes land on the primary through the public HTTP handler; the
    // batch sizes deliberately cross seal and compaction boundaries
    let mut appended = 0u64;
    for (i, len) in [7usize, 40, 3, 90, 21].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(100 + i as u64);
        let text: String = (0..len).map(|_| char::from(b'a' + rng.gen_range(0..3u8))).collect();
        let weights: Vec<String> =
            (0..len).map(|_| format!("{:.3}", rng.gen_range(0.0..2.0))).collect();
        let body = format!(r#"{{"text":"{text}","weights":[{}]}}"#, weights.join(","));
        let r = respond(&primary, "POST", "/v1/docs/d/append", body.as_bytes());
        assert_eq!(r.status, 200, "{}", r.body);
        appended += 1;
    }

    // replication lag converges to zero
    assert!(
        wait_until(Duration::from_secs(30), || {
            fdoc.applied_records() == appended && fdoc.lag_records() == 0
        }),
        "follower stuck at {} applied / lag {}",
        fdoc.applied_records(),
        fdoc.lag_records()
    );
    assert!(fdoc.is_connected());

    // the follower's /healthz declares its role and replication state
    let health = respond(&follower_catalog, "GET", "/healthz", b"");
    assert_eq!(health.status, 200);
    let parsed = Json::parse(&health.body).unwrap();
    assert_eq!(parsed.get("role").and_then(Json::as_str), Some("follower"));
    let replication = parsed.get("replication").expect("follower healthz carries replication");
    assert_eq!(replication.get("connected").and_then(Json::as_bool), Some(true));
    assert_eq!(replication.get("lag_records").and_then(Json::as_f64), Some(0.0));
    let health = respond(&primary, "GET", "/healthz", b"");
    assert_eq!(
        Json::parse(&health.body).unwrap().get("role").and_then(Json::as_str),
        Some("primary")
    );

    // byte-identical answers through the same HTTP handler, both the
    // plain and the accumulator-carrying encodings
    let queries = [
        r#"{"doc":"d","patterns":["ab","abc","bca","zzz","a"]}"#,
        r#"{"doc":"d","patterns":["ab","abc","bca","zzz","a"],"acc":true}"#,
        r#"{"doc":"*","patterns":["cab","bb"],"acc":true}"#,
    ];
    for body in queries {
        let p = respond(&primary, "POST", "/v1/query", body.as_bytes());
        let f = respond(&follower_catalog, "POST", "/v1/query", body.as_bytes());
        assert_eq!(p.status, 200, "{}", p.body);
        assert_eq!(p.body, f.body, "primary and follower disagree for {body}");
    }

    // the primary dies; the follower keeps answering (stale, observable)
    shipper.shutdown();
    drop(primary);
    assert!(wait_until(Duration::from_secs(30), || !fdoc.is_connected()));
    let r = respond(&follower_catalog, "POST", "/v1/query", queries[0].as_bytes());
    assert_eq!(r.status, 200);
    // and appends are refused — the (dead) primary owns the log
    let r = respond(&follower_catalog, "POST", "/v1/docs/d/append", br#"{"text":"x"}"#);
    assert_eq!(r.status, 409, "{}", r.body);

    follower.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fan_out_front_end_matches_a_single_process_catalog() {
    // two real HTTP shard servers, two documents each…
    let mut shard_handles = Vec::new();
    let mut shard_addrs = Vec::new();
    let reference = Arc::new(Catalog::new(4));
    for shard in 0..2u64 {
        let catalog = Arc::new(Catalog::new(4));
        for doc in 0..2u64 {
            let id = format!("s{shard}d{doc}");
            catalog.insert(id.clone(), build(40 + 2 * shard + doc, 300));
            reference.insert(id, build(40 + 2 * shard + doc, 300));
        }
        let handle = serve(
            catalog,
            TcpListener::bind("127.0.0.1:0").unwrap(),
            ServerConfig::with_workers(2),
        )
        .unwrap();
        shard_addrs.push(handle.addr().to_string());
        shard_handles.push(handle);
    }

    // …behind a front end whose documents are remote "*" proxies
    let front = Arc::new(Catalog::new(4));
    for addr in &shard_addrs {
        let remote = RemoteDoc::connect(addr, "*", Duration::from_secs(10)).unwrap();
        front.insert_engine(addr.clone(), Arc::new(remote) as _);
    }

    let body = r#"{"doc":"*","patterns":["abc","ba","ccc","zzzz"],"acc":true}"#;
    let front_body = respond(&front, "POST", "/v1/query", body.as_bytes());
    let reference_body = respond(&reference, "POST", "/v1/query", body.as_bytes());
    assert_eq!(front_body.status, 200, "{}", front_body.body);
    assert_eq!(reference_body.status, 200);

    // per-doc rows differ (shards vs documents) but the merged totals,
    // accumulators and utility function must agree exactly
    let front_json = Json::parse(&front_body.body).unwrap();
    let reference_json = Json::parse(&reference_body.body).unwrap();
    assert_eq!(
        front_json.get("utility").map(Json::encode),
        reference_json.get("utility").map(Json::encode),
    );
    let front_results = front_json.get("results").and_then(Json::as_array).unwrap();
    let reference_results = reference_json.get("results").and_then(Json::as_array).unwrap();
    assert_eq!(front_results.len(), reference_results.len());
    for (f, r) in front_results.iter().zip(reference_results) {
        for field in ["pattern", "occurrences", "value", "acc"] {
            assert_eq!(
                f.get(field).map(Json::encode),
                r.get(field).map(Json::encode),
                "fan-out through remote shards diverged on {field:?} for {:?}",
                f.get("pattern"),
            );
        }
    }

    for handle in shard_handles {
        handle.shutdown();
    }
}
