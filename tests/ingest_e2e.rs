//! End-to-end exercise of the ingestion subsystem across the stack:
//! durable appends through the HTTP serving layer, a simulated crash
//! (process state dropped, WAL survives — torn tail included), and a
//! replay that must answer exactly like a from-scratch build over the
//! concatenated weighted string.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use usi::ingest::{replay_file, IngestConfig, IngestPipeline};
use usi::prelude::*;
use usi::server::json::Json;
use usi::server::{read_response, serve};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "../crates/ingest/tests/temp_dir/mod.rs"]
mod temp_dir;
use temp_dir::TempDir;

/// Dyadic weights: aggregates are exact in f64, so recovered answers
/// can be compared with `==` against a from-scratch build.
fn dyadic_weights(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..8) as f64 * 0.25).collect()
}

fn build_base(seed: u64, n: usize) -> (UsiIndex, Vec<u8>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let text: Vec<u8> = (0..n).map(|_| b'a' + rng.gen_range(0..3u8)).collect();
    let weights = dyadic_weights(seed ^ 1, n);
    let index = UsiBuilder::new()
        .with_k(25)
        .deterministic(seed)
        .build(WeightedString::new(text.clone(), weights.clone()).unwrap());
    (index, text, weights)
}

/// One blocking HTTP exchange on a fresh `Connection: close`
/// connection; returns (status, body).
fn exchange(addr: SocketAddr, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to test server");
    stream.write_all(request.as_bytes()).unwrap();
    let reply = read_response(&mut stream, &mut Vec::new()).expect("complete response");
    // the server closes only after recording the request's metrics and
    // trace, so waiting for EOF lets the next request see them
    assert_eq!(stream.read(&mut [0; 1]).unwrap(), 0, "EOF after the response");
    (reply.status, reply.body)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

#[test]
fn kill_and_replay_restores_the_served_state() {
    let dir = TempDir::new("usi-ingest-e2e-kill-replay");
    let wal_path = dir.join("doc.usil");
    let (base, mut full_text, mut full_weights) = build_base(5, 300);

    let config = IngestConfig {
        seal_threshold: 32,
        compact_fanout: 2,
        background_compaction: true, // exercise the compactor thread too
        ..IngestConfig::default()
    };
    let (pipeline, _) = IngestPipeline::open(base.clone(), &wal_path, config.clone()).unwrap();

    // durable appends in several batches
    let mut rng = StdRng::seed_from_u64(77);
    for batch in 0..8 {
        let len = rng.gen_range(1..60usize);
        let text: Vec<u8> = (0..len).map(|_| b'a' + rng.gen_range(0..3u8)).collect();
        let weights = dyadic_weights(1000 + batch, len);
        pipeline.append(&text, &weights).unwrap();
        full_text.extend_from_slice(&text);
        full_weights.extend_from_slice(&weights);
    }
    assert_eq!(pipeline.with_state(|s| s.text()), full_text);
    drop(pipeline); // kill: no shutdown step beyond the per-append fsyncs

    // a torn half-record at the tail, as a crash mid-write would leave
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let clean_len = bytes.len();
    bytes.extend_from_slice(&[0x55; 7]);
    std::fs::write(&wal_path, &bytes).unwrap();

    let (recovered, replay) = IngestPipeline::open(base, &wal_path, config).unwrap();
    assert!(replay.truncated, "the torn tail must be detected");
    assert_eq!(replay.valid_len as usize, clean_len);
    assert_eq!(replay.records.len(), 8, "all acknowledged appends survive");
    assert_eq!(recovered.with_state(|s| s.text()), full_text);

    // recovered answers ≡ a from-scratch build over the concatenation
    let scratch = UsiBuilder::new()
        .with_k(25)
        .deterministic(5)
        .build(WeightedString::new(full_text.clone(), full_weights).unwrap());
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..120 {
        let m = rng.gen_range(1..40usize).min(full_text.len());
        let i = rng.gen_range(0..=full_text.len() - m);
        let pattern = &full_text[i..i + m];
        let got = recovered.query(pattern);
        let want = scratch.query(pattern);
        assert_eq!(got.occurrences, want.occurrences, "pattern {pattern:?}");
        assert_eq!(got.value, want.value, "pattern {pattern:?}");
    }

    // and the reopened log is clean again: replaying it finds no tear
    drop(recovered);
    assert!(!replay_file(&wal_path).unwrap().truncated);
}

#[test]
fn http_appends_survive_a_server_kill() {
    let dir = TempDir::new("usi-ingest-e2e-http-kill");
    let wal_path = dir.join("live.usil");
    let (base, base_text, base_weights) = build_base(9, 120);

    let config = IngestConfig {
        seal_threshold: 16,
        compact_fanout: 2,
        background_compaction: true,
        ..IngestConfig::default()
    };
    let catalog = Arc::new(Catalog::new(2));
    let (pipeline, _) = IngestPipeline::open(base.clone(), &wal_path, config.clone()).unwrap();
    catalog.insert_ingest("live", pipeline);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = serve(Arc::clone(&catalog), listener, ServerConfig::with_workers(2)).unwrap();
    let addr = handle.addr();

    // appends through the HTTP API, some with explicit dyadic weights
    let (status, body) = post(addr, "/v1/docs/live/append", r#"{"text":"abcabcab","weight":0.5}"#);
    assert_eq!(status, 200, "{body}");
    let (status, body) =
        post(addr, "/v1/docs/live/append", r#"{"text":"cab","weights":[0.25,1.75,1.0]}"#);
    assert_eq!(status, 200, "{body}");
    let parsed = Json::parse(&body).unwrap();
    assert_eq!(parsed.get("n").and_then(Json::as_f64), Some(120.0 + 11.0));

    // the served answer equals the in-process one
    let (status, body) = post(addr, "/v1/query", r#"{"doc":"live","patterns":["abc","cab"]}"#);
    assert_eq!(status, 200);
    let doc = catalog.get("live").unwrap();
    let direct = doc.query(b"abc");
    let parsed = Json::parse(&body).unwrap();
    let results = parsed.get("results").and_then(Json::as_array).unwrap();
    assert_eq!(
        results[0].get("occurrences").and_then(Json::as_f64),
        Some(direct.occurrences as f64)
    );

    // kill the server and the in-process state
    handle.shutdown();
    drop(catalog);

    // replay from the WAL alone: the full string is base + both appends
    let mut full_text = base_text;
    let mut full_weights = base_weights;
    full_text.extend_from_slice(b"abcabcab");
    full_weights.extend_from_slice(&[0.5; 8]);
    full_text.extend_from_slice(b"cab");
    full_weights.extend_from_slice(&[0.25, 1.75, 1.0]);

    let (recovered, replay) = IngestPipeline::open(base, &wal_path, config).unwrap();
    assert_eq!(replay.records.len(), 2);
    assert_eq!(recovered.with_state(|s| s.text()), full_text);
    let scratch = UsiBuilder::new()
        .with_k(25)
        .deterministic(9)
        .build(WeightedString::new(full_text, full_weights).unwrap());
    for pattern in [&b"abc"[..], b"cab", b"bca", b"ab", b"zzz"] {
        let got = recovered.query(pattern);
        let want = scratch.query(pattern);
        assert_eq!(got.occurrences, want.occurrences, "pattern {pattern:?}");
        assert_eq!(got.value, want.value, "pattern {pattern:?}");
    }
}

#[test]
fn non_positive_product_weight_gets_a_400_and_the_doc_keeps_serving() {
    let dir = TempDir::new("usi-ingest-e2e-product-weight");
    let wal_path = dir.join("doc.usil");
    let base = UsiBuilder::new()
        .with_k(10)
        .with_local_window(usi::strings::LocalWindow::Product)
        .deterministic(1)
        .build(WeightedString::uniform(b"abcabcabcabc".to_vec(), 0.5));
    let config = IngestConfig { seal_threshold: 8, ..IngestConfig::default() };
    let catalog = Arc::new(Catalog::new(2));
    let (pipeline, _) = IngestPipeline::open(base.clone(), &wal_path, config.clone()).unwrap();
    catalog.insert_ingest("doc", pipeline);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = serve(Arc::clone(&catalog), listener, ServerConfig::with_workers(2)).unwrap();
    let addr = handle.addr();

    let query = r#"{"doc":"doc","patterns":["abc","ab"]}"#;
    let (status, answers) = post(addr, "/v1/query", query);
    assert_eq!(status, 200, "{answers}");
    // no product segment can be built over a zero or negative weight,
    // and eight letters would seal at once
    for body in [r#"{"text":"abababab","weight":0}"#, r#"{"text":"ab","weights":[0.5,-1]}"#] {
        let (status, reply) = post(addr, "/v1/docs/doc/append", body);
        assert_eq!(status, 400, "{body}: {reply}");
        assert!(reply.contains("not positive"), "{reply}");
    }
    // the document keeps answering, unchanged, and still takes appends
    assert_eq!(post(addr, "/v1/query", query), (200, answers));
    let (status, reply) = post(addr, "/v1/docs/doc/append", r#"{"text":"abababab","weight":0.5}"#);
    assert_eq!(status, 200, "{reply}");
    handle.shutdown();
    drop(catalog);

    // only the valid append reached the log, so a restart replays cleanly
    let (recovered, replay) = IngestPipeline::open(base, &wal_path, config).unwrap();
    assert_eq!(replay.records.len(), 1);
    assert_eq!(recovered.query(b"ab").occurrences, 4 + 4);
}
