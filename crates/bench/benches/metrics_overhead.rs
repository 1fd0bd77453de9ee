//! Cost of the telemetry on the single-query hot path, measured on the
//! path itself: a live `usi_server` on a loopback socket, one
//! keep-alive connection, one `POST /v1/query` per iteration — first
//! with the `usi_obs` kill switch off (every counter add, histogram
//! observe and span record short-circuits) and then with full
//! instrumentation. Both arms run *identical* code; the delta is
//! exactly what telemetry costs a served request. The budget is ≤5%
//! median overhead; the instruments are relaxed atomics precisely so
//! this stays noise-level next to socket I/O and query work.
//!
//! Request bodies cycle through 4096 distinct single-pattern queries
//! sampled from the indexed text.
//!
//! Tracked by the nightly gate via `ci/nightly-thresholds.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use usi_core::{UsiBuilder, UsiIndex};
use usi_datasets::Dataset;
use usi_server::{read_response, serve, Catalog, ServerConfig};

/// Indexed letters: large enough that queries do real work.
const N: usize = 1 << 18; // 256 Ki
/// Distinct request bodies, cycled through in order.
const BODIES: usize = 4096;

fn built_index() -> UsiIndex {
    let ws = Dataset::Hum.generate(N, 23);
    UsiBuilder::new().with_k(N / 200).deterministic(5).build(ws)
}

/// Pre-rendered keep-alive HTTP requests, one single-pattern query
/// each, patterns sampled from the indexed text.
fn rendered_requests(index: &UsiIndex) -> Vec<Vec<u8>> {
    let text = index.text();
    let mut rng = StdRng::seed_from_u64(99);
    (0..BODIES)
        .map(|_| {
            let m = rng.gen_range(8..24usize);
            let i = rng.gen_range(0..text.len() - m);
            let pattern: String = text[i..i + m].iter().map(|&b| b as char).collect();
            let body = format!(r#"{{"doc":"bench","patterns":["{pattern}"]}}"#);
            format!(
                "POST /v1/query HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        })
        .collect()
}

/// One request/response exchange on the persistent connection.
fn round_trip(stream: &mut TcpStream, request: &[u8], scratch: &mut Vec<u8>) {
    stream.write_all(request).unwrap();
    let reply = read_response(stream, scratch).expect("one whole response");
    assert_eq!(reply.status, 200, "{}", reply.head);
}

fn bench_metrics_overhead(c: &mut Criterion) {
    let catalog = Arc::new(Catalog::new(2));
    catalog.insert("bench", built_index());
    let requests = rendered_requests(catalog.get("bench").unwrap().index().unwrap());

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = serve(Arc::clone(&catalog), listener, ServerConfig::with_workers(2)).unwrap();
    let addr = handle.addr();

    let mut group = c.benchmark_group("metrics_overhead");
    group.sample_size(40);
    group.throughput(Throughput::Elements(1));

    let mut cursor = 0usize;
    let mut scratch = Vec::with_capacity(8192);

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    usi_obs::set_enabled(false);
    group.bench_function("request_telemetry_off", |b| {
        b.iter(|| {
            round_trip(&mut stream, &requests[cursor % BODIES], &mut scratch);
            cursor += 1;
        })
    });
    usi_obs::set_enabled(true);
    group.bench_function("request_telemetry_on", |b| {
        b.iter(|| {
            round_trip(&mut stream, &requests[cursor % BODIES], &mut scratch);
            cursor += 1;
        })
    });

    // Flight-recorder A/B: same served path, measured back-to-back with
    // full telemetry on. The `off` arm re-measures the default server
    // (only errors are captured, and this workload has none); the `on`
    // arm hits a second server with --flight-slow-ms 0, so every 200
    // lands its whole stage tree in the flight ring. Both arms are
    // annotation-only in ci/nightly-thresholds.json (`_`-prefixed keys,
    // never gated) — they exist to make a flight-recorder regression
    // visible in the nightly report, not to fail it.
    group.bench_function("request_flight_off", |b| {
        b.iter(|| {
            round_trip(&mut stream, &requests[cursor % BODIES], &mut scratch);
            cursor += 1;
        })
    });
    let flight_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let flight_config = ServerConfig { flight_slow_ms: Some(0), ..ServerConfig::with_workers(2) };
    let flight_handle = serve(Arc::clone(&catalog), flight_listener, flight_config).unwrap();
    let mut flight_stream = TcpStream::connect(flight_handle.addr()).unwrap();
    flight_stream.set_nodelay(true).unwrap();
    group.bench_function("request_flight_on", |b| {
        b.iter(|| {
            round_trip(&mut flight_stream, &requests[cursor % BODIES], &mut scratch);
            cursor += 1;
        })
    });

    group.finish();
    drop(stream);
    drop(flight_stream);
    handle.shutdown();
    flight_handle.shutdown();
}

criterion_group!(benches, bench_metrics_overhead);
criterion_main!(benches);
