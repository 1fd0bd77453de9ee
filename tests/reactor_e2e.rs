//! End-to-end exercise of the epoll serving loop's edge cases: idle
//! connections surviving without pinning workers, peer resets,
//! idle-timeout eviction ordering, the `max_connections` 503, shutdown
//! promptness (eventfd wake, no throwaway connection), a socket that
//! turns readable mid-shutdown, a stalled request holding only its own
//! worker, and a busy connection outliving its first idle deadline.
//!
//! Everything here runs through the public `serve()` entry point, so
//! the whole serving loop — epoll registration, one event per worker,
//! re-arm, idle wheel — is under test, not internals. The file is
//! Linux-only like the epoll loop; on other targets `serve()` takes the
//! portable thread-per-connection path and these properties (idle
//! conns ≫ workers in particular) don't hold.
#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use usi::prelude::*;
use usi::server::json::Json;
use usi::server::{read_response, serve, Catalog, ServerConfig, ServerHandle};

fn catalog() -> Arc<Catalog> {
    let catalog = Catalog::new(2);
    let ws = WeightedString::new(b"abracadabra_abracadabra".to_vec(), vec![1.0; 23]).unwrap();
    let index = UsiBuilder::new().with_k(12).deterministic(42).build(ws);
    catalog.insert("abra", index);
    Arc::new(catalog)
}

fn start(config: ServerConfig) -> ServerHandle {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    serve(catalog(), listener, config).unwrap()
}

/// Writes one keep-alive GET and reads its `Content-Length`-framed
/// response, leaving the connection open; returns (status, body).
fn keep_alive_get(stream: &mut TcpStream, addr: SocketAddr, path: &str) -> (u16, String) {
    stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes()).unwrap();
    read_framed_response(stream)
}

fn read_framed_response(stream: &mut TcpStream) -> (u16, String) {
    let reply = read_response(stream, &mut Vec::new()).expect("complete response");
    (reply.status, reply.body)
}

/// Polls `probe` until it returns true or the deadline passes.
fn eventually(what: &str, deadline: Duration, probe: impl Fn() -> bool) {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if probe() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out after {deadline:?} waiting for {what}");
}

#[test]
fn idle_connections_outnumber_workers() {
    // The reactor's whole point: 64 parked keep-alive connections served
    // from ONE worker. The threaded fallback would deadlock here (the
    // first connection would pin the only worker forever).
    let handle = start(ServerConfig::with_workers(1));
    let addr = handle.addr();

    let mut conns: Vec<TcpStream> = (0..64).map(|_| TcpStream::connect(addr).unwrap()).collect();
    for conn in &mut conns {
        let (status, body) = keep_alive_get(conn, addr, "/healthz");
        assert_eq!(status, 200);
        assert!(body.contains(r#""status":"ok""#), "{body}");
    }
    eventually("64 open connections", Duration::from_secs(5), || handle.open_connections() == 64);

    // every connection still answers a second round while the other 63
    // sit parked in the epoll set
    for conn in &mut conns {
        let (status, _) = keep_alive_get(conn, addr, "/healthz");
        assert_eq!(status, 200);
    }
    assert_eq!(handle.open_connections(), 64);
    drop(conns);
    eventually("connections drained", Duration::from_secs(5), || handle.open_connections() == 0);
    handle.shutdown();
}

#[test]
fn peer_reset_evicts_the_parked_connection() {
    // EPOLLHUP/EPOLLERR path: a client that vanishes with response
    // bytes unread makes the kernel send RST; the parked socket's error
    // event must dispatch and the reactor must reap the connection.
    let handle = start(ServerConfig::with_workers(2));
    let addr = handle.addr();

    for _ in 0..8 {
        let mut stream = TcpStream::connect(addr).unwrap();
        let (status, _) = keep_alive_get(&mut stream, addr, "/healthz");
        assert_eq!(status, 200);
        // second response is written by the server but never read here:
        // closing with unread receive-buffer data turns FIN into RST
        stream
            .write_all(format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
            .unwrap();
        drop(stream);
    }
    eventually("reset connections reaped", Duration::from_secs(5), || {
        handle.open_connections() == 0
    });
    handle.shutdown();
}

#[test]
fn idle_timeout_evicts_older_connections_first() {
    let config =
        ServerConfig { idle_timeout: Duration::from_millis(300), ..ServerConfig::with_workers(1) };
    let handle = start(config);
    let addr = handle.addr();

    // A parks ~200ms before B, well past the wheel's granularity
    // (300ms/16 clamped to 20ms), so A's deadline tick strictly
    // precedes B's.
    let mut a = TcpStream::connect(addr).unwrap();
    assert_eq!(keep_alive_get(&mut a, addr, "/healthz").0, 200);
    std::thread::sleep(Duration::from_millis(200));
    let mut b = TcpStream::connect(addr).unwrap();
    assert_eq!(keep_alive_get(&mut b, addr, "/healthz").0, 200);

    // blocking read on A returns 0 when the server evicts it
    let mut sink = [0u8; 64];
    a.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(a.read(&mut sink).expect("EOF, not an error"), 0, "A evicted by idle timeout");
    // …at which point B (deadline ~200ms later) must still be live
    let (status, _) = keep_alive_get(&mut b, addr, "/healthz");
    assert_eq!(status, 200, "B outlives A's eviction");
    handle.shutdown();
}

#[test]
fn over_capacity_connects_get_503_with_the_uniform_error_body() {
    let config = ServerConfig { max_connections: 2, ..ServerConfig::with_workers(2) };
    let handle = start(config);
    let addr = handle.addr();

    let mut first = TcpStream::connect(addr).unwrap();
    let mut second = TcpStream::connect(addr).unwrap();
    assert_eq!(keep_alive_get(&mut first, addr, "/healthz").0, 200);
    assert_eq!(keep_alive_get(&mut second, addr, "/healthz").0, 200);
    eventually("both connections counted", Duration::from_secs(5), || {
        handle.open_connections() == 2
    });

    // third connect: answered 503 and closed without entering the set
    let mut third = TcpStream::connect(addr).unwrap();
    let mut response = Vec::new();
    third.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    third.read_to_end(&mut response).expect("503 then EOF");
    let reply = read_response(&mut &response[..], &mut Vec::new()).expect("complete response");
    let (head, body) = (reply.head.as_str(), reply.body.as_str());
    assert!(head.starts_with("HTTP/1.1 503"), "{head}");
    assert!(head.contains("Connection: close"), "{head}");
    let parsed = Json::parse(body).unwrap_or_else(|e| panic!("{e}: {body}"));
    assert!(parsed.get("error").and_then(Json::as_str).is_some(), "{body}");
    assert_eq!(parsed.get("status").and_then(Json::as_f64), Some(503.0), "{body}");
    assert_eq!(handle.open_connections(), 2, "rejected connect never counted");

    // capacity freed: closing one admits the next client
    drop(first);
    eventually("slot freed", Duration::from_secs(5), || handle.open_connections() == 1);
    let mut replacement = TcpStream::connect(addr).unwrap();
    assert_eq!(keep_alive_get(&mut replacement, addr, "/healthz").0, 200);
    handle.shutdown();
}

#[test]
fn shutdown_is_prompt_with_zero_connections() {
    // the eventfd wake: no live or throwaway connection is needed to
    // interrupt the reactor's epoll_wait
    let handle = start(ServerConfig::with_workers(2));
    let started = Instant::now();
    handle.shutdown();
    assert!(started.elapsed() < Duration::from_secs(2), "took {:?}", started.elapsed());
}

#[test]
fn shutdown_is_prompt_with_parked_and_readable_connections() {
    let handle = start(ServerConfig::with_workers(1));
    let addr = handle.addr();

    // one connection parked idle…
    let mut parked = TcpStream::connect(addr).unwrap();
    assert_eq!(keep_alive_get(&mut parked, addr, "/healthz").0, 200);
    // …and one that turns readable right as shutdown begins
    let mut readable = TcpStream::connect(addr).unwrap();
    assert_eq!(keep_alive_get(&mut readable, addr, "/healthz").0, 200);
    readable
        .write_all(format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
        .unwrap();

    let started = Instant::now();
    handle.shutdown();
    assert!(started.elapsed() < Duration::from_secs(2), "took {:?}", started.elapsed());

    // both sockets end at EOF (or a reset) — never a hang
    for (name, stream) in [("parked", &mut parked), ("readable", &mut readable)] {
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut rest = Vec::new();
        match stream.read_to_end(&mut rest) {
            Ok(_) => {}
            Err(e) => assert_ne!(
                e.kind(),
                std::io::ErrorKind::WouldBlock,
                "{name} still open after shutdown"
            ),
        }
    }
}

#[test]
fn a_stalled_request_holds_only_its_own_worker() {
    // Each worker takes one event at a time: while one serves a
    // connection that sent half a request head and stalled, the other
    // must answer a second connection at once.
    let handle = start(ServerConfig::with_workers(2));
    let addr = handle.addr();

    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled.write_all(b"GET /healthz HTTP/1.1\r\nHost: ").unwrap();
    // let a worker take it and block reading the rest; if none has yet,
    // the check below passes without testing anything, never falsely
    std::thread::sleep(Duration::from_millis(100));

    let mut second = TcpStream::connect(addr).unwrap();
    second.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
    let started = Instant::now();
    let (status, _) = keep_alive_get(&mut second, addr, "/healthz");
    assert_eq!(status, 200);
    assert!(started.elapsed() < Duration::from_secs(1), "took {:?}", started.elapsed());

    // the stalled request completes and is answered too
    stalled.write_all(format!("{addr}\r\n\r\n").as_bytes()).unwrap();
    assert_eq!(read_framed_response(&mut stalled).0, 200);
    handle.shutdown();
}

#[test]
fn a_busy_connection_outlives_its_first_idle_deadline() {
    // A request every 100ms keeps a connection with a 300ms idle
    // timeout open: each park moves its deadline, so the wheel entry
    // from an earlier park must not evict it.
    let config =
        ServerConfig { idle_timeout: Duration::from_millis(300), ..ServerConfig::with_workers(1) };
    let handle = start(config);
    let addr = handle.addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let started = Instant::now();
    let mut requests = 0;
    while started.elapsed() < Duration::from_millis(1500) {
        let (status, _) = keep_alive_get(&mut stream, addr, "/healthz");
        assert_eq!(status, 200, "request {requests} after {:?}", started.elapsed());
        requests += 1;
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(requests >= 10, "{requests} requests");
    assert_eq!(handle.open_connections(), 1);
    handle.shutdown();
}
