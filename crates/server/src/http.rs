//! A minimal HTTP/1.1 front end over `std::net::TcpListener`.
//!
//! Endpoints (all responses are JSON):
//!
//! | route | answer |
//! |---|---|
//! | `GET /healthz` | `{"status":"ok","docs":N}` |
//! | `GET /v1/docs` | the loaded documents with per-doc summaries |
//! | `GET /v1/docs/{id}/stats` | size breakdown, build and ingest stats of one document |
//! | `POST /v1/docs/{id}/append` | durable append to an ingest-enabled document: body `{"text":"…","weight":w}` or `{"text":"…","weights":[…]}` |
//! | `POST /v1/docs/{id}/reload` | re-open the document's `.usix` file and atomically swap the new view in |
//! | `POST /v1/query` | batch utilities: body `{"doc":"<id>"` or `"*","patterns":[…]}`; add `"acc":true` for raw accumulators |
//!
//! The implementation is deliberately small: [`framing::frame`] decides
//! where each request ends (`Content-Length` bodies only, a 16 KiB head
//! cap, 400 or 413 for anything else), request parsing handles exactly
//! what the API needs (request line and `Connection`), every response
//! carries `Content-Length`, and [`ServerConfig::workers`] threads
//! bound concurrency. Shutdown is graceful: [`ServerHandle::shutdown`]
//! stops accepting, lets requests in progress finish, and joins every
//! thread.
//!
//! Connections are **persistent** (HTTP/1.1 keep-alive): each accepted
//! socket is answered until the client asks for `Connection: close` (or
//! is HTTP/1.0 without `keep-alive`), the configured idle timeout
//! passes between requests, or
//! [`ServerConfig::max_requests_per_connection`] is reached — so hot
//! clients pay TCP setup once, not per query. Pipelining is supported
//! and bounded: bytes a client sends ahead of the current request stay
//! in the per-connection buffer (at most one head + one body ahead)
//! and are answered in order.
//!
//! **Idle connections do not occupy workers.** On Linux every worker
//! waits on one shared epoll set (the private `reactor` module): the
//! worker that takes a readable socket serves it through
//! `serve_ready` and re-arms it, so tens of thousands of idle
//! keep-alive connections are served from a handful of workers, with
//! [`ServerConfig::max_connections`] bounding the total (over-capacity
//! connects get `503` and a close). Targets without epoll run the
//! portable path instead: each worker blocks in `accept()` and serves
//! what it accepts until the connection closes or idles out, so there
//! size [`ServerConfig::workers`] to the expected number of
//! concurrently connected clients, not requests.

use crate::catalog::{AppendError, Catalog, ReloadError};
use crate::framing::{self, frame, Frame, MAX_HEAD};
use crate::json::{
    fan_out_acc_response_json, fan_out_response_body, query_acc_response_json, query_response_json,
    Json,
};
use crate::metrics;
use crate::reactor;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use usi_ingest::IngestError;
use usi_obs::{FlightRecord, Span, SpanGuard, TraceId};

/// Longest accepted request body.
const MAX_BODY: usize = 4 * 1024 * 1024;
/// Most patterns per `POST /v1/query` request.
const MAX_PATTERNS: usize = 10_000;
/// Write-side socket timeout (reads use the configured idle timeout).
const SOCKET_TIMEOUT: Duration = Duration::from_secs(10);

/// How (and whether) the server logs each request to stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessLog {
    /// No per-request logging (the default).
    #[default]
    Off,
    /// One human-readable line per request.
    Text,
    /// One JSON object per request (machine-parseable stream).
    Json,
}

impl AccessLog {
    /// Parses a `--access-log` CLI value.
    pub fn parse(value: &str) -> Option<Self> {
        match value {
            "off" => Some(Self::Off),
            "text" => Some(Self::Text),
            "json" => Some(Self::Json),
            _ => None,
        }
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Connection-handling worker threads.
    pub workers: usize,
    /// Most scoped threads a single batch/fan-out query may spread
    /// over. A cap, not a target: a batch below 320 lookups (patterns ×
    /// documents) per thread runs inline on the request's worker,
    /// except that a fan-out over remote shards or followers always
    /// spreads across its documents.
    pub batch_threads: usize,
    /// Honour HTTP keep-alive (persistent connections). When `false`
    /// every response carries `Connection: close` and the socket shuts
    /// after one exchange, the pre-keep-alive behaviour.
    pub keep_alive: bool,
    /// How long a persistent connection may sit idle (and how long a
    /// single read may stall) before the server closes it. Bounds the
    /// time a client that stalls mid-request can hold a worker.
    pub idle_timeout: Duration,
    /// Requests served on one connection before the server closes it
    /// (`Connection: close` on the last response) — an upper bound on
    /// per-connection resource pinning under pipelining floods.
    pub max_requests_per_connection: usize,
    /// Requests slower than this are logged to stderr (and counted in
    /// `usi_http_slow_requests_total`); `None` disables the slow log.
    pub slow_query_ms: Option<u64>,
    /// Requests whose **whole lifetime** (first byte through response
    /// write) exceeds this are captured in the flight recorder with
    /// their full stage tree (`GET /debug/requests`). Defaults to
    /// [`ServerConfig::slow_query_ms`] when `None`; errored requests
    /// (status ≥ 400) are always captured.
    pub flight_slow_ms: Option<u64>,
    /// Per-request access logging to stderr.
    pub access_log: AccessLog,
    /// Most connections held open at once. A connect past the limit is
    /// answered with `503` (the uniform JSON error body) and closed
    /// immediately, protecting the server's descriptor budget.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(4, usize::from);
        Self {
            workers: 4,
            batch_threads: cores.clamp(1, 8),
            keep_alive: true,
            idle_timeout: Duration::from_secs(5),
            max_requests_per_connection: 1000,
            slow_query_ms: None,
            flight_slow_ms: None,
            access_log: AccessLog::Off,
            max_connections: 100_000,
        }
    }
}

impl ServerConfig {
    /// A config with `workers` connection workers and default batching.
    pub fn with_workers(workers: usize) -> Self {
        Self { workers: workers.max(1), ..Self::default() }
    }
}

/// How [`ServerHandle::shutdown`] interrupts the workers' blocking
/// waits.
pub(crate) enum WakeStrategy {
    /// Wake each blocking `accept()` with a throwaway loopback
    /// connection (the portable path has nothing better to poke).
    Connect,
    /// Write the eventfd registered in the workers' epoll set — no
    /// artificial connection, works even at the descriptor limit.
    #[cfg(target_os = "linux")]
    Eventfd(Arc<std::fs::File>),
}

/// A running server; dropping it (or calling
/// [`ServerHandle::shutdown`]) stops accepting and joins every worker.
pub struct ServerHandle {
    pub(crate) addr: SocketAddr,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) threads: Vec<JoinHandle<()>>,
    pub(crate) waker: WakeStrategy,
    pub(crate) open: Arc<AtomicUsize>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports: bind to port 0 and
    /// read the actual port here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections this server currently holds open (accepted and not
    /// yet closed). Unlike the process-global `usi_http_connections_open`
    /// gauge this counts one server instance, so tests and embedders
    /// running several servers in one process can observe each alone.
    pub fn open_connections(&self) -> usize {
        self.open.load(Ordering::SeqCst)
    }

    /// Stops accepting, lets requests in progress finish and joins all
    /// threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        match &self.waker {
            WakeStrategy::Connect => {
                // wake each blocking accept() with a throwaway
                // connection; a wildcard bind (0.0.0.0 / ::) is not
                // connectable everywhere, so aim at the loopback of the
                // same family
                let mut wake = self.addr;
                if wake.ip().is_unspecified() {
                    wake.set_ip(match wake.ip() {
                        std::net::IpAddr::V4(_) => {
                            std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST)
                        }
                        std::net::IpAddr::V6(_) => {
                            std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST)
                        }
                    });
                }
                for _ in &self.threads {
                    let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
                }
            }
            #[cfg(target_os = "linux")]
            WakeStrategy::Eventfd(fd) => {
                let _ = (&**fd).write_all(&1u64.to_ne_bytes());
            }
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.stop_and_join();
        }
    }
}

/// Starts serving `catalog` on `listener`. Returns immediately;
/// [`ServerConfig::workers`] threads serve until the handle shuts down.
/// On Linux they take turns on one epoll set, so idle connections cost
/// no thread; elsewhere each pins a worker for its lifetime.
pub fn serve(
    catalog: Arc<Catalog>,
    listener: TcpListener,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    // pin the uptime epoch: /healthz reports seconds of serving time
    usi_obs::process_start();
    if cfg!(target_os = "linux") {
        reactor::serve(catalog, listener, config)
    } else {
        serve_threaded(catalog, listener, config)
    }
}

/// The portable path for targets without epoll: `config.workers`
/// threads each block in `accept()` and serve what they accept until
/// it closes.
fn serve_threaded(
    catalog: Arc<Catalog>,
    listener: TcpListener,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    let listener = Arc::new(listener);
    let stop = Arc::new(AtomicBool::new(false));
    let open = Arc::new(AtomicUsize::new(0));
    // a failed spawn drops the handle, which stops and joins the
    // workers already running
    let mut handle = ServerHandle {
        addr,
        stop: Arc::clone(&stop),
        threads: Vec::new(),
        waker: WakeStrategy::Connect,
        open: Arc::clone(&open),
    };
    for i in 0..config.workers.max(1) {
        let (catalog, listener) = (Arc::clone(&catalog), Arc::clone(&listener));
        let (stop, open) = (Arc::clone(&stop), Arc::clone(&open));
        let thread =
            std::thread::Builder::new().name(format!("usi-worker-{i}")).spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let stream = match listener.accept() {
                        Ok((stream, _)) => stream,
                        Err(_) => {
                            // transient failure (EMFILE under flood,
                            // ECONNABORTED): back off instead of hot-spinning
                            std::thread::sleep(Duration::from_millis(50));
                            continue;
                        }
                    };
                    if stop.load(Ordering::SeqCst) {
                        break; // the wake-up connection (or a race with it)
                    }
                    if let Some(stream) = admit(stream, &open, config) {
                        handle_connection(stream, &catalog, config);
                        open.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            })?;
        handle.threads.push(thread);
    }
    Ok(handle)
}

/// Per-connection parse/serve state shared by the portable path and
/// the epoll loop: the socket, the pipelining carry-over buffer, and
/// how many requests this connection has answered (the budget counter).
pub(crate) struct ConnState {
    stream: TcpStream,
    buf: Vec<u8>,
    served: u64,
}

impl ConnState {
    pub(crate) fn new(stream: TcpStream) -> Self {
        Self { stream, buf: Vec::with_capacity(1024), served: 0 }
    }

    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Whether the carry-over buffer already holds one complete
    /// pipelined request (head + body) — servable without reading the
    /// socket, so the connection must not be parked yet. A request the
    /// framer refuses counts too: serving it now yields the error
    /// response and a close without waiting for bytes that may never
    /// come.
    fn has_buffered_request(&self) -> bool {
        !matches!(frame(&self.buf, MAX_BODY), Frame::Incomplete { .. })
    }
}

/// Outcome of serving a single request on a connection.
enum Exchange {
    /// Response written, connection stays open for the next request.
    KeepAlive,
    /// The connection is done: client closed/asked to close, idle or
    /// budget limit hit, or the transport failed.
    Close,
}

/// A [`Read`] wrapper that remembers when the first byte of the current
/// request arrived — so the `parse` stage measures parsing, not the
/// keep-alive idle wait the portable path spends blocked in `read`.
struct TimedReader<'s> {
    stream: &'s mut TcpStream,
    first_byte: Option<Instant>,
}

impl Read for TimedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let got = self.stream.read(buf)?;
        if got > 0 && self.first_byte.is_none() {
            self.first_byte = Some(Instant::now());
        }
        Ok(got)
    }
}

/// Serves exactly one request off `conn`: read (through the carry-over
/// buffer), route, respond. `count_idle` tracks the read wait in the
/// `usi_http_connections_idle` gauge — the portable path waits here,
/// while the epoll loop counts the connections it parks instead.
///
/// Every request gets a fresh [`TraceId`]: it rides the response as
/// `X-Request-Id` (with a `Server-Timing` stage breakdown), tags every
/// span the request records down the stack, and keys the flight
/// recorder entry when the request turns out slow or errored.
fn serve_one(
    conn: &mut ConnState,
    catalog: &Catalog,
    config: ServerConfig,
    count_idle: bool,
) -> Exchange {
    let m = metrics::server();
    let budget = config.max_requests_per_connection.max(1) as u64;
    if count_idle {
        // idle: between responses, waiting on the client's next request
        m.connections_idle.inc();
    }
    let entry = Instant::now();
    let had_buffered = !conn.buf.is_empty();
    let mut reader = TimedReader { stream: &mut conn.stream, first_byte: None };
    let parsed = read_request(&mut reader, &mut conn.buf);
    let first_byte = reader.first_byte;
    if count_idle {
        m.connections_idle.dec();
    }
    if let Err(HttpError::Io(_)) = parsed {
        return Exchange::Close; // client went away or idled out
    }

    // a request arrived (even if malformed): give it an identity and
    // open its stage collector, so everything from here — engine spans,
    // error bodies, logs — carries the same id
    let trace_id = TraceId::generate();
    usi_obs::begin_request(trace_id);
    // the request's clock starts when its bytes first showed up:
    // carried over from the previous read, or at the first byte off the
    // socket
    let root_start = if had_buffered { entry } else { first_byte.unwrap_or(entry) };
    if usi_obs::enabled() {
        usi_obs::record_stage(
            SpanGuard::since("parse", root_start)
                .parent("http.request")
                .finish_with(root_start.elapsed()),
        );
    }

    let (response, close, routed) = match parsed {
        Ok(request) => {
            conn.served += 1;
            let close = request.close || !config.keep_alive || conn.served >= budget;
            m.requests_in_flight.inc();
            let started = Instant::now();
            let response = route(catalog, &request, config.batch_threads);
            let elapsed = started.elapsed();
            m.requests_in_flight.dec();
            (response, close, Some((request, elapsed)))
        }
        // framing gone: answer if possible, then always close
        Err(HttpError::TooLarge) => (error_response(413, "request too large"), true, None),
        Err(HttpError::Bad(what)) => (error_response(400, what), true, None),
        Err(HttpError::Io(_)) => unreachable!("handled above"),
    };

    let extra_headers = trace_headers(trace_id);
    let write_start = Instant::now();
    let io = write_response(&mut conn.stream, &response, !close, &extra_headers);
    if usi_obs::enabled() {
        usi_obs::record_stage(
            SpanGuard::since("write", write_start)
                .parent("http.request")
                .finish_with(write_start.elapsed()),
        );
    }
    finish_request(trace_id, routed, &response, root_start, config);
    if io.is_err() || close {
        return Exchange::Close;
    }
    Exchange::KeepAlive
}

/// Renders the per-request response headers: the request's id, plus a
/// `Server-Timing` breakdown of the stages recorded so far (the `write`
/// stage is still in progress when headers go out, so it is absent).
fn trace_headers(trace_id: TraceId) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(160);
    let _ = write!(out, "X-Request-Id: {trace_id}\r\n");
    usi_obs::with_stages(|stages| {
        for (i, stage) in stages.iter().enumerate() {
            out.push_str(if i == 0 { "Server-Timing: " } else { ", " });
            let us = stage.duration_us;
            let _ = write!(out, "{};dur={}.{:03}", stage.name, us / 1000, us % 1000);
        }
        if !stages.is_empty() {
            out.push_str("\r\n");
        }
    });
    out
}

/// The epoll loop's serving step: serve the request that epoll
/// reported plus any complete requests the client pipelined behind it,
/// then report whether the connection should be re-armed (`true`) or
/// closed.
pub(crate) fn serve_ready(conn: &mut ConnState, catalog: &Catalog, config: ServerConfig) -> bool {
    loop {
        match serve_one(conn, catalog, config, false) {
            Exchange::Close => return false,
            // more buffered bytes form a full request: epoll would never
            // fire for them (they already left the socket), serve now
            Exchange::KeepAlive if conn.has_buffered_request() => {}
            Exchange::KeepAlive => return true,
        }
    }
}

/// Final accounting for a connection: the per-connection histogram, the
/// open-connections gauge, and the socket teardown.
pub(crate) fn close_connection(conn: ConnState) {
    let m = metrics::server();
    if conn.served > 0 {
        m.requests_per_connection.observe(conn.served as f64);
    }
    m.connections_open.dec();
    let _ = conn.stream.shutdown(Shutdown::Both);
}

/// Admission for an accepted connection, on either serving path: it
/// counts against `open`, and past [`ServerConfig::max_connections`]
/// it is answered with the uniform JSON `503` body and closed (`None`)
/// before it reaches a worker or the epoll set. An admitted socket
/// stays blocking, its reads bounded by the idle timeout.
pub(crate) fn admit(
    mut stream: TcpStream,
    open: &AtomicUsize,
    config: ServerConfig,
) -> Option<TcpStream> {
    // answers are single writes; never let Nagle hold one back
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    // count first, so threads accepting at once cannot overshoot the
    // limit together
    if open.fetch_add(1, Ordering::SeqCst) >= config.max_connections.max(1) {
        open.fetch_sub(1, Ordering::SeqCst);
        metrics::server().observe_request("other", 503, 0.0);
        let response = error_response(503, "connection limit reached (max_connections)");
        let _ = write_response(&mut stream, &response, false, "");
        let _ = stream.shutdown(Shutdown::Both);
        return None;
    }
    let _ = stream.set_read_timeout(Some(config.idle_timeout.max(Duration::from_millis(1))));
    metrics::server().connections_open.inc();
    Some(stream)
}

/// One connection's request loop (portable path): answer until the
/// client closes, asks to close, idles past the timeout, errors, or
/// exhausts the per-connection request budget. Bytes the client
/// pipelined ahead of the current request stay in the carry-over buffer
/// and feed the next iteration.
fn handle_connection(stream: TcpStream, catalog: &Catalog, config: ServerConfig) {
    let mut conn = ConnState::new(stream);
    while let Exchange::KeepAlive = serve_one(&mut conn, catalog, config, true) {}
    close_connection(conn);
}

/// Post-request accounting: metrics, the span ring, the flight
/// recorder, the slow-request log and the access log. Runs once per
/// request (routed or parse-failed) with the response already written —
/// the cost is a few atomics, one ring lock, and (when enabled) one
/// stderr line.
///
/// `routed` carries the parsed request plus the router-only elapsed
/// time for requests that made it past parsing; parse failures pass
/// `None` and are accounted under the `other` route. The root
/// `http.request` span spans `root_start` (the request's first byte)
/// through now — response write included — so its stage children always
/// sum to at most its duration.
fn finish_request(
    trace_id: TraceId,
    routed: Option<(Request, Duration)>,
    response: &Response,
    root_start: Instant,
    config: ServerConfig,
) {
    let m = metrics::server();
    let root_elapsed = root_start.elapsed();
    let (route_label, route_seconds) = match &routed {
        Some((request, elapsed)) => (metrics::route_label(&request.path), elapsed.as_secs_f64()),
        None => ("other", 0.0),
    };
    m.observe_request(route_label, response.status, route_seconds);

    let (method, path): (&str, &str) = match &routed {
        Some((request, _)) => (&request.method, &request.path),
        None => ("-", "-"),
    };
    let mut root = Span::with_duration(
        "http.request",
        root_start,
        root_elapsed,
        vec![
            ("method".into(), method.to_string()),
            ("path".into(), path.to_string()),
            ("status".into(), response.status.to_string()),
        ],
    );
    root.trace_id = Some(trace_id);
    let stages = usi_obs::end_request().map(|(_, stages)| stages).unwrap_or_default();
    // the root's lifetime is the flight-recorder admission test: it is
    // what the client experienced (write included)
    let root_millis = root_elapsed.as_secs_f64() * 1e3;
    let flight_slow = config.flight_slow_ms.or(config.slow_query_ms);
    if response.status >= 400 || flight_slow.is_some_and(|t| root_millis >= t as f64) {
        usi_obs::flight().record(FlightRecord {
            trace_id,
            root: root.clone(),
            stages: stages.clone(),
        });
    }
    usi_obs::tracer().record_all(std::iter::once(root).chain(stages));

    let millis = route_seconds * 1e3;
    if let Some(threshold) = config.slow_query_ms {
        if routed.is_some() && millis >= threshold as f64 {
            m.slow_requests_total.inc();
            eprintln!(
                "[slow] {method} {path} status={} duration_ms={millis:.3} \
                 threshold_ms={threshold} request_id={trace_id}",
                response.status
            );
        }
    }
    if routed.is_none() {
        return; // no request line to log
    }
    match config.access_log {
        AccessLog::Off => {}
        AccessLog::Text => eprintln!(
            "{method} {path} status={} bytes={} duration_ms={millis:.3} request_id={trace_id}",
            response.status,
            response.body.len()
        ),
        AccessLog::Json => {
            let line = Json::Obj(vec![
                ("method".into(), Json::str(method)),
                ("path".into(), Json::str(path)),
                ("status".into(), Json::Num(f64::from(response.status))),
                ("bytes".into(), Json::Num(response.body.len() as f64)),
                ("duration_ms".into(), Json::Num(millis)),
                ("request_id".into(), Json::Str(trace_id.to_string())),
            ]);
            eprintln!("{}", line.encode());
        }
    }
}

/// A parsed request: exactly what the router needs.
#[derive(Debug)]
struct Request {
    method: String,
    /// Path component of the request target (query string split off).
    path: String,
    /// Raw query string (bytes after `?`, empty when absent) — the
    /// `/v1/trace` filters parse it.
    query: String,
    body: Vec<u8>,
    /// Whether the client asked this to be the final request on the
    /// connection (`Connection: close`, or HTTP/1.0 without an
    /// explicit `keep-alive`).
    close: bool,
}

#[derive(Debug)]
enum HttpError {
    Bad(&'static str),
    TooLarge,
    /// The payload is only surfaced through `Debug` (tests, future logging).
    Io(#[allow(dead_code)] io::Error),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Reads one request from `r`, feeding and consuming the connection's
/// carry-over buffer `buf`. [`frame`] decides where the request ends;
/// bytes a pipelining client sent past it stay in `buf` for the next
/// call, so persistent connections parse every request exactly once.
/// The head arrives in reads of at most 1 KiB, which keeps pipelined
/// buffering bounded by `MAX_HEAD` + one chunk; a body still missing
/// after the head is fetched with one sized read.
fn read_request<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> Result<Request, HttpError> {
    let (head_end, body_len) = loop {
        match frame(buf, MAX_BODY) {
            Frame::Complete { head_end, body_len } => break (head_end, body_len),
            Frame::Incomplete { body_missing } => {
                if framing::fill(r, buf, body_missing)? == 0 {
                    // nothing but the CRLFs allowed before a request
                    // line: the client left between requests
                    return Err(if buf.chunks(2).all(|pair| pair == b"\r\n") {
                        HttpError::Io(io::ErrorKind::UnexpectedEof.into())
                    } else {
                        HttpError::Bad("truncated request head")
                    });
                }
            }
            Frame::Bad(why) => return Err(HttpError::Bad(why)),
            Frame::TooLarge => return Err(HttpError::TooLarge),
        }
    };

    // Everything borrowed from the head is copied out before `buf` is
    // drained below.
    let (method, path, query, close) = {
        let head = std::str::from_utf8(&buf[..head_end])
            .map_err(|_| HttpError::Bad("request head is not UTF-8"))?;
        let (request_line, fields) = framing::head_lines(head);
        let mut parts = request_line.split(' ');
        let (method, target, version) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(t), Some(v), None) if !m.is_empty() && t.starts_with('/') => {
                    (m, t, v)
                }
                _ => return Err(HttpError::Bad("malformed request line")),
            };
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(HttpError::Bad("unsupported HTTP version"));
        }
        let close = !framing::keep_alive(version, fields);
        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        (method.to_string(), path.to_string(), query.to_string(), close)
    };
    let body = buf[head_end..head_end + body_len].to_vec();
    buf.drain(..head_end + body_len);
    // a large body grows the carry-over buffer up to MAX_BODY; don't
    // pin that per connection for the rest of its lifetime
    if buf.capacity() > MAX_HEAD {
        buf.shrink_to(MAX_HEAD);
    }

    Ok(Request { method, path, query, body, close })
}

/// A response about to be written: status, content type and body.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value. Everything the API serves is JSON
    /// except `GET /metrics`, which is Prometheus text.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes `response` with the connection disposition decided by the
/// request loop. Connection lifetime is transport state, not part of
/// [`Response`]: `respond()` consumers and tests deal in status + body
/// only.
///
/// Head and body go out in **one** write: split across two segments,
/// Nagle on the server side would hold the body until the client ACKs
/// the head — a ~40 ms delayed-ACK stall per keep-alive exchange (the
/// `metrics_overhead` bench caught exactly this).
///
/// `extra_headers` is a pre-rendered block of `Name: value\r\n` lines
/// (the per-request `X-Request-Id` / `Server-Timing` pair), or `""`.
fn write_response<W: Write>(
    w: &mut W,
    response: &Response,
    keep_alive: bool,
    extra_headers: &str,
) -> io::Result<()> {
    let mut out = Vec::with_capacity(192 + response.body.len());
    write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n{extra_headers}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    out.extend_from_slice(response.body.as_bytes());
    w.write_all(&out)?;
    w.flush()
}

/// The content type of every JSON response.
const APPLICATION_JSON: &str = "application/json";
/// The Prometheus text exposition content type served by `/metrics`.
const PROMETHEUS_TEXT: &str = "text/plain; version=0.0.4";

fn ok(body: Json) -> Response {
    Response { status: 200, content_type: APPLICATION_JSON, body: body.encode() }
}

/// Every error the API produces goes through here, so all error bodies
/// share one JSON shape: `{"error":"…","status":N}` — plus a
/// `"request_id"` member when the error happens inside a traced request
/// (so a client can quote the id straight from the body).
fn error_response(status: u16, message: &str) -> Response {
    let mut members =
        vec![("error".into(), Json::str(message)), ("status".into(), Json::Num(f64::from(status)))];
    if let Some(id) = usi_obs::current_trace_id() {
        members.push(("request_id".into(), Json::Str(id.to_string())));
    }
    Response { status, content_type: APPLICATION_JSON, body: Json::Obj(members).encode() }
}

/// Routes one parsed request against the catalog. Public so tests (and
/// alternative transports) can exercise the API without sockets. A
/// query string in `path` is split off and fed to the handlers that
/// read one (`/v1/trace?name=…`).
pub fn respond(catalog: &Catalog, method: &str, path: &str, body: &[u8]) -> Response {
    let (path, query) = match path.split_once('?') {
        Some((path, query)) => (path, query),
        None => (path, ""),
    };
    let request = Request {
        method: method.into(),
        path: path.into(),
        query: query.into(),
        body: body.to_vec(),
        close: true,
    };
    route(catalog, &request, 1)
}

fn route(catalog: &Catalog, request: &Request, batch_threads: usize) -> Response {
    let path = request.path.as_str();
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => healthz(catalog),
        ("GET", "/metrics") => Response {
            status: 200,
            content_type: PROMETHEUS_TEXT,
            body: usi_obs::global().encode(),
        },
        ("GET", "/v1/trace") => trace_snapshot(&request.query),
        ("GET", "/debug/requests") => debug_requests(),
        ("GET", _) if trace_sub_id(path).is_some() => {
            trace_tree(trace_sub_id(path).expect("checked by guard"))
        }
        ("GET", "/v1/docs") => list_docs(catalog),
        ("POST", "/v1/query") => query(catalog, &request.body, batch_threads),
        ("GET", _) if doc_sub_id(path, "stats").is_some() => {
            doc_stats(catalog, doc_sub_id(path, "stats").expect("checked by guard"))
        }
        ("POST", _) if doc_sub_id(path, "append").is_some() => doc_append(
            catalog,
            doc_sub_id(path, "append").expect("checked by guard"),
            &request.body,
        ),
        ("POST", _) if doc_sub_id(path, "reload").is_some() => {
            doc_reload(catalog, doc_sub_id(path, "reload").expect("checked by guard"))
        }
        (
            _,
            "/healthz" | "/v1/docs" | "/v1/query" | "/metrics" | "/v1/trace" | "/debug/requests",
        ) => error_response(405, "method not allowed"),
        (_, _)
            if trace_sub_id(path).is_some()
                || doc_sub_id(path, "stats").is_some()
                || doc_sub_id(path, "append").is_some()
                || doc_sub_id(path, "reload").is_some() =>
        {
            error_response(405, "method not allowed")
        }
        _ => error_response(404, "no such route"),
    }
}

/// Liveness plus cheap readiness facts. `status` and `docs` stay the
/// leading members: old probes matching on `"status":"ok"` (and the CI
/// greps on `"docs":N`) keep working unchanged.
fn healthz(catalog: &Catalog) -> Response {
    let mut members = vec![
        ("status".into(), Json::str("ok")),
        ("docs".into(), Json::Num(catalog.len() as f64)),
        ("version".into(), Json::str(env!("CARGO_PKG_VERSION"))),
        ("uptime_seconds".into(), Json::Num(usi_obs::uptime_seconds() as f64)),
        ("role".into(), Json::str(catalog.role().name())),
    ];
    if let Some(replication) = catalog.replication() {
        members.push((
            "replication".into(),
            Json::Obj(vec![
                ("connected".into(), Json::Bool(replication.connected())),
                ("lag_records".into(), Json::Num(replication.lag_records() as f64)),
            ]),
        ));
    }
    ok(Json::Obj(members))
}

/// One span as JSON, shared by `/v1/trace`, `/v1/trace/{id}` and
/// `/debug/requests`.
fn span_json(span: Span) -> Json {
    let fields =
        span.fields.into_iter().map(|(k, v)| (k.into_owned(), Json::Str(v))).collect::<Vec<_>>();
    let mut members = vec![("name".into(), Json::Str(span.name.into_owned()))];
    if let Some(id) = span.trace_id {
        members.push(("trace_id".into(), Json::Str(id.to_string())));
    }
    if let Some(parent) = span.parent {
        members.push(("parent".into(), Json::Str(parent.into_owned())));
    }
    members.push(("start_ms".into(), Json::Num(span.start_ms as f64)));
    members.push(("start_us".into(), Json::Num(span.start_us as f64)));
    members.push(("duration_us".into(), Json::Num(span.duration_us as f64)));
    members.push(("fields".into(), Json::Obj(fields)));
    Json::Obj(members)
}

/// One flight record (root + stages) as JSON.
fn flight_record_json(record: FlightRecord) -> Json {
    Json::Obj(vec![
        ("trace_id".into(), Json::Str(record.trace_id.to_string())),
        ("root".into(), span_json(record.root)),
        ("stages".into(), Json::Arr(record.stages.into_iter().map(span_json).collect())),
    ])
}

/// Reads one `name=value` pair out of a raw query string (no
/// percent-decoding: every value the trace endpoints accept — span
/// names, integers — is URL-safe as-is).
fn query_param<'q>(query: &'q str, name: &str) -> Option<&'q str> {
    query.split('&').find_map(|pair| {
        let (key, value) = pair.split_once('=')?;
        (key == name).then_some(value)
    })
}

/// The span ring as JSON, oldest first (non-destructive snapshot),
/// with server-side filters: `?name=` (exact span name), `?min_us=`
/// (minimum duration), `?limit=` (most recent N, default 256 — the cap
/// that keeps a large `--trace-capacity` from producing multi-MB
/// scrapes).
fn trace_snapshot(query: &str) -> Response {
    /// Default and implicit cap on spans per response.
    const DEFAULT_LIMIT: usize = 256;
    let name = query_param(query, "name");
    let min_us: u64 = match query_param(query, "min_us").map(str::parse) {
        Some(Ok(v)) => v,
        Some(Err(_)) => return error_response(400, "\"min_us\" must be an integer"),
        None => 0,
    };
    let limit: usize = match query_param(query, "limit").map(str::parse) {
        Some(Ok(v)) => v,
        Some(Err(_)) => return error_response(400, "\"limit\" must be an integer"),
        None => DEFAULT_LIMIT,
    };
    let tracer = usi_obs::tracer();
    let mut spans = tracer.snapshot();
    spans.retain(|span| span.duration_us >= min_us && name.is_none_or(|n| span.name == n));
    // keep the most recent `limit`, preserving oldest-first order
    let skip = spans.len().saturating_sub(limit);
    let matched = spans.len();
    let spans = spans.into_iter().skip(skip).map(span_json).collect();
    ok(Json::Obj(vec![
        ("spans".into(), Json::Arr(spans)),
        ("matched".into(), Json::Num(matched as f64)),
        ("dropped".into(), Json::Num(tracer.dropped() as f64)),
    ]))
}

/// One request's full stage tree by trace id: served from the flight
/// recorder when the request was slow/errored, else reassembled from
/// whatever of it is still in the span ring.
fn trace_tree(id: &str) -> Response {
    let Some(trace_id) = TraceId::parse(id) else {
        return error_response(400, "trace id must be up to 16 hex digits");
    };
    if let Some(record) = usi_obs::flight().find(trace_id) {
        return ok(flight_record_json(record));
    }
    let mut spans = usi_obs::tracer().find_trace(trace_id);
    if spans.is_empty() {
        return error_response(404, &format!("no such trace {id:?} (evicted or never recorded)"));
    }
    let root_at = spans.iter().position(|s| s.parent.is_none()).unwrap_or(0);
    let root = spans.remove(root_at);
    ok(flight_record_json(FlightRecord { trace_id, root, stages: spans }))
}

/// The flight recorder as JSON, most recent request first.
fn debug_requests() -> Response {
    let flight = usi_obs::flight();
    let requests = flight.snapshot().into_iter().rev().map(flight_record_json).collect();
    ok(Json::Obj(vec![
        ("requests".into(), Json::Arr(requests)),
        ("dropped".into(), Json::Num(flight.dropped() as f64)),
    ]))
}

/// Parses `/v1/trace/{trace_id}` into `{trace_id}` (the raw segment;
/// hex validation happens in the handler so a malformed id gets a 400,
/// not a 404).
pub(crate) fn trace_sub_id(path: &str) -> Option<&str> {
    let id = path.strip_prefix("/v1/trace/")?;
    if id.is_empty() || id.contains('/') {
        None
    } else {
        Some(id)
    }
}

/// Parses `/v1/docs/{id}/{action}` into `{id}`.
fn doc_sub_id<'p>(path: &'p str, action: &str) -> Option<&'p str> {
    let rest = path.strip_prefix("/v1/docs/")?;
    let id = rest.strip_suffix(action)?.strip_suffix('/')?;
    if id.is_empty() || id.contains('/') {
        None
    } else {
        Some(id)
    }
}

/// Whether `path` is a `/v1/docs/{id}/{action}` route (metric labels).
pub(crate) fn doc_sub_route(path: &str, action: &str) -> bool {
    doc_sub_id(path, action).is_some()
}

fn list_docs(catalog: &Catalog) -> Response {
    let docs = catalog
        .docs()
        .iter()
        .map(|doc| {
            Json::Obj(vec![
                ("id".into(), Json::str(doc.id())),
                ("n".into(), Json::Num(doc.n() as f64)),
                ("cached_substrings".into(), Json::Num(doc.cached_substrings() as f64)),
                ("aggregator".into(), Json::str(doc.utility().aggregator.name())),
                ("ingest".into(), Json::Bool(doc.is_ingest())),
            ])
        })
        .collect();
    ok(Json::Obj(vec![("docs".into(), Json::Arr(docs))]))
}

fn doc_stats(catalog: &Catalog, id: &str) -> Response {
    let Some(doc) = catalog.get(id) else {
        return error_response(404, &format!("no such document {id:?}"));
    };
    let size = doc.size_breakdown();
    let mut members = vec![
        ("id".into(), Json::str(doc.id())),
        ("n".into(), Json::Num(doc.n() as f64)),
        ("cached_substrings".into(), Json::Num(doc.cached_substrings() as f64)),
        ("tau".into(), doc.tau().map_or(Json::Null, |t| Json::Num(t as f64))),
        ("distinct_lengths".into(), Json::Num(doc.distinct_lengths() as f64)),
        ("aggregator".into(), Json::str(doc.utility().aggregator.name())),
        (
            "bytes".into(),
            Json::Obj(vec![
                ("text".into(), Json::Num(size.text as f64)),
                ("weights".into(), Json::Num(size.weights as f64)),
                ("suffix_array".into(), Json::Num(size.suffix_array as f64)),
                ("psw".into(), Json::Num(size.psw as f64)),
                ("hash_table".into(), Json::Num(size.hash_table as f64)),
                ("total".into(), Json::Num(size.total() as f64)),
            ]),
        ),
    ];
    if let Some(ingest) = doc.ingest_stats() {
        // bounded-staleness stats: how far the segmented state lags a
        // fully compacted one, and how much WAL a replay would chew
        members.push((
            "ingest".into(),
            Json::Obj(vec![
                ("segments".into(), Json::Num(ingest.segments as f64)),
                ("tail".into(), Json::Num(ingest.tail_len as f64)),
                ("wal_bytes".into(), Json::Num(ingest.wal_bytes as f64)),
                ("seals".into(), Json::Num(ingest.seals as f64)),
                ("compactions".into(), Json::Num(ingest.compactions as f64)),
                (
                    "last_compaction_ms".into(),
                    ingest
                        .last_compaction
                        .map_or(Json::Null, |ago| Json::Num(ago.as_millis() as f64)),
                ),
            ]),
        ));
    }
    ok(Json::Obj(members))
}

fn doc_append(catalog: &Catalog, id: &str, body: &[u8]) -> Response {
    let Some(doc) = catalog.get(id) else {
        return error_response(404, &format!("no such document {id:?}"));
    };
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => return error_response(400, "body is not UTF-8"),
    };
    let parsed = match Json::parse(text) {
        Ok(parsed) => parsed,
        Err(e) => return error_response(400, &format!("invalid JSON body: {e}")),
    };
    let Some(letters) = parsed.get("text").and_then(Json::as_str) else {
        return error_response(400, "missing string member \"text\"");
    };
    let letters = letters.as_bytes();
    let weights: Vec<f64> = match (parsed.get("weights"), parsed.get("weight")) {
        (Some(list), None) => {
            let Some(items) = list.as_array() else {
                return error_response(400, "\"weights\" must be an array of numbers");
            };
            let mut weights = Vec::with_capacity(items.len());
            for item in items {
                match item.as_f64() {
                    Some(w) => weights.push(w),
                    None => return error_response(400, "\"weights\" must be an array of numbers"),
                }
            }
            weights
        }
        (None, Some(w)) => match w.as_f64() {
            Some(w) => vec![w; letters.len()],
            None => return error_response(400, "\"weight\" must be a number"),
        },
        (None, None) => vec![1.0; letters.len()],
        (Some(_), Some(_)) => {
            return error_response(400, "\"weight\" and \"weights\" are mutually exclusive")
        }
    };
    match doc.append(letters, &weights) {
        Ok(()) => {
            let stats = doc.ingest_stats().expect("append succeeded on an ingest doc");
            ok(Json::Obj(vec![
                ("id".into(), Json::str(doc.id())),
                ("appended".into(), Json::Num(letters.len() as f64)),
                ("n".into(), Json::Num(stats.n as f64)),
                ("segments".into(), Json::Num(stats.segments as f64)),
                ("tail".into(), Json::Num(stats.tail_len as f64)),
                ("wal_bytes".into(), Json::Num(stats.wal_bytes as f64)),
            ]))
        }
        Err(AppendError::StaticDoc) => {
            error_response(409, &format!("document {id:?} is not ingest-enabled"))
        }
        Err(AppendError::Ingest(IngestError::Input(what))) => {
            error_response(400, &format!("invalid append: {what}"))
        }
        Err(e) => error_response(500, &format!("append failed: {e}")),
    }
}

fn doc_reload(catalog: &Catalog, id: &str) -> Response {
    match catalog.reload(id) {
        Ok(doc) => ok(Json::Obj(vec![
            ("id".into(), Json::str(doc.id())),
            ("reloaded".into(), Json::Bool(true)),
            ("n".into(), Json::Num(doc.n() as f64)),
        ])),
        Err(ReloadError::NoSuchDoc) => error_response(404, &format!("no such document {id:?}")),
        Err(ReloadError::NotReloadable) => error_response(
            409,
            &format!("document {id:?} was not loaded from a .usix file and cannot be reloaded"),
        ),
        Err(ReloadError::Load(e)) => {
            error_response(500, &format!("reload failed (old view keeps serving): {e}"))
        }
    }
}

fn query(catalog: &Catalog, body: &[u8], batch_threads: usize) -> Response {
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => return error_response(400, "body is not UTF-8"),
    };
    let parsed = match Json::parse(text) {
        Ok(parsed) => parsed,
        Err(e) => return error_response(400, &format!("invalid JSON body: {e}")),
    };
    let Some(doc) = parsed.get("doc").and_then(Json::as_str) else {
        return error_response(400, "missing string member \"doc\" (a doc id, or \"*\")");
    };
    let Some(items) = parsed.get("patterns").and_then(Json::as_array) else {
        return error_response(400, "missing array member \"patterns\"");
    };
    if items.len() > MAX_PATTERNS {
        return error_response(413, "too many patterns");
    }
    let mut patterns: Vec<&[u8]> = Vec::with_capacity(items.len());
    for item in items {
        match item.as_str() {
            Some(s) => patterns.push(s.as_bytes()),
            None => return error_response(400, "patterns must be strings"),
        }
    }

    // "acc": true asks for raw accumulators (plus the utility function)
    // with each answer, so a remote merger can combine shards exactly
    // like local documents; absent or false keeps the classic shape
    let want_acc = match parsed.get("acc") {
        None => false,
        Some(v) => match v.as_bool() {
            Some(b) => b,
            None => return error_response(400, "\"acc\" must be a boolean"),
        },
    };

    if doc == "*" {
        let fans = catalog.query_all_batch(&patterns, batch_threads);
        return serialized(|| {
            if want_acc {
                ok(fan_out_acc_response_json(&patterns, &fans))
            } else {
                Response {
                    status: 200,
                    content_type: APPLICATION_JSON,
                    body: fan_out_response_body(&patterns, &fans),
                }
            }
        });
    }
    if want_acc {
        let Some(handle) = catalog.get(doc) else {
            return error_response(404, &format!("no such document {doc:?}"));
        };
        let answers = handle.query_accumulator_batch(&patterns);
        return serialized(|| {
            ok(query_acc_response_json(doc, &patterns, &answers, handle.utility()))
        });
    }
    match catalog.query_batch(doc, &patterns, batch_threads) {
        Some(answers) => serialized(|| ok(query_response_json(doc, &patterns, &answers))),
        None => error_response(404, &format!("no such document {doc:?}")),
    }
}

/// Builds a response under a `serialize` stage span — how much of a
/// query's latency is JSON rendering rather than engine time.
fn serialized(build: impl FnOnce() -> Response) -> Response {
    let started = Instant::now();
    let response = build();
    if usi_obs::enabled() {
        usi_obs::record_stage(
            SpanGuard::since("serialize", started)
                .parent("http.request")
                .finish_with(started.elapsed()),
        );
    }
    response
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::read_response;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use usi_core::UsiBuilder;
    use usi_strings::WeightedString;

    fn catalog() -> Catalog {
        let catalog = Catalog::new(2);
        let ws = WeightedString::new(b"abracadabra_abracadabra".to_vec(), vec![1.0; 23]).unwrap();
        let index = UsiBuilder::new().with_k(12).deterministic(42).build(ws);
        catalog.insert("abra", index);
        catalog
    }

    fn parse_bytes(bytes: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut &bytes[..], &mut Vec::new())
    }

    #[test]
    fn parses_get_and_post() {
        let req = parse_bytes(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());

        let req =
            parse_bytes(b"POST /v1/query HTTP/1.1\r\nContent-Length: 4\r\nHost: x\r\n\r\nbody")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"body");

        // query strings are stripped from the path
        let req = parse_bytes(b"GET /v1/docs?page=2 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/v1/docs");
    }

    #[test]
    fn connection_semantics_follow_the_http_version() {
        // HTTP/1.1 defaults to keep-alive…
        assert!(!parse_bytes(b"GET / HTTP/1.1\r\n\r\n").unwrap().close);
        // …unless the client says close (token list, any case)
        assert!(parse_bytes(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap().close);
        assert!(parse_bytes(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n").unwrap().close);
        assert!(!parse_bytes(b"GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n").unwrap().close);
        // HTTP/1.0 defaults to close unless it opts in
        assert!(parse_bytes(b"GET / HTTP/1.0\r\n\r\n").unwrap().close);
        assert!(!parse_bytes(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap().close);
        assert!(
            !parse_bytes(b"GET / HTTP/1.0\r\nConnection: Keep-Alive, x\r\n\r\n").unwrap().close
        );
    }

    #[test]
    fn pipelined_requests_parse_in_order_from_one_buffer() {
        // an HTTP/1.1 client may legally pipeline; each call consumes
        // exactly one request and leaves the rest buffered
        let two = b"GET /healthz HTTP/1.1\r\n\r\nGET /v1/docs HTTP/1.1\r\n\r\n";
        let mut reader = &two[..];
        let mut buf = Vec::new();
        let req = read_request(&mut reader, &mut buf).unwrap();
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
        let req = read_request(&mut reader, &mut buf).unwrap();
        assert_eq!(req.path, "/v1/docs");
        assert!(buf.is_empty());
        assert!(matches!(read_request(&mut reader, &mut buf), Err(HttpError::Io(_))));

        let body_and_more =
            b"POST /v1/query HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}GET /x HTTP/1.1\r\n\r\n";
        let mut reader = &body_and_more[..];
        let mut buf = Vec::new();
        let req = read_request(&mut reader, &mut buf).unwrap();
        assert_eq!(req.body, b"{}");
        let req = read_request(&mut reader, &mut buf).unwrap();
        assert_eq!(req.path, "/x");
    }

    #[test]
    fn leading_crlfs_are_skipped_and_chunked_framing_is_refused() {
        // RFC 7230 §3.5: CRLFs before the request line are skipped — a
        // naive client's trailing CRLF after a body must not poison
        // the next request on a persistent connection
        let req = parse_bytes(b"\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/healthz");
        let pipelined =
            b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}\r\nGET /b HTTP/1.1\r\n\r\n";
        let mut reader = &pipelined[..];
        let mut buf = Vec::new();
        assert_eq!(read_request(&mut reader, &mut buf).unwrap().path, "/a");
        assert_eq!(read_request(&mut reader, &mut buf).unwrap().path, "/b");

        // chunked bodies are not implemented; treating one as length 0
        // would hand its bytes to the next request parse (smuggling)
        assert!(matches!(
            parse_bytes(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n"),
            Err(HttpError::Bad("Transfer-Encoding is not supported"))
        ));
    }

    #[test]
    fn rejects_malformed_requests() {
        // bare CRLFs then EOF: only the CRLFs allowed before a request
        // line, so this reads as a clean client departure, not a bad
        // request
        assert!(matches!(parse_bytes(b"\r\n\r\n"), Err(HttpError::Io(_))));
        assert!(matches!(parse_bytes(b"GET\r\n\r\n"), Err(HttpError::Bad(_))));
        assert!(matches!(parse_bytes(b"GET /x SPDY/9\r\n\r\n"), Err(HttpError::Bad(_))));
        assert!(matches!(
            parse_bytes(b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(HttpError::Bad(_))
        ));
        assert!(matches!(parse_bytes(b"GET /x HTTP/1.1\r\nno end"), Err(HttpError::Bad(_))));
        assert!(matches!(parse_bytes(b""), Err(HttpError::Io(_))));
        let huge = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(matches!(parse_bytes(huge.as_bytes()), Err(HttpError::TooLarge)));
    }

    #[test]
    fn ambiguous_framing_is_refused() {
        // a proxy that frames these differently would disagree with
        // this server on where the request ends (request smuggling)
        let ambiguous: [&[u8]; 5] = [
            // RFC 9110 §8.6: Content-Length is 1*DIGIT, no sign
            b"POST /x HTTP/1.1\r\nContent-Length: +2\r\n\r\n{}",
            // either length leaves other bytes for the next request
            b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 2\r\n\r\n{}GET",
            // RFC 9112 §5.1: no whitespace between a name and its colon
            b"POST /x HTTP/1.1\r\nContent-Length : 2\r\n\r\n{}",
            // RFC 9112 §2.2: a bare LF or CR may or may not end a line,
            // hiding or showing the Content-Length after it
            b"GET /x HTTP/1.1\r\nX: a\nContent-Length: 3\r\n\r\nabc",
            b"GET /x HTTP/1.1\r\nX: a\rContent-Length: 3\r\n\r\nabc",
        ];
        for bytes in ambiguous {
            let parsed = parse_bytes(bytes);
            assert!(matches!(parsed, Err(HttpError::Bad(_))), "{parsed:?}");
        }
    }

    #[test]
    fn healthz_and_docs() {
        let catalog = catalog();
        let r = respond(&catalog, "GET", "/healthz", b"");
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, APPLICATION_JSON);
        let parsed = Json::parse(&r.body).unwrap();
        assert_eq!(parsed.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(parsed.get("docs").and_then(Json::as_f64), Some(1.0));
        assert_eq!(parsed.get("version").and_then(Json::as_str), Some(env!("CARGO_PKG_VERSION")));
        assert!(parsed.get("uptime_seconds").and_then(Json::as_f64).is_some());
        // the legacy probe contract: status and docs lead the body
        assert!(r.body.starts_with(r#"{"status":"ok","docs":1"#), "{}", r.body);

        let r = respond(&catalog, "GET", "/v1/docs", b"");
        assert_eq!(r.status, 200);
        let parsed = Json::parse(&r.body).unwrap();
        let docs = parsed.get("docs").and_then(Json::as_array).unwrap();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].get("id").and_then(Json::as_str), Some("abra"));
        assert_eq!(docs[0].get("n").and_then(Json::as_f64), Some(23.0));
    }

    #[test]
    fn doc_stats_route() {
        let catalog = catalog();
        let r = respond(&catalog, "GET", "/v1/docs/abra/stats", b"");
        assert_eq!(r.status, 200);
        let parsed = Json::parse(&r.body).unwrap();
        assert_eq!(parsed.get("n").and_then(Json::as_f64), Some(23.0));
        assert!(parsed.get("bytes").and_then(|b| b.get("total")).is_some());

        assert_eq!(respond(&catalog, "GET", "/v1/docs/none/stats", b"").status, 404);
        assert_eq!(respond(&catalog, "GET", "/v1/docs//stats", b"").status, 404);
        assert_eq!(respond(&catalog, "DELETE", "/v1/docs/abra/stats", b"").status, 405);
    }

    fn ingest_catalog(name: &str) -> Catalog {
        use usi_ingest::{IngestConfig, IngestPipeline};
        let catalog = Catalog::new(2);
        let ws = WeightedString::new(b"abcabcabc".to_vec(), vec![1.0; 9]).unwrap();
        let index = UsiBuilder::new().with_k(6).deterministic(7).build(ws);
        let dir = std::env::temp_dir().join("usi-http-ingest-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join(format!("{name}.usil"));
        let _ = std::fs::remove_file(&wal);
        let (pipeline, _) = IngestPipeline::open(
            index,
            &wal,
            IngestConfig {
                seal_threshold: 4,
                compact_fanout: 2,
                sync_wal: false,
                ..IngestConfig::default()
            },
        )
        .unwrap();
        catalog.insert_ingest("live", pipeline);
        catalog
    }

    #[test]
    fn append_route_grows_an_ingest_doc() {
        let catalog = ingest_catalog("append-route");
        // before: "abc" occurs 3 times
        let r = respond(&catalog, "POST", "/v1/query", br#"{"doc":"live","patterns":["abc"]}"#);
        assert!(r.body.contains(r#""occurrences":3"#), "{}", r.body);

        let r = respond(&catalog, "POST", "/v1/docs/live/append", br#"{"text":"abcabc"}"#);
        assert_eq!(r.status, 200, "{}", r.body);
        let parsed = Json::parse(&r.body).unwrap();
        assert_eq!(parsed.get("appended").and_then(Json::as_f64), Some(6.0));
        assert_eq!(parsed.get("n").and_then(Json::as_f64), Some(15.0));

        // after: "abc" occurs 5 times, boundary occurrence included
        let r = respond(&catalog, "POST", "/v1/query", br#"{"doc":"live","patterns":["abc"]}"#);
        assert!(r.body.contains(r#""occurrences":5"#), "{}", r.body);

        // explicit weights must match the text length
        let r = respond(
            &catalog,
            "POST",
            "/v1/docs/live/append",
            br#"{"text":"ab","weights":[0.5,0.25]}"#,
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let r =
            respond(&catalog, "POST", "/v1/docs/live/append", br#"{"text":"ab","weights":[1]}"#);
        assert_eq!(r.status, 400);

        // stats expose the bounded-staleness counters
        let r = respond(&catalog, "GET", "/v1/docs/live/stats", b"");
        assert_eq!(r.status, 200);
        let parsed = Json::parse(&r.body).unwrap();
        let ingest = parsed.get("ingest").expect("ingest section for a live doc");
        assert!(ingest.get("segments").and_then(Json::as_f64).is_some());
        assert!(ingest.get("wal_bytes").and_then(Json::as_f64).unwrap() > 8.0);
    }

    #[test]
    fn append_route_errors() {
        let catalog = catalog(); // static-only
        let r = respond(&catalog, "POST", "/v1/docs/abra/append", br#"{"text":"x"}"#);
        assert_eq!(r.status, 409, "static docs must refuse appends: {}", r.body);
        let r = respond(&catalog, "POST", "/v1/docs/gone/append", br#"{"text":"x"}"#);
        assert_eq!(r.status, 404);
        let r = respond(&catalog, "POST", "/v1/docs/abra/append", b"not json");
        assert_eq!(r.status, 400);
        let r = respond(&catalog, "POST", "/v1/docs/abra/append", br#"{"weight":1}"#);
        assert_eq!(r.status, 400);
        let r = respond(&catalog, "GET", "/v1/docs/abra/append", b"");
        assert_eq!(r.status, 405);
    }

    #[test]
    fn query_route_single_and_fan_out() {
        let catalog = catalog();
        let body = br#"{"doc":"abra","patterns":["abra","zzz"]}"#;
        let r = respond(&catalog, "POST", "/v1/query", body);
        assert_eq!(r.status, 200);
        // "abra" occurs 4 times with unit weights: U = 4·4 = 16
        let parsed = Json::parse(&r.body).unwrap();
        let results = parsed.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(results[0].get("occurrences").and_then(Json::as_f64), Some(4.0));
        assert_eq!(results[0].get("value").and_then(Json::as_f64), Some(16.0));
        assert_eq!(results[1].get("occurrences").and_then(Json::as_f64), Some(0.0));

        let r = respond(&catalog, "POST", "/v1/query", br#"{"doc":"*","patterns":["abra"]}"#);
        assert_eq!(r.status, 200);
        let parsed = Json::parse(&r.body).unwrap();
        let results = parsed.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(results[0].get("occurrences").and_then(Json::as_f64), Some(4.0));
        assert_eq!(results[0].get("per_doc").and_then(Json::as_array).map(<[Json]>::len), Some(1));
    }

    #[test]
    fn query_route_errors() {
        let catalog = catalog();
        let bad = [
            &b"not json"[..],
            br#"{"patterns":["a"]}"#,
            br#"{"doc":"abra"}"#,
            br#"{"doc":"abra","patterns":[1]}"#,
            b"\xff\xfe",
        ];
        for body in bad {
            assert_eq!(respond(&catalog, "POST", "/v1/query", body).status, 400, "{body:?}");
        }
        let r = respond(&catalog, "POST", "/v1/query", br#"{"doc":"gone","patterns":["a"]}"#);
        assert_eq!(r.status, 404);
        assert_eq!(respond(&catalog, "GET", "/v1/query", b"").status, 405);
        assert_eq!(respond(&catalog, "GET", "/nope", b"").status, 404);
    }

    #[test]
    fn metrics_and_trace_endpoints() {
        let catalog = catalog();
        // drive a query so the catalog-level series exist
        let r = respond(&catalog, "POST", "/v1/query", br#"{"doc":"abra","patterns":["abra"]}"#);
        assert_eq!(r.status, 200);

        let r = respond(&catalog, "GET", "/metrics", b"");
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, PROMETHEUS_TEXT);
        assert!(r.body.contains("# TYPE usi_doc_queries_total counter"), "{}", r.body);
        assert!(r.body.contains(r#"usi_doc_queries_total{doc="abra"}"#), "{}", r.body);
        assert!(r.body.contains("# TYPE usi_query_batch_size histogram"), "{}", r.body);
        assert!(!r.body.contains("usi_cache_"), "{}", r.body);

        let r = respond(&catalog, "GET", "/v1/trace", b"");
        assert_eq!(r.status, 200);
        let parsed = Json::parse(&r.body).unwrap();
        assert!(parsed.get("spans").and_then(Json::as_array).is_some());
        assert!(parsed.get("dropped").and_then(Json::as_f64).is_some());

        assert_eq!(respond(&catalog, "POST", "/metrics", b"").status, 405);
        assert_eq!(respond(&catalog, "DELETE", "/v1/trace", b"").status, 405);
    }

    #[test]
    fn error_bodies_share_one_json_shape() {
        let catalog = catalog();
        let errors = [
            respond(&catalog, "GET", "/nope", b""),
            respond(&catalog, "PUT", "/healthz", b""),
            respond(&catalog, "POST", "/v1/query", b"not json"),
            respond(&catalog, "POST", "/v1/docs/abra/append", br#"{"text":"x"}"#),
            respond(&catalog, "POST", "/v1/query", br#"{"doc":"gone","patterns":["a"]}"#),
        ];
        for r in errors {
            assert!(r.status >= 400, "{r:?}");
            assert_eq!(r.content_type, APPLICATION_JSON, "{r:?}");
            let parsed = Json::parse(&r.body).unwrap_or_else(|e| panic!("{e}: {}", r.body));
            assert!(parsed.get("error").and_then(Json::as_str).is_some(), "{}", r.body);
            assert_eq!(
                parsed.get("status").and_then(Json::as_f64),
                Some(f64::from(r.status)),
                "{}",
                r.body
            );
        }
    }

    #[test]
    fn responses_are_well_formed_http() {
        // the connection header is transport state the request loop
        // decides per response — not part of Response formatting
        let mut out = Vec::new();
        let response = Response { status: 200, content_type: APPLICATION_JSON, body: "{}".into() };
        write_response(&mut out, &response, false, "").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        write_response(&mut out, &response, true, "X-Request-Id: 00ff00ff00ff00ff\r\n").unwrap();
        let reply = read_response(&mut &out[..], &mut Vec::new()).unwrap();
        assert!(reply.keep_alive);
        assert_eq!(reply.header("Connection"), Some("keep-alive"));
        // extra headers land inside the head, before the blank line
        assert_eq!(reply.header("X-Request-Id"), Some("00ff00ff00ff00ff"), "{}", reply.head);
        assert_eq!(reply.body, "{}");
    }

    /// A reader that hands its bytes out in random-sized pieces, as a
    /// socket may.
    struct Trickle<'b> {
        bytes: &'b [u8],
        rng: StdRng,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.rng.gen_range(1..=700usize).min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// A random request as the server must parse it, and its bytes on
    /// the wire (sometimes behind a stray CRLF, which RFC 9112 §2.2 lets
    /// a client send between requests).
    fn random_request(rng: &mut StdRng) -> (Request, Vec<u8>) {
        let method = ["GET", "POST", "PUT", "DELETE"][rng.gen_range(0..4)];
        let path = format!("/v1/docs/{}", rng.gen_range(0..1000u32));
        let query = if rng.gen_bool(0.5) {
            format!("limit={}", rng.gen_range(0..100u32))
        } else {
            "".into()
        };
        let http10 = rng.gen_bool(0.25);
        let tokens = ["close", "Close", "keep-alive", "Keep-Alive", "upgrade"];
        let connection: Vec<&str> =
            (0..rng.gen_range(0..3)).map(|_| tokens[rng.gen_range(0..tokens.len())]).collect();
        let body: Vec<u8> = (0..rng.gen_range(0..=2048)).map(|_| rng.gen::<u8>()).collect();

        let mut fields: Vec<String> = (0..rng.gen_range(0..=3))
            .map(|i| format!("X-Extra-{i}: {}", rng.gen_range(0..1_000_000u32)))
            .collect();
        if !connection.is_empty() {
            fields.push(format!("Connection: {}", connection.join(", ")));
        }
        if !body.is_empty() || rng.gen_bool(0.5) {
            fields.push(format!("Content-Length: {}", body.len()));
        }
        fields.shuffle(rng);
        let target = if query.is_empty() { path.clone() } else { format!("{path}?{query}") };
        let version = if http10 { "HTTP/1.0" } else { "HTTP/1.1" };
        let mut head = if rng.gen_bool(0.2) { "\r\n".to_string() } else { String::new() };
        head += &format!("{method} {target} {version}\r\n");
        for field in &fields {
            head += &format!("{field}\r\n");
        }
        head += "\r\n";

        let listed = |token: &str| connection.iter().any(|t| t.eq_ignore_ascii_case(token));
        let close = if http10 { !listed("keep-alive") } else { listed("close") };
        let wire = [head.as_bytes(), &body].concat();
        (Request { method: method.into(), path, query, body, close }, wire)
    }

    proptest! {
        #[test]
        fn server_reader_framer_and_client_reader_agree(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (requests, wires): (Vec<Request>, Vec<Vec<u8>>) =
                (0..rng.gen_range(1..=4)).map(|_| random_request(&mut rng)).unzip();

            // the framer: Incomplete on every strict prefix of a request,
            // Complete exactly at its end
            for wire in &wires {
                for cut in 0..wire.len() {
                    let framed = frame(&wire[..cut], MAX_BODY);
                    prop_assert!(matches!(framed, Frame::Incomplete { .. }), "{cut}: {framed:?}");
                }
                let framed = frame(wire, MAX_BODY);
                prop_assert!(
                    matches!(framed, Frame::Complete { head_end, body_len }
                        if head_end + body_len == wire.len()),
                    "{framed:?}"
                );
            }

            // the server reader: the same requests in order, from one
            // stream read in random-sized pieces
            let stream = wires.concat();
            let mut reader = Trickle { bytes: &stream, rng: StdRng::seed_from_u64(!seed) };
            let mut buf = Vec::new();
            for want in &requests {
                let got = read_request(&mut reader, &mut buf);
                prop_assert!(got.is_ok(), "{got:?}");
                let got = got.unwrap();
                prop_assert_eq!(
                    (&got.method, &got.path, &got.query, &got.body, got.close),
                    (&want.method, &want.path, &want.query, &want.body, want.close)
                );
            }
            prop_assert!(matches!(read_request(&mut reader, &mut buf), Err(HttpError::Io(_))));

            // the client reader on the server's writer, responses
            // back to back on one connection
            let statuses = [200u16, 400, 404, 405, 409, 413, 500, 503];
            let letters = ['a', '{', '"', ' ', 'é', '→', '\n'];
            let sent: Vec<(Response, bool)> = (0..rng.gen_range(1..=4))
                .map(|_| {
                    let status = statuses[rng.gen_range(0..statuses.len())];
                    let body = (0..rng.gen_range(0..=2048))
                        .map(|_| letters[rng.gen_range(0..letters.len())])
                        .collect();
                    (Response { status, content_type: APPLICATION_JSON, body }, rng.gen_bool(0.5))
                })
                .collect();
            let mut wire = Vec::new();
            for (response, keep_alive) in &sent {
                write_response(&mut wire, response, *keep_alive, "X-Request-Id: 0123\r\n").unwrap();
            }
            let mut reader = Trickle { bytes: &wire, rng: StdRng::seed_from_u64(seed ^ 1) };
            let mut buf = Vec::new();
            for (response, keep_alive) in &sent {
                let reply = read_response(&mut reader, &mut buf);
                prop_assert!(reply.is_ok(), "{reply:?}");
                let reply = reply.unwrap();
                prop_assert_eq!(
                    (reply.status, &reply.body, reply.keep_alive),
                    (response.status, &response.body, *keep_alive)
                );
            }
            prop_assert!(buf.is_empty());
        }
    }

    #[test]
    fn trace_filters_and_tree_endpoints() {
        let catalog = catalog();
        usi_obs::tracer().clear();
        usi_obs::set_enabled(true);
        // seed the ring with a traced request tree plus an untagged span
        let id = TraceId::generate();
        usi_obs::begin_request(id);
        usi_obs::record_stage(
            SpanGuard::start("engine")
                .parent("http.request")
                .finish_with(Duration::from_micros(800)),
        );
        let (_, stages) = usi_obs::end_request().unwrap();
        let mut root =
            SpanGuard::start("http.request").trace(id).finish_with(Duration::from_micros(1500));
        let root_span = {
            root.fields.push(("path".into(), "/seed".into()));
            root
        };
        usi_obs::tracer().record_all(std::iter::once(root_span).chain(stages));
        usi_obs::tracer()
            .record(SpanGuard::start("ingest.seal").finish_with(Duration::from_micros(50)));

        // name filter: every returned span is an engine stage, ours
        // among them (other tests share the global ring — filter, don't
        // count)
        let r = respond(&catalog, "GET", "/v1/trace?name=engine", b"");
        assert_eq!(r.status, 200);
        let parsed = Json::parse(&r.body).unwrap();
        let spans = parsed.get("spans").and_then(Json::as_array).unwrap();
        assert!(spans.iter().all(|s| s.get("name").and_then(Json::as_str) == Some("engine")));
        let mine = spans
            .iter()
            .find(|s| s.get("trace_id").and_then(Json::as_str) == Some(&*id.to_string()))
            .unwrap_or_else(|| panic!("our engine span in {}", r.body));
        assert_eq!(mine.get("parent").and_then(Json::as_str), Some("http.request"));

        // min_us filter: nothing in a unit-test run takes ≥ 10 s
        let r = respond(&catalog, "GET", "/v1/trace?min_us=10000000", b"");
        let parsed = Json::parse(&r.body).unwrap();
        assert_eq!(parsed.get("spans").and_then(Json::as_array).map(<[Json]>::len), Some(0));

        // limit caps the response server-side and reports the full
        // match count
        let r = respond(&catalog, "GET", "/v1/trace?limit=1", b"");
        let parsed = Json::parse(&r.body).unwrap();
        assert_eq!(parsed.get("spans").and_then(Json::as_array).map(<[Json]>::len), Some(1));
        assert!(parsed.get("matched").and_then(Json::as_f64).unwrap() >= 3.0, "{}", r.body);

        // bad filter values are refused, not ignored
        assert_eq!(respond(&catalog, "GET", "/v1/trace?min_us=abc", b"").status, 400);
        assert_eq!(respond(&catalog, "GET", "/v1/trace?limit=-1", b"").status, 400);

        // the tree endpoint reassembles root + stages from the ring
        let r = respond(&catalog, "GET", &format!("/v1/trace/{id}"), b"");
        assert_eq!(r.status, 200, "{}", r.body);
        let parsed = Json::parse(&r.body).unwrap();
        assert_eq!(parsed.get("trace_id").and_then(Json::as_str), Some(&*id.to_string()));
        assert_eq!(
            parsed.get("root").and_then(|r| r.get("name")).and_then(Json::as_str),
            Some("http.request")
        );
        let stages = parsed.get("stages").and_then(Json::as_array).unwrap();
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].get("name").and_then(Json::as_str), Some("engine"));

        // unknown id: 404; malformed id: 400; wrong methods: 405
        assert_eq!(respond(&catalog, "GET", "/v1/trace/0000000000000000", b"").status, 404);
        assert_eq!(respond(&catalog, "GET", "/v1/trace/not-hex", b"").status, 400);
        assert_eq!(respond(&catalog, "POST", &format!("/v1/trace/{id}"), b"").status, 405);
        assert_eq!(respond(&catalog, "DELETE", "/debug/requests", b"").status, 405);
    }

    #[test]
    fn flight_recorder_serves_debug_requests() {
        let catalog = catalog();
        usi_obs::set_enabled(true);
        let id = TraceId::generate();
        usi_obs::flight().record(usi_obs::FlightRecord {
            trace_id: id,
            root: SpanGuard::start("http.request")
                .trace(id)
                .field("path", "/slow")
                .field("status", "200")
                .finish_with(Duration::from_millis(80)),
            stages: vec![SpanGuard::start("engine")
                .trace(id)
                .parent("http.request")
                .finish_with(Duration::from_millis(75))],
        });

        let r = respond(&catalog, "GET", "/debug/requests", b"");
        assert_eq!(r.status, 200);
        let parsed = Json::parse(&r.body).unwrap();
        let requests = parsed.get("requests").and_then(Json::as_array).unwrap();
        // most recent first: our record leads
        let first = &requests[0];
        assert_eq!(first.get("trace_id").and_then(Json::as_str), Some(&*id.to_string()));
        let stages = first.get("stages").and_then(Json::as_array).unwrap();
        assert_eq!(stages[0].get("name").and_then(Json::as_str), Some("engine"));
        assert!(parsed.get("dropped").and_then(Json::as_f64).is_some());

        // the tree endpoint prefers the flight recorder (full tree even
        // if the span ring has churned past this request)
        let r = respond(&catalog, "GET", &format!("/v1/trace/{id}"), b"");
        assert_eq!(r.status, 200);
        assert!(r.body.contains("\"engine\""), "{}", r.body);
    }

    #[test]
    fn end_to_end_over_a_socket() {
        let catalog = Arc::new(catalog());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = serve(Arc::clone(&catalog), listener, ServerConfig::with_workers(2)).unwrap();
        let addr = handle.addr();

        let fetch = |request: String| -> String {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(request.as_bytes()).unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            response
        };

        let response =
            fetch(format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"));
        assert!(response.starts_with("HTTP/1.1 200"));
        assert!(response.contains(r#"{"status":"ok","docs":1"#), "{response}");

        let body = r#"{"doc":"abra","patterns":["abra"]}"#;
        let response = fetch(format!(
            "POST /v1/query HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ));
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(response.contains(r#""occurrences":4"#), "{response}");

        handle.shutdown();
        // the port is released: a fresh bind to the same address works
        assert!(TcpListener::bind(addr).is_ok());
    }

    /// Reads one response off a kept-alive `stream`: `(head, body)`.
    fn read_one_response(stream: &mut TcpStream) -> (String, String) {
        let reply = read_response(stream, &mut Vec::new()).expect("one whole response");
        (reply.head, reply.body)
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let catalog = Arc::new(catalog());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = serve(Arc::clone(&catalog), listener, ServerConfig::with_workers(1)).unwrap();
        let addr = handle.addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        for round in 0..3 {
            stream
                .write_all(format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
                .unwrap();
            let (head, body) = read_one_response(&mut stream);
            assert!(head.starts_with("HTTP/1.1 200"), "round {round}: {head}");
            assert!(head.contains("Connection: keep-alive"), "round {round}: {head}");
            assert!(body.starts_with(r#"{"status":"ok","docs":1"#), "round {round}: {body}");
        }
        // asking to close gets a close header and a closed socket
        stream
            .write_all(
                format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
                    .as_bytes(),
            )
            .unwrap();
        let (head, _) = read_one_response(&mut stream);
        assert!(head.contains("Connection: close"), "{head}");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "bytes after the final response");
        handle.shutdown();
    }

    #[test]
    fn request_budget_closes_the_connection() {
        let catalog = Arc::new(catalog());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let config = ServerConfig { max_requests_per_connection: 2, ..ServerConfig::default() };
        let handle = serve(Arc::clone(&catalog), listener, config).unwrap();
        let addr = handle.addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        let request = format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\n\r\n");
        stream.write_all(request.as_bytes()).unwrap();
        let (head, _) = read_one_response(&mut stream);
        assert!(head.contains("Connection: keep-alive"), "{head}");
        stream.write_all(request.as_bytes()).unwrap();
        let (head, _) = read_one_response(&mut stream);
        assert!(head.contains("Connection: close"), "budget exhausted: {head}");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        handle.shutdown();
    }

    #[test]
    fn portable_path_serves_keep_alive() {
        // the thread-per-connection path targets without epoll run:
        // the same observable behaviour for a few connections, each of
        // which pins one of the four workers
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle =
            serve_threaded(Arc::new(catalog()), listener, ServerConfig::with_workers(4)).unwrap();
        let addr = handle.addr();

        let mut conns: Vec<TcpStream> = (0..3).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let request = format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\n\r\n");
        for conn in &mut conns {
            for _ in 0..2 {
                conn.write_all(request.as_bytes()).unwrap();
                let (head, _) = read_one_response(conn);
                assert!(head.starts_with("HTTP/1.1 200"), "{head}");
                assert!(head.contains("Connection: keep-alive"), "{head}");
            }
        }
        assert_eq!(handle.open_connections(), 3);
        drop(conns);
        let started = Instant::now();
        while handle.open_connections() > 0 {
            assert!(started.elapsed() < Duration::from_secs(5), "connections never closed");
            std::thread::sleep(Duration::from_millis(10));
        }
        handle.shutdown();
        // every worker left its accept(): the port is released
        assert!(TcpListener::bind(addr).is_ok());
    }

    #[test]
    fn keep_alive_disabled_closes_after_one_exchange() {
        let catalog = Arc::new(catalog());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let config = ServerConfig { keep_alive: false, ..ServerConfig::default() };
        let handle = serve(Arc::clone(&catalog), listener, config).unwrap();
        let addr = handle.addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap(); // EOF: server closed
        assert!(response.contains("Connection: close"), "{response}");
        handle.shutdown();
    }
}
