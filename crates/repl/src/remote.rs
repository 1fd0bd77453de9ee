//! [`RemoteDoc`]: a [`QueryEngine`] whose index lives in another
//! process, reached over the JSON HTTP API.
//!
//! A front end registers one `RemoteDoc` per shard (via
//! `usi_server::Catalog::insert_engine`) and the catalog's existing
//! `"doc": "*"` fan-out merges their per-shard accumulators through
//! `usi_core::merge` — the same associative merge a single process uses
//! across local documents. Each `RemoteDoc` targets `"*"` on its shard
//! by default, so a shard may itself hold many documents.
//!
//! The client is deliberately small: one kept-alive HTTP/1.1 connection
//! per `RemoteDoc` (queries from the server's worker pool serialize on
//! it; the pool fans out across shards, not within one), a per-request
//! deadline via socket timeouts, and a single retry on a fresh
//! connection when a reused one turns out to be stale. After the retry,
//! a failed shard degrades to empty accumulators — a fan-out answer
//! then under-counts rather than erroring, which the staleness-tolerant
//! read path already accepts (and the error is logged).

use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;
use usi_core::index::IndexSize;
use usi_core::{QueryEngine, QuerySource, UsiQuery};
use usi_server::json::{acc_from_json, pattern_string, utility_from_json, Json};
use usi_server::{read_response, Reply};
use usi_strings::{GlobalUtility, UtilityAccumulator};

/// A remote shard behind the JSON HTTP API, usable anywhere a local
/// index is.
pub struct RemoteDoc {
    /// `host:port` of the remote server.
    addr: String,
    /// The `"doc"` member sent with every query (`"*"` = whole shard).
    target: String,
    /// Per-request deadline (connect, send, and receive each get it).
    timeout: Duration,
    /// The kept-alive connection, replaced when it goes stale.
    conn: Mutex<Option<TcpStream>>,
    utility: GlobalUtility,
    indexed_len: usize,
    cached_substrings: usize,
}

impl RemoteDoc {
    /// Connects to `addr` and probes it: fails fast when the server is
    /// unreachable or does not serve `target`, and learns the shard's
    /// utility function and sizes for the local `/v1/docs` listing.
    pub fn connect(
        addr: impl Into<String>,
        target: impl Into<String>,
        timeout: Duration,
    ) -> io::Result<Self> {
        let doc = Self {
            addr: addr.into(),
            target: target.into(),
            timeout,
            conn: Mutex::new(None),
            utility: GlobalUtility::default(),
            indexed_len: 0,
            cached_substrings: 0,
        };
        // sizes (and target existence for "*") from the docs listing
        let listing = parse_body(doc.request("GET", "/v1/docs", None)?, "/v1/docs")?;
        let docs = listing
            .get("docs")
            .and_then(Json::as_array)
            .ok_or_else(|| bad(format!("{}: /v1/docs returned no docs array", doc.addr)))?;
        let mine = |d: &&Json| {
            doc.target == "*" || d.get("id").and_then(Json::as_str) == Some(&doc.target)
        };
        let indexed_len = docs
            .iter()
            .filter(mine)
            .map(|d| d.get("n").and_then(Json::as_f64).unwrap_or(0.0) as usize)
            .sum();
        let cached_substrings = docs
            .iter()
            .filter(mine)
            .map(|d| d.get("cached_substrings").and_then(Json::as_f64).unwrap_or(0.0) as usize)
            .sum();
        if doc.target != "*" && !docs.iter().any(|d| mine(&d)) {
            return Err(bad(format!("{} does not serve doc {:?}", doc.addr, doc.target)));
        }
        // the utility function from a probe query (the response carries
        // it whenever the shard's documents agree; a mixed "*" shard
        // degrades to the default and is reported)
        let probe = doc.query_request(&[b"\x01".as_slice()])?;
        let utility = probe.get("utility").and_then(utility_from_json).unwrap_or_else(|| {
            eprintln!(
                "usi-repl: shard {} target {:?} has no single utility function; \
                 merged values may be null",
                doc.addr, doc.target
            );
            GlobalUtility::default()
        });
        Ok(Self { utility, indexed_len, cached_substrings, ..doc })
    }

    /// The remote address this doc proxies to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Issues one `POST /v1/query` with `"acc": true` and returns the
    /// parsed response object.
    fn query_request(&self, patterns: &[&[u8]]) -> io::Result<Json> {
        let body = Json::Obj(vec![
            ("doc".into(), Json::str(self.target.clone())),
            (
                "patterns".into(),
                Json::Arr(patterns.iter().map(|p| Json::Str(pattern_string(p))).collect()),
            ),
            ("acc".into(), Json::Bool(true)),
        ])
        .encode();
        parse_body(self.request("POST", "/v1/query", Some(&body))?, "/v1/query")
    }

    /// One HTTP exchange over the kept-alive connection, retried once on
    /// a fresh connection if the reused one fails mid-flight (the server
    /// may have idle-closed it between our requests).
    fn request(&self, method: &str, path: &str, body: Option<&str>) -> io::Result<Reply> {
        let mut conn = self.conn.lock().expect("remote conn poisoned");
        let reused = conn.is_some();
        if conn.is_none() {
            *conn = Some(self.dial()?);
        }
        match exchange(conn.as_mut().expect("just dialed"), &self.addr, method, path, body) {
            Ok(reply) => {
                if !reply.keep_alive {
                    *conn = None;
                }
                Ok(reply)
            }
            Err(first) => {
                *conn = None;
                if !reused {
                    return Err(first);
                }
                let mut fresh = self.dial()?;
                let reply = exchange(&mut fresh, &self.addr, method, path, body)?;
                if reply.keep_alive {
                    *conn = Some(fresh);
                }
                Ok(reply)
            }
        }
    }

    fn dial(&self) -> io::Result<TcpStream> {
        use std::net::ToSocketAddrs;
        let mut last = io::Error::other(format!("no addresses resolved for {:?}", self.addr));
        for resolved in self.addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, self.timeout) {
                Ok(conn) => {
                    conn.set_read_timeout(Some(self.timeout))?;
                    conn.set_write_timeout(Some(self.timeout))?;
                    conn.set_nodelay(true)?;
                    return Ok(conn);
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// The accumulator batch, degrading to empty answers (logged) when
    /// the shard stays unreachable through the retry.
    fn try_accumulator_batch(
        &self,
        patterns: &[&[u8]],
    ) -> io::Result<Vec<(UtilityAccumulator, QuerySource)>> {
        let response = self.query_request(patterns)?;
        let results = response
            .get("results")
            .and_then(Json::as_array)
            .ok_or_else(|| bad(format!("{}: query response has no results", self.addr)))?;
        if results.len() != patterns.len() {
            return Err(bad(format!(
                "{}: asked {} patterns, got {} results",
                self.addr,
                patterns.len(),
                results.len()
            )));
        }
        results
            .iter()
            .map(|r| {
                let acc = r
                    .get("acc")
                    .and_then(acc_from_json)
                    .ok_or_else(|| bad(format!("{}: result carries no accumulator", self.addr)))?;
                // fan-out results carry no per-shard source; count the
                // remote hop as the computed path
                let source = match r.get("source").and_then(Json::as_str) {
                    Some("cached") => QuerySource::HashTable,
                    _ => QuerySource::TextIndex,
                };
                Ok((acc, source))
            })
            .collect()
    }
}

impl std::fmt::Debug for RemoteDoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteDoc")
            .field("addr", &self.addr)
            .field("target", &self.target)
            .field("timeout", &self.timeout)
            .finish_non_exhaustive()
    }
}

impl QueryEngine for RemoteDoc {
    fn query(&self, pattern: &[u8]) -> UsiQuery {
        let (acc, source) = self.query_accumulator(pattern);
        UsiQuery { value: acc.finish(self.utility.aggregator), occurrences: acc.count(), source }
    }

    fn query_accumulator(&self, pattern: &[u8]) -> (UtilityAccumulator, QuerySource) {
        self.query_accumulator_batch(&[pattern]).pop().expect("one answer per pattern")
    }

    fn query_accumulator_batch(
        &self,
        patterns: &[&[u8]],
    ) -> Vec<(UtilityAccumulator, QuerySource)> {
        match self.try_accumulator_batch(patterns) {
            Ok(answers) => answers,
            Err(e) => {
                eprintln!(
                    "usi-repl: shard {} failed ({e}); answering {} patterns empty",
                    self.addr,
                    patterns.len()
                );
                patterns
                    .iter()
                    .map(|_| (UtilityAccumulator::new(), QuerySource::TextIndex))
                    .collect()
            }
        }
    }

    fn utility(&self) -> GlobalUtility {
        self.utility
    }

    fn indexed_len(&self) -> usize {
        self.indexed_len
    }

    fn cached_substrings(&self) -> usize {
        self.cached_substrings
    }

    fn size_breakdown(&self) -> IndexSize {
        // the bytes live in the remote process; report nothing local
        IndexSize::default()
    }
}

fn bad(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Checks the status and parses the JSON body.
fn parse_body(reply: Reply, what: &str) -> io::Result<Json> {
    if reply.status != 200 {
        return Err(bad(format!("{what} returned HTTP {}: {}", reply.status, reply.body.trim())));
    }
    Json::parse(&reply.body).map_err(|e| bad(format!("{what} returned unparseable JSON: {e}")))
}

/// Writes one request on `conn` and reads its response.
fn exchange(
    conn: &mut TcpStream,
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<Reply> {
    let body = body.unwrap_or("");
    write!(
        conn,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: keep-alive\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    conn.flush()?;
    read_response(conn, &mut Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::Arc;
    use usi_core::UsiBuilder;
    use usi_server::{serve, Catalog, ServerConfig, ServerHandle};
    use usi_strings::WeightedString;

    /// Serves `catalog` with the real HTTP server on an ephemeral port,
    /// until the returned handle drops.
    fn spawn_backend(catalog: Arc<Catalog>) -> (ServerHandle, String) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = serve(catalog, listener, ServerConfig::with_workers(2)).unwrap();
        let addr = handle.addr().to_string();
        (handle, addr)
    }

    fn catalog_with(text: &[u8], id: &str) -> Arc<Catalog> {
        let catalog = Arc::new(Catalog::new(4));
        let index = UsiBuilder::new()
            .with_k(8)
            .deterministic(7)
            .build(WeightedString::uniform(text.to_vec(), 1.0));
        catalog.insert(id.to_string(), index);
        catalog
    }

    #[test]
    fn remote_doc_answers_match_the_local_index() {
        let catalog = catalog_with(b"abracadabra", "d");
        let (_server, addr) = spawn_backend(Arc::clone(&catalog));
        let remote = RemoteDoc::connect(&addr, "d", Duration::from_secs(5)).unwrap();

        let local = catalog.get("d").unwrap();
        assert_eq!(remote.utility(), local.utility());
        assert_eq!(remote.indexed_len(), 11);
        for pattern in [b"abra".as_slice(), b"a", b"cad", b"zzz"] {
            let want = local.engine().query(pattern);
            let got = remote.query(pattern);
            assert_eq!(got.occurrences, want.occurrences, "pattern {pattern:?}");
            assert_eq!(got.value, want.value, "pattern {pattern:?}");
        }
        // batches reuse the same kept-alive connection
        let patterns: Vec<&[u8]> = vec![b"ab", b"ra"];
        let batch = remote.query_accumulator_batch(&patterns);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].0.count(), local.engine().query(b"ab").occurrences);
    }

    #[test]
    fn connect_fails_fast_on_missing_doc_and_dead_server() {
        let catalog = catalog_with(b"abc", "d");
        let (_server, addr) = spawn_backend(catalog);
        assert!(RemoteDoc::connect(&addr, "nope", Duration::from_secs(5)).is_err());
        // a dead address: bind-then-drop guarantees nothing listens
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        assert!(RemoteDoc::connect(&dead, "d", Duration::from_millis(300)).is_err());
    }

    #[test]
    fn unreachable_shard_degrades_to_empty_answers() {
        // nothing listens on port 1, so the dial and its retry both fail
        // (a shut-down test server's port could be rebound by a parallel
        // test)
        let dead = RemoteDoc {
            addr: "127.0.0.1:1".into(),
            target: "d".into(),
            timeout: Duration::from_millis(200),
            conn: Mutex::new(None),
            utility: GlobalUtility::default(),
            indexed_len: 0,
            cached_substrings: 0,
        };
        let answers = dead.query_accumulator_batch(&[b"ab".as_slice(), b"c"]);
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[0].0.count(), 0);
        assert_eq!(answers[1].0.count(), 0);
    }
}
