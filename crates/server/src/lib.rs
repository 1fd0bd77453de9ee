//! `usi_server` — the serving layer for Useful String Indexing: many
//! [`UsiIndex`](usi_core::UsiIndex)es behind one long-running process.
//!
//! The crate is dependency-free (std only, like the rest of the
//! workspace) and splits into three layers:
//!
//! * [`catalog`] — a sharded multi-index registry ([`Catalog`]): loads
//!   in-process builds, or `.usix` files and directories through one
//!   loader ([`open_corpus`]) that validates every file of a corpus
//!   concurrently, hosts live ingest-enabled
//!   documents (`usi_ingest::IngestPipeline` behind
//!   `POST /v1/docs/{id}/append`), routes queries by document id
//!   straight to each document's engine, fans out across every
//!   document, and runs each query batch inline unless it holds at
//!   least 320 lookups (patterns × documents) per thread — larger
//!   batches, and fan-outs over remote shards or followers, spread over
//!   `std::thread::scope` workers;
//! * [`json`] — a hand-rolled JSON value/parser/encoder plus the API
//!   encodings shared by the server, the CLI's `--json` mode and the
//!   end-to-end tests;
//! * [`http`] — a minimal HTTP/1.1 front end on
//!   `std::net::TcpListener`: a fixed set of worker threads that take
//!   turns on one epoll set (Linux; elsewhere each blocks in `accept()`
//!   and serves a connection to its end), with graceful shutdown;
//!   [`framing`] decides where each message ends, for the server and
//!   for the blocking client reader [`read_response`].
//!
//! ```no_run
//! use std::net::TcpListener;
//! use std::sync::Arc;
//! use usi_server::{serve, Catalog, ServerConfig};
//!
//! let catalog = Arc::new(Catalog::new(8));
//! catalog.load_path(std::path::Path::new("indexes/")).unwrap();
//! let listener = TcpListener::bind("127.0.0.1:7878").unwrap();
//! let handle = serve(catalog, listener, ServerConfig::with_workers(4)).unwrap();
//! println!("listening on {}", handle.addr());
//! // … handle.shutdown() stops accepting and joins every thread
//! ```

pub mod catalog;
pub mod framing;
pub mod http;
pub mod json;
pub(crate) mod metrics;
pub(crate) mod reactor;

pub use catalog::{
    open_corpus, AppendError, Catalog, CatalogError, CorpusFile, Doc, FanOut, LoadOptions,
    ReloadError, ReplicationStatus, Role,
};
pub use framing::{read_response, Reply};
pub use http::{respond, serve, AccessLog, Response, ServerConfig, ServerHandle};
pub use json::{Json, JsonError};
