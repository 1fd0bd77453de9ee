//! A minimal keep-alive HTTP/1.1 client: one connection, one request in
//! flight, responses framed by `Content-Length`.
//!
//! The server closes a connection after `max_requests_per_connection`
//! exchanges (the last response says `Connection: close`) or after an
//! idle timeout. Both are normal lifecycle events, not failures: the
//! client reconnects before the next request, and a request whose
//! kept-alive socket turns out to be closed before any response byte
//! arrived is retried once on a fresh connection.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Where a complete response sits in the receive buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// HTTP status code.
    pub status: u16,
    /// Offset of the first body byte (just past the blank line).
    pub body_start: usize,
    /// Offset just past the last body byte.
    pub end: usize,
    /// Whether the server announced `Connection: close`.
    pub close: bool,
}

/// Frames one response at the front of `buf`: `Ok(None)` while more
/// bytes are needed, `Err` for bytes that cannot be an HTTP/1.1
/// response with a `Content-Length` body.
pub fn frame_response(buf: &[u8]) -> Result<Option<Frame>, String> {
    let Some(head_len) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        if buf.len() > 64 * 1024 {
            return Err("response head exceeds 64 KiB".into());
        }
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_len]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.splitn(3, ' ');
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(format!("bad status line {status_line:?}"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut content_length = None;
    let mut close = false;
    for line in lines {
        let (name, value) = line.split_once(':').ok_or_else(|| format!("bad header {line:?}"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let len: usize = value.parse().map_err(|_| format!("bad Content-Length {value:?}"))?;
            if content_length.is_some_and(|old| old != len) {
                return Err("conflicting Content-Length headers".into());
            }
            content_length = Some(len);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.split(',').any(|token| token.trim().eq_ignore_ascii_case("close"));
        }
    }
    let len = content_length.ok_or("response without Content-Length")?;
    let body_start = head_len + 4;
    let end = body_start + len;
    Ok((buf.len() >= end).then_some(Frame { status, body_start, end, close }))
}

/// The value of header `name` in the response head at the front of
/// `buf` (case-insensitive name match).
pub fn header<'b>(buf: &'b [u8], frame: &Frame, name: &str) -> Option<&'b str> {
    let head = std::str::from_utf8(&buf[..frame.body_start]).ok()?;
    head.split("\r\n").skip(1).find_map(|line| {
        let (n, v) = line.split_once(':')?;
        n.trim().eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

/// Parses a `Server-Timing` value such as `queue;dur=0.012, engine;dur=1.500`
/// into `(stage, microseconds)` pairs. Entries without a parsable `dur`
/// are skipped.
pub fn parse_server_timing(value: &str) -> Vec<(String, f64)> {
    value
        .split(',')
        .filter_map(|entry| {
            let mut params = entry.split(';');
            let name = params.next()?.trim();
            let ms: f64 = params.find_map(|p| p.trim().strip_prefix("dur=")?.parse().ok())?;
            (!name.is_empty()).then(|| (name.to_string(), ms * 1000.0))
        })
        .collect()
}

/// One completed exchange.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The response body.
    pub body: Vec<u8>,
    /// The raw `Server-Timing` header, when present.
    pub server_timing: Option<String>,
    /// The `X-Request-Id` header, when present.
    pub request_id: Option<String>,
}

/// A keep-alive connection to one server.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// Fresh connections opened after the first (server-initiated
    /// closes). Counted, never failed.
    pub reconnects: u64,
    opened: bool,
}

impl Conn {
    /// A client for `addr`; connects lazily on the first request.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            buf: Vec::with_capacity(64 * 1024),
            reconnects: 0,
            opened: false,
        }
    }

    fn connect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        if self.opened {
            self.reconnects += 1;
        }
        self.opened = true;
        self.stream = Some(stream);
        self.buf.clear();
        Ok(())
    }

    /// Sends one request and waits for its complete response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        let mut wire = Vec::with_capacity(128 + body.len());
        write!(
            wire,
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        )?;
        wire.extend_from_slice(body);
        let reused = self.stream.is_some();
        match self.exchange(&wire) {
            // a kept-alive socket the server already closed: retry once
            Err(e) if reused && e.kind() == io::ErrorKind::ConnectionAborted => {
                self.stream = None;
                self.exchange(&wire)
            }
            other => other,
        }
    }

    fn exchange(&mut self, wire: &[u8]) -> io::Result<Reply> {
        if self.stream.is_none() {
            self.connect()?;
        }
        // the socket goes back into `self.stream` only after a clean,
        // kept-alive exchange; every error path drops it
        let mut stream = self.stream.take().expect("connected above");
        // a write or a first read that fails on a reused socket means the
        // peer closed it between exchanges; surfaced as ConnectionAborted
        let closed = |e: io::Error| match e.kind() {
            io::ErrorKind::BrokenPipe | io::ErrorKind::ConnectionReset => {
                io::Error::new(io::ErrorKind::ConnectionAborted, e)
            }
            _ => e,
        };
        stream.write_all(wire).map_err(closed)?;
        self.buf.clear();
        let mut chunk = [0u8; 64 * 1024];
        let frame = loop {
            if let Some(frame) = frame_response(&self.buf)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
            {
                break frame;
            }
            let n =
                stream
                    .read(&mut chunk)
                    .map_err(|e| if self.buf.is_empty() { closed(e) } else { e })?;
            if n == 0 {
                let kind = if self.buf.is_empty() {
                    io::ErrorKind::ConnectionAborted
                } else {
                    io::ErrorKind::UnexpectedEof
                };
                return Err(io::Error::new(kind, "server closed the connection"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        if frame.end != self.buf.len() {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bytes past the response"));
        }
        let reply = Reply {
            status: frame.status,
            body: self.buf[frame.body_start..frame.end].to_vec(),
            server_timing: header(&self.buf, &frame, "server-timing").map(str::to_string),
            request_id: header(&self.buf, &frame, "x-request-id").map(str::to_string),
        };
        if !frame.close {
            self.stream = Some(stream);
        }
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
        Content-Length: 2\r\nConnection: keep-alive\r\nX-Request-Id: 00ab\r\n\
        Server-Timing: queue;dur=0.010, engine;dur=1.250\r\n\r\n{}";

    #[test]
    fn frames_a_complete_response() {
        let frame = frame_response(OK).unwrap().unwrap();
        assert_eq!(frame.status, 200);
        assert!(!frame.close);
        assert_eq!(&OK[frame.body_start..frame.end], b"{}");
        assert_eq!(frame.end, OK.len());
        assert_eq!(header(OK, &frame, "X-REQUEST-ID"), Some("00ab"));
        assert_eq!(header(OK, &frame, "missing"), None);
    }

    #[test]
    fn every_strict_prefix_is_incomplete() {
        for cut in 0..OK.len() {
            assert_eq!(frame_response(&OK[..cut]), Ok(None), "prefix of {cut} bytes");
        }
    }

    #[test]
    fn frames_only_the_first_of_two_responses() {
        let mut two = OK.to_vec();
        two.extend_from_slice(OK);
        let frame = frame_response(&two).unwrap().unwrap();
        assert_eq!(frame.end, OK.len());
    }

    #[test]
    fn connection_close_is_reported() {
        let resp = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
        assert!(frame_response(resp).unwrap().unwrap().close);
        let resp = b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\nconnection: Keep-Alive, Close\r\n\r\n";
        assert!(frame_response(resp).unwrap().unwrap().close);
    }

    #[test]
    fn malformed_heads_are_errors() {
        assert!(frame_response(b"SMTP 220 hi\r\n\r\n").is_err());
        assert!(frame_response(b"HTTP/1.1 abc OK\r\n\r\n").is_err());
        assert!(frame_response(b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n").is_err());
        assert!(frame_response(b"HTTP/1.1 200 OK\r\nNoColon\r\nContent-Length: 0\r\n\r\n").is_err());
        assert!(frame_response(b"HTTP/1.1 200 OK\r\n\r\n").is_err(), "no Content-Length");
        let dup = b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab";
        assert!(frame_response(dup).is_err());
    }

    #[test]
    fn server_timing_is_parsed_to_microseconds() {
        let stages = parse_server_timing("queue;dur=0.010, engine;dur=1.250,serialize;dur=0");
        assert_eq!(
            stages,
            vec![("queue".into(), 10.0), ("engine".into(), 1250.0), ("serialize".into(), 0.0)]
        );
    }

    #[test]
    fn server_timing_skips_entries_without_duration() {
        let stages = parse_server_timing("cache, db;desc=\"x\";dur=2.5, ;dur=1, bad;dur=zz");
        assert_eq!(stages, vec![("db".into(), 2500.0)]);
        assert!(parse_server_timing("").is_empty());
    }
}
