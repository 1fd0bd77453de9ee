//! HTTP/1.1 message framing: where one message ends in a byte stream.
//!
//! [`frame`] is the only code that decides it. The server's request
//! reader, the serving loop's "is a whole request already buffered?"
//! test (a worker answers such a request before it re-arms the socket)
//! and the blocking client reader [`read_response`] (used by the shard
//! client `usi_repl::RemoteDoc`, the end-to-end tests and the benches)
//! all ask it, so they cannot disagree. The rules are RFC 9112 §§2.2,
//! 5.1 and 6.3, narrowed to what this API speaks:
//!
//! * empty lines (CRLF) before the start line are skipped;
//! * the head ends at the first empty line (CRLFCRLF) and is at most
//!   [`MAX_HEAD`] bytes, skipped CRLFs included;
//! * every head line ends in CRLF: a bare CR or LF is refused, as soon
//!   as the line holding it has arrived;
//! * a field line is `name:value`, with a non-empty name and no
//!   whitespace before the colon;
//! * the body is framed by `Content-Length` alone. Its value is
//!   `1*DIGIT` (RFC 9110 §8.6), repeated fields must agree, and no field
//!   means an empty body;
//! * `Transfer-Encoding` is refused: treating a chunked body as length 0
//!   would hand its bytes to the next pipelined parse (request
//!   smuggling).
//!
//! The server answers [`Frame::Bad`] with 400 and [`Frame::TooLarge`]
//! with 413, then closes the connection.

use std::io::{self, Read};

/// Longest accepted message head: start line, field lines, the blank
/// line and any CRLFs skipped before the start line.
pub const MAX_HEAD: usize = 16 * 1024;

/// Where the message at the front of a buffer ends, as found by
/// [`frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    /// Not a whole message yet. Once the head is complete,
    /// `body_missing` is the number of body bytes still to come (a
    /// reader fetches them with one sized read); `None` while the head
    /// itself is still arriving.
    Incomplete { body_missing: Option<usize> },
    /// One whole message: the head is `buf[..head_end]` (blank line
    /// included) and the body is the `body_len` bytes after it. Bytes
    /// past `head_end + body_len` belong to the next message.
    Complete { head_end: usize, body_len: usize },
    /// Not a well-formed message; the reason suits an error response.
    Bad(&'static str),
    /// The head exceeds [`MAX_HEAD`], or the body the caller's cap.
    TooLarge,
}

const BARE_CR_OR_LF: &str = "bare CR or LF in the message head";

/// Frames the message at the front of `buf`, whose body may be at most
/// `max_body` bytes. See the module docs for the rules.
pub fn frame(buf: &[u8], max_body: usize) -> Frame {
    let mut start = 0;
    while buf[start..].starts_with(b"\r\n") {
        start += 2;
    }
    let window = &buf[..buf.len().min(MAX_HEAD)];
    let mut content_length: Option<usize> = None;
    // line by line up to the blank one: the start line, whose readers
    // parse it (framing only needs it to end in CRLF), then one field
    // per line
    let mut next = start;
    let head_end = loop {
        let Some(lf) = window.get(next..).and_then(|rest| rest.iter().position(|&b| b == b'\n'))
        else {
            return if buf.len() >= MAX_HEAD {
                Frame::TooLarge
            } else {
                Frame::Incomplete { body_missing: None }
            };
        };
        let line = &window[next..next + lf + 1];
        let is_start_line = next == start;
        next += lf + 1;
        let Some(line) = line.strip_suffix(b"\r\n") else { return Frame::Bad(BARE_CR_OR_LF) };
        if line.contains(&b'\r') {
            return Frame::Bad(BARE_CR_OR_LF);
        }
        if line.is_empty() {
            break next;
        }
        if is_start_line {
            continue;
        }
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            return Frame::Bad("header line without a colon");
        };
        let name = &line[..colon];
        if name.is_empty() || name.iter().any(|&b| b == b' ' || b == b'\t') {
            return Frame::Bad("malformed header name");
        }
        if name.eq_ignore_ascii_case(b"content-length") {
            let Some(length) = parse_length(line[colon + 1..].trim_ascii()) else {
                return Frame::Bad("unparseable Content-Length");
            };
            if content_length.is_some_and(|seen| seen != length) {
                return Frame::Bad("conflicting Content-Length headers");
            }
            content_length = Some(length);
        } else if name.eq_ignore_ascii_case(b"transfer-encoding") {
            return Frame::Bad("Transfer-Encoding is not supported");
        }
    };

    let body_len = content_length.unwrap_or(0);
    let end = match head_end.checked_add(body_len) {
        Some(end) if body_len <= max_body => end,
        _ => return Frame::TooLarge,
    };
    if buf.len() < end {
        return Frame::Incomplete { body_missing: Some(end - buf.len()) };
    }
    Frame::Complete { head_end, body_len }
}

/// A `Content-Length` value: `1*DIGIT` that fits a `usize`.
fn parse_length(value: &[u8]) -> Option<usize> {
    if value.is_empty() || !value.iter().all(u8::is_ascii_digit) {
        return None;
    }
    std::str::from_utf8(value).ok()?.parse().ok()
}

/// Reads more of the message at the front of `buf` from `r`, as
/// [`Frame::Incomplete`] asks: the missing body bytes in one sized read
/// (an early EOF is an error), or, while the head is still arriving, one
/// read of at most 1 KiB, so a reader never buffers far past the head it
/// is framing. Returns the number of bytes added; 0 means EOF.
pub(crate) fn fill<R: Read>(
    r: &mut R,
    buf: &mut Vec<u8>,
    body_missing: Option<usize>,
) -> io::Result<usize> {
    let already = buf.len();
    if let Some(missing) = body_missing {
        buf.resize(already + missing, 0);
        if let Err(e) = r.read_exact(&mut buf[already..]) {
            buf.truncate(already);
            return Err(e);
        }
        return Ok(missing);
    }
    let mut chunk = [0u8; 1024];
    let got = r.read(&mut chunk)?;
    buf.extend_from_slice(&chunk[..got]);
    Ok(got)
}

/// Splits a head [`frame`] accepted, as text, into its start line and
/// its `(name, value)` fields, values trimmed.
pub(crate) fn head_lines(head: &str) -> (&str, impl Iterator<Item = (&str, &str)>) {
    let mut lines = head.trim_start_matches("\r\n").lines();
    let start_line = lines.next().unwrap_or_default();
    (start_line, lines.map_while(|line| line.split_once(':')).map(|(n, v)| (n, v.trim())))
}

/// Whether the connection stays open after a message of `version` with
/// these fields (RFC 9112 §9.3): for HTTP/1.1 unless `Connection` lists
/// `close`, for HTTP/1.0 only when it lists `keep-alive`.
pub(crate) fn keep_alive<'h>(
    version: &str,
    mut fields: impl Iterator<Item = (&'h str, &'h str)>,
) -> bool {
    let http10 = version == "HTTP/1.0";
    let token = if http10 { "keep-alive" } else { "close" };
    let listed = fields.any(|(name, value)| {
        name.eq_ignore_ascii_case("connection")
            && value.split(',').any(|t| t.trim().eq_ignore_ascii_case(token))
    });
    if http10 {
        listed
    } else {
        !listed
    }
}

/// A response read by [`read_response`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The status line and field lines, CRLF-separated, without the
    /// blank line.
    pub head: String,
    /// The response body.
    pub body: String,
    /// Whether the connection may carry another exchange.
    pub keep_alive: bool,
}

impl Reply {
    /// The value of the first header field called `name` (compared
    /// case-insensitively), trimmed.
    pub fn header(&self, name: &str) -> Option<&str> {
        head_lines(&self.head).1.find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v)
    }
}

/// Reads one response from `r`, framed by [`frame`] with no body cap:
/// shard fan-out answers can exceed the server's 4 MiB request cap.
/// `buf` carries bytes read past one response over to the next call;
/// with one request in flight it is left empty. Fails on EOF before a
/// whole response, on anything [`frame`] refuses, and on a status line
/// or body that is not HTTP/1.x text.
pub fn read_response<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> io::Result<Reply> {
    let invalid = |why: &str| io::Error::new(io::ErrorKind::InvalidData, why.to_string());
    let (head_end, body_len) = loop {
        match frame(buf, usize::MAX) {
            Frame::Complete { head_end, body_len } => break (head_end, body_len),
            Frame::Incomplete { body_missing } => {
                if fill(r, buf, body_missing)? == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed before a whole response",
                    ));
                }
            }
            Frame::Bad(why) => return Err(invalid(why)),
            Frame::TooLarge => return Err(invalid("response too large to frame")),
        }
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| invalid("response head is not UTF-8"))?
        .trim_matches(['\r', '\n']);
    let (status_line, fields) = head_lines(head);
    let mut parts = status_line.split(' ');
    let version = parts.next().filter(|v| *v == "HTTP/1.1" || *v == "HTTP/1.0");
    let status = parts.next().and_then(|code| code.parse::<u16>().ok());
    let (Some(version), Some(status)) = (version, status) else {
        return Err(invalid(&format!("bad status line {status_line:?}")));
    };
    let keep_alive = keep_alive(version, fields);
    let head = head.to_string();
    let body = String::from_utf8(buf[head_end..head_end + body_len].to_vec())
        .map_err(|_| invalid("response body is not UTF-8"))?;
    buf.drain(..head_end + body_len);
    Ok(Reply { status, head, body, keep_alive })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(head_end: usize, body_len: usize) -> Frame {
        Frame::Complete { head_end, body_len }
    }

    #[test]
    fn frames_heads_bodies_and_pipelined_leftovers() {
        let get = b"GET / HTTP/1.1\r\nHost: x\r\n\r\n";
        assert_eq!(frame(get, 0), complete(get.len(), 0));
        let post = b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
        assert_eq!(frame(post, 2), complete(post.len() - 2, 2));
        // a second message behind the first does not change the frame
        assert_eq!(frame(&[&post[..], get].concat(), 2), complete(post.len() - 2, 2));
        // leading CRLFs belong to the head; equal duplicates are fine
        let crlf = b"\r\n\r\nPOST / HTTP/1.1\r\nContent-Length: 1\r\ncontent-length:1\r\n\r\nx";
        assert_eq!(frame(crlf, 1), complete(crlf.len() - 1, 1));
        assert_eq!(frame(b"\r\n\r\n", 0), Frame::Incomplete { body_missing: None });
    }

    #[test]
    fn incomplete_until_the_last_byte_then_reports_the_missing_body() {
        let post = b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let head_end = post.len() - 5;
        for cut in 0..post.len() {
            let want = match cut {
                c if c < head_end => None,
                c => Some(post.len() - c),
            };
            assert_eq!(frame(&post[..cut], 5), Frame::Incomplete { body_missing: want }, "{cut}");
        }
        assert_eq!(frame(post, 5), complete(head_end, 5));
    }

    #[test]
    fn refuses_what_rfc_9112_refuses() {
        let bad = |head: &[u8]| match frame(head, 1 << 20) {
            Frame::Bad(why) => why,
            other => panic!("{:?} framed as {other:?}", String::from_utf8_lossy(head)),
        };
        assert_eq!(
            bad(b"POST / HTTP/1.1\r\nContent-Length: +2\r\n\r\nab"),
            "unparseable Content-Length"
        );
        assert_eq!(
            bad(b"POST / HTTP/1.1\r\nContent-Length: 2 2\r\n\r\n"),
            "unparseable Content-Length"
        );
        assert_eq!(
            bad(b"POST / HTTP/1.1\r\nContent-Length:\r\n\r\n"),
            "unparseable Content-Length"
        );
        assert_eq!(
            bad(b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 2\r\n\r\nab"),
            "conflicting Content-Length headers"
        );
        assert_eq!(
            bad(b"POST / HTTP/1.1\r\nContent-Length : 2\r\n\r\nab"),
            "malformed header name"
        );
        assert_eq!(bad(b"GET / HTTP/1.1\r\n Folded: x\r\n\r\n"), "malformed header name");
        assert_eq!(bad(b"GET / HTTP/1.1\r\n: x\r\n\r\n"), "malformed header name");
        assert_eq!(bad(b"GET / HTTP/1.1\r\nNoColon\r\n\r\n"), "header line without a colon");
        assert_eq!(bad(b"GET / HTTP/1.1\r\nX: a\nContent-Length: 3\r\n\r\n"), BARE_CR_OR_LF);
        assert_eq!(bad(b"GET / HTTP/1.1\nX: a\r\n\r\n"), BARE_CR_OR_LF);
        assert_eq!(bad(b"GET / HTTP/1.1\r\nX: a\rb\r\n\r\n"), BARE_CR_OR_LF);
        assert_eq!(bad(b"GET / HTTP/1.1\nX: a"), BARE_CR_OR_LF, "known before the head ends");
        assert_eq!(
            bad(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n"),
            "Transfer-Encoding is not supported"
        );
    }

    #[test]
    fn caps_the_head_and_the_body() {
        // a head of exactly MAX_HEAD bytes frames; one byte more does not
        let line = b"GET / HTTP/1.1\r\nX: ";
        let fits = [&line[..], &vec![b'a'; MAX_HEAD - line.len() - 4], b"\r\n\r\n"].concat();
        assert_eq!(fits.len(), MAX_HEAD);
        assert_eq!(frame(&fits, 0), complete(MAX_HEAD, 0));
        let over = [&line[..], &vec![b'a'; MAX_HEAD - line.len() - 3], b"\r\n\r\n"].concat();
        assert_eq!(frame(&over, 0), Frame::TooLarge);
        assert_eq!(frame(&over[..MAX_HEAD], 0), Frame::TooLarge, "known before the end arrives");
        assert_eq!(frame(&b"\r\n".repeat(MAX_HEAD), 0), Frame::TooLarge);

        let post = b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\n";
        assert_eq!(frame(post, 2), Frame::TooLarge);
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert_eq!(frame(huge.as_bytes(), usize::MAX), Frame::TooLarge);
        let overflow = b"POST / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n";
        assert_eq!(frame(overflow, usize::MAX), Frame::Bad("unparseable Content-Length"));
    }

    #[test]
    fn read_response_returns_status_head_body_and_keep_alive() {
        let wire = b"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\nX-Id: 7\r\n\r\n{}\
                     HTTP/1.0 200 OK\r\nConnection: Keep-Alive\r\n\r\n\
                     HTTP/1.1 200 OK\r\nConnection: x, close\r\nContent-Length: 1\r\n\r\n!";
        let mut reader = &wire[..];
        let mut buf = Vec::new();
        let reply = read_response(&mut reader, &mut buf).unwrap();
        assert_eq!(reply.status, 404);
        assert_eq!(reply.head, "HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\nX-Id: 7");
        assert_eq!(reply.header("x-id"), Some("7"));
        assert_eq!(reply.body, "{}");
        assert!(reply.keep_alive);
        let reply = read_response(&mut reader, &mut buf).unwrap();
        assert_eq!((reply.status, reply.body.as_str(), reply.keep_alive), (200, "", true));
        let reply = read_response(&mut reader, &mut buf).unwrap();
        assert_eq!((reply.body.as_str(), reply.keep_alive), ("!", false));
        assert!(buf.is_empty());
        assert_eq!(
            read_response(&mut reader, &mut buf).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn read_response_refuses_truncated_and_malformed_responses() {
        let fails =
            |wire: &[u8]| read_response(&mut &wire[..], &mut Vec::new()).unwrap_err().kind();
        use io::ErrorKind::{InvalidData, UnexpectedEof};
        assert_eq!(fails(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab"), UnexpectedEof);
        assert_eq!(fails(b"HTTP/1.1 200 OK\r\n"), UnexpectedEof);
        assert_eq!(fails(b"SMTP 220 hi\r\n\r\n"), InvalidData);
        assert_eq!(fails(b"HTTP/1.1 abc OK\r\n\r\n"), InvalidData);
        assert_eq!(fails(b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n"), InvalidData);
        assert_eq!(fails(b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n\xff"), InvalidData);
    }
}
