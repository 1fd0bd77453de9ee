//! The replication wire protocol: a thin, length-prefixed binary
//! framing over TCP, little-endian throughout (matching the `.usil`
//! WAL encoding it carries).
//!
//! One connection replicates one document:
//!
//! ```text
//! follower → primary   Hello  { magic, doc id, resume offset }
//! primary  → follower  Ack    { status, committed bytes, committed records }
//! primary  → follower  Frame… { Records | Heartbeat }   (forever)
//! ```
//!
//! A `Records` frame carries **raw WAL record bytes** — the exact
//! length-prefixed, CRC'd encoding `usi_ingest::wal` wrote on the
//! primary — so the follower re-verifies every record with the same
//! parser the primary's crash recovery uses. The resume offset is a
//! byte offset into the WAL file, which makes reconnect idempotent:
//! a follower that applied through byte `b` asks for `b` and the
//! stream continues exactly there.

use std::io::{self, Read, Write};

/// Handshake magic: protocol name + version, one bump per breaking
/// change (mirrors the WAL's own `USIL` magic).
pub const HELLO_MAGIC: [u8; 8] = *b"USIR\x01\x00\x00\x00";

/// Longest accepted document id in a hello.
pub const MAX_DOC_ID: usize = 256;

/// Longest accepted `Records` frame payload; matches the WAL's own
/// per-record cap so any single record always fits.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Frame tags.
const TAG_RECORDS: u8 = 1;
const TAG_HEARTBEAT: u8 = 2;

/// The follower's opening message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The document to replicate.
    pub doc: String,
    /// WAL byte offset to resume from (`0` means "from the start").
    pub offset: u64,
}

/// The primary's verdict on a hello.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckStatus {
    /// Streaming begins after the ack.
    Ok,
    /// The primary does not serve (or cannot ship) that document.
    UnknownDoc,
    /// The requested offset is beyond the committed WAL or inside the
    /// file header — the follower must restart from scratch.
    BadOffset,
}

impl AckStatus {
    fn to_byte(self) -> u8 {
        match self {
            Self::Ok => 0,
            Self::UnknownDoc => 1,
            Self::BadOffset => 2,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0 => Self::Ok,
            1 => Self::UnknownDoc,
            2 => Self::BadOffset,
            _ => return None,
        })
    }
}

/// The primary's reply to a [`Hello`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// Whether streaming will follow.
    pub status: AckStatus,
    /// Committed WAL bytes on the primary at ack time.
    pub committed_bytes: u64,
    /// Committed WAL records on the primary at ack time.
    pub committed_records: u64,
}

/// One primary → follower message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Whole WAL records, framing and CRCs intact, starting at byte
    /// `start` of the WAL file.
    Records {
        /// WAL byte offset of the first record in `bytes`.
        start: u64,
        /// How many records `bytes` holds.
        records: u32,
        /// The raw record bytes as written by the primary.
        bytes: Vec<u8>,
    },
    /// No new records; carries the primary's current committed state so
    /// the follower's lag gauges stay fresh while idle.
    Heartbeat {
        /// Committed WAL bytes on the primary.
        committed_bytes: u64,
        /// Committed WAL records on the primary.
        committed_records: u64,
    },
}

fn bad(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Writes a [`Hello`] (follower side).
pub fn write_hello(w: &mut impl Write, hello: &Hello) -> io::Result<()> {
    debug_assert!(hello.doc.len() <= MAX_DOC_ID);
    w.write_all(&HELLO_MAGIC)?;
    w.write_all(&(hello.doc.len() as u32).to_le_bytes())?;
    w.write_all(hello.doc.as_bytes())?;
    w.write_all(&hello.offset.to_le_bytes())?;
    w.flush()
}

/// Reads a [`Hello`] (primary side), validating magic and id length.
pub fn read_hello(r: &mut impl Read) -> io::Result<Hello> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic != HELLO_MAGIC {
        return Err(bad(format!("bad replication hello magic {magic:02x?}")));
    }
    let id_len = read_u32(r)? as usize;
    if id_len > MAX_DOC_ID {
        return Err(bad(format!("doc id length {id_len} exceeds {MAX_DOC_ID}")));
    }
    let mut id = vec![0u8; id_len];
    r.read_exact(&mut id)?;
    let doc = String::from_utf8(id).map_err(|_| bad("doc id is not UTF-8".into()))?;
    let offset = read_u64(r)?;
    Ok(Hello { doc, offset })
}

/// Writes an [`Ack`] (primary side).
pub fn write_ack(w: &mut impl Write, ack: &Ack) -> io::Result<()> {
    w.write_all(&[ack.status.to_byte()])?;
    w.write_all(&ack.committed_bytes.to_le_bytes())?;
    w.write_all(&ack.committed_records.to_le_bytes())?;
    w.flush()
}

/// Reads an [`Ack`] (follower side).
pub fn read_ack(r: &mut impl Read) -> io::Result<Ack> {
    let mut status = [0u8; 1];
    r.read_exact(&mut status)?;
    let status = AckStatus::from_byte(status[0])
        .ok_or_else(|| bad(format!("unknown ack status {}", status[0])))?;
    let committed_bytes = read_u64(r)?;
    let committed_records = read_u64(r)?;
    Ok(Ack { status, committed_bytes, committed_records })
}

/// Writes one [`Frame`] (primary side).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    match frame {
        Frame::Records { start, records, bytes } => {
            debug_assert!(bytes.len() <= MAX_FRAME_BYTES);
            w.write_all(&[TAG_RECORDS])?;
            w.write_all(&start.to_le_bytes())?;
            w.write_all(&records.to_le_bytes())?;
            w.write_all(&(bytes.len() as u32).to_le_bytes())?;
            w.write_all(bytes)?;
        }
        Frame::Heartbeat { committed_bytes, committed_records } => {
            w.write_all(&[TAG_HEARTBEAT])?;
            w.write_all(&committed_bytes.to_le_bytes())?;
            w.write_all(&committed_records.to_le_bytes())?;
        }
    }
    w.flush()
}

/// Reads one [`Frame`] (follower side), enforcing the payload cap.
pub fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    match tag[0] {
        TAG_RECORDS => {
            let start = read_u64(r)?;
            let records = read_u32(r)?;
            let len = read_u32(r)? as usize;
            if len > MAX_FRAME_BYTES {
                return Err(bad(format!("records frame of {len} bytes exceeds cap")));
            }
            let mut bytes = vec![0u8; len];
            r.read_exact(&mut bytes)?;
            Ok(Frame::Records { start, records, bytes })
        }
        TAG_HEARTBEAT => {
            let committed_bytes = read_u64(r)?;
            let committed_records = read_u64(r)?;
            Ok(Frame::Heartbeat { committed_bytes, committed_records })
        }
        t => Err(bad(format!("unknown replication frame tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A document id of at most `MAX_DOC_ID` UTF-8 bytes, mixing ASCII
    /// with multi-byte characters.
    fn doc_id(code_points: &[u32]) -> String {
        let mut id = String::new();
        for &c in code_points {
            let c = char::from_u32(c).unwrap_or('\u{fffd}');
            if id.len() + c.len_utf8() > MAX_DOC_ID {
                break;
            }
            id.push(c);
        }
        id
    }

    /// Asserts that `read` parses `bytes` back to `value` and consumes
    /// all of it, and that every strict prefix is an error.
    fn round_trips<T: PartialEq + std::fmt::Debug>(
        bytes: &[u8],
        value: &T,
        read: impl Fn(&mut &[u8]) -> io::Result<T>,
    ) -> Result<(), TestCaseError> {
        let mut rest = bytes;
        let parsed = read(&mut rest);
        prop_assert!(parsed.as_ref().is_ok_and(|p| p == value), "{parsed:?} != {value:?}");
        prop_assert!(rest.is_empty(), "{} bytes left unread", rest.len());
        for cut in 0..bytes.len() {
            let parsed = read(&mut &bytes[..cut]);
            prop_assert!(parsed.is_err(), "prefix {cut}/{} parsed as {parsed:?}", bytes.len());
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn hellos_round_trip_and_prefixes_fail(
            code_points in proptest::collection::vec(
                prop_oneof![0u32..0x80, 0u32..0x11_0000],
                0..MAX_DOC_ID + 1,
            ),
            offset in any::<u64>(),
        ) {
            let hello = Hello { doc: doc_id(&code_points), offset };
            let mut buf = Vec::new();
            write_hello(&mut buf, &hello).unwrap();
            round_trips(&buf, &hello, |r| read_hello(r))?;
        }

        #[test]
        fn acks_round_trip_and_prefixes_fail(
            status in 0u8..3,
            committed_bytes in any::<u64>(),
            committed_records in any::<u64>(),
        ) {
            let status = AckStatus::from_byte(status).unwrap();
            let ack = Ack { status, committed_bytes, committed_records };
            let mut buf = Vec::new();
            write_ack(&mut buf, &ack).unwrap();
            round_trips(&buf, &ack, |r| read_ack(r))?;
        }

        #[test]
        fn frames_round_trip_and_prefixes_fail(
            records_frame in any::<bool>(),
            a in any::<u64>(),
            b in any::<u64>(),
            bytes in proptest::collection::vec(any::<u8>(), 0..4096),
        ) {
            let frame = if records_frame {
                Frame::Records { start: a, records: b as u32, bytes }
            } else {
                Frame::Heartbeat { committed_bytes: a, committed_records: b }
            };
            let mut buf = Vec::new();
            write_frame(&mut buf, &frame).unwrap();
            round_trips(&buf, &frame, |r| read_frame(r))?;
        }

        /// Lengths over the caps are refused from the length field alone,
        /// before any payload is read or allocated.
        #[test]
        fn lengths_over_the_caps_are_refused(
            frame_len in (MAX_FRAME_BYTES as u32 + 1)..=u32::MAX,
            id_len in (MAX_DOC_ID as u32 + 1)..=u32::MAX,
        ) {
            let mut frame = vec![TAG_RECORDS];
            frame.extend_from_slice(&8u64.to_le_bytes());
            frame.extend_from_slice(&1u32.to_le_bytes());
            frame.extend_from_slice(&frame_len.to_le_bytes());
            let err = read_frame(&mut &frame[..]).unwrap_err();
            prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);

            let mut hello = HELLO_MAGIC.to_vec();
            hello.extend_from_slice(&id_len.to_le_bytes());
            let err = read_hello(&mut &hello[..]).unwrap_err();
            prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn hello_ack_and_frames_round_trip() {
        // an id of exactly `MAX_DOC_ID` bytes is still accepted
        for doc in ["docs/1".to_string(), "x".repeat(MAX_DOC_ID)] {
            let hello = Hello { doc, offset: 4096 };
            let mut buf = Vec::new();
            write_hello(&mut buf, &hello).unwrap();
            assert_eq!(read_hello(&mut &buf[..]).unwrap(), hello);
        }

        for status in [AckStatus::Ok, AckStatus::UnknownDoc, AckStatus::BadOffset] {
            let ack = Ack { status, committed_bytes: 99, committed_records: 7 };
            let mut buf = Vec::new();
            write_ack(&mut buf, &ack).unwrap();
            assert_eq!(read_ack(&mut &buf[..]).unwrap(), ack);
        }

        let frames = [
            Frame::Records { start: 8, records: 3, bytes: vec![1, 2, 3, 4] },
            Frame::Heartbeat { committed_bytes: 1234, committed_records: 56 },
        ];
        let mut buf = Vec::new();
        for frame in &frames {
            write_frame(&mut buf, frame).unwrap();
        }
        let mut r = &buf[..];
        for frame in &frames {
            assert_eq!(&read_frame(&mut r).unwrap(), frame);
        }
        // the stream is fully consumed
        assert!(r.is_empty());
    }

    #[test]
    fn malformed_input_is_rejected() {
        // wrong magic
        let mut buf = Vec::new();
        write_hello(&mut buf, &Hello { doc: "d".into(), offset: 0 }).unwrap();
        buf[0] = b'X';
        assert!(read_hello(&mut &buf[..]).is_err());
        // oversized doc id length
        let mut buf = Vec::new();
        buf.extend_from_slice(&HELLO_MAGIC);
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_hello(&mut &buf[..]).is_err());
        // unknown frame tag
        assert!(read_frame(&mut &[9u8, 0, 0][..]).is_err());
        // truncated frame
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Records { start: 8, records: 1, bytes: vec![0; 16] })
            .unwrap();
        buf.truncate(buf.len() - 1);
        assert!(read_frame(&mut &buf[..]).is_err());
        // oversized records frame is refused before allocation
        let mut buf = vec![1u8];
        buf.extend_from_slice(&8u64.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
        // unknown ack status
        let mut buf = vec![7u8];
        buf.extend_from_slice(&[0u8; 16]);
        assert!(read_ack(&mut &buf[..]).is_err());
    }
}
