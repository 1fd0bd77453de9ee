//! The `.usil` write-ahead log: appended letters hit disk before they
//! hit memory, so a crash loses nothing that was acknowledged.
//!
//! Layout (`USIL` format, version 1), little-endian throughout:
//!
//! ```text
//! magic   b"USIL\x01\x00\x00\x00"
//! record* each:
//!   u32   payload length
//!   u8    tag (1 = append batch)
//!   u32   letter count c           ─┐
//!   [u8]  letters (c bytes)         ├ the payload
//!   [f64] weights (c doubles)      ─┘
//!   u32   CRC-32 (IEEE) of the payload
//! ```
//!
//! Recovery contract: **any byte-truncation of a log replays to a valid
//! prefix state** (proptested in `tests/wal_torture.rs`). Replay walks
//! records until the first incomplete or checksum-failing one, returns
//! everything before it, and reports the byte offset of the clean
//! prefix; [`Wal::open`] truncates the file there before appending, so
//! a torn tail from a crash can never corrupt later records.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic: `USIL`, format version 1.
pub const MAGIC: [u8; 8] = *b"USIL\x01\x00\x00\x00";

/// Record tag: a batch of appended weighted letters.
const TAG_APPEND: u8 = 1;

/// Upper bound on one record's payload (sanity check against reading a
/// garbage length field as a huge allocation).
const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ 0xedb8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `data` — the per-record checksum.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// One replayed append batch.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The appended letters.
    pub text: Vec<u8>,
    /// One weight per letter.
    pub weights: Vec<f64>,
}

/// Errors raised while opening or replaying a log.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file exists, is at least magic-sized, and is not a USIL log.
    BadMagic,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::BadMagic => write!(f, "not a USIL v1 write-ahead log"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Outcome of replaying a log file.
#[derive(Debug)]
pub struct Replay {
    /// The cleanly recovered append batches, in log order.
    pub records: Vec<WalRecord>,
    /// Byte length of the clean prefix (magic + whole valid records).
    pub valid_len: u64,
    /// Whether a torn/corrupt tail was dropped past `valid_len`.
    pub truncated: bool,
}

/// Parses one record from `bytes[pos..]`. Returns `Some((record, end))`
/// when a complete, checksum-valid record starts at `pos`.
fn parse_record(bytes: &[u8], pos: usize) -> Option<(WalRecord, usize)> {
    let len_end = pos.checked_add(4)?;
    let payload_len = u32::from_le_bytes(bytes.get(pos..len_end)?.try_into().ok()?) as usize;
    if payload_len as u64 > MAX_PAYLOAD as u64 {
        return None;
    }
    let payload_end = len_end.checked_add(payload_len)?;
    let crc_end = payload_end.checked_add(4)?;
    let payload = bytes.get(len_end..payload_end)?;
    let stored_crc = u32::from_le_bytes(bytes.get(payload_end..crc_end)?.try_into().ok()?);
    if crc32(payload) != stored_crc {
        return None;
    }
    // decode the payload: tag, count, letters, weights
    if payload.len() < 5 || payload[0] != TAG_APPEND {
        return None;
    }
    let count = u32::from_le_bytes(payload[1..5].try_into().ok()?) as usize;
    if payload.len() != 5 + count + 8 * count {
        return None;
    }
    let text = payload[5..5 + count].to_vec();
    let weights = payload[5 + count..]
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
        .collect::<Vec<f64>>();
    if weights.iter().any(|w| !w.is_finite()) {
        return None;
    }
    Some((WalRecord { text, weights }, crc_end))
}

/// Parses one record starting at byte `pos` of a log image (`pos` must
/// sit on a record boundary — [`MAGIC`]`.len()` for the first record).
/// Returns `Some((record, end))` when a complete, checksum-valid record
/// starts there; `None` for a torn, corrupt or absent record. This is
/// the replication follower's verification primitive: every shipped
/// record re-runs the same CRC and shape checks replay uses.
pub fn parse_record_at(bytes: &[u8], pos: usize) -> Option<(WalRecord, usize)> {
    parse_record(bytes, pos)
}

/// A chunk of whole records read from a log's tail by [`read_tail`].
#[derive(Debug)]
pub struct TailChunk {
    /// Raw record bytes (length + payload + CRC framing intact), i.e.
    /// exactly the log bytes in `[from, end)` — zero or more complete
    /// records, shippable as-is.
    pub bytes: Vec<u8>,
    /// Number of complete records in `bytes`.
    pub records: u64,
    /// Byte offset the chunk ends at (the next record boundary).
    pub end: u64,
}

/// Reads whole records from the log at `path`, starting at byte `from`
/// (a record boundary; pass `0` to start at the first record) and never
/// past `committed` (the writer's clean length — bytes past it may be a
/// torn tail still being written). At most ~`max_bytes` are returned,
/// but always at least one complete record when one exists, so a
/// record larger than `max_bytes` cannot stall a shipper. This is the
/// primary-side tailing primitive of WAL shipping: offsets are stable
/// file positions, so a follower can disconnect and resume by offset.
pub fn read_tail(
    path: &Path,
    from: u64,
    committed: u64,
    max_bytes: usize,
) -> Result<TailChunk, WalError> {
    use std::io::Read;
    let from = if from == 0 { MAGIC.len() as u64 } else { from };
    if from < MAGIC.len() as u64 || from > committed {
        return Err(WalError::Io(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("offset {from} outside the committed log [{}, {committed}]", MAGIC.len()),
        )));
    }
    if from == committed {
        return Ok(TailChunk { bytes: Vec::new(), records: 0, end: from });
    }
    let mut file = File::open(path)?;
    let mut want = max_bytes.max(1).min((committed - from) as usize);
    loop {
        file.seek(SeekFrom::Start(from))?;
        let mut buf = vec![0u8; want];
        let mut filled = 0;
        while filled < buf.len() {
            match file.read(&mut buf[filled..])? {
                0 => break,
                n => filled += n,
            }
        }
        buf.truncate(filled);
        // keep only whole records; a record split by the read window is
        // picked up by the next (possibly enlarged) read
        let mut pos = 0;
        let mut records = 0u64;
        while let Some((_, end)) = parse_record(&buf, pos) {
            pos = end;
            records += 1;
        }
        if records > 0 {
            buf.truncate(pos);
            return Ok(TailChunk { bytes: buf, records, end: from + pos as u64 });
        }
        // no complete record fit in the window: the committed region
        // holds a record bigger than `want` — double and retry
        if want as u64 >= committed - from {
            return Err(WalError::Io(io::Error::other(format!(
                "no complete record at committed offset {from} (log corrupt past the \
                 writer's clean length?)"
            ))));
        }
        want = want.saturating_mul(2).min((committed - from) as usize);
    }
}

/// Replays the log in `bytes`: all complete records before the first
/// torn or corrupt one.
pub fn replay_bytes(bytes: &[u8]) -> Result<Replay, WalError> {
    if bytes.len() < MAGIC.len() {
        // a truncation inside the magic itself: the prefix state is
        // "nothing was ever logged" — only accept actual magic prefixes
        // so a wrong file type still fails loudly
        if MAGIC.starts_with(bytes) {
            return Ok(Replay { records: Vec::new(), valid_len: 0, truncated: !bytes.is_empty() });
        }
        return Err(WalError::BadMagic);
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(WalError::BadMagic);
    }
    let mut records = Vec::new();
    let mut pos = MAGIC.len();
    while pos < bytes.len() {
        match parse_record(bytes, pos) {
            Some((record, end)) => {
                records.push(record);
                pos = end;
            }
            None => {
                return Ok(Replay { records, valid_len: pos as u64, truncated: true });
            }
        }
    }
    Ok(Replay { records, valid_len: pos as u64, truncated: false })
}

/// Replays the log file at `path`. A missing file replays to the empty
/// state (nothing was ever logged).
pub fn replay_file(path: &Path) -> Result<Replay, WalError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(Replay { records: Vec::new(), valid_len: 0, truncated: false })
        }
        Err(e) => return Err(e.into()),
    };
    replay_bytes(&bytes)
}

/// Most letters packed into one record: `5 + 9 · count` payload bytes
/// stay far below [`MAX_PAYLOAD`], so the write path can never emit a
/// record the read path would refuse as corrupt. Larger appends are
/// split across records (replay concatenates them in order).
const MAX_RECORD_LETTERS: usize = 1 << 20;

/// Appends the record encoding of one batch of weighted letters to
/// `out`: the bytes [`Wal::append`] writes, split into 1 Mi-letter
/// records so every record stays replayable below the reader's payload
/// cap.
///
/// # Panics
/// Panics if `text` and `weights` lengths differ (callers validate
/// input at the API boundary).
pub fn encode_records(text: &[u8], weights: &[f64], out: &mut Vec<u8>) {
    assert_eq!(text.len(), weights.len(), "one weight per appended letter");
    out.reserve(12 + text.len() + 8 * weights.len());
    for (text, weights) in text.chunks(MAX_RECORD_LETTERS).zip(weights.chunks(MAX_RECORD_LETTERS)) {
        let mut payload = Vec::with_capacity(5 + text.len() + 8 * weights.len());
        payload.push(TAG_APPEND);
        payload.extend_from_slice(&(text.len() as u32).to_le_bytes());
        payload.extend_from_slice(text);
        for &w in weights {
            payload.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
    }
}

/// An open, append-only log handle.
///
/// Every [`Wal::append`] writes complete records and (with
/// `sync = true`, the default everywhere durability matters) calls
/// `fdatasync` before returning, so an acknowledged append survives a
/// process kill. A failed write rolls the file back to the last clean
/// record boundary; if even the rollback fails the handle poisons
/// itself and refuses further appends (the file may hold a mid-log
/// tear that replay would truncate at, silently dropping anything
/// written after it).
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    len: u64,
    sync: bool,
    poisoned: bool,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, replaying whatever
    /// it already holds. A torn tail from a previous crash is truncated
    /// away before the handle is returned, so new records always start
    /// on a clean record boundary.
    pub fn open(path: &Path, sync: bool) -> Result<(Self, Replay), WalError> {
        let replay = replay_file(path)?;
        // truncate(false): the clean prefix must survive; the explicit
        // set_len below handles the torn tail
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let clean_len = if replay.valid_len == 0 {
            // fresh (or magic-truncated) file: (re)write the magic
            file.set_len(0)?;
            file.write_all(&MAGIC)?;
            MAGIC.len() as u64
        } else {
            file.set_len(replay.valid_len)?;
            replay.valid_len
        };
        file.seek(SeekFrom::Start(clean_len))?;
        if sync {
            file.sync_data()?;
        }
        Ok((Self { file, path: path.to_path_buf(), len: clean_len, sync, poisoned: false }, replay))
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current log size in bytes (magic + clean records).
    pub fn bytes(&self) -> u64 {
        self.len
    }

    /// Appends one batch of weighted letters, encoded by
    /// [`encode_records`], durably when the handle was opened with
    /// `sync = true`. One fsync covers the whole batch; `Ok` means the
    /// entire batch is on disk, `Err` means none of it is acknowledged
    /// (a crash may still persist a leading whole-record prefix — a
    /// valid prefix state).
    ///
    /// # Panics
    /// Panics if `text` and `weights` lengths differ (callers validate
    /// input at the API boundary).
    pub fn append(&mut self, text: &[u8], weights: &[f64]) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "write-ahead log poisoned by an earlier unrecoverable write failure",
            ));
        }
        let mut batch = Vec::new();
        encode_records(text, weights, &mut batch);
        let result = self.file.write_all(&batch).and_then(|()| {
            if self.sync {
                let started = std::time::Instant::now();
                let synced = self.file.sync_data();
                crate::metrics::ingest().wal_fsync_seconds.observe_duration(started.elapsed());
                synced
            } else {
                Ok(())
            }
        });
        match result {
            Ok(()) => {
                self.len += batch.len() as u64;
                let m = crate::metrics::ingest();
                m.wal_bytes_written_total.add(batch.len() as u64);
                m.wal_appends_total.inc();
                Ok(())
            }
            Err(e) => {
                // roll the file back to the last clean record boundary
                // so a later successful append cannot land after a tear
                // that replay would stop at
                let rolled = self
                    .file
                    .set_len(self.len)
                    .and_then(|()| self.file.seek(SeekFrom::Start(self.len)).map(|_| ()));
                if rolled.is_err() {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp_dir::TempDir;

    /// A fresh directory for one test (removed on drop) and the log
    /// path `name` in it.
    fn tmp(name: &str) -> (TempDir, PathBuf) {
        let dir = TempDir::new(&format!("usi-wal-tests-{name}"));
        let path = dir.join(name);
        (dir, path)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // standard IEEE CRC-32 check values
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn append_then_replay_roundtrips() {
        let (_dir, path) = tmp("roundtrip.usil");
        let (mut wal, replay) = Wal::open(&path, false).unwrap();
        assert!(replay.records.is_empty());
        wal.append(b"abc", &[1.0, 2.0, 3.0]).unwrap();
        wal.append(b"", &[]).unwrap(); // empty appends write no record
        wal.append(b"z", &[-0.5]).unwrap();
        let bytes = wal.bytes();
        drop(wal);

        let replay = replay_file(&path).unwrap();
        assert!(!replay.truncated);
        assert_eq!(replay.valid_len, bytes);
        assert_eq!(replay.records.len(), 2);
        assert_eq!(
            replay.records[0],
            WalRecord { text: b"abc".to_vec(), weights: vec![1.0, 2.0, 3.0] }
        );
        assert_eq!(replay.records[1].weights, vec![-0.5]);
    }

    #[test]
    fn reopen_appends_after_existing_records() {
        let (_dir, path) = tmp("reopen.usil");
        let (mut wal, _) = Wal::open(&path, false).unwrap();
        wal.append(b"ab", &[1.0, 1.0]).unwrap();
        drop(wal);
        let (mut wal, replay) = Wal::open(&path, false).unwrap();
        assert_eq!(replay.records.len(), 1);
        wal.append(b"cd", &[2.0, 2.0]).unwrap();
        drop(wal);
        let replay = replay_file(&path).unwrap();
        let text: Vec<u8> = replay.records.iter().flat_map(|r| r.text.clone()).collect();
        assert_eq!(text, b"abcd");
    }

    #[test]
    fn oversized_appends_split_into_replayable_records() {
        let (_dir, path) = tmp("split.usil");
        let (mut wal, _) = Wal::open(&path, false).unwrap();
        let n = MAX_RECORD_LETTERS + 17;
        let text: Vec<u8> = (0..n).map(|i| b'a' + (i % 3) as u8).collect();
        wal.append(&text, &vec![1.0; n]).unwrap();
        drop(wal);
        let replay = replay_file(&path).unwrap();
        assert!(!replay.truncated, "every split record must be replayable");
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[0].text.len(), MAX_RECORD_LETTERS);
        assert_eq!(replay.records[1].text.len(), 17);
        let got: Vec<u8> = replay.records.iter().flat_map(|r| r.text.clone()).collect();
        assert_eq!(got, text);
        assert_eq!(replay.records.iter().map(|r| r.weights.len()).sum::<usize>(), n);
    }

    #[test]
    fn torn_tail_recovers_to_clean_prefix() {
        let (_dir, path) = tmp("torn.usil");
        let (mut wal, _) = Wal::open(&path, false).unwrap();
        wal.append(b"abc", &[1.0; 3]).unwrap();
        let clean = wal.bytes();
        wal.append(b"defg", &[2.0; 4]).unwrap();
        drop(wal);
        // tear the second record in half
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(clean as usize + 7);
        std::fs::write(&path, &bytes).unwrap();

        let replay = replay_file(&path).unwrap();
        assert!(replay.truncated);
        assert_eq!(replay.valid_len, clean);
        assert_eq!(replay.records.len(), 1);

        // reopening truncates the torn tail and appends cleanly
        let (mut wal, _) = Wal::open(&path, false).unwrap();
        assert_eq!(wal.bytes(), clean);
        wal.append(b"hi", &[3.0; 2]).unwrap();
        drop(wal);
        let replay = replay_file(&path).unwrap();
        assert!(!replay.truncated);
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[1].text, b"hi");
    }

    #[test]
    fn corrupt_checksum_stops_replay() {
        let (_dir, path) = tmp("corrupt.usil");
        let (mut wal, _) = Wal::open(&path, false).unwrap();
        wal.append(b"abc", &[1.0; 3]).unwrap();
        wal.append(b"def", &[1.0; 3]).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xff; // flip a bit in the last record's CRC
        std::fs::write(&path, &bytes).unwrap();
        let replay = replay_file(&path).unwrap();
        assert!(replay.truncated);
        assert_eq!(replay.records.len(), 1);
    }

    #[test]
    fn read_tail_ships_whole_records_by_offset() {
        let (_dir, path) = tmp("tail.usil");
        let (mut wal, _) = Wal::open(&path, false).unwrap();
        wal.append(b"abc", &[1.0; 3]).unwrap();
        let first_end = wal.bytes();
        wal.append(b"defgh", &[2.0; 5]).unwrap();
        wal.append(b"i", &[3.0]).unwrap();
        let committed = wal.bytes();
        drop(wal);

        // from 0 (≡ the first record boundary), a big window takes all
        let all = read_tail(&path, 0, committed, 1 << 20).unwrap();
        assert_eq!(all.records, 3);
        assert_eq!(all.end, committed);
        // the chunk's bytes re-parse with the same primitive a
        // follower verifies with
        let (rec, end) = parse_record_at(&all.bytes, 0).unwrap();
        assert_eq!(rec.text, b"abc");
        assert_eq!(end as u64 + MAGIC.len() as u64, first_end);

        // a tiny window still makes progress: at least one record
        let small = read_tail(&path, 0, committed, 1).unwrap();
        assert_eq!(small.records, 1);
        assert_eq!(small.end, first_end);
        // resuming from the returned offset continues cleanly
        let rest = read_tail(&path, small.end, committed, 1 << 20).unwrap();
        assert_eq!(rest.records, 2);
        assert_eq!(rest.end, committed);
        // caught-up reads are empty, not errors
        let done = read_tail(&path, committed, committed, 1 << 20).unwrap();
        assert_eq!(done.records, 0);
        assert!(done.bytes.is_empty());
        // offsets outside the committed range are refused
        assert!(read_tail(&path, committed + 1, committed, 64).is_err());
        assert!(read_tail(&path, 3, committed, 64).is_err());
    }

    #[test]
    fn non_wal_files_fail_loudly() {
        let (_dir, path) = tmp("notawal.usil");
        std::fs::write(&path, b"definitely not a log").unwrap();
        assert!(matches!(replay_file(&path), Err(WalError::BadMagic)));
        assert!(matches!(Wal::open(&path, false), Err(WalError::BadMagic)));
    }

    #[test]
    fn missing_file_is_the_empty_log() {
        let (_dir, path) = tmp("never-created.usil");
        let replay = replay_file(&path).unwrap();
        assert!(replay.records.is_empty());
        assert!(!replay.truncated);
    }
}
