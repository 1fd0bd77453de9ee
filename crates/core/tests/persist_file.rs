//! On-disk round-trip for the `USIX` format: the in-memory tests in
//! `persist.rs` exercise `write_to`/`read_from` through byte buffers;
//! these go through a real temporary `.usix` file, the way the CLI and
//! any service deployment will use the format.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use temp_dir::TempDir;
use usi_core::{PersistError, UsiBuilder, UsiIndex};
use usi_strings::WeightedString;

#[path = "../../ingest/tests/temp_dir/mod.rs"]
mod temp_dir;

fn build_index(seed: u64) -> (UsiIndex, WeightedString) {
    let mut rng = StdRng::seed_from_u64(seed);
    let alphabet = b"acgt";
    let text: Vec<u8> = (0..2_000).map(|_| alphabet[rng.gen_range(0..4)]).collect();
    let weights: Vec<f64> = (0..text.len()).map(|_| rng.gen_range(0.0..2.0)).collect();
    let ws = WeightedString::new(text, weights).unwrap();
    let index = UsiBuilder::new().with_k(200).deterministic(seed).build(ws.clone());
    (index, ws)
}

#[test]
fn file_roundtrip_preserves_every_answer() {
    let (index, ws) = build_index(7);
    let dir = TempDir::new("usi-persist-roundtrip");
    let path = dir.join("roundtrip.usix");

    let mut out = BufWriter::new(File::create(&path).unwrap());
    index.write_to(&mut out).unwrap();
    drop(out);

    let mut input = BufReader::new(File::open(&path).unwrap());
    let loaded = UsiIndex::read_from(&mut input).unwrap();

    assert_eq!(loaded.cached_substrings(), index.cached_substrings());
    assert_eq!(loaded.stats().tau, index.stats().tau);

    // query agreement between the reloaded and the in-memory index, on
    // patterns both above and below the frequency threshold, plus absent
    // and empty patterns
    let text = ws.text();
    let mut rng = StdRng::seed_from_u64(99);
    let mut patterns: Vec<Vec<u8>> = (0..200)
        .map(|_| {
            let len = rng.gen_range(1..12usize);
            let start = rng.gen_range(0..text.len() - len);
            text[start..start + len].to_vec()
        })
        .collect();
    patterns.push(b"zzzzz".to_vec());
    patterns.push(Vec::new());

    for pat in &patterns {
        let a = index.query(pat);
        let b = loaded.query(pat);
        assert_eq!(a.occurrences, b.occurrences, "pattern {:?}", pat);
        assert_eq!(a.source, b.source, "pattern {:?}", pat);
        match (a.value, b.value) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert!((x - y).abs() < 1e-12 * (1.0 + x.abs()), "pattern {:?}", pat)
            }
            other => panic!("value mismatch for {:?}: {:?}", pat, other),
        }
    }
}

/// Byte offsets of every section boundary of a serialised index, in
/// stream order, ending at the total length. Mirrors the layout
/// documented at the top of `crates/core/src/persist.rs`.
fn section_boundaries(index: &UsiIndex, total: usize) -> Vec<usize> {
    let n = index.text().len();
    let h = index.cached_substrings();
    let sections = [
        8,      // magic + version
        1,      // aggregator tag
        1,      // local window tag
        8,      // fingerprinter base
        8,      // n
        n,      // text
        8 * n,  // weights
        4 * n,  // suffix array
        8,      // |H|
        44 * h, // hash-table entries (4 + 8 + 8 + 8 + 8 + 8 each)
        8,      // k_requested
        8,      // k_stored
        4,      // tau
        8,      // L_K
    ];
    let mut boundaries = Vec::with_capacity(sections.len());
    let mut offset = 0usize;
    for size in sections {
        offset += size;
        boundaries.push(offset);
    }
    assert_eq!(offset, total, "section sizes must cover the whole stream");
    boundaries
}

#[test]
fn truncation_at_every_section_boundary_is_an_error_not_a_panic() {
    let (index, _) = build_index(31);
    let mut buf = Vec::new();
    index.write_to(&mut buf).unwrap();
    let boundaries = section_boundaries(&index, buf.len());

    // cuts exactly on, one before, and one after every boundary (the
    // last boundary is the full stream: only its "one before" applies)
    let mut cuts: Vec<usize> = Vec::new();
    for &b in &boundaries {
        cuts.extend([b.saturating_sub(1), b, b + 1]);
    }
    cuts.retain(|&c| c < buf.len());
    cuts.push(0);

    for cut in cuts {
        let result = std::panic::catch_unwind(|| UsiIndex::read_from(&mut &buf[..cut]));
        match result {
            Ok(Err(_)) => {} // clean PersistError: what we want
            Ok(Ok(_)) => panic!("cut at {cut}/{} accepted as a full index", buf.len()),
            Err(_) => panic!("cut at {cut}/{} panicked instead of erroring", buf.len()),
        }
    }

    // the untruncated stream still loads
    assert!(UsiIndex::read_from(&mut buf.as_slice()).is_ok());
}

#[test]
fn corrupted_fields_are_rejected_with_corrupt_errors() {
    let (index, _) = build_index(37);
    let mut pristine = Vec::new();
    index.write_to(&mut pristine).unwrap();

    // (offset to poke, poison byte, description)
    let pokes = [
        (8usize, 0xffu8, "aggregator tag"),
        (9, 0xff, "local window tag"),
        (10, 0x00, "fingerprinter base low byte"),
        (18, 0xff, "text length"),
    ];
    for (offset, byte, what) in pokes {
        let mut buf = pristine.clone();
        // overwrite the whole field region's first byte(s)
        buf[offset] = byte;
        if what == "fingerprinter base low byte" {
            // zero the full base so it falls below 256
            buf[10..18].fill(0);
        }
        if what == "text length" {
            // absurd n: either Corrupt("text length") or an I/O error
            buf[18..26].fill(0xff);
        }
        let result = std::panic::catch_unwind(|| UsiIndex::read_from(&mut buf.as_slice()));
        let loaded = result.unwrap_or_else(|_| panic!("poking {what} panicked"));
        assert!(loaded.is_err(), "poking {what} was accepted");
    }

    // a non-finite weight is caught field-precisely
    let n = index.text().len();
    let weights_off = 8 + 1 + 1 + 8 + 8 + n;
    let mut buf = pristine.clone();
    buf[weights_off..weights_off + 8].copy_from_slice(&f64::NAN.to_le_bytes());
    assert!(matches!(
        UsiIndex::read_from(&mut buf.as_slice()),
        Err(PersistError::Corrupt("non-finite weight"))
    ));
}

#[test]
fn file_roundtrip_twice_is_byte_identical() {
    // write → read → write must reproduce the file byte for byte: the
    // format has a single canonical encoding per index
    let (index, _) = build_index(13);
    let dir = TempDir::new("usi-persist-stable");
    let path = dir.join("stable.usix");

    let mut out = BufWriter::new(File::create(&path).unwrap());
    index.write_to(&mut out).unwrap();
    drop(out);
    let first = std::fs::read(&path).unwrap();

    let loaded = UsiIndex::read_from(&mut first.as_slice()).unwrap();
    let mut second = Vec::new();
    loaded.write_to(&mut second).unwrap();
    assert_eq!(first, second);
}
