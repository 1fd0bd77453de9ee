//! IoT link-quality monitoring with live appends (Section X dynamics).
//!
//! A sensor network streams beacon identifiers, each with an RSSI-derived
//! link-quality utility. The operator queries the aggregate quality of
//! recurring beacon sequences while the stream keeps growing — the
//! dynamic-USI scenario. New readings are appended to an
//! [`IngestIndex`]: full tails seal into small segments, and segments of
//! one generation merge into one of the next, so no append ever pays
//! for a rebuild of the whole index.
//!
//! Run with: `cargo run --release --example iot_monitoring`

use usi::datasets::Dataset;
use usi::prelude::*;

/// Readings per gateway flush.
const BATCH: usize = 1_000;

fn main() {
    // One sensor network's stream: the first 200k readings are the
    // historical window, the last 120k arrive live.
    let stream = Dataset::Iot.generate(320_000, 13);
    let n0 = 200_000;
    let (text, weights) = (stream.text(), stream.weights());
    let history = WeightedString::new(text[..n0].to_vec(), weights[..n0].to_vec())
        .expect("one weight per reading");
    let probe = text[1_000..1_016].to_vec(); // a recurring sweep fragment

    // Default options: seal every 4 096 letters, merge 8 segments of a
    // generation into one.
    let mut index = IngestIndex::new(
        UsiBuilder::new().with_k(n0 / 100).deterministic(17).build(history),
        IngestOptions::default(),
    );
    let q0 = index.query(&probe);
    println!(
        "historical window: sequence occurs {} times, total link quality {:.1}",
        q0.occurrences,
        q0.value.unwrap_or(0.0)
    );

    // Live stream: 120k new readings arrive in gateway flushes, and the
    // recurring sweep keeps appearing.
    let mut occurrences = q0.occurrences;
    let flushes = text[n0..].chunks(BATCH).zip(weights[n0..].chunks(BATCH));
    for (i, (letters, utilities)) in flushes.enumerate() {
        index.append(letters, utilities);
        index.compact_to_quiescence();
        let q = index.query(&probe);
        assert!(q.occurrences >= occurrences, "appends never remove an occurrence");
        occurrences = q.occurrences;
        let appended = (i + 1) * BATCH;
        if appended.is_multiple_of(40_000) {
            println!(
                "after {appended:>6} live readings: occurrences {}, utility {:.1}, tail {}, \
                 segments {} (seals {}, compactions {})",
                q.occurrences,
                q.value.unwrap_or(0.0),
                index.tail_len(),
                index.segments().len(),
                index.seals(),
                index.compactions()
            );
        }
    }

    let q1 = index.query(&probe);
    assert!(index.seals() > 0 && index.compactions() > 0, "the stream sealed and merged");
    // the same answer as one build over all 320k readings
    let scratch = UsiBuilder::new().with_k(n0 / 100).deterministic(17).build(stream).query(&probe);
    let (got, want) = (q1.value.unwrap(), scratch.value.unwrap());
    assert_eq!(q1.occurrences, scratch.occurrences);
    assert!((got - want).abs() <= 1e-9 * want.abs());
    println!("\nfinal: {} readings indexed; the answer equals a from-scratch build's", index.len());
}
