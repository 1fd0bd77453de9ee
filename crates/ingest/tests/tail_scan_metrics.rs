//! The tail-scan counters, read from the process-global registry's
//! exposition text. The one test in its binary, so no other test's
//! queries move the counters between its reads.

use usi_core::UsiBuilder;
use usi_ingest::{IngestIndex, IngestOptions};
use usi_strings::WeightedString;

/// `(usi_ingest_tail_scans_total, usi_ingest_tail_letters_scanned_total)`
/// as `/metrics` would show them; 0 before they are registered.
fn tail_counters() -> (u64, u64) {
    let text = usi_obs::global().encode();
    let value = |name: &str| {
        text.lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or(0)
    };
    (value("usi_ingest_tail_scans_total"), value("usi_ingest_tail_letters_scanned_total"))
}

#[test]
fn queries_count_the_tails_they_scan() {
    let base = UsiBuilder::new()
        .with_k(4)
        .deterministic(1)
        .build(WeightedString::uniform(b"abracadabra".to_vec(), 1.0));
    let opts = IngestOptions { seal_threshold: 64, ..IngestOptions::default() };
    let mut index = IngestIndex::new(base, opts);

    let before = tail_counters();
    assert_eq!(index.query(b"abra").occurrences, 2);
    assert_eq!(tail_counters(), before, "an empty tail is not scanned");

    index.append(b"cadabra", &[1.0; 7]);
    assert_eq!(index.tail_len(), 7);
    assert_eq!(index.query(b"abra").occurrences, 3);
    assert_eq!(tail_counters(), (before.0 + 1, before.1 + 7));
    assert_eq!(index.query(b"dab").occurrences, 2);
    assert_eq!(tail_counters(), (before.0 + 2, before.1 + 14));
}
