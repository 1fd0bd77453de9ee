//! Live catalog reload: `Catalog::reload` swaps a document's `Arc` for
//! a freshly parsed `.usix` while queries are in flight. The race test
//! pins the contract — every concurrent answer is *exactly* the old or
//! the new version's answer, never a blend — and the corrupt-file test
//! pins the failure contract: a bad file leaves the old view serving.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use usi::prelude::*;
use usi::server::{respond, LoadOptions, ReloadError};

fn build(text: &[u8], seed: u64) -> UsiIndex {
    UsiBuilder::new()
        .with_k(16)
        .deterministic(seed)
        .build(WeightedString::uniform(text.to_vec(), 1.0))
}

fn write_usix(index: &UsiIndex, path: &std::path::Path) {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).unwrap());
    index.write_to(&mut out).unwrap();
    use std::io::Write;
    out.flush().unwrap();
}

fn temp_usix(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("usi-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}.usix"))
}

const QUERY: &[u8] = br#"{"doc":"doc","patterns":["ab","abc","ca"]}"#;

#[test]
fn in_flight_queries_see_exactly_old_or_new_during_reload() {
    let path = temp_usix("doc");
    let v1 = build(b"abcabcabcabc", 1);
    let v2 = build(b"cacacacab", 2);
    write_usix(&v1, &path);

    let catalog = Arc::new(Catalog::new(4));
    catalog.load_usix_with(&path, LoadOptions { mmap: false, threads: 1 }).unwrap();

    // the two (and only two) legal answers, via the same handler
    let v1_body = respond(&catalog, "POST", "/v1/query", QUERY).body;
    write_usix(&v2, &path);
    catalog.reload("doc").unwrap();
    let v2_body = respond(&catalog, "POST", "/v1/query", QUERY).body;
    assert_ne!(v1_body, v2_body, "versions must be distinguishable for the race to mean anything");

    // readers hammer the doc while the main thread flips versions
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let catalog = Arc::clone(&catalog);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut bodies = Vec::new();
                while !stop.load(Ordering::SeqCst) {
                    let r = respond(&catalog, "POST", "/v1/query", QUERY);
                    assert_eq!(r.status, 200);
                    bodies.push(r.body);
                }
                bodies
            })
        })
        .collect();
    for round in 0..40 {
        write_usix(if round % 2 == 0 { &v1 } else { &v2 }, &path);
        catalog.reload("doc").unwrap();
    }
    stop.store(true, Ordering::SeqCst);
    let mut total = 0;
    for reader in readers {
        for body in reader.join().unwrap() {
            assert!(
                body == v1_body || body == v2_body,
                "a concurrent query answered with a state that is neither version"
            );
            total += 1;
        }
    }
    assert!(total > 0, "the race test never actually raced");

    // the reload counter made it to the exposed metrics
    let metrics = respond(&catalog, "GET", "/metrics", b"").body;
    assert!(metrics.contains("usi_catalog_reloads_total"), "{metrics}");
}

#[test]
fn corrupt_reload_leaves_the_old_document_serving() {
    let path = temp_usix("corrupt");
    let v1 = build(b"abababab", 3);
    write_usix(&v1, &path);

    let catalog = Arc::new(Catalog::new(4));
    catalog.load_usix_with(&path, LoadOptions { mmap: false, threads: 1 }).unwrap();
    let before = respond(&catalog, "POST", "/v1/query", br#"{"doc":"corrupt","patterns":["ab"]}"#);

    // garbage, then a well-formed 40 000-letter image whose `H` count
    // reads n²: a count the file cannot hold must fail the reload, not
    // reserve memory for it
    for bad in [b"this is not a usix file".to_vec(), oversized_h_count_image()] {
        std::fs::write(&path, &bad).unwrap();
        let err = catalog.reload("corrupt");
        assert!(matches!(err, Err(ReloadError::Load(_))), "{err:?}");
        // the HTTP route reports the failure without dropping the doc
        let r = respond(&catalog, "POST", "/v1/docs/corrupt/reload", b"");
        assert_eq!(r.status, 500, "{}", r.body);
        assert!(r.body.contains("old view keeps serving"), "{}", r.body);

        let after =
            respond(&catalog, "POST", "/v1/query", br#"{"doc":"corrupt","patterns":["ab"]}"#);
        assert_eq!(after.status, 200);
        assert_eq!(
            after.body, before.body,
            "a failed reload must not disturb the serving document"
        );
    }
}

/// A valid 40 000-letter image with its `H` count overwritten to n².
fn oversized_h_count_image() -> Vec<u8> {
    let n = 40_000;
    let text: Vec<u8> = (0..n).map(|i| b"ab"[(i / 3 + i / 7) % 2]).collect();
    let mut bytes = Vec::new();
    build(&text, 6).write_to(&mut bytes).unwrap();
    let h_count_off = usi::core::persist::HEADER_BYTES + 13 * n;
    bytes[h_count_off..h_count_off + 8].copy_from_slice(&((n * n) as u64).to_le_bytes());
    bytes
}

#[test]
fn reload_http_route_contract() {
    let path = temp_usix("route");
    write_usix(&build(b"xyxyxy", 4), &path);
    let catalog = Arc::new(Catalog::new(4));
    catalog.load_usix_with(&path, LoadOptions { mmap: false, threads: 1 }).unwrap();
    // an in-memory document has no backing file to reload from
    catalog.insert("mem", build(b"zzz", 5));

    let r = respond(&catalog, "POST", "/v1/docs/route/reload", b"");
    assert_eq!(r.status, 200, "{}", r.body);
    let parsed = usi::server::Json::parse(&r.body).unwrap();
    assert_eq!(parsed.get("reloaded").and_then(usi::server::Json::as_bool), Some(true));
    assert_eq!(parsed.get("id").and_then(usi::server::Json::as_str), Some("route"));

    assert_eq!(respond(&catalog, "POST", "/v1/docs/ghost/reload", b"").status, 404);
    assert_eq!(respond(&catalog, "POST", "/v1/docs/mem/reload", b"").status, 409);
    assert_eq!(respond(&catalog, "GET", "/v1/docs/route/reload", b"").status, 405);
}
