//! Everything the benchmark feeds the program, derived from the workload
//! seed alone: the corpus, the query pattern streams and the append
//! chunks. The same seed always yields the same bytes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use usi_core::{TopKOracle, UsiBuilder, UsiIndex};
use usi_datasets::{Dataset, Zipf};
use usi_server::Json;
use usi_strings::WeightedString;

/// Letters per document (1 Mi).
pub const DOC_LETTERS: usize = 1 << 20;
/// Letters per append request (4 KiB).
pub const CHUNK_LETTERS: usize = 4096;
/// W1 draws per document; deduplicated into the Zipf pool, which ends
/// up several times larger than the server's 1024-entry pattern LRU.
pub const W1_DRAWS: usize = 16_384;
/// Patterns per fan-out request.
pub const FANOUT_PATTERNS: usize = 8;
/// Fan-out pattern lengths, inclusive.
pub const FANOUT_LEN: (usize, usize) = (8, 32);
/// Zipf exponent of the point-query stream.
pub const ZIPF_S: f64 = 1.0;

/// The four static profiles of the read workloads, as (doc id, profile).
pub const READ_PROFILES: [(&str, Dataset); 4] =
    [("hum", Dataset::Hum), ("xml", Dataset::Xml), ("iot", Dataset::Iot), ("adv", Dataset::Adv)];
/// The single ingest-enabled profile of the write workloads.
pub const WRITE_PROFILES: [(&str, Dataset); 1] = [("hum", Dataset::Hum)];

/// SplitMix64 finaliser: derives independent sub-seeds from the
/// workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One document of the corpus before indexing.
pub struct DocInput {
    /// Document id (the `.usix` file stem).
    pub id: &'static str,
    /// Profile the text was generated with.
    pub dataset: Dataset,
    /// Fingerprint seed for the build.
    pub build_seed: u64,
    /// The weighted text.
    pub ws: WeightedString,
}

/// Generates the documents for `profiles` from `seed`.
pub fn corpus(profiles: &[(&'static str, Dataset)], seed: u64) -> Vec<DocInput> {
    profiles
        .iter()
        .enumerate()
        .map(|(i, &(id, dataset))| DocInput {
            id,
            dataset,
            build_seed: mix(seed, 100 + i as u64),
            ws: dataset.generate(DOC_LETTERS, mix(seed, i as u64 + 1)),
        })
        .collect()
}

/// The builder every document is indexed with: exact top-K, `K = n/100`,
/// deterministic fingerprints, `threads` construction workers.
pub fn builder(n: usize, build_seed: u64, threads: usize) -> UsiBuilder {
    UsiBuilder::new().with_k((n / 100).max(1)).with_threads(threads).deterministic(build_seed)
}

/// The deduplicated pool of the paper's `W1` patterns over a built index
/// (SA reused from the index; LCP and the top-K oracle computed here).
pub fn w1_pool(index: &UsiIndex, dataset: Dataset, seed: u64, threads: usize) -> Vec<Vec<u8>> {
    let text = index.text();
    let sa: Vec<u32> = index.suffix_array().iter().collect();
    let lcp = usi_suffix::lcp_array_threads(text, &sa, threads);
    let oracle = TopKOracle::new_threads(text.len(), &sa, &lcp, threads);
    let w1 =
        usi_datasets::w1(text, &oracle, &sa, W1_DRAWS, 50, dataset.spec().pattern_len_range, seed);
    let mut seen = std::collections::HashSet::new();
    w1.queries.into_iter().filter(|q| seen.insert(q.clone())).collect()
}

/// One generated request: its JSON body plus what went into it.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Target document index, or `None` for a fan-out (`"doc": "*"`).
    pub doc: Option<usize>,
    /// The patterns, in request order.
    pub patterns: Vec<Vec<u8>>,
    /// The `POST /v1/query` body.
    pub body: Vec<u8>,
}

/// Encodes a `POST /v1/query` body.
pub fn query_body(doc: &str, patterns: &[Vec<u8>]) -> Vec<u8> {
    let patterns = patterns.iter().map(|p| Json::Str(String::from_utf8_lossy(p).into())).collect();
    Json::Obj(vec![("doc".into(), Json::str(doc)), ("patterns".into(), Json::Arr(patterns))])
        .encode()
        .into_bytes()
}

/// Point queries: a uniform document, then a Zipf(`ZIPF_S`)-ranked
/// pattern from that document's `W1` pool.
pub struct PointStream {
    docs: Vec<(&'static str, Vec<Vec<u8>>, Zipf)>,
    rng: StdRng,
}

impl PointStream {
    /// A stream over `(doc id, pool)` pairs, seeded by `seed`.
    pub fn new(pools: Vec<(&'static str, Vec<Vec<u8>>)>, seed: u64) -> Self {
        let docs = pools
            .into_iter()
            .map(|(id, pool)| {
                let zipf = Zipf::new(pool.len().max(1), ZIPF_S);
                (id, pool, zipf)
            })
            .collect();
        Self { docs, rng: StdRng::seed_from_u64(mix(seed, 0x9017)) }
    }

    /// The next request.
    pub fn next_request(&mut self) -> Request {
        let d = self.rng.gen_range(0..self.docs.len());
        let (id, pool, zipf) = &self.docs[d];
        let pattern = pool[zipf.sample(&mut self.rng)].clone();
        let patterns = vec![pattern];
        Request { doc: Some(d), body: query_body(id, &patterns), patterns }
    }
}

/// Fan-out queries: `FANOUT_PATTERNS` uniform random text fragments of
/// `FANOUT_LEN` letters, each from a uniform document.
pub struct FanoutStream {
    texts: Vec<Vec<u8>>,
    rng: StdRng,
}

impl FanoutStream {
    /// A stream over the documents' texts, seeded by `seed`.
    pub fn new(texts: Vec<Vec<u8>>, seed: u64) -> Self {
        Self { texts, rng: StdRng::seed_from_u64(mix(seed, 0xfa17)) }
    }

    /// The next request.
    pub fn next_request(&mut self) -> Request {
        let patterns: Vec<Vec<u8>> = (0..FANOUT_PATTERNS)
            .map(|_| {
                let text = &self.texts[self.rng.gen_range(0..self.texts.len())];
                let len = self.rng.gen_range(FANOUT_LEN.0..=FANOUT_LEN.1);
                let start = self.rng.gen_range(0..=text.len() - len);
                text[start..start + len].to_vec()
            })
            .collect();
        Request { doc: None, body: query_body("*", &patterns), patterns }
    }
}

/// Either request stream behind one interface.
pub enum Stream {
    /// Zipf point queries.
    Point(PointStream),
    /// Uniform fan-out queries.
    Fanout(FanoutStream),
}

impl Stream {
    /// The next request.
    pub fn next_request(&mut self) -> Request {
        match self {
            Stream::Point(s) => s.next_request(),
            Stream::Fanout(s) => s.next_request(),
        }
    }
}

/// Append chunk `i` of the seed's chunk sequence: `CHUNK_LETTERS` HUM
/// letters with their grid weights.
pub fn chunk(seed: u64, i: u64) -> (Vec<u8>, Vec<f64>) {
    Dataset::Hum.generate(CHUNK_LETTERS, mix(seed, 0xc0_0000 + i)).into_parts()
}

/// Encodes a `POST /v1/docs/{id}/append` body.
pub fn append_body(text: &[u8], weights: &[f64]) -> Vec<u8> {
    Json::Obj(vec![
        ("text".into(), Json::Str(String::from_utf8_lossy(text).into())),
        ("weights".into(), Json::Arr(weights.iter().map(|&w| Json::Num(w)).collect())),
    ])
    .encode()
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pools() -> Vec<(&'static str, Vec<Vec<u8>>)> {
        let pool = |tag: u8| (0..50u8).map(|i| vec![tag, b'a' + i % 26, i]).collect();
        vec![("a", pool(b'x')), ("b", pool(b'y'))]
    }

    fn texts() -> Vec<Vec<u8>> {
        vec![b"ACGT".repeat(40), b"<a>xyz</a>".repeat(20)]
    }

    #[test]
    fn point_stream_is_deterministic_per_seed() {
        let mut a = PointStream::new(pools(), 7);
        let mut b = PointStream::new(pools(), 7);
        let mut c = PointStream::new(pools(), 8);
        let xs: Vec<Request> = (0..200).map(|_| a.next_request()).collect();
        let ys: Vec<Request> = (0..200).map(|_| b.next_request()).collect();
        let zs: Vec<Request> = (0..200).map(|_| c.next_request()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn point_stream_is_skewed_towards_low_ranks() {
        let mut s = PointStream::new(pools(), 3);
        let mut top = 0;
        for _ in 0..2000 {
            let r = s.next_request();
            if r.patterns[0][2] == 0 {
                top += 1;
            }
        }
        // rank 0 of 50 under Zipf(1) has probability ≈ 0.22
        assert!((300..600).contains(&top), "{top}");
    }

    #[test]
    fn fanout_stream_is_deterministic_and_in_range() {
        let mut a = FanoutStream::new(texts(), 11);
        let mut b = FanoutStream::new(texts(), 11);
        for _ in 0..100 {
            let r = a.next_request();
            assert_eq!(r, b.next_request());
            assert_eq!(r.doc, None);
            assert_eq!(r.patterns.len(), FANOUT_PATTERNS);
            for p in &r.patterns {
                assert!((FANOUT_LEN.0..=FANOUT_LEN.1).contains(&p.len()));
                assert!(texts().iter().any(|t| t.windows(p.len()).any(|w| w == &p[..])));
            }
        }
        assert_ne!(FanoutStream::new(texts(), 12).next_request(), a.next_request());
    }

    #[test]
    fn bodies_are_the_server_json_shape() {
        let body = query_body("hum", &[b"AC\"G".to_vec()]);
        assert_eq!(body, br#"{"doc":"hum","patterns":["AC\"G"]}"#);
        let body = append_body(b"AC", &[0.75, 1.0]);
        assert_eq!(body, br#"{"text":"AC","weights":[0.75,1]}"#);
    }

    #[test]
    fn chunks_are_deterministic() {
        assert_eq!(chunk(5, 3), chunk(5, 3));
        assert_ne!(chunk(5, 3).0, chunk(5, 4).0);
        assert_eq!(chunk(5, 3).0.len(), CHUNK_LETTERS);
    }
}
