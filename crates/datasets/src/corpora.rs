//! The five synthetic corpora emulating the paper's datasets (Table II).

use crate::markov::MarkovChain;
use crate::utilities;
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use usi_strings::WeightedString;

/// One of the paper's five evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Advertisement categories with CTR utilities
    /// (paper: n = 2.19·10⁵, σ = 14).
    Adv,
    /// Sensor-beacon identifiers with RSSI utilities and very long
    /// repeated blocks (paper: n = 1.9·10⁷, σ = 63).
    Iot,
    /// Tag-structured markup with grid utilities
    /// (paper: n = 2·10⁸, σ = 95).
    Xml,
    /// Human-genome-like DNA with grid utilities
    /// (paper: n = 2.9·10⁹, σ = 4).
    Hum,
    /// Bacterial DNA with phred-style confidence utilities
    /// (paper: n = 4.6·10⁹, σ = 4).
    Ecoli,
}

/// Static profile of a dataset: alphabet, defaults for `n`, `K`, `s`
/// (Table II), and the pattern-length range its workloads draw from.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Which dataset.
    pub dataset: Dataset,
    /// Report label.
    pub name: &'static str,
    /// Alphabet size σ.
    pub sigma: usize,
    /// Default (scaled-down) text length for experiments.
    pub default_n: usize,
    /// Default `K` as a fraction of `n` (Table II's bold defaults).
    pub default_k_frac: f64,
    /// Default number of sampling rounds `s` (Table II).
    pub default_s: usize,
    /// Random-pattern length range used by the workloads (paper:
    /// `[1, 5000]`, `[1, 20000]` for IOT, `[3, 200]` for ADV) — clamped
    /// to the actual `n` at workload-build time.
    pub pattern_len_range: (usize, usize),
}

/// All five datasets, in the paper's Table II order.
pub const ALL_DATASETS: [Dataset; 5] =
    [Dataset::Adv, Dataset::Iot, Dataset::Xml, Dataset::Hum, Dataset::Ecoli];

impl Dataset {
    /// The dataset's profile.
    pub fn spec(self) -> DatasetSpec {
        match self {
            Dataset::Adv => DatasetSpec {
                dataset: self,
                name: "ADV",
                sigma: 14,
                default_n: 200_000,
                default_k_frac: 6_000.0 / 218_987.0, // paper's bold K
                default_s: 6,
                pattern_len_range: (3, 200),
            },
            Dataset::Iot => DatasetSpec {
                dataset: self,
                name: "IOT",
                sigma: 63,
                default_n: 400_000,
                default_k_frac: 0.18 / 19.0, // 0.18M of 1.9·10⁷
                // Table II uses s = 20 at n = 1.9·10⁷; s is O(log n)
                // (Section VI), so the comparable choice at laptop scale
                // is smaller.
                default_s: 6,
                pattern_len_range: (1, 20_000),
            },
            Dataset::Xml => DatasetSpec {
                dataset: self,
                name: "XML",
                sigma: 95,
                default_n: 500_000,
                default_k_frac: 0.01, // 2M of 2·10⁸
                default_s: 6,
                pattern_len_range: (1, 5_000),
            },
            Dataset::Hum => DatasetSpec {
                dataset: self,
                name: "HUM",
                sigma: 4,
                default_n: 1_000_000,
                default_k_frac: 0.01, // 29M of 2.9·10⁹
                default_s: 6,
                pattern_len_range: (1, 5_000),
            },
            Dataset::Ecoli => DatasetSpec {
                dataset: self,
                name: "ECOLI",
                sigma: 4,
                default_n: 1_000_000,
                default_k_frac: 0.01, // 45M of 4.6·10⁹
                default_s: 8,
                pattern_len_range: (1, 5_000),
            },
        }
    }

    /// Generates an `n`-letter weighted string with this dataset's
    /// profile, deterministically from `seed`.
    pub fn generate(self, n: usize, seed: u64) -> WeightedString {
        let text = match self {
            Dataset::Adv => adv_text(n, seed),
            Dataset::Iot => iot_text(n, seed),
            Dataset::Xml => xml_text(n, seed),
            Dataset::Hum => dna_text(n, 3, 0.9, seed),
            Dataset::Ecoli => dna_text(n, 2, 1.1, seed ^ 0x000e_c011),
        };
        let weights = match self {
            Dataset::Adv => utilities::ctr(n, seed ^ 1),
            Dataset::Iot => utilities::rssi(n, seed ^ 2),
            Dataset::Xml | Dataset::Hum => utilities::uniform_grid(n, seed ^ 3),
            Dataset::Ecoli => utilities::phred(n, seed ^ 4),
        };
        WeightedString::new(text, weights).expect("generators produce matched arrays")
    }

    /// Generates with the spec's default length.
    pub fn generate_default(self, seed: u64) -> WeightedString {
        self.generate(self.spec().default_n, seed)
    }
}

/// ADV: bursty ad-category stream. Marketers repeat short campaign
/// sequences, so we emit Zipf-chosen "campaign" snippets of 2–6 letters.
fn adv_text(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sigma = 14u8;
    // a pool of campaign snippets, Zipf-popular
    let snippets: Vec<Vec<u8>> = (0..40)
        .map(|_| {
            let len = rng.gen_range(2..=6);
            (0..len).map(|_| b'a' + rng.gen_range(0..sigma)).collect()
        })
        .collect();
    let zipf = Zipf::new(snippets.len(), 1.1);
    let mut out = Vec::with_capacity(n + 8);
    while out.len() < n {
        if rng.gen_bool(0.7) {
            out.extend_from_slice(&snippets[zipf.sample(&mut rng)]);
        } else {
            out.push(b'a' + rng.gen_range(0..sigma));
        }
    }
    out.truncate(n);
    out
}

/// IOT: beacon-identifier stream with *planted long repeats* — periodic
/// sensor sweeps replay long blocks, which is what makes the paper's IOT
/// top-K contain substrings thousands of letters long. Replays are often
/// truncated (interrupted sweeps) and block popularity is Zipfian, so the
/// frequency spectrum decays instead of being a flat band of ties —
/// matching real sensor logs, where shorter sweep prefixes recur more
/// often than complete sweeps.
fn iot_text(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sigma = 63u8;
    let letter = |rng: &mut StdRng| b'!' + rng.gen_range(0..sigma); // '!'..='_'
    let block_len = (n / 200).clamp(16, 4096);
    let blocks: Vec<Vec<u8>> =
        (0..6).map(|_| (0..block_len).map(|_| letter(&mut rng)).collect()).collect();
    let zipf = Zipf::new(blocks.len(), 1.3);
    let mut out = Vec::with_capacity(n + block_len);
    while out.len() < n {
        if rng.gen_bool(0.7) {
            let block = &blocks[zipf.sample(&mut rng)];
            // interrupted sweep: replay a prefix, sometimes the whole block
            let take = if rng.gen_bool(0.4) {
                block.len()
            } else {
                rng.gen_range(block.len() / 8..=block.len())
            };
            out.extend_from_slice(&block[..take]);
        } else {
            let burst = rng.gen_range(4..40);
            for _ in 0..burst {
                out.push(letter(&mut rng));
            }
        }
    }
    out.truncate(n);
    out
}

/// XML: tag-template markup over printable ASCII.
fn xml_text(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    const TAGS: [&str; 8] =
        ["article", "title", "author", "year", "journal", "volume", "pages", "ee"];
    let zipf = Zipf::new(TAGS.len(), 0.7);
    let mut out = Vec::with_capacity(n + 64);
    while out.len() < n {
        let tag = TAGS[zipf.sample(&mut rng)];
        out.push(b'<');
        out.extend_from_slice(tag.as_bytes());
        out.push(b'>');
        let content_len = rng.gen_range(3..30);
        for _ in 0..content_len {
            // printable ASCII excluding '<' and '>'
            let mut c = b' ' + rng.gen_range(0..95);
            if c == b'<' || c == b'>' {
                c = b'_';
            }
            out.push(c);
        }
        out.push(b'<');
        out.push(b'/');
        out.extend_from_slice(tag.as_bytes());
        out.push(b'>');
    }
    out.truncate(n);
    out
}

/// DNA-like text: order-`order` Markov chain over {A, C, G, T}.
fn dna_text(n: usize, order: usize, skew: f64, seed: u64) -> Vec<u8> {
    const ACGT: [u8; 4] = [b'A', b'C', b'G', b'T'];
    let chain = MarkovChain::new(4, order, skew, seed);
    chain.generate(n, seed ^ 0xd9a).into_iter().map(|r| ACGT[r as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use usi_strings::Alphabet;

    #[test]
    fn alphabet_sizes_match_specs() {
        for ds in ALL_DATASETS {
            let ws = ds.generate(30_000, 1);
            let sigma = Alphabet::from_text(ws.text()).sigma();
            let spec = ds.spec();
            assert!(
                sigma <= spec.sigma + 12 && sigma * 3 >= spec.sigma,
                "{}: sigma {} vs spec {}",
                spec.name,
                sigma,
                spec.sigma
            );
            assert_eq!(ws.len(), 30_000);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for ds in ALL_DATASETS {
            assert_eq!(ds.generate(5_000, 42), ds.generate(5_000, 42));
        }
    }

    #[test]
    fn iot_has_long_repeats() {
        // The planted sweep blocks must create repeats hundreds of
        // letters long — the regime where the streaming miners fail.
        let ws = Dataset::Iot.generate(60_000, 7);
        let sa = usi_suffix::suffix_array(ws.text());
        let lcp = usi_suffix::lcp_array(ws.text(), &sa);
        let longest_repeat = lcp.iter().copied().max().unwrap_or(0);
        assert!(longest_repeat >= 200, "longest repeat only {longest_repeat}");
    }

    #[test]
    fn xml_is_tag_structured() {
        let ws = Dataset::Xml.generate(20_000, 9);
        let opens = ws.text().iter().filter(|&&b| b == b'<').count();
        assert!(opens > 200, "tags too sparse: {opens}");
    }

    #[test]
    fn dna_is_acgt_only() {
        for ds in [Dataset::Hum, Dataset::Ecoli] {
            let ws = ds.generate(10_000, 11);
            assert!(ws.text().iter().all(|b| b"ACGT".contains(b)));
        }
    }

    #[test]
    fn weights_match_dataset_styles() {
        let adv = Dataset::Adv.generate(10_000, 13);
        assert!(adv.weights().iter().any(|&w| w > 10.0)); // CTR spikes
        let iot = Dataset::Iot.generate(10_000, 13);
        assert!(iot.weights().iter().all(|&w| (0.0..=1.0).contains(&w)));
        let hum = Dataset::Hum.generate(10_000, 13);
        assert!(hum.weights().iter().all(|&w| (0.7..=1.0 + 1e-9).contains(&w)));
    }
}
