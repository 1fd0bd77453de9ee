//! Synthetic corpora, utility generators and query workloads mirroring
//! the USI paper's evaluation setup (Section IX-A, Table II).
//!
//! The paper evaluates on five real datasets (ADV, IOT, XML, HUM, ECOLI)
//! of up to 4.6 billion letters. Those corpora are not redistributable
//! here, so this crate generates synthetic stand-ins that match each
//! dataset's *structural* profile — alphabet size, letter-frequency
//! skew, repeat structure (planted long repeats for IOT, tag templates
//! for XML, order-3 Markov DNA for HUM/ECOLI) — and its utility
//! distribution (CTR, RSSI, phred-style confidence, or the paper's
//! uniform `{0.7, 0.75, …, 1}` grid). The stand-ins keep what the
//! experiments' shapes depend on; absolute figures differ from the
//! paper's.
//!
//! Also provides the paper's two query-workload families `W1` and
//! `W2,p` (Section IX-C, "Parameters").

pub mod corpora;
pub mod markov;
pub mod utilities;
pub mod workload;
pub mod zipf;

pub use corpora::{Dataset, DatasetSpec, ALL_DATASETS};
pub use workload::{w1, w2p, Workload};
pub use zipf::Zipf;
