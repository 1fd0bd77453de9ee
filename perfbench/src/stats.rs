//! Order statistics over latency samples.

/// A percentile together with the number of samples it was taken from,
/// so a p99 over a handful of requests is never mistaken for a stable
/// tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at the requested rank.
    pub value: f64,
    /// How many samples the rank was taken over.
    pub samples: usize,
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between the two closest ranks (the same rule as NumPy's default), or
/// `None` for an empty set. Sorts `samples` in place.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let q = q.clamp(0.0, 1.0);
    let rank = q * (samples.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    let value = samples[lo] + (samples[hi] - samples[lo]) * frac;
    Some(Percentile { value, samples: samples.len() })
}

/// The median of `samples` (sorting them), `0` for an empty set.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5).map_or(0.0, |p| p.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_percentile() {
        assert_eq!(percentile(&mut [], 0.5), None);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&mut [7.0], q), Some(Percentile { value: 7.0, samples: 1 }));
        }
    }

    #[test]
    fn interpolates_between_ranks_and_reports_count() {
        let mut xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p50 = percentile(&mut xs, 0.5).unwrap();
        assert_eq!(p50.samples, 100);
        assert!((p50.value - 50.5).abs() < 1e-12);
        let p99 = percentile(&mut xs, 0.99).unwrap();
        assert!((p99.value - 99.01).abs() < 1e-9, "{}", p99.value);
        assert_eq!(percentile(&mut xs, 1.0).unwrap().value, 100.0);
        assert_eq!(percentile(&mut xs, 0.0).unwrap().value, 1.0);
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
