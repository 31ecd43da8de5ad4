//! Order statistics for the run protocol: a percentile within one
//! repetition, a median across repetitions.

/// The `p`-quantile (`0.0..=1.0`) of `sorted`, interpolating linearly
/// between the two closest ranks. Empty input reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of `values` in any order (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Latency samples (ns) of one repetition to `(p50, p95)` in µs.
pub fn p50_p95_us(samples_ns: &[u32]) -> (f64, f64) {
    let mut v: Vec<f64> = samples_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    v.sort_by(f64::total_cmp);
    (percentile(&v, 0.50), percentile(&v, 0.95))
}

/// Median over repetitions of a per-repetition value.
pub fn median_of_reps<R>(reps: &[R], value: impl Fn(&R) -> f64) -> f64 {
    median(&reps.iter().map(value).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 0.5), 30.0);
        assert_eq!(percentile(&v, 1.0), 50.0);
        assert!((percentile(&v, 0.95) - 48.0).abs() < 1e-9);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn p95_of_many_samples_has_a_twentieth_beyond_it() {
        let samples: Vec<u32> = (1..=2000).map(|i| i * 1000).collect();
        let (p50, p95) = p50_p95_us(&samples);
        assert!((p50 - 1000.5).abs() < 1e-6);
        let beyond = samples.iter().filter(|&&s| s as f64 / 1e3 > p95).count();
        assert_eq!(beyond, 100);
    }

    #[test]
    fn median_of_repetitions_ignores_one_wild_repetition() {
        struct Rep(f64);
        let reps = [Rep(101.0), Rep(99.0), Rep(100.0), Rep(400.0), Rep(98.0)];
        assert_eq!(median_of_reps(&reps, |r| r.0), 100.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
