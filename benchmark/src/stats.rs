//! The few statistics the benchmark reports: median of passes, the
//! "ten samples beyond" tail-percentile rule, and the quartiles the noise
//! comparison uses.

/// Percentiles a tail may be reported at, lowest first.
pub const TAIL_CANDIDATES: [f64; 3] = [0.90, 0.99, 0.999];

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one pass.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Index of the median pass: the pass whose value is the lower-middle
/// element of the sorted values. Metrics that must come from *one* pass
/// (allocation counters) are read from this pass rather than averaged.
pub fn median_index(values: &[f64]) -> usize {
    assert!(!values.is_empty(), "median of no values");
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    order[(values.len() - 1) / 2]
}

/// The highest candidate percentile that still has at least ten samples
/// beyond it, or `None` when even the lowest candidate does not (fewer
/// than 100 samples at p90).
pub fn tail_percentile(samples: u64) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rfind(|p| beyond(samples, *p) >= 10)
}

/// Samples strictly above the nearest-rank position of percentile `p`.
pub fn beyond(samples: u64, p: f64) -> u64 {
    samples - nearest_rank(samples, p)
}

/// 1-based nearest-rank position of percentile `p` among `samples` sorted
/// values: `ceil(p × n)`, clamped to `1..=n`.
fn nearest_rank(samples: u64, p: f64) -> u64 {
    ((p * samples as f64).ceil() as u64).clamp(1, samples.max(1))
}

/// Nearest-rank percentile of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len() as u64, p) as usize - 1]
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) computes them — the driver's spread is
/// `(q3 - q1) / median`, so the noise tool must use the same definition.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        // Position i*(n+1)/4 on a 1-based axis, clamped into the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_passes_ignores_outlier_passes() {
        assert_eq!(median(&[1.7, 1.6, 9.0]), 1.7);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        // The median pass is an actual pass, lower-middle for even counts.
        assert_eq!(median_index(&[1.7, 1.6, 9.0]), 0);
        assert_eq!(median_index(&[4.0, 1.0, 3.0, 2.0]), 3);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 199 ops: p90 leaves 19 beyond, p99 would leave 1.
        assert_eq!(tail_percentile(199), Some(0.90));
        assert_eq!(beyond(199, 0.90), 19);
        assert_eq!(beyond(199, 0.99), 1);
        // A million fleet clients support p999 (1000 beyond).
        assert_eq!(tail_percentile(1_000_000), Some(0.999));
        // 1000 samples: p99 leaves exactly 10.
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(999), Some(0.90));
        // Too few samples for any tail.
        assert_eq!(tail_percentile(50), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&[3.0], 0.999), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
