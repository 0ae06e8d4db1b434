//! The estimators. Host noise here arrives in plateaus that outlast a whole
//! run, so every gated timing is first put in quiet-host time (`host.rs`),
//! round by round; what the probe does not explain is one-sided (a
//! neighbour only ever slows a round), so the reported value is the
//! better quartile of the rounds. The pooled distribution is reported
//! beside it, never gated.

/// Median of a sample (mean of the middle two for even sizes).
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a timing sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Nearest-rank percentile (`p` in 0..=100) of a sample.
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a timing sample"));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The gated timing estimator: every round's time in quiet-host time (its
/// wall time over the host factor read around it, `host.rs`), then the
/// first quartile over the rounds. Not the minimum: a round whose probe
/// read high by chance is over-corrected, and the minimum would pick it.
///
/// # Panics
///
/// Panics if there are no rounds or the two series differ in length.
pub fn quiet_time(times: &[f64], host: &[f64]) -> f64 {
    assert_eq!(times.len(), host.len(), "one host factor per round");
    let quiet: Vec<f64> = times.iter().zip(host).map(|(t, h)| t / h).collect();
    quartiles(&quiet)[0]
}

/// `quiet_time` for a rate: a slow host lowers it, so it is multiplied,
/// and the better quartile is the third.
pub fn quiet_rate(rates: &[f64], host: &[f64]) -> f64 {
    assert_eq!(rates.len(), host.len(), "one host factor per round");
    let quiet: Vec<f64> = rates.iter().zip(host).map(|(r, h)| r * h).collect();
    quartiles(&quiet)[2]
}

pub fn max_of(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

pub fn min_of(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The percentiles a report may quote, lowest first.
const PERCENTILE_LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// The highest ladder percentile that still has at least ten samples
/// beyond it in a sample of `n` — quoting p99 of 288 steps would rest on
/// three samples. `None` when even the median has fewer than ten beyond.
pub fn top_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rfind(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method, the one the driver's spread check uses). A single value is
/// its own quartiles.
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a metric sample"));
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let cut = |i: usize| {
        // Position i*(n+1)/4 on a 1-based scale, clamped to the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta.clamp(0.0, 1.0)
    };
    [cut(1), cut(2), cut(3)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(top_percentile(19), None);
        assert_eq!(top_percentile(20), Some(50.0));
        assert_eq!(top_percentile(40), Some(75.0));
        assert_eq!(top_percentile(100), Some(90.0));
        assert_eq!(top_percentile(199), Some(90.0));
        assert_eq!(top_percentile(200), Some(95.0));
        assert_eq!(top_percentile(288), Some(95.0));
        assert_eq!(top_percentile(999), Some(95.0));
        assert_eq!(top_percentile(1000), Some(99.0));
        assert_eq!(top_percentile(10_000), Some(99.9));
        assert_eq!(top_percentile(100_000), Some(99.99));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.0), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] extrapolates;
        // ours clamps to the sample, which is all a verdict needs.
        assert_eq!(quartiles(&[1.0, 2.0]), [1.0, 1.5, 2.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
