//! Order statistics of timing samples.

/// Sort samples ascending (timings are never NaN).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of ascending samples; 0 for none (a bypassed layer).
pub fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

pub fn median_of(samples: Vec<f64>) -> f64 {
    median(&sorted(samples))
}

/// First and third quartile of ascending samples, by the rule of Python's
/// `statistics.quantiles(values, n=4)`, which the driver applies to runs.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The tail of ascending samples: the value at the highest percentile that
/// still has ten samples beyond it, and that percentile. With fewer than
/// eleven samples no percentile qualifies and the maximum stands in, named
/// percentile 100.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    match n {
        0 => (0.0, 100.0),
        1..=10 => (sorted[n - 1], 100.0),
        _ => (sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    }
}
