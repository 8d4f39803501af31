//! Order statistics for the benchmark's reports.

/// The median of `values` (the mean of the middle two for an even
/// count); `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The median, or 0 for an empty slice (a layer the workload lacks).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

/// The tail percentiles the benchmark may report, highest last.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// How many samples must lie beyond a reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_BEYOND`] samples beyond it, as `(percentile, value)` with the
/// nearest-rank value; `None` when even the median has fewer.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    TAIL_LADDER.iter().rev().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= TAIL_BEYOND).then(|| (p, sorted[rank - 1]))
    })
}

/// Ranks with ties sharing their average rank.
fn ranks(values: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut ranks = vec![0.0; values.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        let shared = (i + j) as f64 / 2.0;
        for &k in &order[i..=j] {
            ranks[k] = shared;
        }
        i = j + 1;
    }
    ranks
}

/// Spearman rank correlation of paired samples: the Pearson
/// correlation of their ranks. 0 when either side is constant or
/// there are fewer than two pairs.
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    if xs.len() < 2 || xs.len() != ys.len() {
        return 0.0;
    }
    let (rx, ry) = (ranks(xs), ranks(ys));
    let mean = (rx.len() - 1) as f64 / 2.0;
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (a, b) in rx.iter().zip(&ry) {
        sxy += (a - mean) * (b - mean);
        sxx += (a - mean) * (a - mean);
        syy += (b - mean) * (b - mean);
    }
    if sxx == 0.0 || syy == 0.0 {
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 leaves exactly ten samples beyond it; p95 only five.
        assert_eq!(tail(&values), Some((90.0, 90.0)));
        assert_eq!(tail(&values[..15]), None);
    }

    #[test]
    fn spearman_handles_ties_and_order() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((spearman(&xs, &[10.0, 20.0, 30.0, 40.0]) - 1.0).abs() < 1e-12);
        assert!((spearman(&xs, &[4.0, 3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(spearman(&xs, &[1.0, 1.0, 1.0, 1.0]), 0.0);
    }
}
