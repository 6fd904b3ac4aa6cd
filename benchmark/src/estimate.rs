//! Estimators: per-item minimum over passes (the perf ledger's method),
//! percentiles, and the quartile spread the acceptance rule uses.

/// Wall-clock samples of a fixed list of items (grid cells), one sample per
/// item per pass. The metric is the sum over items of each item's minimum:
/// on this host whole-pass medians moved 21–37 % between back-to-back sets
/// while the sum of per-cell minima moved 1.5–6 %, because a slow phase only
/// has to miss each cell once.
#[derive(Debug, Clone, Default)]
pub struct MinTimes {
    min_s: Vec<f64>,
    samples: Vec<f64>,
}

impl MinTimes {
    pub fn new(items: usize) -> Self {
        Self {
            min_s: vec![f64::INFINITY; items],
            samples: Vec::new(),
        }
    }

    pub fn record(&mut self, item: usize, seconds: f64) {
        if seconds < self.min_s[item] {
            self.min_s[item] = seconds;
        }
        self.samples.push(seconds);
    }

    /// Sum over items of the per-item minimum; items never sampled count 0.
    pub fn sum_of_min(&self) -> f64 {
        self.min_s.iter().filter(|s| s.is_finite()).sum()
    }

    /// Every sample recorded, in recording order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 if empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

pub fn minimum(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First and third quartile by the "exclusive" method, the default of
/// Python's `statistics.quantiles(values, n=4)` that the acceptance rule
/// names. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, linearly interpolated and
        // clamped to the ends exactly as CPython does.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    if samples.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_of_min_keeps_each_items_best_pass() {
        let mut t = MinTimes::new(3);
        for (pass, row) in [[3.0, 1.0, 5.0], [2.0, 4.0, 6.0], [9.0, 0.5, 4.0]]
            .iter()
            .enumerate()
        {
            for (i, s) in row.iter().enumerate() {
                t.record(i, *s);
            }
            assert_eq!(t.samples().len(), 3 * (pass + 1));
        }
        assert_eq!(t.sum_of_min(), 2.0 + 0.5 + 4.0);
    }

    #[test]
    fn sum_of_min_ignores_items_never_sampled() {
        let mut t = MinTimes::new(2);
        t.record(0, 1.5);
        assert_eq!(t.sum_of_min(), 1.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 10.0);
        assert_eq!(percentile(&v, 95.0), 19.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
