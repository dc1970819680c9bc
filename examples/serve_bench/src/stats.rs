//! Percentiles, the across-passes reduction, and the A/A comparison.

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }

    /// By what share of `a` the value `b` is worse (negative when better).
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        match self {
            Self::Lower => (b - a) / a,
            Self::Higher => (a - b) / a,
        }
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent of
/// the samples at or below it.
///
/// # Panics
///
/// Panics on an empty sample: every class the bench reports has requests.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The arithmetic mean.
///
/// # Panics
///
/// Panics on an empty sample: every class the bench reports has requests.
pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of an empty sample");
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The median (mean of the middle two for an even count): how the passes'
/// set-up times reduce to the one reported.
///
/// # Panics
///
/// Panics on an empty slice: every run makes at least one pass.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&s, 5.0), 15.0);
        assert_eq!(percentile(&s, 30.0), 20.0);
        assert_eq!(percentile(&s, 40.0), 20.0);
        assert_eq!(percentile(&s, 50.0), 35.0);
        assert_eq!(percentile(&s, 90.0), 50.0);
        assert_eq!(percentile(&s, 100.0), 50.0);
        // Order of arrival does not matter; a single sample is every rank.
        assert_eq!(percentile(&[40.0, 15.0, 50.0, 20.0, 35.0], 50.0), 35.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        // 20 samples: p90 is the 18th.
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&s, 90.0), 18.0);
    }

    #[test]
    fn means_and_medians() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[0.52, 0.49, 0.61]), 0.52);
        assert_eq!(median(&[6.0, 6.5, 5.25, 6.25]), 6.125);
        assert_eq!(median(&[3.0]), 3.0);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((Better::Lower.worsening(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 9.0) - 0.10).abs() < 1e-12);
        assert!(Better::Higher.worsening(10.0, 11.0) < 0.0);
    }
}
