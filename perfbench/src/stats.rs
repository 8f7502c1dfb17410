//! Order statistics and the benchmark's percentile reporting rule.

/// Samples that must lie beyond a percentile before it is reported: a tail
/// resting on fewer points is noise, so it is omitted instead.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Sorts a sample ascending. Every measured value is finite.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measured values are finite"));
    values
}

/// Quantile `q` of an ascending sample by linear interpolation between
/// order statistics; `None` for an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(last);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Order statistics strictly beyond the position of quantile `q` in a
/// sample of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    match n.checked_sub(1) {
        Some(last) => last - (q.clamp(0.0, 1.0) * last as f64).floor() as usize,
        None => 0,
    }
}

/// Quantile `q`, but only where at least [`MIN_TAIL_SAMPLES`] samples lie
/// beyond it.
pub fn reportable_quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if samples_beyond(sorted.len(), q) < MIN_TAIL_SAMPLES {
        return None;
    }
    quantile(sorted, q)
}

/// Median of an unsorted sample; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(&sorted(values.to_vec()), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 0.5), Some(3.0));
        assert_eq!(quantile(&s, 0.125), Some(1.5));
        assert_eq!(quantile(&s, 1.0), Some(5.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        let sample = |n: usize| sorted((0..n).map(|i| i as f64).collect());
        // 1,000 samples leave exactly 10 beyond p99: reported.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(reportable_quantile(&sample(1000), 0.99).is_some());
        // 900 leave 9: omitted, while the median is still reportable.
        assert_eq!(samples_beyond(900, 0.99), 9);
        assert!(reportable_quantile(&sample(900), 0.99).is_none());
        assert!(reportable_quantile(&sample(900), 0.5).is_some());
        // p99.9 needs ten times the sample of p99.
        assert!(reportable_quantile(&sample(9_000), 0.999).is_none());
        assert!(reportable_quantile(&sample(10_000), 0.999).is_some());
        assert!(reportable_quantile(&[], 0.5).is_none());
    }
}
