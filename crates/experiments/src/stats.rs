//! Small statistics helpers for experiment aggregation.

/// Arithmetic mean (0 for an empty sample).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Mean of `metric` over `items`, summed in slice order.
pub(crate) fn mean_by<T>(items: &[T], metric: impl Fn(&T) -> f64) -> f64 {
    mean(&items.iter().map(metric).collect::<Vec<f64>>())
}

/// `num / den` as a fraction (0 when `den` is 0).
pub(crate) fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Sample standard deviation (0 for samples of length < 2).
#[must_use]
pub fn stddev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn stddev_basic() {
        assert_eq!(stddev(&[]), 0.0);
        assert_eq!(stddev(&[5.0]), 0.0);
        // Sample stddev of {2, 4}: sqrt(((2-3)^2 + (4-3)^2) / 1) = sqrt(2).
        assert!((stddev(&[2.0, 4.0]) - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn stddev_of_constant_sample_is_zero() {
        assert_eq!(stddev(&[3.0, 3.0, 3.0]), 0.0);
    }
}
