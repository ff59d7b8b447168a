//! Order statistics and the metric records the benchmark prints.

use experiments::json::Json;

/// The `p`-quantile (0..=1) of ascending `sorted` by linear interpolation
/// between closest ranks.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn sort(samples: &mut [f64]) {
    samples.sort_unstable_by(f64::total_cmp);
}

pub fn median(samples: &mut [f64]) -> f64 {
    sort(samples);
    quantile_sorted(samples, 0.5)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method), so
/// `compare` judges spread the way the contract's driver does. With fewer
/// than two values all three are the one value.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    if n < 2 {
        return [sorted[0]; 3];
    }
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // Not clamped: at the ends Python extrapolates past the data.
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    })
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples `value` summarises (1 for a single reading or count).
    pub samples: usize,
    /// Quartiles of those samples, when there are enough to have any.
    pub quartiles: Option<[f64; 2]>,
}

impl Metric {
    /// A single reading, a count, or a ratio of totals.
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: 1,
            quartiles: None,
        }
    }

    /// The `p`-quantile of `samples` (0.5 for the median), with quartiles.
    pub fn quantile(name: &'static str, unit: &'static str, samples: &mut [f64], p: f64) -> Metric {
        sort(samples);
        Metric {
            name,
            unit,
            value: quantile_sorted(samples, p),
            samples: samples.len(),
            quartiles: Some([
                quantile_sorted(samples, 0.25),
                quantile_sorted(samples, 0.75),
            ]),
        }
    }

    pub fn median(name: &'static str, unit: &'static str, samples: &mut [f64]) -> Metric {
        Metric::quantile(name, unit, samples, 0.5)
    }
}

/// `Json` on one line (the contract's result is the last line of stdout).
pub fn compact(json: &Json) -> String {
    match json {
        Json::Arr(items) => {
            let inner: Vec<String> = items.iter().map(compact).collect();
            format!("[{}]", inner.join(","))
        }
        Json::Obj(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{}:{}", Json::Str(k.clone()).pretty(), compact(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
        scalar => scalar.pretty(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
    }

    #[test]
    fn compact_is_one_line_and_parses_back() {
        let doc = Json::Obj(vec![
            (
                "a b".into(),
                Json::Arr(vec![Json::Num(1.5), Json::Bool(true)]),
            ),
            ("s".into(), Json::Str("x\"y".into())),
        ]);
        let line = compact(&doc);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), doc);
    }
}
