//! Analysis of daily dumps: Figures 4 and 5 and the §3.1 statistics.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt;

use bgp_types::Ipv4Prefix;

use crate::dump::DailyDump;

/// The Figure 4 series: number of MOAS conflicts per daily dump.
#[must_use]
pub fn daily_moas_counts(dumps: &[DailyDump]) -> Vec<usize> {
    dumps.iter().map(DailyDump::moas_count).collect()
}

/// The Figure 5 data: for every prefix ever observed in MOAS state, its
/// duration — "the total number of days when the routes to an address prefix
/// were announced by more than one origin, regardless of whether the days
/// were continuous and regardless of whether the same set of origins was
/// involved" — histogrammed as `duration → number of cases`.
#[must_use]
pub fn duration_histogram(dumps: &[DailyDump]) -> BTreeMap<u32, usize> {
    let mut days_per_prefix: BTreeMap<Ipv4Prefix, u32> = BTreeMap::new();
    for dump in dumps {
        for (prefix, _) in dump.moas_cases() {
            *days_per_prefix.entry(prefix).or_insert(0) += 1;
        }
    }
    let mut histogram: BTreeMap<u32, usize> = BTreeMap::new();
    for days in days_per_prefix.values() {
        *histogram.entry(*days).or_insert(0) += 1;
    }
    histogram
}

/// The median of a sample (mean of the middle pair for even lengths);
/// 0 for an empty sample.
#[must_use]
pub fn median(values: &[usize]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid] as f64
    } else {
        (sorted[mid - 1] + sorted[mid]) as f64 / 2.0
    }
}

/// Aggregate statistics over a collection period, mirroring every §3.1
/// number the paper reports.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurementSummary {
    /// Distinct prefixes that were ever in MOAS state.
    pub total_cases: usize,
    /// Cases whose total MOAS duration was exactly one day.
    pub one_day_cases: usize,
    /// `one_day_cases / total_cases` (0 when there are no cases).
    pub one_day_fraction: f64,
    /// The day on which the most one-day cases were active (the earliest
    /// such day on a tie; `peak_day` when there are none).
    pub spike_day: u32,
    /// How many one-day cases were active on `spike_day` — the paper's
    /// "82.7% of these short-lived MOAS cases can be attributed to a
    /// configuration fault that occurred on April 7th, 1998".
    pub one_day_on_spike: usize,
    /// Day index with the highest MOAS count.
    pub peak_day: u32,
    /// MOAS count on the peak day.
    pub peak_count: usize,
    /// Median daily count over the first 365 days (the paper's 1998 median
    /// was 683).
    pub median_first_year: f64,
    /// Median daily count over the last 365 days (the paper's 2001 median
    /// was 1294).
    pub median_last_year: f64,
    /// Distribution of the maximum origin-set size seen per case:
    /// `size → fraction of cases` (96.14% of the paper's cases were
    /// two-origin).
    pub origin_size_fractions: BTreeMap<usize, f64>,
    /// Largest number of simultaneous MOAS cases outside the peak day; the
    /// paper notes "less than 3,000 routes originate from multiple ASes".
    pub max_simultaneous: usize,
}

impl MeasurementSummary {
    /// Computes the summary from daily dumps.
    #[must_use]
    pub fn compute(dumps: &[DailyDump]) -> Self {
        let counts = daily_moas_counts(dumps);
        let (peak_day, peak_count) = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| *c)
            .map(|(i, &c)| (i as u32, c))
            .unwrap_or((0, 0));

        // Per-prefix activity: total days, single active day (if any), and
        // the largest origin set ever observed.
        let mut days_per_prefix: BTreeMap<Ipv4Prefix, Vec<u32>> = BTreeMap::new();
        let mut max_origins: BTreeMap<Ipv4Prefix, usize> = BTreeMap::new();
        for dump in dumps {
            for (prefix, origins) in dump.moas_cases() {
                days_per_prefix.entry(prefix).or_default().push(dump.day());
                let entry = max_origins.entry(prefix).or_insert(0);
                *entry = (*entry).max(origins.len());
            }
        }

        let total_cases = days_per_prefix.len();
        let mut one_day_per_day: BTreeMap<u32, usize> = BTreeMap::new();
        for days in days_per_prefix.values().filter(|days| days.len() == 1) {
            *one_day_per_day.entry(days[0]).or_insert(0) += 1;
        }
        let one_day_cases: usize = one_day_per_day.values().sum();
        let (spike_day, one_day_on_spike) = one_day_per_day
            .iter()
            .max_by_key(|&(&day, &n)| (n, Reverse(day)))
            .map_or((peak_day, 0), |(&day, &n)| (day, n));

        let mut size_counts: BTreeMap<usize, usize> = BTreeMap::new();
        for &size in max_origins.values() {
            *size_counts.entry(size).or_insert(0) += 1;
        }
        let origin_size_fractions = size_counts
            .into_iter()
            .map(|(size, n)| (size, n as f64 / total_cases.max(1) as f64))
            .collect();

        let year = 365.min(counts.len());
        MeasurementSummary {
            total_cases,
            one_day_cases,
            one_day_fraction: one_day_cases as f64 / total_cases.max(1) as f64,
            spike_day,
            one_day_on_spike,
            peak_day,
            peak_count,
            median_first_year: median(&counts[..year]),
            median_last_year: median(&counts[counts.len() - year..]),
            origin_size_fractions,
            max_simultaneous: counts.iter().copied().max().unwrap_or(0),
        }
    }

    /// Fraction of one-day cases that were active on `spike_day`.
    #[must_use]
    pub fn one_day_spike_fraction(&self) -> f64 {
        self.one_day_on_spike as f64 / self.one_day_cases.max(1) as f64
    }
}

impl fmt::Display for MeasurementSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} MOAS cases; {} ({:.1}%) lasted one day ({:.1}% of those on the day-{} spike)",
            self.total_cases,
            self.one_day_cases,
            100.0 * self.one_day_fraction,
            100.0 * self.one_day_spike_fraction(),
            self.spike_day,
        )?;
        write!(
            f,
            "daily median {:.0} (first year) -> {:.0} (last year); peak {} on day {}",
            self.median_first_year, self.median_last_year, self.peak_count, self.peak_day
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::Asn;

    fn p(i: u32) -> Ipv4Prefix {
        Ipv4Prefix::new(i << 16, 16)
    }

    /// Three days; prefix 1 MOAS on all days, prefix 2 only on day 1.
    fn sample() -> Vec<DailyDump> {
        let mut dumps = Vec::new();
        for day in 0..3u32 {
            let mut d = DailyDump::new(day);
            d.observe(p(1), Asn(10));
            d.observe(p(1), Asn(11));
            if day == 1 {
                d.observe(p(2), Asn(20));
                d.observe(p(2), Asn(21));
                d.observe(p(2), Asn(22));
            }
            d.observe(p(3), Asn(30)); // never MOAS
            dumps.push(d);
        }
        dumps
    }

    #[test]
    fn daily_counts() {
        assert_eq!(daily_moas_counts(&sample()), vec![1, 2, 1]);
    }

    #[test]
    fn durations() {
        let hist = duration_histogram(&sample());
        assert_eq!(hist.get(&1), Some(&1)); // prefix 2
        assert_eq!(hist.get(&3), Some(&1)); // prefix 1
        assert_eq!(hist.len(), 2);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3, 1, 2]), 2.0);
        assert_eq!(median(&[1, 2, 3, 4]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn summary_counts_cases_and_durations() {
        let s = MeasurementSummary::compute(&sample());
        assert_eq!(s.total_cases, 2);
        assert_eq!(s.one_day_cases, 1);
        assert!((s.one_day_fraction - 0.5).abs() < 1e-9);
        assert_eq!(s.peak_day, 1);
        assert_eq!(s.peak_count, 2);
        assert_eq!(s.max_simultaneous, 2);
        // Prefix 2's single day *is* the spike day.
        assert_eq!(s.spike_day, 1);
        assert_eq!(s.one_day_on_spike, 1);
        assert!((s.one_day_spike_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn origin_size_fractions_use_max_over_period() {
        let s = MeasurementSummary::compute(&sample());
        assert!((s.origin_size_fractions[&2] - 0.5).abs() < 1e-9);
        assert!((s.origin_size_fractions[&3] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_dumps_give_empty_summary() {
        let s = MeasurementSummary::compute(&[]);
        assert_eq!(s.total_cases, 0);
        assert_eq!(s.one_day_fraction, 0.0);
        assert_eq!(s.peak_count, 0);
    }

    #[test]
    fn display_is_informative() {
        let s = MeasurementSummary::compute(&sample()).to_string();
        assert!(s.contains("2 MOAS cases"));
        assert!(s.contains("one day"));
    }
}
