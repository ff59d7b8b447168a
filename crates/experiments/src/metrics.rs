//! Serialization and rendering for observability snapshots.
//!
//! `minimetrics` deliberately knows nothing about JSON; this module bridges
//! its [`MetricsSnapshot`]/[`Log2Histogram`] types into the crate's
//! hand-rolled [`json`](crate::json) codec (the local `ToJson`/`FromJson`
//! traits let us implement the codec for the foreign types here) and renders
//! snapshots as the human-readable summary behind `moas-lab metrics-summary`.
//!
//! # Serialized shape
//!
//! ```json
//! {
//!   "counters":   { "net.messages.announcements": 683, ... },
//!   "gauges":     { "net.converged_at_ticks": 41, ... },
//!   "histograms": {
//!     "trial.convergence_ticks.origin": {
//!       "count": 15, "sum": 310, "min": 14, "max": 29,
//!       "buckets": [[4, 3], [5, 12]]
//!     }
//!   }
//! }
//! ```
//!
//! Histogram buckets serialize sparsely as `[bucket index, count]` pairs
//! (see [`Log2Histogram::bucket_index`] for the value → bucket mapping).
//!
//! JSON numbers are `f64`, so counter/sum values above 2^53 would lose
//! precision in a round-trip; simulation counters stay far below that.

use minimetrics::{Log2Histogram, MetricsSnapshot};

use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::overhead::OverheadReport;

impl ToJson for Log2Histogram {
    fn to_json_value(&self) -> Json {
        let buckets: Vec<Json> = self
            .nonzero_buckets()
            .map(|(index, count)| Json::Arr(vec![Json::Num(index as f64), Json::Num(count as f64)]))
            .collect();
        Json::Obj(vec![
            ("count".into(), self.count().to_json_value()),
            ("sum".into(), self.sum().to_json_value()),
            ("min".into(), self.min().unwrap_or(0).to_json_value()),
            ("max".into(), self.max().unwrap_or(0).to_json_value()),
            ("buckets".into(), Json::Arr(buckets)),
        ])
    }
}

impl FromJson for Log2Histogram {
    fn from_json_value(value: &Json) -> Result<Self, JsonError> {
        let field = |name: &str| {
            value.get(name).ok_or_else(|| JsonError {
                message: format!("missing histogram field '{name}'"),
                offset: 0,
            })
        };
        let count = u64::from_json_value(field("count")?)?;
        let sum = u64::from_json_value(field("sum")?)?;
        let min = u64::from_json_value(field("min")?)?;
        let max = u64::from_json_value(field("max")?)?;
        let pairs = Vec::<Vec<u64>>::from_json_value(field("buckets")?)?;

        let mut hist = Log2Histogram::new();
        for pair in &pairs {
            let [index, bucket_count] = pair.as_slice() else {
                return Err(JsonError {
                    message: "histogram bucket is not an [index, count] pair".into(),
                    offset: 0,
                });
            };
            if *index as usize >= minimetrics::HISTOGRAM_BUCKETS {
                return Err(JsonError {
                    message: format!("histogram bucket index {index} out of range"),
                    offset: 0,
                });
            }
            hist.add_bucket(*index as usize, *bucket_count);
        }
        if hist.count() != count {
            return Err(JsonError {
                message: format!(
                    "histogram count {count} disagrees with bucket total {}",
                    hist.count()
                ),
                offset: 0,
            });
        }
        // The summary must agree with the buckets it summarises: an
        // ordered range whose ends fall in the lowest and highest non-empty
        // bucket. (Empty histograms carry no summary to check.)
        let lowest = hist.nonzero_buckets().next().map(|(index, _)| index);
        let highest = hist.nonzero_buckets().last().map(|(index, _)| index);
        if let (Some(lowest), Some(highest)) = (lowest, highest) {
            let contradiction = if min > max {
                Some(format!("min {min} above max {max}"))
            } else if Log2Histogram::bucket_index(min) != lowest {
                Some(format!("min {min} outside lowest bucket {lowest}"))
            } else if Log2Histogram::bucket_index(max) != highest {
                Some(format!("max {max} outside highest bucket {highest}"))
            } else {
                None
            };
            if let Some(message) = contradiction {
                return Err(JsonError {
                    message: format!("histogram summary contradicts its buckets: {message}"),
                    offset: 0,
                });
            }
        }
        hist.set_summary(sum, min, max);
        Ok(hist)
    }
}

impl ToJson for MetricsSnapshot {
    fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("counters".into(), self.counters.to_json_value()),
            ("gauges".into(), self.gauges.to_json_value()),
            ("histograms".into(), self.histograms.to_json_value()),
        ])
    }
}

impl FromJson for MetricsSnapshot {
    fn from_json_value(value: &Json) -> Result<Self, JsonError> {
        let field = |name: &str| {
            value.get(name).ok_or_else(|| JsonError {
                message: format!("missing snapshot field '{name}'"),
                offset: 0,
            })
        };
        Ok(MetricsSnapshot {
            counters: FromJson::from_json_value(field("counters")?)?,
            gauges: FromJson::from_json_value(field("gauges")?)?,
            histograms: FromJson::from_json_value(field("histograms")?)?,
        })
    }
}

/// Renders a snapshot as the aligned plain-text table behind
/// `moas-lab metrics-summary`: one section per metric kind, histograms with
/// their count/mean/min/max and the value range of their modal bucket.
#[must_use]
pub fn render_metrics_summary(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    if snapshot.is_empty() {
        out.push_str("(empty snapshot)\n");
        return out;
    }

    let key_width = snapshot
        .counters
        .keys()
        .chain(snapshot.gauges.keys())
        .chain(snapshot.histograms.keys())
        .map(String::len)
        .max()
        .unwrap_or(0);

    if !snapshot.counters.is_empty() {
        out.push_str(&format!("counters ({}):\n", snapshot.counters.len()));
        for (key, value) in &snapshot.counters {
            out.push_str(&format!("  {key:<key_width$}  {value}\n"));
        }
    }
    if !snapshot.gauges.is_empty() {
        out.push_str(&format!("gauges ({}):\n", snapshot.gauges.len()));
        for (key, value) in &snapshot.gauges {
            out.push_str(&format!("  {key:<key_width$}  {value}\n"));
        }
    }
    if !snapshot.histograms.is_empty() {
        out.push_str(&format!("histograms ({}):\n", snapshot.histograms.len()));
        for (key, hist) in &snapshot.histograms {
            let modal = hist
                .nonzero_buckets()
                .max_by_key(|&(_, count)| count)
                .map(|(index, _)| Log2Histogram::bucket_range(index));
            out.push_str(&format!(
                "  {key:<key_width$}  count={} mean={:.1} min={} max={}",
                hist.count(),
                hist.mean(),
                hist.min().unwrap_or(0),
                hist.max().unwrap_or(0),
            ));
            if let Some((low, high)) = modal {
                out.push_str(&format!(" mode={low}..={high}"));
            }
            out.push('\n');
        }
    }
    out
}

/// Derives a metrics snapshot from a table-overhead report so `moas-lab
/// overhead --metrics` emits the same artifact shape as the simulation
/// commands: byte totals as counters, the table-size breakdown as gauges,
/// and the MOAS-list-size distribution as a histogram.
#[must_use]
pub fn overhead_snapshot(report: &OverheadReport) -> MetricsSnapshot {
    let mut snapshot = MetricsSnapshot::new();
    snapshot
        .counters
        .insert("overhead.added_bytes".into(), report.added_bytes);
    snapshot
        .counters
        .insert("overhead.baseline_bytes".into(), report.baseline_bytes);
    snapshot
        .gauges
        .insert("overhead.total_routes".into(), report.total_routes as u64);
    snapshot.gauges.insert(
        "overhead.multi_origin_routes".into(),
        report.multi_origin_routes as u64,
    );
    let mut sizes = Log2Histogram::new();
    for (&size, &routes) in &report.list_size_distribution {
        for _ in 0..routes {
            sizes.observe(size as u64);
        }
    }
    snapshot
        .histograms
        .insert("overhead.moas_list_size".into(), sizes);
    snapshot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{from_str, to_string_pretty, FromJson};
    use std::collections::BTreeMap;

    fn sample() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new();
        s.counters.insert("net.messages.announcements".into(), 683);
        s.counters.insert("trial.count".into(), 15);
        s.gauges.insert("net.converged_at_ticks".into(), 41);
        let mut h = Log2Histogram::new();
        for v in [0, 1, 5, 5, 14, 1024] {
            h.observe(v);
        }
        s.histograms
            .insert("trial.convergence_ticks.origin".into(), h);
        s
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snapshot = sample();
        let text = to_string_pretty(&snapshot);
        let back: MetricsSnapshot = from_str(&text).unwrap();
        assert_eq!(back, snapshot);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let text = to_string_pretty(&MetricsSnapshot::new());
        let back: MetricsSnapshot = from_str(&text).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn histogram_decode_rejects_malformed_buckets() {
        let no_pair = r#"{"count": 1, "sum": 0, "min": 0, "max": 0, "buckets": [[3]]}"#;
        assert!(from_str::<Log2Histogram>(no_pair).is_err());
        let bad_index = r#"{"count": 1, "sum": 0, "min": 0, "max": 0, "buckets": [[65, 1]]}"#;
        assert!(from_str::<Log2Histogram>(bad_index).is_err());
        let bad_count = r#"{"count": 9, "sum": 0, "min": 0, "max": 0, "buckets": [[0, 1]]}"#;
        assert!(from_str::<Log2Histogram>(bad_count).is_err());
        // A summary that contradicts its buckets: min above max, and min or
        // max outside the lowest / highest non-empty bucket.
        let inverted = r#"{"count":1,"sum":0,"min":9,"max":2,"buckets":[[0,1]]}"#;
        assert!(from_str::<Log2Histogram>(inverted).is_err());
        let min_too_low = r#"{"count":2,"sum":9,"min":1,"max":5,"buckets":[[3,1],[3,1]]}"#;
        assert!(from_str::<Log2Histogram>(min_too_low).is_err());
        let min_too_high = r#"{"count":2,"sum":12,"min":5,"max":7,"buckets":[[2,1],[3,1]]}"#;
        assert!(from_str::<Log2Histogram>(min_too_high).is_err());
        let max_too_high = r#"{"count":2,"sum":9,"min":4,"max":9,"buckets":[[3,2]]}"#;
        assert!(from_str::<Log2Histogram>(max_too_high).is_err());
        let max_too_low = r#"{"count":2,"sum":9,"min":2,"max":3,"buckets":[[2,1],[3,1]]}"#;
        assert!(from_str::<Log2Histogram>(max_too_low).is_err());
        // The consistent neighbours of those cases still decode, empty
        // histograms included.
        let consistent = r#"{"count":2,"sum":9,"min":2,"max":7,"buckets":[[2,1],[3,1]]}"#;
        let hist = from_str::<Log2Histogram>(consistent).unwrap();
        assert_eq!((hist.min(), hist.max()), (Some(2), Some(7)));
        let empty = r#"{"count":0,"sum":0,"min":0,"max":0,"buckets":[]}"#;
        assert_eq!(from_str::<Log2Histogram>(empty).unwrap().count(), 0);
    }

    #[test]
    fn histogram_summary_survives_round_trip() {
        let mut h = Log2Histogram::new();
        h.observe(14);
        h.observe(1000);
        let back = Log2Histogram::from_json_value(&h.to_json_value()).unwrap();
        assert_eq!(back.sum(), 1014);
        assert_eq!(back.min(), Some(14));
        assert_eq!(back.max(), Some(1000));
    }

    #[test]
    fn summary_renders_every_section() {
        let text = render_metrics_summary(&sample());
        assert!(text.contains("counters (2):"));
        assert!(text.contains("net.messages.announcements"));
        assert!(text.contains("gauges (1):"));
        assert!(text.contains("histograms (1):"));
        assert!(text.contains("count=6"));
        assert!(text.contains("min=0 max=1024"));
        assert!(text.contains("mode=4..=7"));
        assert_eq!(
            render_metrics_summary(&MetricsSnapshot::new()),
            "(empty snapshot)\n"
        );
    }

    #[test]
    fn overhead_report_becomes_snapshot() {
        let mut list_size_distribution = BTreeMap::new();
        list_size_distribution.insert(2usize, 3usize);
        list_size_distribution.insert(4usize, 1usize);
        let report = OverheadReport {
            total_routes: 100,
            multi_origin_routes: 4,
            list_size_distribution,
            added_bytes: 56,
            baseline_bytes: 4000,
        };
        let snapshot = overhead_snapshot(&report);
        assert_eq!(snapshot.counters["overhead.added_bytes"], 56);
        assert_eq!(snapshot.gauges["overhead.total_routes"], 100);
        let hist = &snapshot.histograms["overhead.moas_list_size"];
        assert_eq!(hist.count(), 4);
        assert_eq!(hist.sum(), 10);
        assert_eq!(hist.max(), Some(4));
    }
}
