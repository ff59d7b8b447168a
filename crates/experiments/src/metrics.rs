//! Writing, reading and rendering observability snapshots.
//!
//! `minimetrics` deliberately knows nothing about JSON; this module writes
//! its [`MetricsSnapshot`]/[`Log2Histogram`] types through the crate's
//! hand-rolled [`json`](crate::json) printer (the local [`ToJson`] trait
//! lets us implement it for the foreign types here), reads a snapshot back
//! with [`parse_snapshot`] — the only JSON document the program reads —
//! and renders it as the human-readable summary behind `moas-lab
//! metrics-summary`.
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
//! Values are written as exact integers, but [`Json::parse`] reads numbers
//! as `f64`, so a counter or sum above 2^53 reads back rounded; simulation
//! counters stay far below that.

use std::collections::BTreeMap;

use minimetrics::{Log2Histogram, MetricsSnapshot};

use crate::json::{Json, JsonError, ToJson};
use crate::overhead::OverheadReport;

impl ToJson for Log2Histogram {
    fn to_json_value(&self) -> Json {
        let buckets: Vec<Json> = self
            .nonzero_buckets()
            .map(|(index, count)| Json::Arr(vec![Json::Int(index as u64), Json::Int(count)]))
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

impl ToJson for MetricsSnapshot {
    fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("counters".into(), self.counters.to_json_value()),
            ("gauges".into(), self.gauges.to_json_value()),
            ("histograms".into(), self.histograms.to_json_value()),
        ])
    }
}

/// Reads a snapshot back from the JSON [`ToJson`] writes for it.
///
/// Keys beyond the ones written are ignored. A histogram must agree with
/// itself: bucket indices in range, a bucket total that fits a `u64` and
/// equals `count`, and `min`/`max` an ordered range falling in the lowest
/// and highest non-empty bucket.
///
/// # Errors
///
/// Returns [`JsonError`] if the text does not parse, a field is missing or
/// of the wrong type, or a histogram contradicts its buckets.
pub fn parse_snapshot(text: &str) -> Result<MetricsSnapshot, JsonError> {
    let doc = Json::parse(text)?;
    Ok(MetricsSnapshot {
        counters: map(field(&doc, "counters")?, uint)?,
        gauges: map(field(&doc, "gauges")?, uint)?,
        histograms: map(field(&doc, "histograms")?, histogram)?,
    })
}

fn shape_err(message: impl Into<String>) -> JsonError {
    JsonError {
        message: message.into(),
        offset: 0,
    }
}

fn field<'a>(value: &'a Json, name: &str) -> Result<&'a Json, JsonError> {
    value
        .get(name)
        .ok_or_else(|| shape_err(format!("missing field '{name}'")))
}

/// An object whose values all decode; a repeated key keeps its last value.
fn map<V>(
    value: &Json,
    decode: fn(&Json) -> Result<V, JsonError>,
) -> Result<BTreeMap<String, V>, JsonError> {
    let Json::Obj(fields) = value else {
        return Err(shape_err("expected object"));
    };
    fields
        .iter()
        .map(|(key, value)| Ok((key.clone(), decode(value)?)))
        .collect()
}

fn uint(value: &Json) -> Result<u64, JsonError> {
    match value {
        Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => Ok(*n as u64),
        _ => Err(shape_err("expected an unsigned integer")),
    }
}

fn array(value: &Json) -> Result<&[Json], JsonError> {
    match value {
        Json::Arr(items) => Ok(items),
        _ => Err(shape_err("expected array")),
    }
}

fn histogram(value: &Json) -> Result<Log2Histogram, JsonError> {
    let count = uint(field(value, "count")?)?;
    let sum = uint(field(value, "sum")?)?;
    let min = uint(field(value, "min")?)?;
    let max = uint(field(value, "max")?)?;
    let mut hist = Log2Histogram::new();
    for pair in array(field(value, "buckets")?)? {
        let [index, bucket_count] = array(pair)? else {
            return Err(shape_err("histogram bucket is not an [index, count] pair"));
        };
        let (index, bucket_count) = (uint(index)?, uint(bucket_count)?);
        if index >= minimetrics::HISTOGRAM_BUCKETS as u64 {
            return Err(shape_err(format!(
                "histogram bucket index {index} out of range"
            )));
        }
        if hist.count().checked_add(bucket_count).is_none() {
            return Err(shape_err("histogram bucket counts overflow u64"));
        }
        hist.add_bucket(index as usize, bucket_count);
    }
    if hist.count() != count {
        return Err(shape_err(format!(
            "histogram count {count} disagrees with bucket total {}",
            hist.count()
        )));
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
            return Err(shape_err(format!(
                "histogram summary contradicts its buckets: {message}"
            )));
        }
    }
    hist.set_summary(sum, min, max);
    Ok(hist)
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
    use crate::json::to_string_pretty;

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

    /// Reads one histogram through a snapshot document holding only it.
    fn parse_histogram(text: &str) -> Result<Log2Histogram, JsonError> {
        let doc = format!(r#"{{"counters": {{}}, "gauges": {{}}, "histograms": {{"h": {text}}}}}"#);
        parse_snapshot(&doc).map(|mut snapshot| snapshot.histograms.remove("h").unwrap())
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snapshot = sample();
        let text = to_string_pretty(&snapshot);
        let back = parse_snapshot(&text).unwrap();
        assert_eq!(back, snapshot);
        assert_eq!(to_string_pretty(&back), text);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let text = to_string_pretty(&MetricsSnapshot::new());
        assert!(parse_snapshot(&text).unwrap().is_empty());
        // Every section is required, and values must be unsigned integers.
        assert!(parse_snapshot(r#"{"counters": {}, "gauges": {}}"#).is_err());
        assert!(
            parse_snapshot(r#"{"counters": {"a": 1.5}, "gauges": {}, "histograms": {}}"#).is_err()
        );
        assert!(
            parse_snapshot(r#"{"counters": {"a": -3}, "gauges": {}, "histograms": {}}"#).is_err()
        );
        assert!(parse_snapshot(r#"{"counters": [], "gauges": {}, "histograms": {}}"#).is_err());
    }

    #[test]
    fn histogram_decode_rejects_malformed_buckets() {
        let no_pair = r#"{"count": 1, "sum": 0, "min": 0, "max": 0, "buckets": [[3]]}"#;
        assert!(parse_histogram(no_pair).is_err());
        let bad_index = r#"{"count": 1, "sum": 0, "min": 0, "max": 0, "buckets": [[65, 1]]}"#;
        assert!(parse_histogram(bad_index).is_err());
        let bad_count = r#"{"count": 9, "sum": 0, "min": 0, "max": 0, "buckets": [[0, 1]]}"#;
        assert!(parse_histogram(bad_count).is_err());
        // A summary that contradicts its buckets: min above max, and min or
        // max outside the lowest / highest non-empty bucket.
        let inverted = r#"{"count":1,"sum":0,"min":9,"max":2,"buckets":[[0,1]]}"#;
        assert!(parse_histogram(inverted).is_err());
        let min_too_low = r#"{"count":2,"sum":9,"min":1,"max":5,"buckets":[[3,1],[3,1]]}"#;
        assert!(parse_histogram(min_too_low).is_err());
        let min_too_high = r#"{"count":2,"sum":12,"min":5,"max":7,"buckets":[[2,1],[3,1]]}"#;
        assert!(parse_histogram(min_too_high).is_err());
        let max_too_high = r#"{"count":2,"sum":9,"min":4,"max":9,"buckets":[[3,2]]}"#;
        assert!(parse_histogram(max_too_high).is_err());
        let max_too_low = r#"{"count":2,"sum":9,"min":2,"max":3,"buckets":[[2,1],[3,1]]}"#;
        assert!(parse_histogram(max_too_low).is_err());
        // Counts whose total overflows are rejected, not wrapped.
        let overflow =
            r#"{"count":0,"sum":0,"min":0,"max":0,"buckets":[[0,18446744073709551615],[0,1]]}"#;
        assert!(parse_histogram(overflow).is_err());
        // The consistent neighbours of those cases still decode, empty
        // histograms included.
        let consistent = r#"{"count":2,"sum":9,"min":2,"max":7,"buckets":[[2,1],[3,1]]}"#;
        let hist = parse_histogram(consistent).unwrap();
        assert_eq!((hist.min(), hist.max()), (Some(2), Some(7)));
        let empty = r#"{"count":0,"sum":0,"min":0,"max":0,"buckets":[]}"#;
        assert_eq!(parse_histogram(empty).unwrap().count(), 0);
    }

    #[test]
    fn histogram_summary_survives_round_trip() {
        let mut h = Log2Histogram::new();
        h.observe(14);
        h.observe(1000);
        let back = parse_histogram(&h.to_json_value().pretty()).unwrap();
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
