//! Figure 5 — the duration histogram of MOAS cases.

use bgp_types::Asn;
use route_measurement::{
    duration_histogram, generate_timeline, FaultEvent, MeasurementSummary, TimelineConfig,
};

/// The duration study runs on the period with the 1998 fault only, matching
/// the paper's one-day statistics (35.9% one-day cases, 82.7% of them from
/// the 1998-04-07 fault); see DESIGN.md on the 2001 event's duration.
fn duration_config() -> TimelineConfig {
    TimelineConfig::paper().with_events(vec![FaultEvent {
        day: 150,
        faulty_as: Asn(8584),
        prefix_count: 1135,
        duration_days: 1,
    }])
}

fn regenerate_figure() -> String {
    let timeline = generate_timeline(&duration_config());
    let histogram = duration_histogram(&timeline.dumps);
    let summary = MeasurementSummary::compute(&timeline.dumps);

    let mut out = String::new();
    out.push_str("## fig5 — Duration of MOAS cases (log-binned)\n");
    out.push_str("   duration (days)     cases\n");
    let mut lo = 1u32;
    while lo <= 1279 {
        let hi = (lo * 4).min(1280);
        let count: usize = histogram
            .iter()
            .filter(|(&d, _)| d >= lo && d < hi)
            .map(|(_, &n)| n)
            .sum();
        out.push_str(&format!("   {:>6} - {:<6} {count:>10}\n", lo, hi - 1));
        lo = hi;
    }
    out.push_str(&format!(
        "   one-day cases: {} of {} = {:.1}% (paper: 1373 = 35.9%)\n",
        summary.one_day_cases,
        summary.total_cases,
        100.0 * summary.one_day_fraction
    ));
    out.push_str(&format!(
        "   one-day cases on the 1998-04-07 spike: {:.1}% (paper: 82.7%)\n",
        100.0 * summary.one_day_spike_fraction()
    ));
    out
}

fn main() {
    bench::print_figure("Figure 5 — duration of MOAS cases", &regenerate_figure());

    let short = duration_config().with_days(120);
    let timeline = generate_timeline(&short);
    bench::time_once("fig5/duration_histogram_120days", || {
        duration_histogram(&timeline.dumps)
    });
    bench::time_once("fig5/summary_120days", || {
        MeasurementSummary::compute(&timeline.dumps)
    });
}
