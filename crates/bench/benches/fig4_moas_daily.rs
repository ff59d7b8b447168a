//! Figure 4 — the number of MOAS cases per day, 11/1997 - 7/2001.

use route_measurement::{
    daily_moas_counts, generate_timeline, median, MeasurementSummary, TimelineConfig,
};

fn regenerate_figure() -> String {
    let timeline = generate_timeline(&TimelineConfig::paper());
    let counts = daily_moas_counts(&timeline.dumps);
    let summary = MeasurementSummary::compute(&timeline.dumps);

    let mut out = String::new();
    out.push_str("## fig4 — Daily MOAS conflict counts (1279-day synthetic Route Views period)\n");
    out.push_str(
        "   day window        median    min    max   (paper: median 683 in 1998 -> 1294 in 2001)\n",
    );
    for (label, range) in [
        ("1997-11..1998-11", 0..365usize),
        ("1998-11..1999-11", 365..730),
        ("1999-11..2000-11", 730..1096),
        ("2000-11..2001-07", 1096..counts.len()),
    ] {
        let window = &counts[range.clone()];
        let min = window.iter().min().copied().unwrap_or(0);
        let max = window.iter().max().copied().unwrap_or(0);
        out.push_str(&format!(
            "   {label:<18} {:>6.0} {min:>6} {max:>6}\n",
            median(window)
        ));
    }
    out.push_str(&format!(
        "   peak day {} with {} cases (paper: 1998-04-07 and 2001-04-06 spikes)\n",
        summary.peak_day, summary.peak_count
    ));
    let event_day_count = counts[1245];
    out.push_str(&format!(
        "   2001-04-06 (day 1245): {event_day_count} cases, event share ~{:.1}% (paper: 5532/6627 = 83.5%)\n",
        100.0 * 5532.0 / event_day_count as f64
    ));
    out
}

fn main() {
    bench::print_figure(
        "Figure 4 — number of MOAS cases per day",
        &regenerate_figure(),
    );

    let short = TimelineConfig::paper().with_days(120);
    let timeline = generate_timeline(&short);
    bench::time_once("fig4/generate_120day_timeline", || {
        generate_timeline(&short)
    });
    bench::time_once("fig4/daily_counts_120days", || {
        daily_moas_counts(&timeline.dumps)
    });
}
