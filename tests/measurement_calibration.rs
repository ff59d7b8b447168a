//! Calibration checks: the synthetic Route Views timeline must reproduce the
//! §3.1 statistics the paper reports (within tolerance bands).

use moas::measurement::{
    daily_moas_counts, duration_histogram, generate_timeline, median, MeasurementSummary,
    TimelineConfig,
};

fn full_timeline() -> &'static moas::measurement::GeneratedTimeline {
    static CACHE: std::sync::OnceLock<moas::measurement::GeneratedTimeline> =
        std::sync::OnceLock::new();
    CACHE.get_or_init(|| generate_timeline(&TimelineConfig::paper()))
}

/// The duration-statistics period (Figure 5): the 1998 fault only.
fn duration_timeline() -> &'static moas::measurement::GeneratedTimeline {
    static CACHE: std::sync::OnceLock<moas::measurement::GeneratedTimeline> =
        std::sync::OnceLock::new();
    CACHE.get_or_init(|| generate_timeline(&TimelineConfig::duration_study()))
}

#[test]
fn fig4_daily_medians_match_paper() {
    let timeline = full_timeline();
    let counts = daily_moas_counts(&timeline.dumps);
    assert_eq!(counts.len(), 1279);

    // Paper: median 683 in 1998 and 1294 in 2001.
    let median_1998 = median(&counts[0..365]);
    let median_2001 = median(&counts[1096..1279]);
    assert!(
        (580.0..790.0).contains(&median_1998),
        "1998 median {median_1998}"
    );
    assert!(
        (1100.0..1450.0).contains(&median_2001),
        "2001 median {median_2001}"
    );
}

#[test]
fn fig4_fault_spikes_on_the_right_days() {
    let timeline = full_timeline();
    let counts = daily_moas_counts(&timeline.dumps);

    // 1998-04-07 (day 150): ~1135 extra cases over the ~700 background.
    assert!(
        counts[150] > counts[149] + 900,
        "day-150 spike: {} vs {}",
        counts[150],
        counts[149]
    );
    // 2001-04-06 (day 1245): the largest spike of the whole period, with the
    // faulty AS involved in roughly 5532 of ~6627 cases. The modeled event
    // spans two dumps, so the peak may fall on either day.
    let summary = MeasurementSummary::compute(&timeline.dumps);
    assert!(
        summary.peak_day == 1245 || summary.peak_day == 1246,
        "largest spike day {}",
        summary.peak_day
    );
    assert!(
        (6000..7300).contains(&summary.peak_count),
        "peak count {} (paper: 6627)",
        summary.peak_count
    );
    let event_share = 5532.0 / summary.peak_count as f64;
    assert!(
        (0.75..0.92).contains(&event_share),
        "event share {event_share:.2} (paper: 0.835)"
    );
}

#[test]
fn fig5_one_day_statistics_match_paper() {
    let summary = MeasurementSummary::compute(&duration_timeline().dumps);
    // Paper: 1373 (35.9%) of all cases lasted one day...
    assert!(
        (0.28..0.45).contains(&summary.one_day_fraction),
        "one-day fraction {:.3} (paper: 0.359)",
        summary.one_day_fraction
    );
    // ...and 82.7% of those were the 1998-04-07 fault.
    let spike_share = summary.one_day_spike_fraction();
    assert!(
        (0.70..0.92).contains(&spike_share),
        "spike share {spike_share:.3} (paper: 0.827)"
    );
    assert_eq!(summary.peak_day, 150);
    assert_eq!(summary.spike_day, 150);
}

#[test]
fn full_period_attributes_one_day_cases_to_the_1998_fault() {
    // The 2001 event is the full period's peak but lasts two days, so the
    // one-day share still belongs to 1998-04-07.
    let summary = MeasurementSummary::compute(&full_timeline().dumps);
    assert_eq!(summary.spike_day, 150);
    let spike_share = summary.one_day_spike_fraction();
    assert!(
        (0.70..0.92).contains(&spike_share),
        "spike share {spike_share:.3} (paper: 0.827)"
    );
}

#[test]
fn fig5_histogram_has_short_mode_and_long_tail() {
    let timeline = duration_timeline();
    let histogram = duration_histogram(&timeline.dumps);
    let one_day = histogram.get(&1).copied().unwrap_or(0);
    // Most cases are short-lived...
    let longest = *histogram.keys().max().unwrap();
    assert!(one_day > 1000, "one-day cases {one_day}");
    // ...but some last for a large part of the period (the paper's
    // long-lasting multihoming cases).
    assert!(longest > 600, "longest case {longest} days");
}

#[test]
fn origin_set_size_split_matches_section31() {
    let summary = MeasurementSummary::compute(&duration_timeline().dumps);
    let two = summary
        .origin_size_fractions
        .get(&2)
        .copied()
        .unwrap_or(0.0);
    let three = summary
        .origin_size_fractions
        .get(&3)
        .copied()
        .unwrap_or(0.0);
    // Paper: 96.14% two-origin, 2.7% three-origin. The fault events are
    // all two-origin, pushing `two` slightly above the multihoming-only rate.
    assert!((0.93..0.99).contains(&two), "two-origin fraction {two:.4}");
    assert!(three < 0.05, "three-origin fraction {three:.4}");
    // 99% of MOAS cases involve 3 or fewer origins.
    let up_to_three: f64 = summary
        .origin_size_fractions
        .iter()
        .filter(|(&size, _)| size <= 3)
        .map(|(_, &f)| f)
        .sum();
    assert!(up_to_three > 0.99, "≤3-origin fraction {up_to_three:.4}");
}

#[test]
fn simultaneous_moas_stays_under_3000_outside_fault_days() {
    // §4.3: "in today's Internet less than 3,000 routes originate from
    // multiple ASes" — the background (non-event) activity respects that.
    let timeline = full_timeline();
    let counts = daily_moas_counts(&timeline.dumps);
    for (day, &count) in counts.iter().enumerate() {
        if ![150usize, 1245, 1246].contains(&day) {
            assert!(count < 3000, "day {day} has {count} simultaneous cases");
        }
    }
}

#[test]
fn update_stream_onsets_spike_on_fault_days() {
    use moas::measurement::OriginEventTracker;
    let timeline = full_timeline();
    // Prefixes entering MOAS state per day, one day at a time, as an
    // on-line monitor would see them.
    let mut tracker = OriginEventTracker::new();
    let mut events = Vec::new();
    let onsets: Vec<usize> = timeline
        .dumps
        .iter()
        .map(|dump| {
            events.clear();
            tracker.advance(dump, &mut events);
            events.iter().filter(|e| e.enters_moas()).count()
        })
        .collect();
    let (fault98, fault01) = (onsets[150], onsets[1245]);
    assert!(fault98 >= 1000, "1998 onset burst {fault98}");
    assert!(fault01 >= 5000, "2001 onset burst {fault01}");
    // A typical quiet day sees only churn/jitter-scale onsets.
    let quiet = onsets[400];
    assert!(quiet < 100, "quiet-day onsets {quiet}");
}

#[test]
fn ground_truth_and_analysis_agree_on_durations() {
    let timeline = duration_timeline();
    let histogram = duration_histogram(&timeline.dumps);
    let analyzed_total: usize = histogram.values().sum();
    assert_eq!(analyzed_total, timeline.cases.len());
    let analyzed_days: usize = histogram.iter().map(|(&d, &n)| d as usize * n).sum();
    let truth_days: usize = timeline.cases.iter().map(|c| c.duration() as usize).sum();
    assert_eq!(analyzed_days, truth_days);
}
