//! MOAS measurement: the §3 study behind Figures 4 and 5.
//!
//! The paper analyzes 1279 days of Oregon Route Views table dumps
//! (11/8/1997 – 7/18/2001), counting daily MOAS conflicts (Figure 4) and the
//! duration of each case (Figure 5). The archives cannot be shipped, so this
//! crate pairs:
//!
//! * **the analysis code** ([`daily_moas_counts`], [`duration_histogram`],
//!   [`MeasurementSummary`]) — written against daily table dumps and equally
//!   applicable to real data, and
//! * **a calibrated synthetic collector** ([`TimelineConfig::paper`],
//!   [`generate_timeline`]) — an announcement timeline with long-lived
//!   multihoming MOAS, short operational churn, and the two famous fault
//!   spikes (AS 8584 on 1998-04-07; the (AS 3561, AS 15412) event on
//!   2001-04-06), tuned to the statistics the paper reports: ~35.9% of cases
//!   lasting one day, ~82.7% of those attributable to the 1998 fault, 96.14%
//!   of cases involving two origins, and daily medians rising from ~683
//!   (1998) to ~1294 (2001).
//!
//! Real archives come in through [`DailyDumpStream`], which folds
//! `bgp_wire::TableDumpWalk`'s entries into the same [`DailyDump`]s the
//! synthetic collector produces, one day at a time in constant memory.
//!
//! # Example
//!
//! ```
//! use route_measurement::{daily_moas_counts, generate_timeline, TimelineConfig};
//!
//! let timeline = generate_timeline(&TimelineConfig::paper().with_days(120));
//! let counts = daily_moas_counts(&timeline.dumps);
//! assert_eq!(counts.len(), 120);
//! assert!(counts.iter().all(|&c| c > 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod communities;
mod detector;
mod dump;
mod flap;
mod import;
mod stats;
mod stream;
mod timeline;

pub use communities::{CommunitiesAnomalyDetector, CommunitiesConfig};
pub use detector::{
    AlarmKind, Detector, DetectorAlarm, MoasListDetector, ObservationKind, RouteObservation,
};
pub use dump::DailyDump;
pub use flap::{FlapDampingConfig, FlapDampingDetector};
pub use import::{DailyDumpStream, DayImport};
pub use stats::{daily_moas_counts, duration_histogram, median, MeasurementSummary};
pub use stream::{OriginEvent, OriginEventKind, OriginEventTracker};
pub use timeline::{
    generate_timeline, CaseRecord, Cause, FaultEvent, GeneratedTimeline, TimelineConfig,
};
