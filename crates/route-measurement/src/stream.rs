//! The BGP update stream behind the daily dumps.
//!
//! Daily table snapshots (what Route Views archived in 1997-2001, and what
//! [`DailyDump`](crate::DailyDump) models) lose everything shorter than the
//! dump interval — the paper's own footnote 2 calls this out. This module
//! derives the *update-level* view: one [`OriginEvent`] per (prefix, origin)
//! appearance or disappearance, which is what an on-line monitoring process
//! (§4.2) would consume. [`OriginEventTracker`] derives it one day at a
//! time, so it follows a streamed archive
//! ([`DailyDumpStream`](crate::DailyDumpStream)) without holding more than
//! a day.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use bgp_types::{Asn, Ipv4Prefix};

use crate::dump::DailyDump;

/// What happened to a (prefix, origin) pair between two consecutive dumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OriginEventKind {
    /// The origin started announcing the prefix.
    Announced,
    /// The origin stopped announcing the prefix.
    Withdrawn,
}

/// One origin-level event in the reconstructed update stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OriginEvent {
    /// Day the change was first visible.
    pub day: u32,
    /// The affected prefix.
    pub prefix: Ipv4Prefix,
    /// The origin that appeared or disappeared.
    pub origin: Asn,
    /// Appearance or disappearance.
    pub kind: OriginEventKind,
    /// Number of distinct origins announcing the prefix *after* this event.
    pub origins_after: usize,
}

impl OriginEvent {
    /// Returns `true` if this event put the prefix into MOAS state
    /// (2 or more origins).
    #[must_use]
    pub fn enters_moas(&self) -> bool {
        self.kind == OriginEventKind::Announced && self.origins_after == 2
    }
}

impl fmt::Display for OriginEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verb = match self.kind {
            OriginEventKind::Announced => "announced by",
            OriginEventKind::Withdrawn => "withdrawn by",
        };
        write!(
            f,
            "day {}: {} {verb} {} ({} origins now)",
            self.day, self.prefix, self.origin, self.origins_after
        )
    }
}

/// Reconstructs the origin-level update stream from consecutive daily
/// dumps, one day at a time: each [`advance`](Self::advance) appends that
/// day's diff against the previous day, in (prefix, origin) order.
///
/// The tracker holds only the previous day's origin table, so a streaming
/// consumer (an MRT importer walking an archive far larger than memory)
/// keeps a working set of one day regardless of archive length.
///
/// # Example
///
/// ```
/// use bgp_types::Asn;
/// use route_measurement::{DailyDump, OriginEventTracker};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let prefix = "208.8.0.0/16".parse()?;
/// let mut day0 = DailyDump::new(0);
/// day0.observe(prefix, Asn(4));
/// let mut day1 = DailyDump::new(1);
/// day1.observe(prefix, Asn(4));
/// day1.observe(prefix, Asn(8584)); // the fault appears
///
/// let mut tracker = OriginEventTracker::new();
/// let mut events = Vec::new();
/// tracker.advance(&day0, &mut events);
/// tracker.advance(&day1, &mut events);
/// assert_eq!(events.len(), 2); // day-0 appearance of AS4, day-1 of AS8584
/// assert!(events[1].enters_moas());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct OriginEventTracker {
    previous: BTreeMap<Ipv4Prefix, BTreeSet<Asn>>,
}

impl OriginEventTracker {
    /// A tracker that has seen no dumps yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Diffs `dump` against the previously fed day, appending one event per
    /// (prefix, origin) appearance or disappearance to `events`.
    pub fn advance(&mut self, dump: &DailyDump, events: &mut Vec<OriginEvent>) {
        let mut current: BTreeMap<Ipv4Prefix, BTreeSet<Asn>> = BTreeMap::new();
        for (prefix, origins) in dump.iter() {
            current.insert(prefix, origins.clone());
        }

        let prefixes: BTreeSet<Ipv4Prefix> = self
            .previous
            .keys()
            .chain(current.keys())
            .copied()
            .collect();
        for prefix in prefixes {
            let empty = BTreeSet::new();
            let before = self.previous.get(&prefix).unwrap_or(&empty);
            let after = current.get(&prefix).unwrap_or(&empty);
            for &origin in after.difference(before) {
                events.push(OriginEvent {
                    day: dump.day(),
                    prefix,
                    origin,
                    kind: OriginEventKind::Announced,
                    origins_after: after.len(),
                });
            }
            for &origin in before.difference(after) {
                events.push(OriginEvent {
                    day: dump.day(),
                    prefix,
                    origin,
                    kind: OriginEventKind::Withdrawn,
                    origins_after: after.len(),
                });
            }
        }
        self.previous = current;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{generate_timeline, FaultEvent, TimelineConfig};

    fn p(i: u32) -> Ipv4Prefix {
        Ipv4Prefix::new(i << 16, 16)
    }

    fn tracked_events(dumps: &[DailyDump]) -> Vec<OriginEvent> {
        let mut tracker = OriginEventTracker::new();
        let mut events = Vec::new();
        for dump in dumps {
            tracker.advance(dump, &mut events);
        }
        events
    }

    #[test]
    fn empty_stream() {
        assert!(tracked_events(&[]).is_empty());
    }

    #[test]
    fn appearance_and_disappearance_round_trip() {
        let mut d0 = DailyDump::new(0);
        d0.observe(p(1), Asn(10));
        d0.observe(p(1), Asn(11));
        let d1 = DailyDump::new(1); // everything withdrawn
        let events = tracked_events(&[d0, d1]);
        assert_eq!(events.len(), 4);
        let announced = events
            .iter()
            .filter(|e| e.kind == OriginEventKind::Announced)
            .count();
        let withdrawn = events
            .iter()
            .filter(|e| e.kind == OriginEventKind::Withdrawn)
            .count();
        assert_eq!(announced, 2);
        assert_eq!(withdrawn, 2);
        assert!(events
            .iter()
            .any(|e| e.kind == OriginEventKind::Withdrawn && e.origins_after <= 1));
    }

    #[test]
    fn moas_transitions_are_flagged() {
        let mut d0 = DailyDump::new(0);
        d0.observe(p(1), Asn(10));
        let mut d1 = DailyDump::new(1);
        d1.observe(p(1), Asn(10));
        d1.observe(p(1), Asn(11));
        let mut d2 = DailyDump::new(2);
        d2.observe(p(1), Asn(10));
        let events = tracked_events(&[d0, d1, d2]);
        let onsets: Vec<&OriginEvent> = events.iter().filter(|e| e.enters_moas()).collect();
        assert_eq!(onsets.len(), 1);
        assert_eq!(onsets[0].day, 1);
        let offs: Vec<&OriginEvent> = events
            .iter()
            .filter(|e| e.kind == OriginEventKind::Withdrawn && e.origins_after == 1)
            .collect();
        assert_eq!(offs.len(), 1);
        assert_eq!(offs[0].day, 2);
    }

    #[test]
    fn fault_day_has_a_burst_of_onsets() {
        let config = TimelineConfig {
            days: 40,
            active_start: 30,
            active_end: 35,
            presence_prob: 1.0,
            churn_prob: 0.1,
            background_prefixes: 5,
            events: vec![FaultEvent {
                day: 20,
                faulty_as: Asn(8584),
                prefix_count: 25,
                duration_days: 1,
            }],
            seed: 3,
        };
        let timeline = generate_timeline(&config);
        let events = tracked_events(&timeline.dumps);
        let onsets = |day: u32| {
            events
                .iter()
                .filter(|e| e.day == day && e.enters_moas())
                .count()
        };
        let spike = onsets(20);
        assert!(spike >= 25, "onset spike {spike}");
        let quiet = onsets(10);
        assert!(quiet < 5, "quiet day onsets {quiet}");
    }

    #[test]
    fn display_is_readable() {
        let e = OriginEvent {
            day: 150,
            prefix: p(1),
            origin: Asn(8584),
            kind: OriginEventKind::Announced,
            origins_after: 2,
        };
        let s = e.to_string();
        assert!(s.contains("day 150"));
        assert!(s.contains("AS8584"));
        assert!(s.contains("2 origins"));
    }
}
