//! Alarm records raised on detected conflicts.

use std::fmt;

use bgp_types::{Asn, Ipv4Prefix, SimTime};

use crate::detector::ConflictKind;

/// How an alarm was resolved by the origin verifier (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resolution {
    /// The verifier confirmed a false origin: a true positive.
    Confirmed,
    /// All involved origins turned out to be valid — the inconsistency came
    /// from a dropped/altered list (§4.3), not a bogus route.
    FalseAlarm,
    /// The verifier had no record or was unavailable.
    Unresolved,
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Resolution::Confirmed => "confirmed",
            Resolution::FalseAlarm => "false alarm",
            Resolution::Unresolved => "unresolved",
        })
    }
}

/// One alarm: a router observed a MOAS conflict (§4.2: "whenever a BGP router
/// notices any inconsistency in the MOAS Lists received, it should generate
/// an alarm signal").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alarm {
    /// The AS that noticed the conflict.
    pub observer: Asn,
    /// The disputed prefix.
    pub prefix: Ipv4Prefix,
    /// The kind of inconsistency.
    pub kind: ConflictKind,
    /// Origin of the announcement that triggered the alarm.
    pub suspect_origin: Option<Asn>,
    /// How the follow-up verification resolved it.
    pub resolution: Resolution,
    /// Simulated time when the alarm fired. [`SimTime::ZERO`] when the
    /// observation happened outside a running simulation (e.g. the monitor
    /// driven directly in unit tests). Chaos experiments subtract the attack
    /// injection time from this to measure detection latency.
    pub at: SimTime,
}

impl fmt::Display for Alarm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} saw {} on {} at {} (suspect {:?}, {})",
            self.observer, self.kind, self.prefix, self.at, self.suspect_origin, self.resolution
        )
    }
}

/// An append-only log of alarms with simple aggregation queries.
///
/// # Example
///
/// ```
/// use moas_core::{Alarm, AlarmLog, ConflictKind, Resolution};
/// use bgp_types::Asn;
/// use bgp_types::SimTime;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut log = AlarmLog::new();
/// log.record(Alarm {
///     observer: Asn(1),
///     prefix: "10.0.0.0/16".parse()?,
///     kind: ConflictKind::InconsistentLists,
///     suspect_origin: Some(Asn(52)),
///     resolution: Resolution::Confirmed,
///     at: SimTime::from_ticks(12),
/// });
/// assert_eq!(log.len(), 1);
/// assert_eq!(log.confirmed_count(), 1);
/// assert_eq!(log.observers().count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AlarmLog {
    alarms: Vec<Alarm>,
}

impl AlarmLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        AlarmLog::default()
    }

    /// Appends an alarm.
    pub fn record(&mut self, alarm: Alarm) {
        self.alarms.push(alarm);
    }

    /// Number of alarms recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.alarms.len()
    }

    /// Returns `true` when no alarms have fired.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.alarms.is_empty()
    }

    /// All alarms, in the order they fired.
    pub fn iter(&self) -> impl Iterator<Item = &Alarm> {
        self.alarms.iter()
    }

    /// Distinct ASes that raised at least one alarm, ascending.
    pub fn observers(&self) -> impl Iterator<Item = Asn> {
        let set: std::collections::BTreeSet<Asn> = self.alarms.iter().map(|a| a.observer).collect();
        set.into_iter()
    }

    /// Number of verifier-confirmed (true positive) alarms.
    #[must_use]
    pub fn confirmed_count(&self) -> usize {
        self.count_with(Resolution::Confirmed)
    }

    /// Number of false alarms (all origins valid; list was dropped/mangled).
    #[must_use]
    pub fn false_alarm_count(&self) -> usize {
        self.count_with(Resolution::FalseAlarm)
    }

    /// Number of alarms the verifier could not adjudicate.
    #[must_use]
    pub fn unresolved_count(&self) -> usize {
        self.count_with(Resolution::Unresolved)
    }

    fn count_with(&self, resolution: Resolution) -> usize {
        self.alarms
            .iter()
            .filter(|a| a.resolution == resolution)
            .count()
    }

    /// Discards all alarms (e.g. between experiment phases).
    pub fn clear(&mut self) {
        self.alarms.clear();
    }
}

impl<'a> IntoIterator for &'a AlarmLog {
    type Item = &'a Alarm;
    type IntoIter = std::slice::Iter<'a, Alarm>;

    fn into_iter(self) -> Self::IntoIter {
        self.alarms.iter()
    }
}

impl Extend<Alarm> for AlarmLog {
    fn extend<I: IntoIterator<Item = Alarm>>(&mut self, iter: I) {
        self.alarms.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alarm(observer: u32, resolution: Resolution) -> Alarm {
        Alarm {
            observer: Asn(observer),
            prefix: "10.0.0.0/16".parse().unwrap(),
            kind: ConflictKind::InconsistentLists,
            suspect_origin: Some(Asn(52)),
            resolution,
            at: SimTime::from_ticks(5),
        }
    }

    #[test]
    fn counting_by_resolution() {
        let mut log = AlarmLog::new();
        log.record(alarm(1, Resolution::Confirmed));
        log.record(alarm(2, Resolution::Confirmed));
        log.record(alarm(2, Resolution::FalseAlarm));
        log.record(alarm(3, Resolution::Unresolved));
        assert_eq!(log.len(), 4);
        assert_eq!(log.confirmed_count(), 2);
        assert_eq!(log.false_alarm_count(), 1);
        assert_eq!(log.unresolved_count(), 1);
    }

    #[test]
    fn observers_are_distinct_and_sorted() {
        let mut log = AlarmLog::new();
        log.record(alarm(3, Resolution::Confirmed));
        log.record(alarm(1, Resolution::Confirmed));
        log.record(alarm(3, Resolution::Confirmed));
        assert_eq!(log.observers().collect::<Vec<_>>(), vec![Asn(1), Asn(3)]);
    }

    #[test]
    fn clear_empties() {
        let mut log = AlarmLog::new();
        log.record(alarm(1, Resolution::Confirmed));
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn display_mentions_parties() {
        let s = alarm(1, Resolution::FalseAlarm).to_string();
        assert!(s.contains("AS1"));
        assert!(s.contains("false alarm"));
    }

    #[test]
    fn extend_and_iterate() {
        let mut log = AlarmLog::new();
        log.extend([
            alarm(1, Resolution::Confirmed),
            alarm(2, Resolution::Confirmed),
        ]);
        assert_eq!((&log).into_iter().count(), 2);
        assert_eq!(log.iter().count(), 2);
    }
}
