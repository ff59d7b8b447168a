//! The detector abstraction for the ensemble comparison.
//!
//! The 2002 paper evaluates exactly one detector — the MOAS-list consistency
//! check of §4.2. CommunityWatch (Giotsas et al.) argues that cheap,
//! complementary detectors should run side by side so their disagreements
//! become signal. This module defines the neutral event stream every detector
//! consumes ([`RouteObservation`]), the alarm record they emit
//! ([`DetectorAlarm`]), and the [`Detector`] trait itself, plus the passive
//! [`MoasListDetector`] — the paper's check, [`bgp_types::first_conflict`],
//! run over observation streams so it can be replayed offline against the
//! same input as its rivals.
//!
//! Times are plain `u64` so both tick-level simulator taps and day-level
//! Route Views timelines feed the same detectors unchanged.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use bgp_types::{first_conflict, Asn, Community, Ipv4Prefix, MoasList};

/// One route event as seen by an observation point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteObservation {
    /// When the event happened (simulator ticks or measurement days).
    pub time: u64,
    /// The AS at which the event was observed.
    pub observer: Asn,
    /// The peer the route came from.
    pub from_peer: Asn,
    /// The affected prefix.
    pub prefix: Ipv4Prefix,
    /// What happened.
    pub kind: ObservationKind,
}

/// The event payload of a [`RouteObservation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObservationKind {
    /// A route for the prefix was announced (or re-announced).
    Announce {
        /// The origin AS of the announcement.
        origin: Asn,
        /// The explicit MOAS list attached, if any (§4.2).
        moas_list: Option<MoasList>,
        /// Every other community on the route.
        communities: Vec<Community>,
    },
    /// The previously announced route was withdrawn.
    Withdraw,
}

/// Which detector family raised an alarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlarmKind {
    /// MOAS-list inconsistency (§4.2 of the paper).
    MoasConflict,
    /// RFC 2439 flap-damping suppression threshold crossed.
    FlapSuppression,
    /// Origin change with a community set diverging from the learned
    /// baseline.
    CommunityAnomaly,
}

impl fmt::Display for AlarmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AlarmKind::MoasConflict => "moas-conflict",
            AlarmKind::FlapSuppression => "flap-suppression",
            AlarmKind::CommunityAnomaly => "community-anomaly",
        })
    }
}

/// One alarm raised by a [`Detector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorAlarm {
    /// When the alarm fired (same unit as the observations).
    pub time: u64,
    /// The AS whose observation point raised it.
    pub observer: Asn,
    /// The prefix concerned.
    pub prefix: Ipv4Prefix,
    /// The origin AS the alarm implicates, when the detector can name one.
    pub origin: Option<Asn>,
    /// The detector family.
    pub kind: AlarmKind,
}

/// A detector consuming a route-observation stream and raising alarms.
///
/// Detectors are deliberately passive: they never influence routing, so the
/// same recorded stream can be replayed through each of them and the alarm
/// sets compared one-to-one.
pub trait Detector {
    /// Stable short name used in reports and metrics keys.
    fn name(&self) -> &'static str;

    /// Feeds one observation; any alarms raised are appended to `alarms`.
    fn observe(&mut self, obs: &RouteObservation, alarms: &mut Vec<DetectorAlarm>);
}

/// One peer's latest announcement at one observation point: its origin and
/// the MOAS list it carried.
type Held = (Asn, Option<MoasList>);

/// The paper's MOAS-list consistency check as a passive [`Detector`] — the
/// §4.2 "monitoring process" mode, with no verifier and no route filtering.
///
/// Per `(observer, prefix)` it remembers the latest announcement from each
/// peer, as its origin and the MOAS list it carried. A new announcement
/// alarms when [`first_conflict`] finds a conflict against the other peers'
/// announcements: its origin is missing from its own list, or its effective
/// list is not the same set as one of theirs.
#[derive(Debug, Clone, Default)]
pub struct MoasListDetector {
    rib: BTreeMap<(Asn, Ipv4Prefix), BTreeMap<Asn, Held>>,
    /// `(observer, prefix, origin)` triples already alarmed on, so a flapping
    /// conflict does not dominate alarm counts.
    alarmed: BTreeSet<(Asn, Ipv4Prefix, Asn)>,
}

impl MoasListDetector {
    /// A detector with empty state.
    #[must_use]
    pub fn new() -> Self {
        MoasListDetector::default()
    }
}

impl Detector for MoasListDetector {
    fn name(&self) -> &'static str {
        "moas-list"
    }

    fn observe(&mut self, obs: &RouteObservation, alarms: &mut Vec<DetectorAlarm>) {
        let slot = (obs.observer, obs.prefix);
        match &obs.kind {
            ObservationKind::Withdraw => {
                if let Some(held) = self.rib.get_mut(&slot) {
                    held.remove(&obs.from_peer);
                    if held.is_empty() {
                        self.rib.remove(&slot);
                    }
                }
            }
            ObservationKind::Announce {
                origin, moas_list, ..
            } => {
                let held = self.rib.entry(slot).or_default();
                let others = held
                    .iter()
                    .filter(|(peer, _)| **peer != obs.from_peer)
                    .map(|(_, (origin, list))| ((), Some(*origin), list.as_ref()));
                let conflict = first_conflict(Some(*origin), moas_list.as_ref(), others);
                if conflict.is_some() && self.alarmed.insert((obs.observer, obs.prefix, *origin)) {
                    alarms.push(DetectorAlarm {
                        time: obs.time,
                        observer: obs.observer,
                        prefix: obs.prefix,
                        origin: Some(*origin),
                        kind: AlarmKind::MoasConflict,
                    });
                }
                held.insert(obs.from_peer, (*origin, moas_list.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Ipv4Prefix {
        "208.8.0.0/16".parse().unwrap()
    }

    fn announce(time: u64, peer: u32, origin: u32, list: Option<&[u32]>) -> RouteObservation {
        RouteObservation {
            time,
            observer: Asn(1),
            from_peer: Asn(peer),
            prefix: p(),
            kind: ObservationKind::Announce {
                origin: Asn(origin),
                moas_list: list.map(|l| l.iter().map(|&a| Asn(a)).collect()),
                communities: Vec::new(),
            },
        }
    }

    fn withdraw(time: u64, peer: u32) -> RouteObservation {
        RouteObservation {
            time,
            observer: Asn(1),
            from_peer: Asn(peer),
            prefix: p(),
            kind: ObservationKind::Withdraw,
        }
    }

    fn run(events: &[RouteObservation]) -> Vec<DetectorAlarm> {
        let mut d = MoasListDetector::new();
        let mut alarms = Vec::new();
        for e in events {
            d.observe(e, &mut alarms);
        }
        alarms
    }

    #[test]
    fn consistent_lists_raise_nothing() {
        let alarms = run(&[
            announce(1, 10, 4, Some(&[4, 226])),
            announce(2, 11, 226, Some(&[4, 226])),
        ]);
        assert!(alarms.is_empty());
    }

    #[test]
    fn origin_not_in_list_is_flagged_once() {
        let alarms = run(&[
            announce(1, 10, 4, Some(&[4])),
            announce(2, 11, 52, None),
            announce(3, 11, 52, None), // repeat: no second alarm
        ]);
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].origin, Some(Asn(52)));
        assert_eq!(alarms[0].kind, AlarmKind::MoasConflict);
        assert_eq!(alarms[0].time, 2);
    }

    #[test]
    fn forged_list_with_self_still_conflicts_with_valid_list() {
        // Attacker 66 claims {4, 66}; the held valid list is {4}.
        let alarms = run(&[
            announce(1, 10, 4, Some(&[4])),
            announce(2, 11, 66, Some(&[4, 66])),
        ]);
        assert_eq!(alarms.len(), 1, "explicit lists disagree");
    }

    #[test]
    fn implicit_multihoming_failover_is_quiet_after_withdraw() {
        // Origin 4 withdrawn before origin 226 shows up: never simultaneous,
        // never conflicting.
        let alarms = run(&[
            announce(1, 10, 4, Some(&[4, 226])),
            withdraw(2, 10),
            announce(3, 11, 226, Some(&[4, 226])),
        ]);
        assert!(alarms.is_empty());
    }

    #[test]
    fn same_peer_replacement_does_not_self_conflict() {
        let alarms = run(&[announce(1, 10, 4, None), announce(2, 10, 5, None)]);
        assert!(
            alarms.is_empty(),
            "a peer replacing its own route is not a MOAS case"
        );
    }

    #[test]
    fn stripped_list_on_one_side_is_a_false_alarm_by_design() {
        // §4.3: both origins are valid, one announcement lost its list. The
        // passive detector cannot adjudicate; it must alarm.
        let alarms = run(&[
            announce(1, 10, 4, Some(&[4, 226])),
            announce(2, 11, 226, None),
        ]);
        assert_eq!(alarms.len(), 1);
    }

    #[test]
    fn one_origin_stripped_and_listed_is_a_conflict() {
        // §4.3: a transit stripped origin 4's list on one path only; the
        // implicit {4} and the explicit {4, 226} are different sets.
        let alarms = run(&[
            announce(1, 10, 4, Some(&[4, 226])),
            announce(2, 11, 4, None),
        ]);
        assert_eq!(alarms.len(), 1);
        assert_eq!((alarms[0].time, alarms[0].origin), (2, Some(Asn(4))));
    }

    #[test]
    fn self_test_needs_nothing_held() {
        let alarms = run(&[announce(1, 10, 66, Some(&[4, 226]))]);
        assert_eq!(alarms.len(), 1);
    }

    #[test]
    fn alarm_kind_displays() {
        assert_eq!(AlarmKind::MoasConflict.to_string(), "moas-conflict");
        assert_eq!(AlarmKind::FlapSuppression.to_string(), "flap-suppression");
        assert_eq!(AlarmKind::CommunityAnomaly.to_string(), "community-anomaly");
    }
}
