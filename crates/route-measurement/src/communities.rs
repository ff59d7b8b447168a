//! Communities-anomaly detection: origin changes judged by community weather.
//!
//! CommunityWatch's core observation is that BGP communities, although
//! opaque, are *consistent* per prefix: the set of communities accompanying a
//! prefix's announcements is stable over time, so an origin change whose
//! community set diverges from the learned baseline is suspicious even when
//! no MOAS list is present. This detector learns a per `(observer, prefix)`
//! baseline — the origins seen and the union of communities observed — during
//! a learning window set at construction, then alarms on announcements from a *new*
//! origin whose communities are not a subset of the baseline. A MOAS list
//! travels as one community per member, so its members count as communities
//! here: the baseline keeps them beside the other communities.
//!
//! Honest failure modes, measured by the ensemble driver: a forged MOAS list
//! necessarily carries the attacker's own membership (never in the
//! baseline) and is caught; an attacker announcing with *no* communities at
//! all evades it; and rewrite-class transit policies shred the baseline and
//! cause false alarms.

use std::collections::{BTreeMap, BTreeSet};

use bgp_types::{Asn, Community, Ipv4Prefix};

use crate::detector::{AlarmKind, Detector, DetectorAlarm, ObservationKind, RouteObservation};

/// Learned per `(observer, prefix)` baseline.
#[derive(Debug, Clone, Default)]
struct Baseline {
    origins: BTreeSet<Asn>,
    communities: BTreeSet<Community>,
    /// Every MOAS-list member seen.
    members: BTreeSet<Asn>,
}

/// The communities-anomaly [`Detector`].
#[derive(Debug, Clone)]
pub struct CommunitiesAnomalyDetector {
    /// Observations with `time` strictly below this feed the baseline;
    /// everything at or after it is judged against the baseline. Uses the
    /// stream's own time unit (ticks or days).
    learning_window: u64,
    baselines: BTreeMap<(Asn, Ipv4Prefix), Baseline>,
    /// Deduplication: one alarm per `(observer, prefix, origin)`.
    alarmed: BTreeSet<(Asn, Ipv4Prefix, Asn)>,
}

impl CommunitiesAnomalyDetector {
    /// A detector that learns from observations before `learning_window`
    /// and judges the rest.
    #[must_use]
    pub fn new(learning_window: u64) -> Self {
        CommunitiesAnomalyDetector {
            learning_window,
            baselines: BTreeMap::new(),
            alarmed: BTreeSet::new(),
        }
    }
}

impl Detector for CommunitiesAnomalyDetector {
    fn name(&self) -> &'static str {
        "communities-anomaly"
    }

    fn observe(&mut self, obs: &RouteObservation, alarms: &mut Vec<DetectorAlarm>) {
        let ObservationKind::Announce {
            origin,
            moas_list,
            communities,
        } = &obs.kind
        else {
            return; // withdrawals carry no communities to judge
        };
        let baseline = self
            .baselines
            .entry((obs.observer, obs.prefix))
            .or_default();
        if obs.time < self.learning_window {
            baseline.origins.insert(*origin);
            baseline.communities.extend(communities.iter().copied());
            baseline.members.extend(moas_list.iter().flatten());
            return;
        }
        if baseline.origins.contains(origin) {
            return; // a known origin is never anomalous here
        }
        let divergent = communities
            .iter()
            .any(|c| !baseline.communities.contains(c))
            || moas_list
                .iter()
                .flatten()
                .any(|asn| !baseline.members.contains(&asn));
        if divergent && self.alarmed.insert((obs.observer, obs.prefix, *origin)) {
            alarms.push(DetectorAlarm {
                time: obs.time,
                observer: obs.observer,
                prefix: obs.prefix,
                origin: Some(*origin),
                kind: AlarmKind::CommunityAnomaly,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::MoasList;

    fn p() -> Ipv4Prefix {
        "208.8.0.0/16".parse().unwrap()
    }

    fn announce(time: u64, origin: u32, communities: &[Community]) -> RouteObservation {
        announce_listed(time, origin, &[], communities)
    }

    fn announce_listed(
        time: u64,
        origin: u32,
        members: &[u32],
        communities: &[Community],
    ) -> RouteObservation {
        let list: MoasList = members.iter().map(|&a| Asn(a)).collect();
        RouteObservation {
            time,
            observer: Asn(1),
            from_peer: Asn(10),
            prefix: p(),
            kind: ObservationKind::Announce {
                origin: Asn(origin),
                moas_list: (!list.is_empty()).then_some(list),
                communities: communities.to_vec(),
            },
        }
    }

    fn run(events: &[RouteObservation]) -> Vec<DetectorAlarm> {
        let mut d = CommunitiesAnomalyDetector::new(100);
        let mut alarms = Vec::new();
        for e in events {
            d.observe(e, &mut alarms);
        }
        alarms
    }

    #[test]
    fn known_origin_with_new_communities_is_quiet() {
        let alarms = run(&[
            announce_listed(0, 4, &[4], &[]),
            announce(150, 4, &[Community::new(Asn(701), 120)]),
        ]);
        assert!(alarms.is_empty());
    }

    #[test]
    fn forged_moas_list_marker_is_caught() {
        // The attacker's forged list must include its own membership, which
        // the baseline has never seen.
        let alarms = run(&[
            announce_listed(0, 4, &[4], &[]),
            announce_listed(150, 66, &[4, 66], &[]),
        ]);
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].origin, Some(Asn(66)));
        assert_eq!(alarms[0].kind, AlarmKind::CommunityAnomaly);
    }

    #[test]
    fn bare_announcement_from_new_origin_evades() {
        // Honest miss: no communities at all means nothing diverges.
        let alarms = run(&[announce_listed(0, 4, &[4], &[]), announce(150, 66, &[])]);
        assert!(alarms.is_empty());
    }

    #[test]
    fn new_origin_with_baseline_subset_is_quiet() {
        // A sibling AS announcing with the same community set as the
        // baseline: exactly the long-lived legitimate MOAS shape.
        let alarms = run(&[
            announce_listed(0, 4, &[4, 5], &[]),
            announce_listed(150, 5, &[4, 5], &[]),
        ]);
        assert!(alarms.is_empty());
    }

    #[test]
    fn alarm_fires_once_per_origin() {
        let alarms = run(&[
            announce_listed(0, 4, &[4], &[]),
            announce_listed(150, 66, &[66], &[]),
            announce_listed(160, 66, &[66], &[]),
        ]);
        assert_eq!(alarms.len(), 1);
    }

    #[test]
    fn learning_during_window_absorbs_everything() {
        // Both origins appear inside the window: no alarms ever, even with
        // disjoint community sets.
        let alarms = run(&[
            announce(0, 4, &[Community::new(Asn(701), 1)]),
            announce(50, 5, &[Community::new(Asn(702), 2)]),
            announce(150, 5, &[Community::new(Asn(703), 3)]),
        ]);
        assert!(alarms.is_empty());
    }
}
