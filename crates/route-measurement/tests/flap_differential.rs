//! Differential test of the RFC 2439 flap-damping detector against a naive
//! full-history reference.
//!
//! The production detector decays its penalty lazily (brought forward once
//! per event). The reference model below instead keeps every penalty
//! increment with its timestamp and recomputes the decayed sum from scratch
//! at each query — the textbook formulation. The two are algebraically
//! identical; this test pins that equivalence (penalties within 1e-9 and the
//! exact same alarm sequence) over arbitrary observation streams.

use std::collections::BTreeMap;

use bgp_types::{Asn, Ipv4Prefix};
use proptest::prelude::*;
use route_measurement::{
    Detector, DetectorAlarm, FlapDampingDetector, ObservationKind, RouteObservation,
};

/// Naive reference: every penalty increment is kept with its timestamp and
/// the decayed total is recomputed as a sum over the full history. It reads
/// the detector's own RFC 2439 parameters.
#[derive(Default)]
struct RefState {
    increments: Vec<(u64, f64)>,
    announced: bool,
    origin: Option<Asn>,
    suppressed: bool,
}

#[derive(Default)]
struct ReferenceModel {
    state: BTreeMap<(Asn, Ipv4Prefix, Asn), RefState>,
}

impl ReferenceModel {
    fn penalty_at(&self, key: (Asn, Ipv4Prefix, Asn), now: u64) -> f64 {
        let Some(state) = self.state.get(&key) else {
            return 0.0;
        };
        Self::penalty_of(state, now)
    }

    fn penalty_of(state: &RefState, now: u64) -> f64 {
        state
            .increments
            .iter()
            .map(|&(t, p)| p * (-((now - t) as f64) / FlapDampingDetector::HALF_LIFE).exp2())
            .sum()
    }

    fn observe(&mut self, obs: &RouteObservation, alarms: &mut Vec<DetectorAlarm>) {
        let key = (obs.observer, obs.prefix, obs.from_peer);
        let state = self.state.entry(key).or_default();
        match &obs.kind {
            ObservationKind::Withdraw => {
                if !state.announced {
                    return;
                }
                state.announced = false;
                state
                    .increments
                    .push((obs.time, FlapDampingDetector::WITHDRAW_PENALTY));
                Self::check_thresholds(state, obs, alarms);
            }
            ObservationKind::Announce { origin, .. } => {
                let changed = state.announced && state.origin != Some(*origin);
                state.announced = true;
                state.origin = Some(*origin);
                if changed {
                    state
                        .increments
                        .push((obs.time, FlapDampingDetector::CHANGE_PENALTY));
                    Self::check_thresholds(state, obs, alarms);
                } else if state.suppressed
                    && Self::penalty_of(state, obs.time) < FlapDampingDetector::REUSE_THRESHOLD
                {
                    state.suppressed = false;
                }
            }
        }
    }

    fn check_thresholds(
        state: &mut RefState,
        obs: &RouteObservation,
        alarms: &mut Vec<DetectorAlarm>,
    ) {
        let penalty = Self::penalty_of(state, obs.time);
        if !state.suppressed && penalty >= FlapDampingDetector::SUPPRESS_THRESHOLD {
            state.suppressed = true;
            alarms.push(DetectorAlarm {
                time: obs.time,
                observer: obs.observer,
                prefix: obs.prefix,
                origin: state.origin,
                kind: route_measurement::AlarmKind::FlapSuppression,
            });
        } else if state.suppressed && penalty < FlapDampingDetector::REUSE_THRESHOLD {
            state.suppressed = false;
        }
    }
}

/// One generated stream event, before timestamps are accumulated.
#[derive(Debug, Clone)]
struct RawEvent {
    dt: u64,
    observer: u32,
    peer: u32,
    /// `None` = withdraw, `Some(origin)` = announce from that origin.
    origin: Option<u32>,
}

fn raw_event() -> impl Strategy<Value = RawEvent> {
    (
        0u64..=15,
        0u32..2,
        0u32..2,
        prop_oneof![Just(None), (1u32..4).prop_map(Some)],
    )
        .prop_map(|(dt, observer, peer, origin)| RawEvent {
            dt,
            observer,
            peer,
            origin,
        })
}

fn prefix() -> Ipv4Prefix {
    "208.8.0.0/16".parse().unwrap()
}

fn to_observations(raw: &[RawEvent]) -> Vec<RouteObservation> {
    let mut now = 0u64;
    raw.iter()
        .map(|e| {
            now += e.dt;
            RouteObservation {
                time: now,
                observer: Asn(100 + e.observer),
                from_peer: Asn(200 + e.peer),
                prefix: prefix(),
                kind: match e.origin {
                    None => ObservationKind::Withdraw,
                    Some(origin) => ObservationKind::Announce {
                        origin: Asn(origin),
                        moas_list: None,
                        communities: Vec::new(),
                    },
                },
            }
        })
        .collect()
}

proptest! {
    /// The lazy-decay detector and the full-history reference agree on every
    /// alarm and on the decayed penalty of every route at every event time.
    #[test]
    fn lazy_decay_matches_full_history_reference(raw in prop::collection::vec(raw_event(), 0..60)) {
        let mut detector = FlapDampingDetector::new();
        let mut reference = ReferenceModel::default();
        let mut detector_alarms = Vec::new();
        let mut reference_alarms = Vec::new();

        let observations = to_observations(&raw);
        for obs in &observations {
            detector.observe(obs, &mut detector_alarms);
            reference.observe(obs, &mut reference_alarms);

            // Penalties agree for every tracked route, at this instant.
            for key in reference.state.keys() {
                let lazy = detector.penalty_at(key.0, key.1, key.2, obs.time);
                let naive = reference.penalty_at(*key, obs.time);
                prop_assert!(
                    (lazy - naive).abs() < 1e-9,
                    "penalty diverged at t={}: lazy {lazy} vs naive {naive}",
                    obs.time
                );
            }
        }
        prop_assert_eq!(detector_alarms, reference_alarms);
    }

    /// A single clean announcement — the one-shot hijack shape — never
    /// accumulates penalty in either model, whatever came before on *other*
    /// routes.
    #[test]
    fn one_shot_announcement_stays_penalty_free(raw in prop::collection::vec(raw_event(), 0..40)) {
        let mut detector = FlapDampingDetector::default();
        let mut alarms = Vec::new();
        for obs in to_observations(&raw) {
            detector.observe(&obs, &mut alarms);
        }
        // A fresh route (never seen observer) announced once: zero penalty.
        let t = 10_000;
        let fresh = RouteObservation {
            time: t,
            observer: Asn(999),
            from_peer: Asn(998),
            prefix: prefix(),
            kind: ObservationKind::Announce {
                origin: Asn(666),
                moas_list: None,
                communities: Vec::new(),
            },
        };
        let before = alarms.len();
        detector.observe(&fresh, &mut alarms);
        prop_assert_eq!(alarms.len(), before, "one-shot announcement alarmed");
        prop_assert_eq!(detector.penalty_at(Asn(999), prefix(), Asn(998), t), 0.0);
    }
}
