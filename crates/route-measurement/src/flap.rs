//! RFC 2439 route-flap damping as an ensemble [`Detector`].
//!
//! The BGP flap-damping algorithm keeps a per-route instability penalty:
//! withdrawals and attribute changes add a fixed figure of merit, the total
//! decays exponentially with a fixed half-life, and a route whose
//! penalty crosses the *suppress* threshold is suppressed until it decays
//! below the *reuse* threshold. As a MOAS-era detector it is the natural
//! "instability" baseline: it fires on churny origins regardless of whether
//! they carry a MOAS list — and, instructively, it is structurally blind to
//! a clean one-shot origin hijack (a single stable announcement never
//! accumulates penalty).
//!
//! The implementation decays lazily — the penalty is only brought forward to
//! the current time when an event arrives — which is algebraically identical
//! to the textbook per-increment sum. A differential test pins this against
//! a naive full-history reference model.

use std::collections::BTreeMap;

use bgp_types::{Asn, Ipv4Prefix};

use crate::detector::{AlarmKind, Detector, DetectorAlarm, ObservationKind, RouteObservation};

/// Per `(observer, prefix, peer)` damping state.
#[derive(Debug, Clone, Default)]
struct FlapState {
    penalty: f64,
    last: u64,
    suppressed: bool,
    /// Whether a route is currently announced (withdrawals of nothing are
    /// ignored, mirroring the router's actual Adj-RIB-In behaviour).
    announced: bool,
    /// Origin of the current (or last) announcement — the AS an alarm
    /// implicates.
    origin: Option<Asn>,
}

impl FlapState {
    /// Brings the penalty forward to `now` with exponential decay.
    fn decay_to(&mut self, now: u64) {
        if now > self.last && self.penalty > 0.0 {
            let dt = (now - self.last) as f64;
            // Halve once per half-life elapsed.
            self.penalty *= (-dt / FlapDampingDetector::HALF_LIFE).exp2();
        }
        self.last = now;
    }
}

/// The RFC 2439 flap-damping baseline detector.
#[derive(Debug, Clone, Default)]
pub struct FlapDampingDetector {
    state: BTreeMap<(Asn, Ipv4Prefix, Asn), FlapState>,
}

impl FlapDampingDetector {
    /// Exponential-decay half-life of the penalty, in stream time units.
    pub const HALF_LIFE: f64 = 30.0;
    /// Penalty added when an announced route is withdrawn (one flap).
    pub const WITHDRAW_PENALTY: f64 = 1.0;
    /// Penalty added when a re-announcement changes the route's attributes
    /// (RFC 2439 treats attribute change as a lesser instability event).
    pub const CHANGE_PENALTY: f64 = 0.5;
    /// A route whose penalty reaches this is suppressed — the alarm event.
    /// Like the RFC's worked example, it is several times the single-flap
    /// penalty.
    pub const SUPPRESS_THRESHOLD: f64 = 2.5;
    /// A suppressed route whose penalty decays below this is reused.
    pub const REUSE_THRESHOLD: f64 = 0.75;

    /// A detector that has seen nothing.
    #[must_use]
    pub fn new() -> Self {
        FlapDampingDetector::default()
    }

    /// Current penalty for one `(observer, prefix, peer)` route, decayed to
    /// `now` — exposed for the differential reference test.
    #[must_use]
    pub fn penalty_at(&self, observer: Asn, prefix: Ipv4Prefix, peer: Asn, now: u64) -> f64 {
        let Some(state) = self.state.get(&(observer, prefix, peer)) else {
            return 0.0;
        };
        let mut copy = state.clone();
        copy.decay_to(now);
        copy.penalty
    }

    /// Applies suppress/reuse threshold crossings after a penalty update.
    fn check_thresholds(
        state: &mut FlapState,
        obs: &RouteObservation,
        alarms: &mut Vec<DetectorAlarm>,
    ) {
        if !state.suppressed && state.penalty >= Self::SUPPRESS_THRESHOLD {
            state.suppressed = true;
            alarms.push(DetectorAlarm {
                time: obs.time,
                observer: obs.observer,
                prefix: obs.prefix,
                origin: state.origin,
                kind: AlarmKind::FlapSuppression,
            });
        } else if state.suppressed && state.penalty < Self::REUSE_THRESHOLD {
            // Reuse is silent: the route is simply usable again.
            state.suppressed = false;
        }
    }
}

impl Detector for FlapDampingDetector {
    fn name(&self) -> &'static str {
        "flap-damping"
    }

    fn observe(&mut self, obs: &RouteObservation, alarms: &mut Vec<DetectorAlarm>) {
        let key = (obs.observer, obs.prefix, obs.from_peer);
        let state = self.state.entry(key).or_default();
        state.decay_to(obs.time);
        match &obs.kind {
            ObservationKind::Withdraw => {
                if !state.announced {
                    return;
                }
                state.announced = false;
                state.penalty += Self::WITHDRAW_PENALTY;
                Self::check_thresholds(state, obs, alarms);
            }
            ObservationKind::Announce { origin, .. } => {
                let changed = state.announced && state.origin != Some(*origin);
                state.announced = true;
                state.origin = Some(*origin);
                if changed {
                    state.penalty += Self::CHANGE_PENALTY;
                    Self::check_thresholds(state, obs, alarms);
                } else if state.suppressed && state.penalty < Self::REUSE_THRESHOLD {
                    state.suppressed = false;
                }
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

    fn announce(time: u64, origin: u32) -> RouteObservation {
        RouteObservation {
            time,
            observer: Asn(1),
            from_peer: Asn(10),
            prefix: p(),
            kind: ObservationKind::Announce {
                origin: Asn(origin),
                moas_list: None,
                communities: Vec::new(),
            },
        }
    }

    fn withdraw(time: u64) -> RouteObservation {
        RouteObservation {
            time,
            observer: Asn(1),
            from_peer: Asn(10),
            prefix: p(),
            kind: ObservationKind::Withdraw,
        }
    }

    #[test]
    fn stable_route_never_alarms() {
        let mut d = FlapDampingDetector::default();
        let mut alarms = Vec::new();
        d.observe(&announce(0, 4), &mut alarms);
        d.observe(&announce(500, 4), &mut alarms);
        assert!(alarms.is_empty());
        assert_eq!(d.penalty_at(Asn(1), p(), Asn(10), 500), 0.0);
    }

    #[test]
    fn rapid_flapping_crosses_the_suppress_threshold_once() {
        let mut d = FlapDampingDetector::default();
        let mut alarms = Vec::new();
        for i in 0..4u64 {
            d.observe(&announce(2 * i, 4), &mut alarms);
            d.observe(&withdraw(2 * i + 1), &mut alarms);
        }
        assert_eq!(alarms.len(), 1, "one suppression alarm, not one per flap");
        assert_eq!(alarms[0].kind, AlarmKind::FlapSuppression);
        assert_eq!(alarms[0].origin, Some(Asn(4)));
    }

    #[test]
    fn penalty_decays_with_the_half_life() {
        let mut d = FlapDampingDetector::default();
        let mut alarms = Vec::new();
        d.observe(&announce(0, 4), &mut alarms);
        d.observe(&withdraw(10), &mut alarms);
        let now = 10 + FlapDampingDetector::HALF_LIFE as u64;
        let decayed = d.penalty_at(Asn(1), p(), Asn(10), now);
        assert!(
            (decayed - 0.5).abs() < 1e-9,
            "one half-life after a 1.0 penalty: got {decayed}"
        );
    }

    #[test]
    fn suppressed_route_is_reused_after_decay() {
        let mut d = FlapDampingDetector::new();
        let mut alarms = Vec::new();
        for i in 0..4u64 {
            d.observe(&announce(2 * i, 4), &mut alarms);
            d.observe(&withdraw(2 * i + 1), &mut alarms);
        }
        assert_eq!(alarms.len(), 1);
        // Long quiet period: penalty decays below reuse; the next flap starts
        // a fresh cycle and can alarm again.
        let quiet = 7 + (FlapDampingDetector::HALF_LIFE * 10.0) as u64;
        for i in 0..4u64 {
            d.observe(&announce(quiet + 2 * i, 4), &mut alarms);
            d.observe(&withdraw(quiet + 2 * i + 1), &mut alarms);
        }
        assert_eq!(alarms.len(), 2, "a second suppression cycle must alarm");
    }

    #[test]
    fn origin_change_counts_as_attribute_change() {
        let mut d = FlapDampingDetector::default();
        let mut alarms = Vec::new();
        // Origin ping-pong without withdrawals: only change penalties, 0.5
        // each, so the 2.5 suppress threshold needs six-plus quick changes.
        for i in 0..9u64 {
            d.observe(&announce(i, 4 + (i % 2) as u32), &mut alarms);
        }
        assert_eq!(alarms.len(), 1);
        assert!(alarms[0].origin.is_some());
    }

    #[test]
    fn withdraw_of_nothing_is_ignored() {
        let mut d = FlapDampingDetector::default();
        let mut alarms = Vec::new();
        d.observe(&withdraw(5), &mut alarms);
        assert!(alarms.is_empty());
        assert_eq!(d.penalty_at(Asn(1), p(), Asn(10), 5), 0.0);
    }
}
