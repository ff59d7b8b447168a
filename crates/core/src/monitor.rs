//! The in-line MOAS monitor: §4's mechanism plugged into BGP.

use std::collections::BTreeSet;

use bgp_engine::{ExportAction, ImportContext, ImportDecision, RouteMonitor};
use bgp_types::{Asn, Route};
use sim_engine::SimTime;

use crate::alarm::{Alarm, AlarmLog, Resolution};
use crate::deployment::Deployment;
use crate::detector::find_conflict;
use crate::verifier::OriginVerifier;

/// What a capable router does when a conflict cannot be adjudicated because
/// the verifier had no answer (§4.4's lookup failed or returned nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnresolvedPolicy {
    /// Install the route anyway; the alarm still fires. Conservative default:
    /// availability is never sacrificed on an unconfirmed suspicion.
    #[default]
    Accept,
    /// Refuse the arriving route until the dispute is resolved. More
    /// aggressive; risks blackholing valid routes on false alarms.
    RejectIncoming,
}

/// Configuration of the MOAS monitor.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MoasConfig {
    /// Which ASes process MOAS lists (§5.4 evaluates `Full` vs 50% partial).
    pub deployment: Deployment,
    /// ASes that drop community attributes on export — the §4.3 hazard
    /// ("some routers may drop community attribute values associated with a
    /// route announcement, an allowed behavior under the current
    /// specification").
    pub strippers: BTreeSet<Asn>,
    /// Behaviour when verification comes back empty.
    pub on_unresolved: UnresolvedPolicy,
}

/// The paper's mechanism as a [`RouteMonitor`]: detects MOAS-list conflicts
/// on import, raises alarms, verifies the true origin set, and stops false
/// routes (rejecting the newcomer or evicting an already-installed route).
///
/// Non-capable ASes pass routes through untouched, and stripper ASes remove
/// MOAS communities on export, so a single monitor instance models the whole
/// heterogeneous network.
///
/// # Example
///
/// ```
/// use as_topology::{AsGraph, AsRole};
/// use bgp_engine::Network;
/// use bgp_types::{Asn, MoasList};
/// use moas_core::{MoasMonitor, RegistryVerifier};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Figure 3 with detection: AS 52 falsely originates AS 4's prefix.
/// let mut g = AsGraph::new();
/// g.add_as(Asn(4), AsRole::Stub);
/// g.add_as(Asn(52), AsRole::Stub);
/// for t in [1, 2, 3] { g.add_as(Asn(t), AsRole::Transit); }
/// g.add_link(Asn(4), Asn(2));
/// g.add_link(Asn(4), Asn(3));
/// g.add_link(Asn(2), Asn(1));
/// g.add_link(Asn(3), Asn(1));
/// g.add_link(Asn(52), Asn(1));
///
/// let prefix = "208.8.0.0/16".parse()?;
/// let valid = MoasList::implicit(Asn(4));
/// let mut registry = RegistryVerifier::new();
/// registry.register(prefix, valid.clone());
///
/// let mut net = Network::with_monitor(&g, MoasMonitor::full(registry));
/// net.originate(Asn(4), prefix, Some(valid));
/// net.originate(Asn(52), prefix, None);
/// net.run()?;
///
/// // Without detection AS 1 would adopt the attacker's shorter route
/// // (see bgp-engine's tests); with it, AS 1 keeps the true origin.
/// assert_eq!(net.best_origin(Asn(1), prefix), Some(Asn(4)));
/// assert!(net.monitor().alarms().confirmed_count() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MoasMonitor<V> {
    config: MoasConfig,
    verifier: V,
    alarms: AlarmLog,
    /// The simulation clock, fed through [`RouteMonitor::on_clock`]; stamps
    /// every alarm so experiments can measure detection latency.
    now: SimTime,
}

impl<V: OriginVerifier> MoasMonitor<V> {
    /// Creates a monitor with explicit configuration.
    #[must_use]
    pub fn new(config: MoasConfig, verifier: V) -> Self {
        MoasMonitor {
            config,
            verifier,
            alarms: AlarmLog::new(),
            now: SimTime::ZERO,
        }
    }

    /// Full deployment, no strippers, conservative unresolved policy — the
    /// §5.2 "Full MOAS Detection" configuration.
    #[must_use]
    pub fn full(verifier: V) -> Self {
        MoasMonitor::new(
            MoasConfig {
                deployment: Deployment::Full,
                ..MoasConfig::default()
            },
            verifier,
        )
    }

    /// Partial deployment over the given capable set — §5.4.
    #[must_use]
    pub fn partial(capable: BTreeSet<Asn>, verifier: V) -> Self {
        MoasMonitor::new(
            MoasConfig {
                deployment: Deployment::Partial(capable),
                ..MoasConfig::default()
            },
            verifier,
        )
    }

    /// The alarms raised so far.
    #[must_use]
    pub fn alarms(&self) -> &AlarmLog {
        &self.alarms
    }

    /// Mutable alarm log (e.g. to clear between phases).
    #[must_use]
    pub fn alarms_mut(&mut self) -> &mut AlarmLog {
        &mut self.alarms
    }

    /// The configured verifier.
    #[must_use]
    pub fn verifier(&self) -> &V {
        &self.verifier
    }

    /// Mutable verifier access (e.g. to publish records mid-run).
    #[must_use]
    pub fn verifier_mut(&mut self) -> &mut V {
        &mut self.verifier
    }

    /// The monitor configuration.
    #[must_use]
    pub fn config(&self) -> &MoasConfig {
        &self.config
    }
}

impl<V: OriginVerifier> RouteMonitor for MoasMonitor<V> {
    fn on_import(&mut self, ctx: &ImportContext<'_>) -> ImportDecision {
        if !self.config.deployment.is_capable(ctx.local) {
            return ImportDecision::accept();
        }
        let Some(conflict) = find_conflict(ctx.route, ctx.existing) else {
            return ImportDecision::accept();
        };

        // §4.4: alarm raised; now adjudicate against the verifier.
        let (decision, resolution) = match self.verifier.valid_origins(ctx.route.prefix()) {
            Some(valid) => {
                let incoming_valid = ctx
                    .route
                    .origin_as()
                    .is_some_and(|origin| valid.contains(origin));
                let mut decision = if incoming_valid {
                    ImportDecision::accept()
                } else {
                    ImportDecision::reject()
                };
                let mut any_confirmed = !incoming_valid;
                for (peer, held) in ctx.existing {
                    // A locally originated route has an empty path; its
                    // origin is the local AS itself (this matters when the
                    // *local* AS is the bogus originator — its self-conflict
                    // is a confirmed detection, not a false alarm).
                    let origin = held
                        .origin_as()
                        .or_else(|| peer.is_none().then_some(ctx.local));
                    let held_valid = origin.is_some_and(|o| valid.contains(o));
                    if !held_valid {
                        any_confirmed = true;
                        if let Some(peer) = peer {
                            decision = decision.with_eviction(peer);
                        }
                    }
                }
                let resolution = if any_confirmed {
                    Resolution::Confirmed
                } else {
                    Resolution::FalseAlarm
                };
                (decision, resolution)
            }
            None => {
                let decision = match self.config.on_unresolved {
                    UnresolvedPolicy::Accept => ImportDecision::accept(),
                    UnresolvedPolicy::RejectIncoming => ImportDecision::reject(),
                };
                (decision, Resolution::Unresolved)
            }
        };

        self.alarms.record(Alarm {
            observer: ctx.local,
            prefix: ctx.route.prefix(),
            kind: conflict.kind,
            suspect_origin: conflict.incoming_origin,
            resolution,
            at: self.now,
        });
        decision
    }

    fn on_clock(&mut self, now: SimTime) {
        self.now = now;
    }

    fn on_export(
        &mut self,
        local: Asn,
        _to_peer: Asn,
        _learned_from: Option<Asn>,
        route: &Route,
    ) -> ExportAction {
        if self.config.strippers.contains(&local) && route.moas_list().is_some() {
            // Optional transitive attribute dropped in transit (§4.3). Only
            // this case pays for a route clone; everyone else shares the
            // router's single outbound allocation.
            let mut stripped = route.clone();
            stripped.set_moas_list(None);
            return ExportAction::Replace(stripped);
        }
        ExportAction::Forward
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verifier::RegistryVerifier;
    use bgp_engine::HeldRoutes;
    use bgp_types::{AsPath, Ipv4Prefix, MoasList};

    fn p() -> Ipv4Prefix {
        "208.8.0.0/16".parse().unwrap()
    }

    fn valid_route(origin: u32, list: &[u32]) -> Route {
        Route::new(p(), AsPath::origination(Asn(origin)))
            .with_moas_list(list.iter().map(|&a| Asn(a)).collect())
    }

    fn registry(valid: &[u32]) -> RegistryVerifier {
        let mut reg = RegistryVerifier::new();
        reg.register(p(), valid.iter().map(|&a| Asn(a)).collect::<MoasList>());
        reg
    }

    fn ctx<'a>(route: &'a Route, existing: &'a [(Option<Asn>, &'a Route)]) -> ImportContext<'a> {
        ImportContext {
            local: Asn(100),
            from_peer: Asn(200),
            route,
            existing: HeldRoutes::from_slice(existing),
        }
    }

    #[test]
    fn consistent_announcements_pass_without_queries() {
        let mut m = MoasMonitor::full(registry(&[1, 2]));
        let incoming = valid_route(1, &[1, 2]);
        let held = valid_route(2, &[1, 2]);
        let existing = vec![(Some(Asn(5)), &held)];
        assert_eq!(
            m.on_import(&ctx(&incoming, &existing)),
            ImportDecision::accept()
        );
        assert!(m.alarms().is_empty());
        assert_eq!(
            m.verifier().query_count(),
            0,
            "no conflict, no lookup (§4.4)"
        );
    }

    #[test]
    fn false_origin_is_rejected_and_alarm_confirmed() {
        let mut m = MoasMonitor::full(registry(&[4]));
        let incoming = Route::new(p(), AsPath::origination(Asn(52)));
        let held = Route::new(p(), AsPath::origination(Asn(4)));
        let existing = vec![(Some(Asn(5)), &held)];
        let d = m.on_import(&ctx(&incoming, &existing));
        assert!(d.reject);
        assert_eq!(m.alarms().confirmed_count(), 1);
        assert_eq!(m.verifier().query_count(), 1);
    }

    #[test]
    fn installed_false_route_is_evicted_when_valid_route_arrives() {
        let mut m = MoasMonitor::full(registry(&[4]));
        let incoming = Route::new(p(), AsPath::origination(Asn(4)));
        let held = Route::new(p(), AsPath::origination(Asn(52)));
        let existing = vec![(Some(Asn(7)), &held)];
        let d = m.on_import(&ctx(&incoming, &existing));
        assert!(!d.reject, "the valid route must be installed");
        assert_eq!(d.evict_peers, vec![Asn(7)], "the stale false route must go");
        assert_eq!(m.alarms().confirmed_count(), 1);
    }

    #[test]
    fn dropped_list_is_a_false_alarm_and_route_kept() {
        // §4.3: both origins are valid; one announcement lost its list.
        let mut m = MoasMonitor::full(registry(&[1, 2]));
        let stripped = Route::new(p(), AsPath::origination(Asn(1)));
        let held = valid_route(2, &[1, 2]);
        let existing = vec![(Some(Asn(5)), &held)];
        let d = m.on_import(&ctx(&stripped, &existing));
        assert!(!d.reject);
        assert!(d.evict_peers.is_empty());
        assert_eq!(m.alarms().false_alarm_count(), 1);
    }

    #[test]
    fn non_capable_as_ignores_everything() {
        let mut m = MoasMonitor::partial(BTreeSet::new(), registry(&[4]));
        let incoming = Route::new(p(), AsPath::origination(Asn(52)));
        let held = Route::new(p(), AsPath::origination(Asn(4)));
        let existing = vec![(Some(Asn(5)), &held)];
        assert_eq!(
            m.on_import(&ctx(&incoming, &existing)),
            ImportDecision::accept()
        );
        assert!(m.alarms().is_empty());
    }

    #[test]
    fn unresolved_policy_accept_keeps_route_with_alarm() {
        let mut m = MoasMonitor::full(RegistryVerifier::new()); // no records
        let incoming = Route::new(p(), AsPath::origination(Asn(52)));
        let held = Route::new(p(), AsPath::origination(Asn(4)));
        let existing = vec![(Some(Asn(5)), &held)];
        let d = m.on_import(&ctx(&incoming, &existing));
        assert!(!d.reject);
        assert_eq!(m.alarms().unresolved_count(), 1);
    }

    #[test]
    fn unresolved_policy_reject_refuses_route() {
        let config = MoasConfig {
            deployment: Deployment::Full,
            on_unresolved: UnresolvedPolicy::RejectIncoming,
            ..MoasConfig::default()
        };
        let mut m = MoasMonitor::new(config, RegistryVerifier::new());
        let incoming = Route::new(p(), AsPath::origination(Asn(52)));
        let held = Route::new(p(), AsPath::origination(Asn(4)));
        let existing = vec![(Some(Asn(5)), &held)];
        assert!(m.on_import(&ctx(&incoming, &existing)).reject);
    }

    #[test]
    fn stripper_removes_list_on_export_only_for_configured_as() {
        let config = MoasConfig {
            strippers: [Asn(9)].into_iter().collect(),
            ..MoasConfig::default()
        };
        let mut m = MoasMonitor::new(config, registry(&[1]));
        let route = valid_route(1, &[1, 2]);
        let ExportAction::Replace(stripped) = m.on_export(Asn(9), Asn(2), None, &route) else {
            panic!("stripper must replace the route");
        };
        assert!(stripped.moas_list().is_none());
        assert_eq!(
            m.on_export(Asn(8), Asn(2), None, &route),
            ExportAction::Forward,
            "non-strippers forward the shared payload untouched"
        );
    }

    #[test]
    fn stripper_with_no_list_forwards_without_cloning() {
        let config = MoasConfig {
            strippers: [Asn(9)].into_iter().collect(),
            ..MoasConfig::default()
        };
        let mut m = MoasMonitor::new(config, registry(&[1]));
        let bare = Route::new(p(), AsPath::origination(Asn(1)));
        assert_eq!(
            m.on_export(Asn(9), Asn(2), None, &bare),
            ExportAction::Forward
        );
    }

    #[test]
    fn forged_list_attack_rejected_even_when_it_arrives_first() {
        // The attacker's announcement (with forged list including itself)
        // arrives at an empty RIB: no conflict yet, accepted. When the valid
        // route arrives the conflict fires and the attacker route is evicted.
        let mut m = MoasMonitor::full(registry(&[1, 2]));
        let forged = valid_route(66, &[1, 2, 66]);
        let d1 = m.on_import(&ctx(&forged, &[]));
        assert!(!d1.reject, "no conflict visible yet");
        let valid = valid_route(1, &[1, 2]);
        let existing = vec![(Some(Asn(6)), &forged)];
        let d2 = m.on_import(&ctx(&valid, &existing));
        assert!(!d2.reject);
        assert_eq!(d2.evict_peers, vec![Asn(6)]);
    }

    #[test]
    fn alarms_carry_the_clock_fed_through_on_clock() {
        let mut m = MoasMonitor::full(registry(&[4]));
        m.on_clock(SimTime::from_ticks(42));
        let incoming = Route::new(p(), AsPath::origination(Asn(52)));
        let held = Route::new(p(), AsPath::origination(Asn(4)));
        let existing = vec![(Some(Asn(5)), &held)];
        m.on_import(&ctx(&incoming, &existing));
        let alarm = m.alarms().iter().next().unwrap();
        assert_eq!(alarm.at, SimTime::from_ticks(42));
    }

    #[test]
    fn accessors_expose_state() {
        let mut m = MoasMonitor::full(registry(&[4]));
        assert_eq!(m.config().deployment, Deployment::Full);
        m.alarms_mut().clear();
        m.verifier_mut()
            .register("10.0.0.0/8".parse().unwrap(), MoasList::implicit(Asn(1)));
        assert_eq!(m.verifier().len(), 2);
    }
}
