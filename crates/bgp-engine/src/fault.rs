//! BGP-level fault events and the network fault plan.
//!
//! [`sim_engine::fault`] provides the generic machinery (per-link
//! [`LinkFaultModel`]s, a scripted timeline, one seed); this module
//! instantiates it for the BGP engine: links are undirected `(Asn, Asn)`
//! pairs and the timeline carries [`FaultEvent`]s — link failures and
//! restorations, session resets, and scripted originations/withdrawals
//! (including periodic origin flaps).
//!
//! Install a plan with
//! [`set_fault_plan`](crate::ShardedNetwork::set_fault_plan); the network
//! validates every referenced AS and link up front and then executes the
//! plan during [`run`](crate::ShardedNetwork::run), interleaved
//! deterministically with BGP message delivery.

use bgp_types::{Asn, Ipv4Prefix, Route};
use sim_engine::fault::FaultPlan;

/// A scripted network event on a fault timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Tear down the link between two ASes (see
    /// [`ShardedNetwork::fail_link`](crate::ShardedNetwork::fail_link)).
    FailLink(Asn, Asn),
    /// Restore a previously failed link (see
    /// [`ShardedNetwork::restore_link`](crate::ShardedNetwork::restore_link)).
    RestoreLink(Asn, Asn),
    /// Reset the BGP session between two peers: both sides implicitly
    /// withdraw what they learned over it, then re-establish and re-announce
    /// (see [`ShardedNetwork::reset_session`](crate::ShardedNetwork::reset_session)).
    ResetSession(Asn, Asn),
    /// Make an AS originate a route (the path should be empty; the router
    /// prepends its own ASN on export). Models scripted originations such as
    /// a backup origin coming online or an attacker injecting a forged route
    /// mid-churn.
    Announce {
        /// The originating AS.
        asn: Asn,
        /// The route to originate.
        route: Route,
    },
    /// Make an AS stop originating a prefix.
    Withdraw {
        /// The withdrawing AS.
        asn: Asn,
        /// The prefix to withdraw.
        prefix: Ipv4Prefix,
    },
    /// Flap an origination: withdraw the route's prefix if `asn` currently
    /// originates it, otherwise originate the route. Scheduled periodically,
    /// this is a route flap; with MRAI disabled and no firing bound it is a
    /// flap storm that only the convergence watchdog terminates.
    ToggleOrigin {
        /// The flapping AS.
        asn: Asn,
        /// The route toggled on and off.
        route: Route,
    },
}

impl FaultEvent {
    /// Every AS this event references, for install-time validation.
    pub(crate) fn actors(&self) -> impl Iterator<Item = Asn> + '_ {
        let (a, b) = match self {
            FaultEvent::FailLink(a, b)
            | FaultEvent::RestoreLink(a, b)
            | FaultEvent::ResetSession(a, b) => (*a, Some(*b)),
            FaultEvent::Announce { asn, .. }
            | FaultEvent::Withdraw { asn, .. }
            | FaultEvent::ToggleOrigin { asn, .. } => (*asn, None),
        };
        std::iter::once(a).chain(b)
    }
}

/// A fault plan over BGP links: [`sim_engine::fault::FaultPlan`] keyed by
/// undirected `(Asn, Asn)` pairs (order does not matter — the network
/// normalizes and applies the model to both directions) and carrying
/// [`FaultEvent`] timelines.
pub type NetFaultPlan = FaultPlan<(Asn, Asn), FaultEvent>;

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::AsPath;

    fn route() -> Route {
        Route::new("10.0.0.0/16".parse().unwrap(), AsPath::new())
    }

    #[test]
    fn actors_cover_both_link_endpoints() {
        let actors: Vec<Asn> = FaultEvent::FailLink(Asn(1), Asn(2)).actors().collect();
        assert_eq!(actors, vec![Asn(1), Asn(2)]);
        let actors: Vec<Asn> = FaultEvent::ResetSession(Asn(3), Asn(4)).actors().collect();
        assert_eq!(actors, vec![Asn(3), Asn(4)]);
    }

    #[test]
    fn actors_cover_single_as_events() {
        let announce = FaultEvent::Announce {
            asn: Asn(5),
            route: route(),
        };
        assert_eq!(announce.actors().collect::<Vec<_>>(), vec![Asn(5)]);
        let toggle = FaultEvent::ToggleOrigin {
            asn: Asn(6),
            route: route(),
        };
        assert_eq!(toggle.actors().collect::<Vec<_>>(), vec![Asn(6)]);
        let withdraw = FaultEvent::Withdraw {
            asn: Asn(7),
            prefix: "10.0.0.0/16".parse().unwrap(),
        };
        assert_eq!(withdraw.actors().collect::<Vec<_>>(), vec![Asn(7)]);
    }

    #[test]
    fn net_fault_plan_builds() {
        let mut plan = NetFaultPlan::new(9);
        plan.lossy_link((Asn(1), Asn(2)), 0.2);
        plan.at(10, FaultEvent::FailLink(Asn(1), Asn(2)));
        plan.every(
            20,
            5,
            Some(4),
            FaultEvent::ToggleOrigin {
                asn: Asn(3),
                route: route(),
            },
        );
        assert_eq!(plan.timeline().len(), 2);
        assert!(plan.link_model(&(Asn(1), Asn(2))).is_some());
    }
}
