//! Valley-free (Gao-Rexford) export policy as a composable monitor.

use as_topology::{AsRelationships, Relationship};
use bgp_types::{Asn, Ipv4Prefix, Route, SimTime};

use crate::monitor::{ExportAction, ImportContext, ImportDecision, NoopMonitor, RouteMonitor};

/// Wraps another monitor with the Gao-Rexford export rule:
///
/// * routes learned from a **customer** (or originated locally) are exported
///   to everyone;
/// * routes learned from a **peer or provider** are exported only to
///   customers.
///
/// Links with no relationship annotation are treated permissively (exported),
/// so a partially annotated topology degrades toward the paper's
/// policy-free model rather than partitioning.
///
/// The wrapped monitor's `on_import` runs unchanged, and its `on_export` runs
/// after the policy check, so `ValleyFree<MoasMonitor<_>>` evaluates the
/// MOAS mechanism under policy routing — the realism ablation the paper
/// leaves to future work.
///
/// # Example
///
/// ```
/// use as_topology::{AsGraph, AsRole, AsRelationships};
/// use bgp_engine::{Network, ValleyFree};
/// use bgp_types::Asn;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // AS 1 and AS 2 are peers; each has a customer (3 and 4).
/// let mut g = AsGraph::new();
/// for t in [1, 2] { g.add_as(Asn(t), AsRole::Transit); }
/// for s in [3, 4] { g.add_as(Asn(s), AsRole::Stub); }
/// g.add_link(Asn(1), Asn(2));
/// g.add_link(Asn(1), Asn(3));
/// g.add_link(Asn(2), Asn(4));
///
/// let mut rels = AsRelationships::new();
/// rels.add_peer(Asn(1), Asn(2));
/// rels.add_transit(Asn(1), Asn(3));
/// rels.add_transit(Asn(2), Asn(4));
///
/// let prefix = "208.8.0.0/16".parse()?;
/// let mut net = Network::with_monitor(&g, ValleyFree::new(rels));
/// net.originate(Asn(3), prefix, None);
/// net.run()?;
///
/// // Customer routes go everywhere: AS 4 hears it through the peering.
/// assert_eq!(net.best_origin(Asn(4), prefix), Some(Asn(3)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ValleyFree<M = NoopMonitor> {
    relationships: AsRelationships,
    inner: M,
    suppressed: u64,
}

impl ValleyFree<NoopMonitor> {
    /// Valley-free policy over plain BGP.
    #[must_use]
    pub fn new(relationships: AsRelationships) -> Self {
        ValleyFree::wrapping(relationships, NoopMonitor)
    }
}

impl<M: RouteMonitor> ValleyFree<M> {
    /// Valley-free policy applied before `inner`'s export hook.
    #[must_use]
    pub fn wrapping(relationships: AsRelationships, inner: M) -> Self {
        ValleyFree {
            relationships,
            inner,
            suppressed: 0,
        }
    }

    /// The wrapped monitor.
    #[must_use]
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Mutable access to the wrapped monitor.
    #[must_use]
    pub fn inner_mut(&mut self) -> &mut M {
        &mut self.inner
    }

    /// The relationship annotations in force.
    #[must_use]
    pub fn relationships(&self) -> &AsRelationships {
        &self.relationships
    }

    /// Number of advertisements the policy suppressed.
    #[must_use]
    pub fn suppressed_count(&self) -> u64 {
        self.suppressed
    }

    /// The Gao-Rexford rule for one (learned-from, to-peer) pair at `local`.
    fn permits(&self, local: Asn, to_peer: Asn, learned_from: Option<Asn>) -> bool {
        let Some(from) = learned_from else {
            return true; // locally originated: export to everyone
        };
        match self.relationships.relationship(local, from) {
            // Learned from a customer: export to everyone.
            Some(Relationship::Customer) => true,
            // Learned from peer/provider: only to customers.
            Some(Relationship::Peer) | Some(Relationship::Provider) => matches!(
                self.relationships.relationship(local, to_peer),
                Some(Relationship::Customer) | None
            ),
            // Unannotated ingress link: permissive.
            None => true,
        }
    }
}

impl<M: RouteMonitor> RouteMonitor for ValleyFree<M> {
    fn on_import(&mut self, ctx: &ImportContext<'_>) -> ImportDecision {
        self.inner.on_import(ctx)
    }

    fn on_export(
        &mut self,
        local: Asn,
        to_peer: Asn,
        learned_from: Option<Asn>,
        route: &Route,
    ) -> ExportAction {
        if !self.permits(local, to_peer, learned_from) {
            self.suppressed += 1;
            return ExportAction::Suppress;
        }
        self.inner.on_export(local, to_peer, learned_from, route)
    }

    fn on_withdraw(&mut self, local: Asn, from_peer: Asn, prefix: Ipv4Prefix) {
        self.inner.on_withdraw(local, from_peer, prefix);
    }

    fn on_clock(&mut self, now: SimTime) {
        self.inner.on_clock(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use as_topology::{AsGraph, AsRole};
    use bgp_types::Ipv4Prefix;

    fn p() -> Ipv4Prefix {
        "208.8.0.0/16".parse().unwrap()
    }

    /// Two providers (1, 2) peering; stubs 3 (customer of 1) and 4 (customer
    /// of 2); plus provider 5 peering with both 1 and 2, with customer 6.
    fn policy_world() -> (AsGraph, AsRelationships) {
        let mut g = AsGraph::new();
        for t in [1, 2, 5] {
            g.add_as(Asn(t), AsRole::Transit);
        }
        for s in [3, 4, 6] {
            g.add_as(Asn(s), AsRole::Stub);
        }
        for (a, b) in [(1, 2), (1, 5), (2, 5), (1, 3), (2, 4), (5, 6)] {
            g.add_link(Asn(a), Asn(b));
        }
        let mut rels = AsRelationships::new();
        rels.add_peer(Asn(1), Asn(2));
        rels.add_peer(Asn(1), Asn(5));
        rels.add_peer(Asn(2), Asn(5));
        rels.add_transit(Asn(1), Asn(3));
        rels.add_transit(Asn(2), Asn(4));
        rels.add_transit(Asn(5), Asn(6));
        (g, rels)
    }

    #[test]
    fn customer_routes_reach_everyone() {
        let (g, rels) = policy_world();
        let mut net = Network::with_monitor(&g, ValleyFree::new(rels));
        net.originate(Asn(3), p(), None);
        net.run().unwrap();
        for asn in [1, 2, 4, 5, 6] {
            assert_eq!(net.best_origin(Asn(asn), p()), Some(Asn(3)), "AS {asn}");
        }
    }

    #[test]
    fn peer_routes_are_not_re_exported_to_peers() {
        // Route originated by peer AS 2 itself: AS 1 learns it over the
        // peering and must NOT hand it to its other peer AS 5 — but AS 5
        // peers with AS 2 directly, so it still gets the route first-hand.
        // The observable policy effect: AS 1 never advertises it to AS 5,
        // so the suppression counter rises while reachability is preserved
        // by the direct peering mesh.
        let (g, rels) = policy_world();
        let mut net = Network::with_monitor(&g, ValleyFree::new(rels));
        net.originate(Asn(2), p(), None);
        net.run().unwrap();
        assert!(net.monitor().suppressed_count() > 0);
        for asn in [1, 3, 4, 5, 6] {
            assert_eq!(net.best_origin(Asn(asn), p()), Some(Asn(2)), "AS {asn}");
        }
        // AS 5's route came over its own peering with AS 2, not via AS 1.
        assert_eq!(
            net.router(Asn(5)).unwrap().best_learned_from(p()),
            Some(Asn(2))
        );
    }

    #[test]
    fn valley_paths_are_eliminated() {
        // Cut the 2-5 peering: AS 5 can now only reach AS 4's prefix through
        // a valley (up to peer 1, across to peer 2? no — 1 learned it from
        // peer 2 and must not export to peer 5). AS 5 and its customer 6
        // remain without a route: the classic valley-free reachability gap.
        let (mut g, rels) = policy_world();
        g.remove_link(Asn(2), Asn(5));
        let mut net = Network::with_monitor(&g, ValleyFree::new(rels));
        net.originate(Asn(4), p(), None);
        net.run().unwrap();
        assert_eq!(net.best_origin(Asn(2), p()), Some(Asn(4)));
        assert_eq!(net.best_origin(Asn(1), p()), Some(Asn(4)));
        assert!(
            net.best_route(Asn(5), p()).is_none(),
            "valley route leaked to AS 5"
        );
        assert!(
            net.best_route(Asn(6), p()).is_none(),
            "valley route leaked to AS 6"
        );
    }

    #[test]
    fn unannotated_links_stay_permissive() {
        let (g, _) = policy_world();
        let mut net = Network::with_monitor(&g, ValleyFree::new(AsRelationships::new()));
        net.originate(Asn(4), p(), None);
        net.run().unwrap();
        for asn in [1, 2, 3, 5, 6] {
            assert_eq!(net.best_origin(Asn(asn), p()), Some(Asn(4)), "AS {asn}");
        }
        assert_eq!(net.monitor().suppressed_count(), 0);
    }

    #[test]
    fn wrapping_preserves_inner_monitor_behaviour() {
        struct CountImports(u64);
        impl RouteMonitor for CountImports {
            fn on_import(&mut self, _ctx: &ImportContext<'_>) -> ImportDecision {
                self.0 += 1;
                ImportDecision::accept()
            }
        }
        let (g, rels) = policy_world();
        let mut net = Network::with_monitor(&g, ValleyFree::wrapping(rels, CountImports(0)));
        net.originate(Asn(3), p(), None);
        net.run().unwrap();
        assert!(net.monitor().inner().0 > 0);
    }
}
