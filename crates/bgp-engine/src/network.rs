//! [`Network`]: the one-shard, calling-thread case of the engine.

use std::ops::{Deref, DerefMut};

use as_topology::AsGraph;

use crate::monitor::{NoopMonitor, RouteMonitor};
use crate::sharded::ShardedNetwork;

/// An AS-level BGP network over an [`AsGraph`], driven to quiescence by a
/// deterministic discrete-event queue.
///
/// This is [`ShardedNetwork`] with one shard, run on the calling thread, and
/// it dereferences to it: originating, running, fault plans, link failures,
/// stats, RIB inspection and `export_metrics` are all that type's methods
/// (and its documentation). What the wrapper adds is a single owned monitor
/// — [`Network::monitor`] instead of one per shard: [`NoopMonitor`] for the
/// "Normal BGP" baseline, or the MOAS monitor from `moas-core` for the
/// paper's mechanism. Results are bit-identical to a `ShardedNetwork` of any
/// shard count over the same graph and seed.
///
/// # Example
///
/// ```
/// use as_topology::InternetModel;
/// use bgp_engine::Network;
/// use bgp_types::Asn;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = InternetModel::new().transit_count(5).stub_count(20).build(1);
/// let victim = graph.stub_asns()[0];
/// let prefix = as_topology::prefix_for_asn(victim);
///
/// let mut net = Network::new(&graph);
/// net.originate(victim, prefix, None);
/// net.run()?;
///
/// // Every AS converged on the true origin.
/// assert!(graph.asns().all(|asn| net.best_origin(asn, prefix) == Some(victim)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Network<M = NoopMonitor>(ShardedNetwork<M>);

impl Network<NoopMonitor> {
    /// Builds a plain BGP network (no validation) with unit link delays.
    #[must_use]
    pub fn new(graph: &AsGraph) -> Self {
        Network::with_monitor(graph, NoopMonitor)
    }
}

impl<M: RouteMonitor> Network<M> {
    /// Builds a network whose routers consult `monitor` on every import and
    /// export. All links have unit delay.
    #[must_use]
    pub fn with_monitor(graph: &AsGraph, monitor: M) -> Self {
        Network(ShardedNetwork::with_monitor_factory(
            graph,
            1,
            1,
            once(monitor),
        ))
    }

    /// Like [`Network::with_monitor`], but each directed link gets an
    /// independent delay drawn uniformly from `1..=max_delay`, seeded so the
    /// timing pattern is reproducible.
    #[must_use]
    pub fn with_monitor_and_jitter(graph: &AsGraph, monitor: M, seed: u64, max_delay: u64) -> Self {
        Network(ShardedNetwork::with_monitor_and_jitter(
            graph,
            1,
            1,
            seed,
            max_delay,
            once(monitor),
        ))
    }

    /// The monitor, for reading alarms and other accumulated state.
    #[must_use]
    pub fn monitor(&self) -> &M {
        self.0.monitors().next().expect("exactly one shard")
    }
}

/// The monitor factory of a one-shard network: hands out `monitor`, once.
fn once<M>(monitor: M) -> impl FnMut() -> M {
    let mut monitor = Some(monitor);
    move || monitor.take().expect("one shard takes one monitor")
}

impl<M> Deref for Network<M> {
    type Target = ShardedNetwork<M>;

    fn deref(&self) -> &ShardedNetwork<M> {
        &self.0
    }
}

impl<M> DerefMut for Network<M> {
    fn deref_mut(&mut self) -> &mut ShardedNetwork<M> {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConvergenceError, FaultEvent, FaultPlanError, LinkFaultModel, NetFaultPlan};
    use as_topology::{AsRole, InternetModel};
    use bgp_types::{AsPath, Asn, Ipv4Prefix, MoasList, Route, SimTime};

    fn figure1_graph() -> AsGraph {
        // AS 4 originates; AS Y (=2) and AS Z (=3) transit to AS X (=1).
        let mut g = AsGraph::new();
        g.add_as(Asn(4), AsRole::Stub);
        for t in [1, 2, 3] {
            g.add_as(Asn(t), AsRole::Transit);
        }
        g.add_link(Asn(4), Asn(2));
        g.add_link(Asn(4), Asn(3));
        g.add_link(Asn(2), Asn(1));
        g.add_link(Asn(3), Asn(1));
        g
    }

    fn p() -> Ipv4Prefix {
        "208.8.0.0/16".parse().unwrap()
    }

    #[test]
    fn figure1_all_ases_reach_origin() {
        let mut net = Network::new(&figure1_graph());
        net.originate(Asn(4), p(), None);
        net.run().unwrap();
        for asn in [1, 2, 3, 4] {
            assert_eq!(net.best_origin(Asn(asn), p()), Some(Asn(4)), "AS {asn}");
        }
        // AS X learned via the lower-numbered peer on the tie.
        assert_eq!(
            net.best_route(Asn(1), p()).unwrap().as_path().to_string(),
            "2 4"
        );
    }

    #[test]
    fn convergence_on_generated_internet() {
        let graph = InternetModel::new()
            .transit_count(10)
            .stub_count(50)
            .build(7);
        let victim = graph.stub_asns()[3];
        let prefix = as_topology::prefix_for_asn(victim);
        let mut net = Network::with_monitor_and_jitter(&graph, NoopMonitor, 7, 5);
        net.originate(victim, prefix, None);
        net.run().unwrap();
        for asn in graph.asns() {
            assert_eq!(net.best_origin(asn, prefix), Some(victim), "{asn}");
            let best = net.best_route(asn, prefix).unwrap();
            if asn != victim {
                // The path must be loop-free and end at the victim.
                assert_eq!(best.origin_as(), Some(victim));
                let hops: Vec<Asn> = best.as_path().iter().collect();
                let unique: std::collections::BTreeSet<Asn> = hops.iter().copied().collect();
                assert_eq!(hops.len(), unique.len(), "loop in path of {asn}");
            }
        }
        assert!(net.stats().total_messages() > 0);
    }

    #[test]
    fn withdrawal_clears_the_network() {
        let graph = figure1_graph();
        let mut net = Network::new(&graph);
        net.originate(Asn(4), p(), None);
        net.run().unwrap();
        net.withdraw(Asn(4), p());
        net.run().unwrap();
        for asn in [1, 2, 3, 4] {
            assert!(net.best_route(Asn(asn), p()).is_none(), "AS {asn}");
        }
        assert!(net.stats().withdrawals > 0);
    }

    #[test]
    fn export_metrics_reports_sessions_decisions_and_queue() {
        use minimetrics::RecordingSink;

        let mut net = Network::new(&figure1_graph());
        net.originate(Asn(4), p(), None);
        net.run().unwrap();

        let sessions = net.session_counters();
        assert!(!sessions.is_empty());
        let sent: u64 = sessions
            .iter()
            .map(|(_, c)| c.sent_announcements + c.sent_withdrawals)
            .sum();
        let recv: u64 = sessions
            .iter()
            .map(|(_, c)| c.recv_announcements + c.recv_withdrawals)
            .sum();
        // Nothing faulted, so everything sent was delivered.
        assert_eq!(sent, recv);
        assert_eq!(recv, net.stats().total_messages());

        let mut sink = RecordingSink::new();
        net.export_metrics(&mut sink);
        let snap = sink.into_snapshot();
        assert_eq!(
            snap.counters["net.messages.announcements"],
            net.stats().announcements
        );
        assert_eq!(snap.counters["sim.events.fired"], net.queue_stats().fired);
        assert!(snap.counters["net.decision_process.invocations"] > 0);
        // One Adj-RIB-In size observation per router.
        assert_eq!(
            snap.histograms["net.adj_rib_in.size"].count(),
            4,
            "figure-1 graph has four routers"
        );
        // AS 4 announced toward AS 2 exactly once.
        assert_eq!(snap.counters["session.AS4->AS2.sent_announcements"], 1);

        // A no-op export leaves no trace and costs nothing.
        net.export_metrics(&mut minimetrics::NoopSink);
    }

    #[test]
    fn mrai_deferrals_are_counted() {
        let graph = InternetModel::new()
            .transit_count(6)
            .stub_count(20)
            .build(5);
        let victim = graph.stub_asns()[0];
        let prefix = as_topology::prefix_for_asn(victim);
        let mut net = Network::with_monitor_and_jitter(&graph, NoopMonitor, 5, 4);
        net.set_mrai(10);
        net.originate(victim, prefix, None);
        net.run().unwrap();
        assert!(
            net.stats().mrai_deferred >= net.stats().mrai_coalesced,
            "every coalesced update was first deferred"
        );
        assert!(net.stats().mrai_deferred > 0);
    }

    #[test]
    fn two_valid_origins_split_the_network() {
        // Figure 2: prefix originated by AS 4 and AS 226 (multi-homing).
        let mut g = figure1_graph();
        g.add_as(Asn(226), AsRole::Stub);
        g.add_link(Asn(226), Asn(3));
        let mut net = Network::new(&g);
        let list: MoasList = [Asn(4), Asn(226)].into_iter().collect();
        net.originate(Asn(4), p(), Some(list.clone()));
        net.originate(Asn(226), p(), Some(list));
        net.run().unwrap();
        // Every AS reaches one of the two legitimate origins.
        for asn in [1, 2, 3, 4, 226] {
            let origin = net.best_origin(Asn(asn), p()).unwrap();
            assert!(
                origin == Asn(4) || origin == Asn(226),
                "AS {asn} -> {origin}"
            );
        }
        // AS 3 peers with both origins directly; the deterministic tiebreak
        // picks the lower peer ASN. AS 226 itself keeps its local route.
        assert_eq!(net.best_origin(Asn(3), p()), Some(Asn(4)));
        assert_eq!(net.best_origin(Asn(226), p()), Some(Asn(226)));
    }

    #[test]
    fn attacker_hijacks_shorter_path_under_normal_bgp() {
        // Figure 3: AS 52 (attacker) peers directly with AS X (=1); the
        // legitimate origin AS 4 is two hops away. Normal BGP adopts the
        // attacker's shorter route.
        let mut g = figure1_graph();
        g.add_as(Asn(52), AsRole::Stub);
        g.add_link(Asn(52), Asn(1));
        let mut net = Network::new(&g);
        net.originate(Asn(4), p(), None);
        net.originate(Asn(52), p(), None);
        net.run().unwrap();
        assert_eq!(net.best_origin(Asn(1), p()), Some(Asn(52)), "AS X hijacked");
        // ASes adjacent to the true origin keep the true route.
        assert_eq!(net.best_origin(Asn(2), p()), Some(Asn(4)));
        assert_eq!(net.best_origin(Asn(3), p()), Some(Asn(4)));
    }

    #[test]
    fn run_is_deterministic() {
        let graph = InternetModel::new()
            .transit_count(8)
            .stub_count(30)
            .build(3);
        let victim = graph.stub_asns()[0];
        let prefix = as_topology::prefix_for_asn(victim);
        let run = |seed| {
            let mut net = Network::with_monitor_and_jitter(&graph, NoopMonitor, seed, 4);
            net.originate(victim, prefix, None);
            net.run().unwrap();
            let origins: Vec<Option<Asn>> =
                graph.asns().map(|a| net.best_origin(a, prefix)).collect();
            (origins, net.stats())
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn event_budget_is_enforced() {
        let graph = InternetModel::new()
            .transit_count(10)
            .stub_count(50)
            .build(1);
        let victim = graph.stub_asns()[0];
        let mut net = Network::new(&graph);
        net.originate(victim, as_topology::prefix_for_asn(victim), None);
        let err = net.run_with_limit(3).unwrap_err();
        match err {
            ConvergenceError::BudgetExhausted { processed, .. } => assert!(processed >= 3),
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn stats_track_announcements() {
        let mut net = Network::new(&figure1_graph());
        net.originate(Asn(4), p(), None);
        net.run().unwrap();
        assert!(net.stats().announcements >= 4);
        assert_eq!(net.stats().withdrawals, 0);
        assert!(net.stats().converged_at > SimTime::ZERO);
    }

    #[test]
    fn moas_list_travels_with_routes() {
        let mut net = Network::new(&figure1_graph());
        let list: MoasList = [Asn(4), Asn(226)].into_iter().collect();
        net.originate(Asn(4), p(), Some(list.clone()));
        net.run().unwrap();
        let at_x = net.best_route(Asn(1), p()).unwrap();
        assert_eq!(at_x.moas_list(), Some(&list));
    }

    #[test]
    fn link_failure_reroutes_to_alternate_path() {
        let mut net = Network::new(&figure1_graph());
        net.originate(Asn(4), p(), None);
        net.run().unwrap();
        assert_eq!(
            net.best_route(Asn(1), p()).unwrap().as_path().to_string(),
            "2 4"
        );
        net.fail_link(Asn(1), Asn(2));
        net.run().unwrap();
        // AS 1 falls back to the path via AS 3.
        assert_eq!(
            net.best_route(Asn(1), p()).unwrap().as_path().to_string(),
            "3 4"
        );
        assert!(net.link_is_down(Asn(2), Asn(1)));
    }

    #[test]
    fn partitioning_the_origin_withdraws_everywhere() {
        let mut net = Network::new(&figure1_graph());
        net.originate(Asn(4), p(), None);
        net.run().unwrap();
        net.fail_link(Asn(4), Asn(2));
        net.fail_link(Asn(4), Asn(3));
        net.run().unwrap();
        for asn in [1, 2, 3] {
            assert!(net.best_route(Asn(asn), p()).is_none(), "AS {asn}");
        }
        // The origin keeps its own local route.
        assert_eq!(net.best_origin(Asn(4), p()), Some(Asn(4)));
    }

    #[test]
    fn restore_link_reconverges_to_original_state() {
        let mut reference = Network::new(&figure1_graph());
        reference.originate(Asn(4), p(), None);
        reference.run().unwrap();

        let mut net = Network::new(&figure1_graph());
        net.originate(Asn(4), p(), None);
        net.run().unwrap();
        net.fail_link(Asn(1), Asn(2));
        net.run().unwrap();
        net.restore_link(Asn(1), Asn(2));
        net.run().unwrap();
        for asn in [1, 2, 3, 4] {
            assert_eq!(
                net.best_origin(Asn(asn), p()),
                reference.best_origin(Asn(asn), p()),
                "AS {asn}"
            );
        }
        // The restored session carries a route again (either direction may
        // win the tie at AS 1 depending on arrival order, but reachability
        // is identical).
        assert!(net.best_route(Asn(1), p()).is_some());
    }

    #[test]
    fn failing_unknown_or_failed_link_is_a_noop() {
        let mut net = Network::new(&figure1_graph());
        net.fail_link(Asn(1), Asn(2));
        net.fail_link(Asn(2), Asn(1)); // already down
        net.restore_link(Asn(1), Asn(2));
        net.restore_link(Asn(1), Asn(2)); // already up
        net.fail_link(Asn(77), Asn(88)); // not a link at all: only marks state
        assert!(net.run().is_ok());
    }

    #[test]
    fn in_flight_messages_are_lost_on_failed_links() {
        let mut net = Network::new(&figure1_graph());
        net.originate(Asn(4), p(), None);
        // Fail the 4-2 link while the origination is still in flight.
        net.fail_link(Asn(4), Asn(2));
        net.run().unwrap();
        assert!(net.stats().dropped_on_failed_links > 0);
        // Reachability via AS 3 only.
        assert_eq!(
            net.best_route(Asn(1), p()).unwrap().as_path().to_string(),
            "3 4"
        );
    }

    #[test]
    fn in_flight_messages_stay_lost_across_a_fail_restore_bounce() {
        // A message is in flight on 4->2 when the link fails; the link is
        // restored *before* the message's delivery time. The session epoch
        // moved on, so the stale message must still be discarded — the
        // restored session re-advertises instead.
        let mut net = Network::new(&figure1_graph());
        net.originate(Asn(4), p(), None);
        net.fail_link(Asn(4), Asn(2));
        net.restore_link(Asn(4), Asn(2));
        net.run().unwrap();
        assert!(net.stats().dropped_on_failed_links > 0);
        // The re-establishment re-advertised, so reachability is intact.
        for asn in [1, 2, 3] {
            assert_eq!(net.best_origin(Asn(asn), p()), Some(Asn(4)), "AS {asn}");
        }
    }

    #[test]
    fn session_reset_withdraws_then_reconverges() {
        let mut net = Network::new(&figure1_graph());
        net.originate(Asn(4), p(), None);
        net.run().unwrap();
        let withdrawals_before = net.stats().withdrawals;
        net.reset_session(Asn(4), Asn(2));
        net.run().unwrap();
        // The teardown flooded real withdrawals...
        assert!(net.stats().withdrawals > withdrawals_before);
        // ...and the re-establishment restored every route.
        for asn in [1, 2, 3] {
            assert_eq!(net.best_origin(Asn(asn), p()), Some(Asn(4)), "AS {asn}");
        }
    }

    #[test]
    fn session_reset_on_unknown_pair_or_down_link_is_a_noop() {
        let mut net = Network::new(&figure1_graph());
        net.originate(Asn(4), p(), None);
        net.run().unwrap();
        net.reset_session(Asn(1), Asn(4)); // not adjacent
        net.reset_session(Asn(77), Asn(88)); // not in graph
        net.fail_link(Asn(4), Asn(2));
        net.reset_session(Asn(4), Asn(2)); // link is down
        assert!(net.run().is_ok());
    }

    #[test]
    fn mrai_preserves_outcome_and_coalesces_churn() {
        let graph = InternetModel::new()
            .transit_count(10)
            .stub_count(40)
            .build(21);
        let victim = graph.stub_asns()[0];
        let prefix = as_topology::prefix_for_asn(victim);

        let run = |mrai: u64| {
            let mut net = Network::new(&graph);
            net.set_mrai(mrai);
            // Flap twice to generate churn, then settle.
            net.originate(victim, prefix, None);
            net.run().unwrap();
            net.withdraw(victim, prefix);
            net.run().unwrap();
            net.originate(victim, prefix, None);
            net.run().unwrap();
            let origins: Vec<Option<Asn>> =
                graph.asns().map(|a| net.best_origin(a, prefix)).collect();
            (origins, net.stats())
        };

        let (plain_origins, plain_stats) = run(0);
        let (mrai_origins, mrai_stats) = run(50);
        assert_eq!(
            plain_origins, mrai_origins,
            "MRAI must not change the outcome"
        );
        assert_eq!(plain_stats.mrai_coalesced, 0);
        assert!(
            mrai_stats.total_messages() <= plain_stats.total_messages(),
            "MRAI should not increase message count ({} > {})",
            mrai_stats.total_messages(),
            plain_stats.total_messages()
        );
    }

    #[test]
    fn mrai_delays_but_delivers() {
        let mut net = Network::new(&figure1_graph());
        net.set_mrai(100);
        net.originate(Asn(4), p(), None);
        let converged = net.run().unwrap();
        for asn in [1, 2, 3] {
            assert_eq!(net.best_origin(Asn(asn), p()), Some(Asn(4)), "AS {asn}");
        }
        assert!(converged >= SimTime::from_ticks(2));
    }

    #[test]
    #[should_panic(expected = "not in network")]
    fn originating_from_unknown_as_panics() {
        let mut net = Network::new(&figure1_graph());
        net.originate(Asn(999), p(), None);
    }

    #[test]
    #[should_panic(expected = "not in network")]
    fn withdrawing_from_unknown_as_panics() {
        let mut net = Network::new(&figure1_graph());
        net.withdraw(Asn(999), p());
    }

    // --------------------------------------------------------------
    // Fault plans
    // --------------------------------------------------------------

    #[test]
    fn fault_plan_validates_actors_and_links() {
        let mut net = Network::new(&figure1_graph());
        let mut plan = NetFaultPlan::new(1);
        plan.at(5, FaultEvent::FailLink(Asn(1), Asn(999)));
        assert_eq!(
            net.set_fault_plan(plan),
            Err(FaultPlanError::UnknownAs(Asn(999)))
        );

        let mut plan = NetFaultPlan::new(1);
        plan.at(5, FaultEvent::ResetSession(Asn(1), Asn(4))); // not adjacent
        assert_eq!(
            net.set_fault_plan(plan),
            Err(FaultPlanError::NotALink(Asn(1), Asn(4)))
        );

        let mut plan = NetFaultPlan::new(1);
        plan.lossy_link((Asn(1), Asn(4)), 0.5);
        assert_eq!(
            net.set_fault_plan(plan),
            Err(FaultPlanError::NotALink(Asn(1), Asn(4)))
        );

        assert!(net.set_fault_plan(NetFaultPlan::new(1)).is_ok());
        assert_eq!(
            net.set_fault_plan(NetFaultPlan::new(2)),
            Err(FaultPlanError::AlreadyInstalled)
        );
    }

    #[test]
    fn scripted_fail_and_restore_follow_the_timeline() {
        let mut net = Network::new(&figure1_graph());
        let mut plan = NetFaultPlan::new(7);
        plan.at(10, FaultEvent::FailLink(Asn(1), Asn(2)));
        plan.at(40, FaultEvent::RestoreLink(Asn(1), Asn(2)));
        net.set_fault_plan(plan).unwrap();
        net.originate(Asn(4), p(), None);
        net.run().unwrap();
        // Timeline ran to completion: the link ends restored and AS 1 holds
        // a route again.
        assert!(!net.link_is_down(Asn(1), Asn(2)));
        assert_eq!(net.best_origin(Asn(1), p()), Some(Asn(4)));
    }

    #[test]
    fn certainly_lossy_link_starves_one_path() {
        // Everything 4 sends toward 2 is dropped by the fault model, so the
        // network behaves as if only the 4-3 path existed.
        let mut net = Network::new(&figure1_graph());
        let mut plan = NetFaultPlan::new(3);
        plan.lossy_link((Asn(4), Asn(2)), 1.0);
        net.set_fault_plan(plan).unwrap();
        net.originate(Asn(4), p(), None);
        net.run().unwrap();
        assert_eq!(
            net.best_route(Asn(1), p()).unwrap().as_path().to_string(),
            "3 4"
        );
        let total = net.fault_stats_total();
        assert!(total.dropped > 0);
        // Both directions got the model; the stats name the directed edges.
        for ((a, b), stats) in net.fault_stats() {
            assert!([Asn(2), Asn(4)].contains(&a) && [Asn(2), Asn(4)].contains(&b));
            assert!(stats.dropped > 0 || stats.delivered > 0);
        }
    }

    #[test]
    fn corrupt_messages_are_dropped_and_counted_never_panic() {
        let mut net = Network::new(&figure1_graph());
        let mut plan = NetFaultPlan::new(5);
        plan.set_link_model(
            (Asn(4), Asn(2)),
            LinkFaultModel {
                corrupt: 1.0,
                ..LinkFaultModel::default()
            },
        );
        net.set_fault_plan(plan).unwrap();
        net.originate(Asn(4), p(), None);
        net.run().unwrap();
        assert!(net.stats().corrupted_dropped > 0);
        assert_eq!(
            net.fault_stats_total().corrupted,
            net.stats().corrupted_dropped
        );
        // The clean path still delivered.
        assert_eq!(net.best_origin(Asn(1), p()), Some(Asn(4)));
    }

    #[test]
    fn duplicates_and_delays_do_not_change_the_outcome() {
        let graph = InternetModel::new()
            .transit_count(6)
            .stub_count(20)
            .build(11);
        let victim = graph.stub_asns()[0];
        let prefix = as_topology::prefix_for_asn(victim);
        let clean = {
            let mut net = Network::new(&graph);
            net.originate(victim, prefix, None);
            net.run().unwrap();
            graph
                .asns()
                .map(|a| net.best_origin(a, prefix))
                .collect::<Vec<_>>()
        };
        let mut net = Network::new(&graph);
        let mut plan = NetFaultPlan::new(13);
        for (a, b) in graph.links() {
            plan.set_link_model(
                (a, b),
                LinkFaultModel {
                    duplicate: 0.3,
                    reorder: 0.3,
                    max_extra_delay: 4,
                    ..LinkFaultModel::default()
                },
            );
        }
        net.set_fault_plan(plan).unwrap();
        net.originate(victim, prefix, None);
        net.run().unwrap();
        let faulty: Vec<Option<Asn>> = graph.asns().map(|a| net.best_origin(a, prefix)).collect();
        assert_eq!(clean, faulty, "duplication/reordering must not partition");
        let total = net.fault_stats_total();
        assert!(total.duplicated > 0 && total.reordered > 0);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let graph = InternetModel::new()
            .transit_count(6)
            .stub_count(20)
            .build(2);
        let victim = graph.stub_asns()[1];
        let prefix = as_topology::prefix_for_asn(victim);
        let run = || {
            let mut net = Network::new(&graph);
            let mut plan = NetFaultPlan::new(99);
            for (a, b) in graph.links() {
                plan.set_link_model(
                    (a, b),
                    LinkFaultModel {
                        drop: 0.1,
                        duplicate: 0.1,
                        reorder: 0.2,
                        corrupt: 0.05,
                        max_extra_delay: 3,
                    },
                );
            }
            net.set_fault_plan(plan).unwrap();
            net.originate(victim, prefix, None);
            net.run().unwrap();
            let origins: Vec<Option<Asn>> =
                graph.asns().map(|a| net.best_origin(a, prefix)).collect();
            (origins, net.stats(), net.fault_stats_total())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn periodic_flap_with_bound_terminates_on_its_own() {
        let mut net = Network::new(&figure1_graph());
        let mut plan = NetFaultPlan::new(1);
        plan.every(
            10,
            20,
            Some(4),
            FaultEvent::ToggleOrigin {
                asn: Asn(4),
                route: Route::new(p(), AsPath::new()),
            },
        );
        net.set_fault_plan(plan).unwrap();
        net.run().unwrap();
        // Four toggles: originate, withdraw, originate, withdraw.
        assert!(net.best_route(Asn(1), p()).is_none());
        assert!(net.stats().withdrawals > 0);
    }

    #[test]
    fn watchdog_reports_oscillation_on_unbounded_flap_storm() {
        let mut net = Network::new(&figure1_graph());
        net.set_watchdog(64);
        let mut plan = NetFaultPlan::new(1);
        plan.every(
            5,
            10,
            None, // forever: only the watchdog can end this
            FaultEvent::ToggleOrigin {
                asn: Asn(4),
                route: Route::new(p(), AsPath::new()),
            },
        );
        net.set_fault_plan(plan).unwrap();
        let err = net.run().unwrap_err();
        match err {
            ConvergenceError::Oscillating { cycle_len } => assert!(cycle_len > 0),
            other => panic!("expected oscillation, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_stays_quiet_on_converging_runs() {
        let graph = InternetModel::new()
            .transit_count(10)
            .stub_count(50)
            .build(7);
        let victim = graph.stub_asns()[3];
        let prefix = as_topology::prefix_for_asn(victim);
        let mut net = Network::with_monitor_and_jitter(&graph, NoopMonitor, 7, 5);
        net.set_watchdog(32); // aggressively small on purpose
        net.originate(victim, prefix, None);
        assert!(net.run().is_ok());
    }

    #[test]
    fn scripted_announce_and_withdraw_fire_at_their_ticks() {
        let mut net = Network::new(&figure1_graph());
        let mut plan = NetFaultPlan::new(0);
        plan.at(
            10,
            FaultEvent::Announce {
                asn: Asn(4),
                route: Route::new(p(), AsPath::new()),
            },
        );
        plan.at(
            50,
            FaultEvent::Withdraw {
                asn: Asn(4),
                prefix: p(),
            },
        );
        net.set_fault_plan(plan).unwrap();
        net.run().unwrap();
        assert!(net.best_route(Asn(1), p()).is_none());
        assert!(net.stats().announcements > 0);
        assert!(net.stats().withdrawals > 0);
        assert!(net.now() >= SimTime::from_ticks(50));
    }
}
