//! The route arena's accounting under everything that creates, copies and
//! discards an update.
//!
//! A shard stores each route once, in its arena, and every holder — an
//! Adj-RIB-In slot, an originated entry, a queued delivery, a pending MRAI
//! update — names it by handle and owns one count. A path that drops an
//! update without releasing it leaks an entry; one that releases twice
//! frees a route still in use (and debug builds assert on the underflow).
//! So after every `run`, on random graphs at 1, 2 and 4 shards, each live
//! entry's count must equal the number of holders that name it, and the
//! live entries must be exactly the distinct handles those holders name.
//! The cases drive lossy links (drop, duplicate, corrupt, delay), MRAI
//! coalescing, session resets, link failure and restoration, origin
//! withdrawals and flaps, and a monitor that rejects, evicts, rewrites and
//! suppresses. `PROPTEST_CASES=N` sets the case count.

use as_topology::{AsGraph, InternetModel};
use bgp_engine::{
    ExportAction, FaultEvent, ImportContext, ImportDecision, LinkFaultModel, NetFaultPlan,
    RouteMonitor, ShardedNetwork,
};
use bgp_types::{AsPath, Asn, Ipv4Prefix, Route};
use proptest::prelude::*;

/// A monitor whose verdicts are a pure function of the hook arguments, so
/// every shard layout sees the same ones.
#[derive(Debug, Clone, Copy)]
struct Meddler {
    /// 0 leaves imports and exports alone.
    salt: u32,
}

impl RouteMonitor for Meddler {
    fn on_import(&mut self, ctx: &ImportContext<'_>) -> ImportDecision {
        if self.salt == 0 {
            return ImportDecision::accept();
        }
        let mix = ctx.local.0 ^ ctx.from_peer.0 ^ self.salt;
        match mix % 11 {
            0 => ImportDecision::reject(),
            1 => {
                let rival = ctx.existing.iter().find_map(|(peer, _)| peer);
                rival.map_or_else(ImportDecision::accept, |peer| {
                    ImportDecision::accept().with_eviction(peer)
                })
            }
            _ => ImportDecision::accept(),
        }
    }

    fn on_export(
        &mut self,
        local: Asn,
        to_peer: Asn,
        _learned_from: Option<Asn>,
        route: &Route,
    ) -> ExportAction {
        if self.salt == 0 {
            return ExportAction::Forward;
        }
        match (local.0 ^ to_peer.0 ^ self.salt) % 9 {
            0 => ExportAction::Replace(route.clone().with_local_pref(90)),
            1 => ExportAction::Suppress,
            _ => ExportAction::Forward,
        }
    }
}

/// One generated scenario; selectors are taken modulo what the graph has.
#[derive(Debug, Clone)]
struct Case {
    graph_seed: u64,
    delay_seed: u64,
    mrai: u64,
    salt: u32,
    /// Per perturbed link: `(link selector, model index)`.
    lossy: Vec<(usize, usize)>,
    /// Scripted events: `(tick, kind, link or origin selector)`.
    timeline: Vec<(u64, u8, usize)>,
    /// Calls between runs: `(kind, selector)`.
    between: Vec<(u8, usize)>,
}

fn case() -> impl Strategy<Value = Case> {
    (
        (
            0u64..4096,
            0u64..4096,
            prop_oneof![Just(0u64), 1u64..6],
            0u32..4,
        ),
        prop::collection::vec((0usize..64, 0usize..4), 0..4),
        prop::collection::vec((0u64..40, 0u8..6, 0usize..64), 0..6),
        prop::collection::vec((0u8..4, 0usize..64), 0..4),
    )
        .prop_map(
            |((graph_seed, delay_seed, mrai, salt), lossy, timeline, between)| Case {
                graph_seed,
                delay_seed,
                mrai,
                salt,
                lossy,
                timeline,
                between,
            },
        )
}

/// The per-link fault models a case draws from: each leans on one action.
fn model(index: usize) -> LinkFaultModel {
    let mut model = LinkFaultModel {
        drop: 0.1,
        corrupt: 0.1,
        duplicate: 0.1,
        reorder: 0.1,
        max_extra_delay: 3,
    };
    match index {
        0 => model.drop = 0.4,
        1 => model.corrupt = 0.4,
        2 => model.duplicate = 0.4,
        _ => model.reorder = 0.4,
    }
    model
}

fn graph(seed: u64) -> AsGraph {
    InternetModel::new()
        .transit_count(5)
        .stub_count(12)
        .multihome_prob(0.6)
        .build(seed)
}

fn prefixes() -> [Ipv4Prefix; 2] {
    [
        "208.8.0.0/16".parse().expect("prefix literal"),
        "208.9.0.0/16".parse().expect("prefix literal"),
    ]
}

/// Enough for every case to settle, or to stop a flap that never does.
const EVENT_LIMIT: u64 = 100_000;

/// Plays `case` on `shards` shards, auditing the arenas after every run.
fn play(case: &Case, shards: usize) {
    let graph = graph(case.graph_seed);
    let links = graph.links();
    let stubs = graph.stub_asns();
    let link = |sel: usize| links[sel % links.len()];
    let origin = |sel: usize| stubs[sel % stubs.len()];
    let [first, second] = prefixes();
    let salt = case.salt;
    let mut net =
        ShardedNetwork::with_monitor_and_jitter(&graph, shards, 1, case.delay_seed, 4, || {
            Meddler { salt }
        });
    net.set_mrai(case.mrai);
    let mut plan = NetFaultPlan::new(case.delay_seed ^ 0x5eed);
    for &(sel, index) in &case.lossy {
        plan.set_link_model(link(sel), model(index));
    }
    for &(at, kind, sel) in &case.timeline {
        let (a, b) = link(sel);
        let route = Route::new(second, AsPath::new());
        let event = match kind {
            0 => FaultEvent::FailLink(a, b),
            1 => FaultEvent::RestoreLink(a, b),
            2 => FaultEvent::ResetSession(a, b),
            3 => FaultEvent::Withdraw {
                asn: origin(0),
                prefix: first,
            },
            4 => FaultEvent::Announce {
                asn: origin(sel),
                route,
            },
            _ => {
                plan.every(
                    at,
                    3,
                    Some(4),
                    FaultEvent::ToggleOrigin {
                        asn: origin(sel),
                        route,
                    },
                );
                continue;
            }
        };
        plan.at(at, event);
    }
    net.set_fault_plan(plan)
        .expect("the plan names only the graph's links");
    net.originate(origin(0), first, None);
    net.originate(origin(1), second, None);
    let audit = |net: &ShardedNetwork<Meddler>, when: &str| {
        let audit = net.audit_route_arenas();
        assert!(audit.is_ok(), "shards={shards} {when}: {audit:?}");
    };
    // Converged or cut off by the budget, the books must balance.
    let _ = net.run_with_limit(EVENT_LIMIT);
    audit(&net, "after the first run");
    for (step, &(kind, sel)) in case.between.iter().enumerate() {
        let (a, b) = link(sel);
        match kind {
            0 => net.fail_link(a, b),
            1 => net.restore_link(a, b),
            2 => net.reset_session(a, b),
            _ => net.withdraw(origin(0), first),
        }
        let _ = net.run_with_limit(EVENT_LIMIT);
        audit(&net, &format!("after call {step}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_held_route_is_counted_once_per_holder(case in case()) {
        for shards in [1, 2, 4] {
            play(&case, shards);
        }
    }
}
