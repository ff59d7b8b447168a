//! Absolute pins on what one origination does at scale.
//!
//! The engine's other tests check that shard counts agree with each other,
//! which a change that moves every shard count alike passes. This one pins
//! the outcome itself: the routing fingerprint, the tick of convergence, the
//! events fired and the messages delivered for one jittered origination on
//! a 5,000-AS scale-free graph, at one and at two shards. A change to the
//! decision process, the send path or the link delays that is meant to keep
//! routing as it is must leave all four numbers where they are.
//!
//! Run alone with `cargo test -p bgp-engine --test routing_pin`.

use as_topology::{AsGraph, ScaleFreeModel};
use bgp_engine::{NoopMonitor, ShardedNetwork};
use bgp_types::Ipv4Prefix;

/// Link-delay jitter, as the convergence benchmark and the trials use.
const MAX_LINK_DELAY: u64 = 4;

/// `(routing_fingerprint, converged tick, events_fired, total_messages)`.
type Outcome = (u64, u64, u64, u64);

fn originate(graph: &AsGraph, shards: usize) -> Outcome {
    let origin = graph.stub_asns()[17];
    let prefix: Ipv4Prefix = "208.8.0.0/16".parse().expect("prefix literal");
    let mut net =
        ShardedNetwork::with_monitor_and_jitter(graph, shards, 1, 9, MAX_LINK_DELAY, || {
            NoopMonitor
        });
    net.originate(origin, prefix, None);
    let converged = net.run().expect("a scale-free graph converges");
    assert!(graph
        .asns()
        .all(|asn| net.best_origin(asn, prefix) == Some(origin)));
    (
        net.routing_fingerprint(),
        converged.ticks(),
        net.events_fired(),
        net.stats().total_messages(),
    )
}

#[test]
fn one_origination_on_5k_ases_is_pinned_at_every_shard_count() {
    let graph = ScaleFreeModel::new().as_count(5_000).build(21);
    let expected: Outcome = (15_582_587_848_108_037_307, 22, 25_541, 25_541);
    for shards in [1, 2] {
        assert_eq!(originate(&graph, shards), expected, "shards = {shards}");
    }
}
