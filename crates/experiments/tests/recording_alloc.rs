//! The recording path's allocation budget, counted by a global allocator.
//!
//! Per-session counters are rows keyed by the `(from, to)` pair, so
//! recording a trial allocates a fixed handful of buffers — the fixed-name
//! keys, one table and two exactly-reserved vectors per row family — and
//! merging it into a sweep's sink that already holds the same sessions
//! allocates nothing. Neither grows with the graph: the 25-AS and 63-AS
//! paper topologies must cost the same count. Run alone with
//! `cargo test -p experiments --test recording_alloc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use as_topology::paper::PaperTopology;
use as_topology::AsGraph;
use bgp_engine::Network;
use bgp_types::{Asn, MoasList};
use minimetrics::{MetricsSink, RecordingSink};
use moas_core::{FalseOriginAttack, ListForgery, MoasMonitor, RegistryVerifier};

/// Forwards to the system allocator, counting allocations and reallocations
/// made by the current thread (the test harness's own threads do not count).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the counter may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the number of allocations it made on this thread.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// One Full-deployment trial, as the sweep runs it: the first stub
/// originates, `attackers` forge an origin, the network converges twice.
fn full_trial(
    graph: &AsGraph,
    attackers: &[Asn],
    seed: u64,
) -> Network<MoasMonitor<RegistryVerifier>> {
    let prefix = as_topology::prefix_for_asn(graph.stub_asns()[0]);
    let origin = graph.stub_asns()[0];
    let valid: MoasList = [origin].into_iter().collect();
    let mut registry = RegistryVerifier::new();
    registry.register(prefix, valid.clone());
    let mut net = Network::with_monitor_and_jitter(graph, MoasMonitor::full(registry), seed, 4);
    net.originate(origin, prefix, Some(valid.clone()));
    net.run().expect("paper topologies converge");
    let attack = FalseOriginAttack::new(ListForgery::IncludeSelf);
    for &attacker in attackers {
        attack.launch(&mut net, attacker, prefix, &valid);
    }
    net.run().expect("paper topologies converge");
    net
}

/// What a trial cell records: its network plus the trial-level keys.
fn record<M: bgp_engine::RouteMonitor>(net: &Network<M>) -> RecordingSink {
    let mut sink = RecordingSink::new();
    sink.record("trial.convergence_ticks.origin", net.now().ticks());
    sink.record("trial.convergence_ticks.attack", net.now().ticks());
    net.export_metrics(&mut sink);
    sink.counter_add("trial.count", 1);
    sink
}

/// Allocations made recording trial `b` and merging it into a sweep sink
/// that already holds trial `a` of the same graph.
fn record_and_merge(topology: PaperTopology) -> usize {
    let graph = topology.graph();
    let stubs = graph.stub_asns();
    let a = full_trial(graph, &stubs[stubs.len() - 2..], 1);
    let b = full_trial(graph, &stubs[stubs.len() - 3..stubs.len() - 1], 2);
    let mut sweep = RecordingSink::new();
    sweep.merge(record(&a));
    let ((), allocations) = allocations_during(|| sweep.merge(record(&b)));
    let snapshot = sweep.into_snapshot();
    assert_eq!(snapshot.counters["trial.count"], 2);
    assert!(snapshot
        .counters
        .keys()
        .any(|k| k.starts_with("session.AS")));
    allocations
}

#[test]
fn recording_a_trial_costs_the_same_on_every_graph() {
    let small = record_and_merge(PaperTopology::As25);
    let large = record_and_merge(PaperTopology::As63);
    assert_eq!(
        small, large,
        "25-AS vs 63-AS: the count must not grow with the graph"
    );
    assert!(
        large <= 32,
        "recording and merging one trial made {large} allocations"
    );
}
