//! The event path's allocation budget, counted by a global allocator.
//!
//! A shard's routing state is a handful of tables parallel to the CSR
//! topology, so building a network allocates a fixed number of buffers
//! whatever the graph's size, and no router owns heap memory. On the event
//! path an import allocates nothing: the monitor's view of the held routes
//! borrows the tables. What remains is the route a router builds when its
//! best route changes (the `Arc` and the two vectors of its prepended AS
//! path), the per-prefix table on first mention, and the event queue's
//! buckets. Run alone with `cargo test -p bgp-engine --test event_alloc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use as_topology::{AsGraph, ScaleFreeModel};
use bgp_engine::{NoopMonitor, ShardedNetwork};
use bgp_types::Ipv4Prefix;

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

/// Link-delay jitter, as the convergence benchmark and the trials use.
const MAX_LINK_DELAY: u64 = 4;

fn build(graph: &AsGraph, seed: u64) -> ShardedNetwork {
    ShardedNetwork::with_monitor_and_jitter(graph, 1, 1, seed, MAX_LINK_DELAY, || NoopMonitor)
}

#[test]
fn building_a_network_costs_the_same_on_every_graph() {
    let small = ScaleFreeModel::new().as_count(1_000).build(3);
    let large = ScaleFreeModel::new().as_count(4_000).build(3);
    let (_, small_count) = allocations_during(|| build(&small, 1));
    let (_, large_count) = allocations_during(|| build(&large, 1));
    assert_eq!(
        small_count, large_count,
        "1k vs 4k ASes: the count must not grow with the graph"
    );
    assert!(
        large_count <= 16,
        "building a network made {large_count} allocations"
    );
}

#[test]
fn a_run_allocates_only_for_exported_routes() {
    let graph = ScaleFreeModel::new().as_count(2_000).build(11);
    let origin = graph.stub_asns()[0];
    let prefix: Ipv4Prefix = "208.8.0.0/16".parse().unwrap();
    let mut net = build(&graph, 5);
    let ((), allocations) = allocations_during(|| {
        net.originate(origin, prefix, None);
        net.run().expect("a scale-free graph converges");
    });
    let events = net.events_fired();
    assert!(graph
        .asns()
        .all(|asn| net.best_origin(asn, prefix) == Some(origin)));
    // The exact count for this graph and seed: a change that allocates on
    // import, or per router, moves it. Of the 8,363, 8,301 are the 2,767
    // routes exported on a best-route change (three blocks each); the other
    // 62 are the prefix's table and the event queue's buckets.
    assert_eq!((events, allocations), (10_284, 8_363));
    assert!(
        allocations as u64 <= events,
        "{allocations} allocations for {events} events"
    );
}
