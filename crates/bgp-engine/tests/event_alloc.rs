//! The event path's allocation budget, counted by a global allocator.
//!
//! A shard's routing state is a handful of tables parallel to the CSR
//! topology, so building a network allocates a fixed number of buffers
//! whatever the graph's size (link delays are drawn by walking the CSR
//! rows, which allocates nothing), and no router owns heap memory. On the
//! event path an import allocates nothing: the monitor's view of the held
//! routes borrows the tables, the AS path's summary answers the loop check
//! and the selection length, the best route is named by slot and stamp
//! rather than by a second pointer, and an incremental selection compares
//! one slot with the incumbent. The route a router builds when its best
//! route changes is pushed into the shard's route arena — a path of up to
//! 11 ASNs is stored inline and the communities and MOAS list are shared —
//! so what allocates is the arena's growth, the per-prefix table on first
//! mention, and the event queue's buckets. Dropping a converged network
//! frees those tables, the same number whatever it holds. Run alone with
//! `cargo test -p bgp-engine --test event_alloc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use as_topology::{AsGraph, ScaleFreeModel};
use bgp_engine::{NoopMonitor, ShardedNetwork};
use bgp_types::Ipv4Prefix;

/// Forwards to the system allocator, counting the allocations and
/// reallocations, and separately the frees, made by the current thread (the
/// test harness's own threads do not count).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static FREES: Cell<usize> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<usize>>) {
    // `try_with`: the counter may already be gone while a thread exits.
    let _ = counter.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only const-initialised
// thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATIONS);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATIONS);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCATIONS);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
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

/// The number of blocks `f` freed on this thread.
fn frees_during(f: impl FnOnce()) -> usize {
    let before = FREES.with(Cell::get);
    f();
    FREES.with(Cell::get) - before
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

/// Originates one prefix from the graph's first stub and runs to
/// quiescence, checking every AS routes to it; returns the network and the
/// allocations the origination and run made.
fn converge(graph: &AsGraph, seed: u64) -> (ShardedNetwork, usize) {
    let origin = graph.stub_asns()[0];
    let prefix: Ipv4Prefix = "208.8.0.0/16".parse().unwrap();
    let mut net = build(graph, seed);
    let ((), allocations) = allocations_during(|| {
        net.originate(origin, prefix, None);
        net.run().expect("a scale-free graph converges");
    });
    assert!(graph
        .asns()
        .all(|asn| net.best_origin(asn, prefix) == Some(origin)));
    (net, allocations)
}

#[test]
fn a_run_allocates_only_for_exported_routes() {
    let graph = ScaleFreeModel::new().as_count(2_000).build(11);
    let (net, allocations) = converge(&graph, 5);
    let events = net.events_fired();
    // The exact count for this graph and seed: a change that allocates on
    // import, per router or per exported route moves it. The 2,767 routes
    // exported on a best-route change are pushed into the shard's route
    // arena, whose vectors grow by doubling (30 of the 93); the other 63
    // are the prefix's table and the event queue's buckets.
    assert_eq!((events, allocations), (10_284, 93));
    // Every route still held, counted once however many holders name it:
    // each AS's best route, which its peers hold as exported.
    assert_eq!(net.audit_route_arenas(), Ok(2_001));
    // Dropping the network frees its tables, the arena's three vectors
    // among them, and not one block per route.
    let frees = frees_during(|| drop(net));
    assert_eq!(frees, FREED_ON_DROP);
}

/// The blocks dropping a converged one-prefix network frees: the topology
/// (its two-block `NodeNumbering` included), the tables, the route arena
/// and the queue.
const FREED_ON_DROP: usize = 25;

#[test]
fn dropping_a_network_frees_tables_not_routes() {
    for (as_count, live) in [(1_000, 1_001), (4_000, 4_001)] {
        let graph = ScaleFreeModel::new().as_count(as_count).build(3);
        let (net, _) = converge(&graph, 1);
        assert_eq!(net.audit_route_arenas(), Ok(live), "{as_count} ASes");
        let frees = frees_during(|| drop(net));
        assert_eq!(frees, FREED_ON_DROP, "{as_count} ASes");
    }
}
