//! The origin table's allocation budget, counted by a global allocator.
//!
//! A two-origin MOAS list lives inline in its trie node, so building a table
//! of them allocates only when the node arena grows — O(log n) times — and
//! walking or counting it allocates nothing. Run alone with
//! `cargo test -p moas-daemon --test table_alloc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bgp_types::{Asn, Ipv4Prefix};
use moas_daemon::OriginTable;

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

/// `prefixes` /24s under 10.0.0.0/8, each with two distinct origins, loaded
/// one at a time through the bulk-load entry point.
fn two_origin_table(prefixes: u32) -> OriginTable {
    let mut table = OriginTable::new(1);
    for i in 0..prefixes {
        let prefix = Ipv4Prefix::new((10 << 24) | (i << 8), 24);
        let origins = [Asn(65_000 + i % 31), Asn(64_512 + i % 97)];
        table.insert(prefix, origins.into_iter().collect());
    }
    table
}

#[test]
fn table_allocation_budget() {
    const SMALL: u32 = 1 << 12;
    const LARGE: u32 = 1 << 16;
    let (_, small) = allocations_during(|| two_origin_table(SMALL));
    let (table, large) = allocations_during(|| two_origin_table(LARGE));
    assert_eq!(table.prefix_count(), LARGE as usize);
    assert_eq!(table.entry_count(), 2 * LARGE as usize);
    // The arena doubles: 2^17 nodes take ~18 growths, and 16x the prefixes
    // may cost only the ~4 doublings between them, never one per prefix.
    assert!(large <= 24, "{LARGE} prefixes made {large} allocations");
    assert!(
        large - small <= 6,
        "{SMALL} → {LARGE} prefixes: {small} → {large} allocations"
    );

    let ((entries, count), walk) =
        allocations_during(|| (table.entries().count(), table.entry_count()));
    assert_eq!((entries, count), (2 * LARGE as usize, 2 * LARGE as usize));
    assert_eq!(walk, 0, "entries() and entry_count() must not allocate");

    let (snapshot, snapshotting) = allocations_during(|| table.snapshot());
    assert_eq!(snapshotting, 1, "one exactly-sized buffer");
    assert_eq!(snapshot.capacity(), snapshot.len());

    // A copy is the arena's one buffer, not one allocation per list.
    let (copy, cloning) = allocations_during(|| table.clone());
    assert!(cloning <= 2, "clone made {cloning} allocations");
    assert_eq!(copy.entry_count(), table.entry_count());
}
