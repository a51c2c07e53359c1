//! The host-plane allocation budget of the write path: heap allocations per
//! completed write over a steady-state window of the standard four-region
//! deployment, counted by this test binary's own global allocator.
//!
//! Every write crosses the request channel, PBFT and one commit channel per
//! execution group, and each hop is a sans-IO call. The machines emit into
//! a sink their host owns, so a handler allocates no list of actions, and
//! a write's bytes and wrappers are built once and shared down every
//! channel and into every store; a change that brings lists or copies back
//! shows up here as a count, exact per build, long before it shows up as
//! time.

use spider::{SpiderConfig, WorkloadSpec};
use spider_app::kv_op_factory;
use spider_tests::standard_deployment;
use spider_types::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread: `cargo test` runs the tests of a
    /// binary on parallel threads, and only the simulation's thread counts.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A const-initialised `Cell` needs no allocation and no destructor.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// `System`, counting what `allocs_per_op` in `benchmark/` counts: every
/// allocation, zeroed allocation and reallocation.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations for `alloc_zeroed` are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations per completed write between 4 s and 14 s of simulated time,
/// two clients per region writing 5 times a second. Measured: 102.1 in a
/// debug build (102.1 in a release build) with one `Execute` run shared by
/// every commit channel, a key-value store that keeps slices of its
/// requests and snapshot parts, and recycled receiver slot records; 200.5
/// (200.1) before those, with machines emitting into their host's sink;
/// 418.4 (417.9) before that, where every machine call filled a fresh list
/// of actions. The budget is the first figure plus 10 %.
#[test]
fn writes_stay_within_their_allocation_budget() {
    const BUDGET: f64 = 102.1 * 1.1;
    let (mut sim, mut dep) = standard_deployment(42, SpiderConfig::default());
    let workload = WorkloadSpec::writes_per_sec(5.0, 200).with_op_factory(kv_op_factory(200));
    for group in 0..4 {
        dep.spawn_clients(&mut sim, group, 2, workload.clone());
    }
    let (from, to) = (SimTime::from_secs(4), SimTime::from_secs(14));
    sim.run_until(from);
    let before = ALLOCS.with(Cell::get);
    sim.run_until(to);
    let allocs = ALLOCS.with(Cell::get) - before;

    let samples = dep.collect_samples(&sim);
    let completed = samples
        .iter()
        .flat_map(|(_, _, s)| s)
        .filter(|s| (from..to).contains(&s.completed))
        .count();
    assert!(completed > 200, "the window holds a steady stream of writes: {completed}");
    let per_op = allocs as f64 / completed as f64;
    assert!(
        per_op <= BUDGET,
        "{per_op:.1} allocations per completed write ({allocs} for {completed}), budget {BUDGET:.1}"
    );
}
