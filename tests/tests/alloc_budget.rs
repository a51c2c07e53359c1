//! The host-plane allocation budget of the write path: heap allocations per
//! completed write over a steady-state window of the standard four-region
//! deployment, and the bytes they ask for, counted by this test binary's
//! own global allocator.
//!
//! Every write crosses the request channel, PBFT and one commit channel per
//! execution group, and each hop is a sans-IO call. The machines emit into
//! a sink their host owns, so a handler allocates no list of actions, and
//! a write's bytes and wrappers are built once and shared down every
//! channel, into every store and into every checkpoint; a change that
//! brings lists back shows up here as a count, and one that brings copies
//! back as bytes, exact per build, long before either shows up as time.

use spider::{SpiderConfig, WorkloadSpec};
use spider_app::kv_op_factory;
use spider_tests::standard_deployment;
use spider_types::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread, and the bytes they asked for:
    /// `cargo test` runs the tests of a binary on parallel threads, and
    /// only the simulation's thread counts.
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // A const-initialised `Cell` needs no allocation and no destructor.
    let _ = ALLOCS.try_with(|n| {
        let (allocs, total) = n.get();
        n.set((allocs + 1, total + bytes as u64));
    });
}

/// `System`, counting what `allocs_per_op` and `bench.alloc_bytes_per_op`
/// in `benchmark/` count: every allocation, zeroed allocation and
/// reallocation, and the size each asks for (a reallocation's new size).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc_zeroed` are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations per completed write between 4 s and 14 s of simulated time,
/// two clients per region writing 5 times a second, and the bytes they ask
/// for. Measured: 35.8 allocations and 17 948 B in a debug build (the same
/// in a release build) with a forwarded request allocating once per hop —
/// a run of one holding its slot inline, commit slots that are plain
/// `Execute`s, retained runs in a ring and one reply list per client; 50.2
/// and 19 837 B before that, with the ordering path allocating only what it
/// ships — PBFT instances recycled with their vote storage, the delivered
/// batch shared with the instance, one reused backlog run per agreement
/// replica, recasts and reply counts that collect nothing; 94.8 and
/// 25 616 B before that, with checkpoint parts that are lists of the records
/// the store already holds; 102.1 and 32 722 B before that, when every
/// checkpoint copied each dirty bucket into a buffer of its own; 200.5
/// (200.1) allocations before one `Execute` run was shared by every commit
/// channel and the store kept slices of its requests; 418.4 (417.9) before
/// machines emitted into their host's sink. Each budget is the first figure
/// plus 10 %.
#[test]
fn writes_stay_within_their_allocation_budget() {
    const BUDGET: f64 = 35.8 * 1.1;
    const BYTES_BUDGET: f64 = 17_948.0 * 1.1;
    let (mut sim, mut dep) = standard_deployment(42, SpiderConfig::default());
    let workload = WorkloadSpec::writes_per_sec(5.0, 200).with_op_factory(kv_op_factory(200));
    for group in 0..4 {
        dep.spawn_clients(&mut sim, group, 2, workload.clone());
    }
    let (from, to) = (SimTime::from_secs(4), SimTime::from_secs(14));
    sim.run_until(from);
    let before = ALLOCS.with(Cell::get);
    sim.run_until(to);
    let after = ALLOCS.with(Cell::get);
    let (allocs, bytes) = (after.0 - before.0, after.1 - before.1);

    let samples = dep.collect_samples(&sim);
    let completed = samples
        .iter()
        .flat_map(|(_, _, s)| s)
        .filter(|s| (from..to).contains(&s.completed))
        .count();
    assert!(completed > 200, "the window holds a steady stream of writes: {completed}");
    let per_op = allocs as f64 / completed as f64;
    let bytes_per_op = bytes as f64 / completed as f64;
    eprintln!("{per_op:.1} allocations, {bytes_per_op:.0} B per completed write");
    assert!(
        per_op <= BUDGET,
        "{per_op:.1} allocations per completed write ({allocs} for {completed}), budget {BUDGET:.1}"
    );
    assert!(
        bytes_per_op <= BYTES_BUDGET,
        "{bytes_per_op:.0} bytes allocated per completed write ({bytes} for {completed}), \
         budget {BYTES_BUDGET:.0}"
    );
}
