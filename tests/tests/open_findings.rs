//! Known failures, pinned as they behave today.
//!
//! Each test asserts the exact outcome of a disaster run that breaks one
//! of the paper's claims: a view-change storm that never recovers, one
//! that livelocks, and a WAN partition after which execution replicas
//! lose writes and diverge. The runs are byte-deterministic, so every
//! figure here is exact. These assertions pin the failures, not the
//! intended behaviour: the fix for the open safety and liveness findings
//! (ROADMAP.md, item 1) flips them into the clean outcome
//! (`lost_ops == 0`, `diverged_replicas == 0`, a final view of at most
//! the number of isolations plus one, and a recovery time).
//!
//! All three share the disaster tests' clock (fault at 6 s, heal at
//! 14 s, 24 s of offered load at 3 req/s per client) and vary only the
//! client count and the seed.

use spider_harness::experiments::disaster::{run_view_change_storm, run_wan_partition, Config};
use spider_types::SimTime;

fn cfg(clients_per_region: usize, seed: u64) -> Config {
    Config {
        clients_per_region,
        rate_per_client: 3.0,
        fault_at: SimTime::from_secs(6),
        heal_at: SimTime::from_secs(14),
        duration: SimTime::from_secs(24),
        seed,
        ..Config::default()
    }
}

/// The benchmark's `leader_storm` hang at seed 1: the agreement group
/// stops at view 12 and goodput never returns.
#[test]
fn view_change_storm_seed_1_hangs_at_view_12() {
    let row = run_view_change_storm(&cfg(4, 1));
    assert_eq!(row.final_view, 12, "{row:?}");
    assert_eq!(row.recovery_ms, None, "{row:?}");
}

/// The livelock: the same storm at seed 4 keeps changing views long
/// after the last isolation ends.
#[test]
fn view_change_storm_seed_4_livelocks() {
    let row = run_view_change_storm(&cfg(4, 4));
    assert_eq!(row.final_view, 274, "{row:?}");
}

/// Silent divergence: after the partition heals, completed writes are
/// missing from some stores and nine execution replicas disagree.
#[test]
fn wan_partition_seed_14_loses_writes_and_diverges() {
    let row = run_wan_partition(&cfg(6, 14));
    assert_eq!(row.lost_ops, 5, "{row:?}");
    assert_eq!(row.diverged_replicas, 9, "{row:?}");
}
