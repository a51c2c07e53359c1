//! Disaster-suite gates: scripted WAN disasters must never lose or
//! duplicate operations, must recover within a bounded time after the
//! heal, and must replay byte-identically under the same seed.
//!
//! These are the claims the paper's robustness story rests on (§3.4,
//! §3.5): commit channels stall instead of dropping, back-pressure
//! propagates instead of shedding load, and checkpoints repair lagging
//! groups after the network heals. The CI `disaster` job runs exactly
//! this file.
//!
//! Every scenario runs on the quick clock, [`Config::quick`]: fault at
//! 6 s, heal at 14 s, offered load for 24 s, then drain to quiescence.

use spider_harness::experiments::disaster::{
    run_correlated_outage, run_placement, run_view_change_storm, run_wan_partition, Config,
    STORM_ACTS,
};
use spider_tests::digest;

/// The CI-gated scenario: severing the agreement side from half the
/// execution groups at `z = 0` stalls everyone (back-pressure), yet
/// after the heal the backlog drains with zero lost ops, zero
/// duplicated ops, identical stores, and bounded recovery time.
#[test]
fn wan_partition_stalls_then_recovers_without_losing_ops() {
    let row = run_wan_partition(&Config::quick());
    assert_eq!(row.lost_ops, 0, "completed writes missing from the store: {row:?}");
    assert_eq!(row.duplicated_ops, 0, "operations executed twice: {row:?}");
    assert_eq!(row.diverged_replicas, 0, "stores did not converge: {row:?}");
    assert_eq!(row.lost_votes, 0, "a replica's checkpoint vote lost: {row:?}");
    assert!(
        row.unavailability_ms >= 3_000.0,
        "z = 0 back-pressure should stall all clients for most of the \
         8 s partition, saw {} ms",
        row.unavailability_ms
    );
    let recovery = row.recovery_ms.expect("goodput never returned to 90% of pre-fault");
    assert!(recovery <= 10_000.0, "recovery took {recovery} ms (gate: 10 s)");
}

/// Two regions dark at once with `z = 2`: the surviving regions keep
/// committing through the outage, and the dead groups catch up after
/// the restore.
#[test]
fn correlated_outage_survivors_keep_committing() {
    let row = run_correlated_outage(&Config::quick());
    assert_eq!(row.lost_ops, 0, "{row:?}");
    assert_eq!(row.duplicated_ops, 0, "{row:?}");
    assert_eq!(row.diverged_replicas, 0, "dead groups failed to catch up: {row:?}");
    assert_eq!(row.lost_votes, 0, "{row:?}");
    assert!(
        row.unavailability_ms < 4_000.0,
        "survivors should commit through the 8 s outage (z = 2), \
         but stalled for {} ms",
        row.unavailability_ms
    );
}

/// Repeated leader isolation at sub-timeout intervals: every act forces
/// a view change, and the system still drains cleanly.
#[test]
fn view_change_storm_rotates_leaders_and_drains() {
    let cfg = Config::quick();
    let row = run_view_change_storm(&cfg);
    assert!(
        row.final_view >= STORM_ACTS as u64,
        "expected >= {} view changes, reached view {}",
        STORM_ACTS,
        row.final_view
    );
    assert_eq!(row.lost_ops, 0, "{row:?}");
    assert_eq!(row.duplicated_ops, 0, "{row:?}");
    assert_eq!(row.diverged_replicas, 0, "{row:?}");
    assert_eq!(row.lost_votes, 0, "{row:?}");
}

/// The placement frontier's headline shape: spreading execution-group
/// backups into neighbor regions keeps the system available through a
/// region failure that stalls the concentrated placement entirely.
#[test]
fn placement_spread_backups_dominate_concentrated_on_availability() {
    let cfg = Config::quick();
    let concentrated = run_placement(&cfg, 0, false);
    let spread = run_placement(&cfg, 0, true);
    for row in [&concentrated, &spread] {
        assert_eq!(row.lost_ops, 0, "{row:?}");
        assert_eq!(row.duplicated_ops, 0, "{row:?}");
        assert_eq!(row.diverged_replicas, 0, "{row:?}");
        assert_eq!(row.lost_votes, 0, "{row:?}");
    }
    assert!(
        concentrated.unavailability_ms >= 4_000.0,
        "killing a concentrated group at z = 0 should stall everyone, \
         saw {} ms",
        concentrated.unavailability_ms
    );
    assert!(
        spread.unavailability_ms < concentrated.unavailability_ms,
        "spread ({} ms) should beat concentrated ({} ms)",
        spread.unavailability_ms,
        concentrated.unavailability_ms
    );
    assert!(
        spread.unavailability_ms < 2_000.0,
        "with fe + 1 surviving replicas the victim group's channel \
         advances and nobody stalls, saw {} ms",
        spread.unavailability_ms
    );
}

/// Determinism under fire: the same seed replays a full disaster
/// scenario to byte-identical rows.
#[test]
fn disaster_scenario_is_deterministic_across_runs() {
    let a = format!("{:?}", run_wan_partition(&Config::quick()));
    let b = format!("{:?}", run_wan_partition(&Config::quick()));
    assert!(!a.is_empty());
    assert_eq!(digest(&a), digest(&b), "same seed, different disaster: {a} vs {b}");
}
