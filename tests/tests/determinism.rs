//! Dynamic determinism regression: the same seed must produce the exact
//! same execution, twice.
//!
//! The workspace's `clippy.toml` forbids the usual *sources* of
//! nondeterminism (hash-ordered containers, the OS clock, threads), but
//! it cannot prove their *absence* — a stray iteration-order dependency or
//! an unseeded tiebreak would slip through. This test catches what the
//! lint can't: it runs a mid-size scenario twice with an identical seed
//! and asserts that the full sample traces and simulator statistics are
//! byte-identical. Any divergence between the two runs is a determinism
//! bug by definition, regardless of where it crept in.

use spider::{SpiderConfig, WorkloadSpec};
use spider_app::kv_op_factory;
use spider_harness::experiments::disaster;
use spider_harness::scenarios::{run_scenario, run_scenario_obs, ScenarioCfg, SystemKind};
use spider_obs::causal;
use spider_tests::{digest, standard_deployment};
use spider_types::SimTime;

fn scenario_cfg() -> ScenarioCfg {
    ScenarioCfg {
        clients_per_region: 5,
        rate_per_client: 3.0,
        duration: SimTime::from_secs(8),
        warmup: SimTime::from_secs(1),
        seed: 42,
        ..ScenarioCfg::default()
    }
}

/// Renders every (region, sample) pair of a scenario run.
fn render_run(kind: SystemKind) -> String {
    let samples = run_scenario(kind, &scenario_cfg());
    let mut out = String::new();
    for (region, samples) in &samples {
        for s in samples {
            out.push_str(region);
            out.push_str(&format!("{s:?}\n"));
        }
    }
    assert!(!out.is_empty(), "scenario produced no samples; the digest would be vacuous");
    out
}

#[test]
fn same_seed_same_sample_trace() {
    let a = render_run(SystemKind::Spider { leader_zone: 0 });
    let b = render_run(SystemKind::Spider { leader_zone: 0 });
    assert_eq!(digest(&a), digest(&b), "same seed, same scenario, different sample traces");
}

#[test]
fn same_seed_same_sim_stats() {
    // Lower-level double run over the raw deployment: compares the
    // simulator's own event/network/CPU counters, which cover everything
    // that happened — not only the client-visible samples.
    let run = || {
        let (mut sim, mut dep) = standard_deployment(1_117, SpiderConfig::default());
        let workload = WorkloadSpec::writes_per_sec(4.0, 200)
            .with_max_ops(40)
            .with_op_factory(kv_op_factory(100));
        for gi in 0..4 {
            dep.spawn_clients(&mut sim, gi, 2, workload.clone());
        }
        sim.run_until_quiescent(SimTime::from_secs(60));
        let samples: Vec<_> = dep.collect_samples(&sim);
        (format!("{:?}", sim.stats()), format!("{samples:?}"), sim.now())
    };
    let (stats_a, samples_a, now_a) = run();
    let (stats_b, samples_b, now_b) = run();
    assert_eq!(now_a, now_b, "same seed, different quiescence time");
    assert_eq!(digest(&samples_a), digest(&samples_b), "same seed, different samples");
    assert_eq!(digest(&stats_a), digest(&stats_b), "same seed, different sim stats");
}

#[test]
fn same_seed_same_obs_trace_digest() {
    // The observability recorder is itself part of the determinism
    // contract: two traced runs with the same seed must produce
    // byte-identical span streams, metrics, and CPU attribution. This is
    // what makes a recorded trace usable as a regression artifact.
    let traced = || {
        let (samples, obs) =
            run_scenario_obs(SystemKind::Spider { leader_zone: 0 }, &scenario_cfg());
        (format!("{samples:?}"), spider_obs::export::digest_render(&obs))
    };
    let (samples_a, trace_a) = traced();
    let (samples_b, trace_b) = traced();
    assert!(trace_a.contains("span "), "traced run recorded no spans; the digest would be vacuous");
    assert_eq!(digest(&trace_a), digest(&trace_b), "same seed, different observability traces");
    assert_eq!(
        digest(&samples_a),
        digest(&samples_b),
        "same seed, different samples under tracing"
    );

    // Tracing must observe, not participate: the client-visible samples
    // of a traced run match an untraced run of the same seed exactly.
    let plain = run_scenario(SystemKind::Spider { leader_zone: 0 }, &scenario_cfg());
    assert_eq!(
        digest(&format!("{plain:?}")),
        digest(&samples_a),
        "enabling the recorder changed the execution"
    );
}

#[test]
fn same_seed_same_forensics_artifacts() {
    // The derived forensics pipeline — causal DAG assembly, critical-path
    // extraction, differential cohort profiles and the health watchdog's
    // typed event stream — must all be deterministic functions of the
    // run, or a recorded tail profile could not be compared against a
    // baseline. A shortened WAN-partition
    // disaster run exercises every one of them (the partition guarantees
    // at least one stall/recover pair in the watchdog stream).
    let cfg = disaster::Config {
        warmup: SimTime::from_secs(1),
        fault_at: SimTime::from_secs(4),
        heal_at: SimTime::from_secs(9),
        duration: SimTime::from_secs(16),
        ..disaster::Config::default()
    };
    let forensics = || {
        let (row, trace) = disaster::run_wan_partition_traced(&cfg);
        let paths = causal::assemble(&trace);
        let profiles = causal::differential_profile(&paths);
        (format!("{row:?}"), format!("{paths:?}\n{profiles:?}"), format!("{:?}", trace.health))
    };
    let (row_a, paths_a, health_a) = forensics();
    let (row_b, paths_b, health_b) = forensics();
    assert!(paths_a.contains("RequestPath"), "traced run assembled no request paths");
    assert!(
        health_a.contains("IrmcWindowStall") && health_a.contains("IrmcWindowRecover"),
        "partition run produced no stall/recover pair; the watchdog digest would be vacuous"
    );
    assert_eq!(digest(&paths_a), digest(&paths_b), "same seed, different critical paths");
    assert_eq!(digest(&health_a), digest(&health_b), "same seed, different watchdog events");
    assert_eq!(digest(&row_a), digest(&row_b), "same seed, different availability row");

    // The watchdog and causal recorder stay pure observers under fault
    // injection too: the untraced partition run's availability row is
    // byte-identical to the traced one.
    let plain = disaster::run_wan_partition(&cfg);
    assert_eq!(
        format!("{plain:?}"),
        row_a,
        "enabling the recorder changed the disaster run's outcome"
    );
}

#[test]
fn different_seed_actually_changes_the_trace() {
    // Sanity check that the digest is sensitive at all: two *different*
    // seeds must not collide on the full rendered trace (jitter and
    // client arrival times depend on the seed).
    let cfg_a = scenario_cfg();
    let cfg_b = ScenarioCfg { seed: 43, ..scenario_cfg() };
    let a = run_scenario(SystemKind::Spider { leader_zone: 0 }, &cfg_a);
    let b = run_scenario(SystemKind::Spider { leader_zone: 0 }, &cfg_b);
    assert_ne!(format!("{a:?}"), format!("{b:?}"), "seed change produced an identical trace");
}
