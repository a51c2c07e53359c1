//! Property-based full-system tests: randomized seeds, loads, and fault
//! injections, asserting the paper's safety properties (appendix §A.4.1)
//! on every run.
//!
//! * **E-Safety** (A.1): correct replicas execute identical write
//!   sequences — checked via state-digest equality.
//! * **E-Validity II** (A.4): at-most-once execution — checked by counter
//!   application arithmetic (value == acknowledged writes).
//! * **E-Liveness** (A.5): every client request eventually completes.

use proptest::prelude::*;
use spider::byzantine;
use spider::execution::ExecutionReplica;
use spider::{CounterApp, DeploymentBuilder, SpiderConfig, WorkloadSpec};
use spider_sim::{FaultPlan, Simulation, Topology};
use spider_types::SimTime;

type ExecReplica = ExecutionReplica<CounterApp>;

fn topology() -> Topology {
    Topology::builder()
        .region("virginia", 4)
        .region("oregon", 3)
        .symmetric_latency("virginia", "oregon", SimTime::from_millis(31))
        .build()
}

fn small_cfg() -> SpiderConfig {
    SpiderConfig {
        ka: 8,
        ke: 8,
        ag_win: 16,
        commit_capacity: 32,
        view_change_timeout: SimTime::from_millis(400),
        ..SpiderConfig::default()
    }
}

/// Runs a two-group deployment; `fault` makes one execution replica
/// Byzantine, forwarding nothing (`true`) or replying wrongly (`false`).
/// Returns (completed, counter values of all replicas).
fn run_once(seed: u64, writes_per_client: u64, fault: Option<(usize, bool)>) -> (usize, Vec<i64>) {
    let mut sim = Simulation::new(topology(), seed);
    let mut dep = DeploymentBuilder::new(small_cfg())
        .agreement_region("virginia")
        .execution_group("virginia")
        .execution_group("oregon")
        .build(&mut sim);
    dep.spawn_clients(
        &mut sim,
        0,
        2,
        WorkloadSpec::writes_per_sec(10.0, 200).with_max_ops(writes_per_client),
    );
    dep.spawn_clients(
        &mut sim,
        1,
        1,
        WorkloadSpec::writes_per_sec(10.0, 200).with_max_ops(writes_per_client),
    );
    if let Some((victim_idx, silent)) = fault {
        let node = dep.group_nodes(victim_idx % 2)[victim_idx % 3];
        if silent {
            dep.make_byzantine(&mut sim, node, byzantine::silent_forwarder());
        } else {
            dep.make_byzantine(&mut sim, node, byzantine::wrong_replies());
        }
    }
    sim.run_until_quiescent(SimTime::from_secs(120));

    let samples = dep.collect_samples(&sim);
    let completed: usize = samples.iter().map(|(_, _, s)| s.len()).sum();
    let mut values = Vec::new();
    for gi in 0..2 {
        for node in dep.group_nodes(gi) {
            values.push(sim.actor::<ExecReplica>(*node).app().value());
        }
    }
    (completed, values)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// With no faults: every write completes exactly once and all six
    /// replicas (two groups) converge to the same counter.
    #[test]
    fn no_fault_runs_are_exact(seed in 0u64..10_000, per_client in 3u64..12) {
        let (completed, values) = run_once(seed, per_client, None);
        let expected = (3 * per_client) as usize;
        prop_assert_eq!(completed, expected, "E-Liveness");
        for v in &values {
            prop_assert_eq!(*v, expected as i64, "E-Safety / E-Validity II");
        }
    }

    /// With one Byzantine execution replica (silent or lying): liveness
    /// and at-most-once still hold for all *correct* replicas.
    #[test]
    fn one_byzantine_replica_tolerated(
        seed in 0u64..10_000,
        victim in 0usize..6,
        silent in any::<bool>(),
    ) {
        let (completed, values) = run_once(seed, 5, Some((victim, silent)));
        prop_assert_eq!(completed, 15, "E-Liveness under f=1");
        // At least 5 of 6 replicas (all correct ones) hold the exact value.
        let exact = values.iter().filter(|v| **v == 15).count();
        prop_assert!(exact >= 5, "correct replicas diverged: {:?}", values);
    }
}

#[test]
fn message_loss_bursts_recover_via_checkpoints() {
    // Random 20% message loss between the agreement group and one Tokyo…
    // here Oregon… replica for the first 3 seconds: the replica must
    // still converge (channel quorums + checkpoint fetch).
    let mut sim = Simulation::new(topology(), 77);
    let mut dep = DeploymentBuilder::new(small_cfg())
        .agreement_region("virginia")
        .execution_group("virginia")
        .execution_group("oregon")
        .build(&mut sim);
    dep.spawn_clients(&mut sim, 0, 1, WorkloadSpec::writes_per_sec(20.0, 200).with_max_ops(50));
    let victim = dep.group_nodes(1)[0];
    let (start, end) = (sim.now(), SimTime::from_secs(3));
    let loss =
        FaultPlan::new().degrade_links(&dep.agreement, &[victim], 0.2, SimTime::ZERO, start, end);
    sim.install_fault_plan(loss);
    sim.run_until_quiescent(SimTime::from_secs(120));

    let samples = dep.collect_samples(&sim);
    let total: usize = samples.iter().map(|(_, _, s)| s.len()).sum();
    assert_eq!(total, 50);
    assert_eq!(sim.actor::<ExecReplica>(victim).app().value(), 50);
}
