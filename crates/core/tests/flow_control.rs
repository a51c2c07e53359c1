//! Global flow control (§3.5): the `z` parameter decouples fast
//! execution groups from stragglers, and skipped groups recover through
//! execution checkpoints.

use spider::execution::ExecutionReplica;
use spider::{CounterApp, DeploymentBuilder, SpiderConfig, WorkloadSpec};
use spider_sim::{FaultPlan, Simulation, Topology};
use spider_types::SimTime;

type ExecReplica = ExecutionReplica<CounterApp>;

fn topology() -> Topology {
    Topology::builder()
        .region("virginia", 4)
        .region("tokyo", 3)
        .symmetric_latency("virginia", "tokyo", SimTime::from_millis(73))
        .build()
}

fn straggler_cfg(z: usize) -> SpiderConfig {
    SpiderConfig { z, commit_capacity: 16, ke: 8, ka: 8, ag_win: 16, ..SpiderConfig::default() }
}

/// Runs 12 s with the agreement group's links to the Tokyo group delayed
/// by 2 s throughout; returns (completed requests, sim, deployment).
fn run(z: usize) -> (usize, Simulation<spider::SpiderMsg>, spider::Deployment) {
    let mut sim = Simulation::new(topology(), 44);
    let mut dep = DeploymentBuilder::new(straggler_cfg(z))
        .agreement_region("virginia")
        .execution_group("virginia")
        .execution_group("tokyo")
        .build(&mut sim);
    dep.spawn_clients(&mut sim, 0, 4, WorkloadSpec::writes_per_sec(8.0, 200).with_max_ops(150));
    let (delay, start, end) = (SimTime::from_secs(2), sim.now(), SimTime::from_secs(12));
    let tokyo = dep.group_nodes(1);
    let slow = FaultPlan::new().degrade_links(&dep.agreement, tokyo, 0.0, delay, start, end);
    sim.install_fault_plan(slow);
    sim.run_until(end);
    let completed: usize = dep.collect_samples(&sim).iter().map(|(_, _, s)| s.len()).sum();
    (completed, sim, dep)
}

#[test]
fn z_equals_one_decouples_fast_groups_from_stragglers() {
    let (with_coupling, _, _) = run(0);
    let (with_skip, _, _) = run(1);
    assert!(
        with_skip as f64 > with_coupling as f64 * 2.0,
        "z=1 should at least double throughput under a 2s straggler \
         (z=0: {with_coupling}, z=1: {with_skip})"
    );
}

#[test]
fn skipped_group_catches_up_once_the_straggler_recovers() {
    let (_, mut sim, dep) = run(1);
    // The delay ended with the 12 s run; let the system settle.
    sim.run_until_quiescent(SimTime::from_secs(90));
    let reference = sim.actor::<ExecReplica>(dep.group_nodes(0)[0]).app().value();
    assert!(reference > 0);
    for node in dep.group_nodes(1) {
        assert_eq!(
            sim.actor::<ExecReplica>(*node).app().value(),
            reference,
            "skipped group converged via checkpoint fetch (§3.5)"
        );
    }
}
