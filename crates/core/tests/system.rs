//! Full-system tests: Spider deployments on the discrete-event simulator.
//!
//! These exercise the paper's correctness claims end to end: E-Safety
//! (identical execution everywhere), E-Validity II (at-most-once),
//! E-Liveness (clients eventually get replies) — under normal operation,
//! checkpoint catch-up, Byzantine replicas and clients (§3.7), leader
//! crashes, and runtime reconfiguration (§3.6).

use spider::agreement::AgreementReplica;
use spider::execution::{ExecFault, ExecutionReplica};
use spider::{
    Application, ClientFault, CounterApp, DeploymentBuilder, SpiderClient, SpiderConfig,
    WorkloadSpec,
};
use spider_crypto::CostModel;
use spider_sim::{FaultPlan, Simulation, Topology};
use spider_types::{OpKind, SimTime};

type ExecReplica = ExecutionReplica<CounterApp>;

/// Two-region topology: agreement + one execution group in Virginia, a
/// second execution group in Tokyo.
fn topology() -> Topology {
    Topology::builder()
        .region("virginia", 4)
        .region("tokyo", 3)
        .symmetric_latency("virginia", "tokyo", SimTime::from_millis(73))
        .build()
}

fn small_cfg() -> SpiderConfig {
    // Small intervals so short tests cross checkpoint boundaries.
    SpiderConfig { ka: 8, ke: 8, ag_win: 16, commit_capacity: 32, ..SpiderConfig::default() }
}

fn build(sim: &mut Simulation<spider::SpiderMsg>, cfg: SpiderConfig) -> spider::Deployment {
    DeploymentBuilder::new(cfg)
        .agreement_region("virginia")
        .execution_group("virginia")
        .execution_group("tokyo")
        .build(sim)
}

#[test]
fn writes_complete_and_states_converge() {
    let mut sim = Simulation::new(topology(), 11);
    let mut dep = build(&mut sim, small_cfg());
    dep.spawn_clients(&mut sim, 0, 2, WorkloadSpec::writes_per_sec(20.0, 200).with_max_ops(30));
    dep.spawn_clients(&mut sim, 1, 2, WorkloadSpec::writes_per_sec(20.0, 200).with_max_ops(30));
    sim.run_until_quiescent(SimTime::from_secs(30));

    let samples = dep.collect_samples(&sim);
    let total: usize = samples.iter().map(|(_, _, s)| s.len()).sum();
    assert_eq!(total, 120, "every write completed");

    // E-Safety: all six execution replicas (both groups) applied the same
    // writes — the counter state digests match.
    let mut digests = Vec::new();
    for gi in 0..2 {
        for node in dep.group_nodes(gi) {
            digests.push(sim.actor::<ExecReplica>(*node).app_digest());
        }
    }
    assert!(digests.windows(2).all(|w| w[0] == w[1]), "replica states diverged");
    // 120 writes of add:1.
    let v = sim.actor::<ExecReplica>(dep.group_nodes(0)[0]).app().value();
    assert_eq!(v, 120);
}

#[test]
fn local_clients_get_fast_writes_remote_pay_one_round_trip() {
    let mut sim = Simulation::new(topology(), 12);
    let mut dep = build(&mut sim, small_cfg());
    dep.spawn_clients(&mut sim, 0, 1, WorkloadSpec::writes_per_sec(5.0, 200).with_max_ops(20));
    dep.spawn_clients(&mut sim, 1, 1, WorkloadSpec::writes_per_sec(5.0, 200).with_max_ops(20));
    sim.run_until_quiescent(SimTime::from_secs(30));

    let samples = dep.collect_samples(&sim);
    let med = |gi: u16| -> SimTime {
        let mut lats: Vec<SimTime> = samples
            .iter()
            .filter(|(_, g, _)| g.0 == gi)
            .flat_map(|(_, _, s)| s.iter().map(|x| x.latency()))
            .collect();
        lats.sort();
        lats[lats.len() / 2]
    };
    let virginia = med(0);
    let tokyo = med(1);
    // Virginia clients: everything intra-region — a few milliseconds.
    assert!(virginia < SimTime::from_millis(25), "virginia median {virginia}");
    // Tokyo clients: one WAN round trip (~146ms) plus local work, and
    // crucially *not* a multi-phase WAN protocol (which would be 2-3x).
    assert!(tokyo > SimTime::from_millis(140), "tokyo median {tokyo}");
    assert!(tokyo < SimTime::from_millis(200), "tokyo median {tokyo}");
}

#[test]
fn weak_reads_are_local_and_strong_reads_are_ordered() {
    let mut sim = Simulation::new(topology(), 13);
    let mut dep = build(&mut sim, small_cfg());
    dep.spawn_clients(&mut sim, 1, 1, WorkloadSpec::weak_reads_per_sec(10.0, 200).with_max_ops(20));
    dep.spawn_clients(
        &mut sim,
        1,
        1,
        WorkloadSpec::strong_reads_per_sec(10.0, 200).with_max_ops(20),
    );
    sim.run_until_quiescent(SimTime::from_secs(30));

    let samples = dep.collect_samples(&sim);
    let weak: Vec<SimTime> = samples
        .iter()
        .flat_map(|(_, _, s)| s.iter())
        .filter(|s| s.kind == OpKind::WeakRead)
        .map(|s| s.latency())
        .collect();
    let strong: Vec<SimTime> = samples
        .iter()
        .flat_map(|(_, _, s)| s.iter())
        .filter(|s| s.kind == OpKind::StrongRead)
        .map(|s| s.latency())
        .collect();
    assert_eq!(weak.len(), 20);
    assert_eq!(strong.len(), 20);
    // Weak reads never cross the WAN: ~2ms (paper Fig 8b).
    assert!(weak.iter().all(|l| *l < SimTime::from_millis(5)), "weak reads stayed local");
    // Strong reads from Tokyo pay the round trip to the agreement group.
    assert!(strong.iter().all(|l| *l > SimTime::from_millis(140)));
}

#[test]
fn one_byzantine_execution_replica_is_tolerated() {
    for fault in [ExecFault::SilentForward, ExecFault::WrongReply] {
        let mut sim = Simulation::new(topology(), 14);
        let mut dep = build(&mut sim, small_cfg());
        dep.spawn_clients(&mut sim, 0, 1, WorkloadSpec::writes_per_sec(10.0, 200).with_max_ops(15));
        // Replica 0 of the Virginia group misbehaves.
        let victim = dep.group_nodes(0)[0];
        sim.actor_mut::<ExecReplica>(victim).set_fault(fault);
        sim.run_until_quiescent(SimTime::from_secs(40));
        let samples = dep.collect_samples(&sim);
        let total: usize = samples.iter().map(|(_, _, s)| s.len()).sum();
        assert_eq!(total, 15, "writes complete despite {fault:?}");
    }
}

#[test]
fn conflicting_client_is_isolated_to_its_subchannel() {
    let mut sim = Simulation::new(topology(), 15);
    let mut dep = build(&mut sim, small_cfg());
    // A correct client and a conflicting-equivocating client share the
    // Virginia group.
    dep.spawn_clients(&mut sim, 0, 1, WorkloadSpec::writes_per_sec(10.0, 200).with_max_ops(10));
    let bad = dep.spawn_clients_with_fault(
        &mut sim,
        0,
        1,
        WorkloadSpec::writes_per_sec(10.0, 200).with_max_ops(5),
        ClientFault::ConflictingRequests,
    );
    sim.run_until(SimTime::from_secs(20));

    let samples = dep.collect_samples(&sim);
    for (_, _, s) in samples.iter().take(1) {
        assert_eq!(s.len(), 10, "correct client unaffected (§3.7)");
    }
    let bad_samples = &sim.actor::<SpiderClient>(bad[0]).samples;
    assert!(bad_samples.is_empty(), "conflicting requests never pass the request channel");
}

#[test]
fn partitioned_execution_replica_catches_up_via_checkpoint() {
    let mut sim = Simulation::new(topology(), 16);
    let mut cfg = small_cfg();
    cfg.ke = 4;
    cfg.ka = 4;
    cfg.ag_win = 8;
    cfg.commit_capacity = 8; // Tiny window: laggards quickly fall off.
    let mut dep = build(&mut sim, cfg);
    dep.spawn_clients(&mut sim, 0, 1, WorkloadSpec::writes_per_sec(20.0, 200).with_max_ops(60));

    // Cut one Tokyo replica off from the world for a while.
    let victim = dep.group_nodes(1)[2];
    sim.install_fault_plan(FaultPlan::new().isolate_replica(
        victim,
        sim.now(),
        SimTime::from_secs(6),
    ));
    sim.run_until_quiescent(SimTime::from_secs(60));

    let healthy = sim.actor::<ExecReplica>(dep.group_nodes(1)[0]);
    let recovered = sim.actor::<ExecReplica>(victim);
    assert_eq!(healthy.app().value(), 60);
    assert_eq!(recovered.app().value(), 60, "victim caught up via execution checkpoint (§3.4)");
    assert!(
        recovered.executed < 60,
        "victim skipped requests instead of re-executing all of them \
         (executed only {})",
        recovered.executed
    );
}

#[test]
fn agreement_leader_crash_is_handled_inside_the_region() {
    let mut sim = Simulation::new(topology(), 17);
    let mut cfg = small_cfg();
    cfg.view_change_timeout = SimTime::from_millis(300);
    let mut dep = build(&mut sim, cfg);
    dep.spawn_clients(&mut sim, 0, 1, WorkloadSpec::writes_per_sec(10.0, 200).with_max_ops(40));

    // Crash the initial consensus leader (agreement replica 0) at t = 1s.
    sim.run_until(SimTime::from_secs(1));
    let leader = dep.agreement[0];
    sim.install_fault_plan(FaultPlan::new().crash_replica(leader, sim.now()));
    sim.run_until_quiescent(SimTime::from_secs(60));

    let samples = dep.collect_samples(&sim);
    let total: usize = samples.iter().map(|(_, _, s)| s.len()).sum();
    assert_eq!(total, 40, "writes survive an agreement-leader crash");
    let ag = sim.actor::<AgreementReplica>(dep.agreement[1]);
    assert!(ag.view().0 >= 1, "a view change happened");
}

#[test]
fn add_group_at_runtime_serves_new_clients() {
    let mut sim = Simulation::new(
        Topology::builder()
            .region("virginia", 4)
            .region("tokyo", 3)
            .region("saopaulo", 3)
            .symmetric_latency("virginia", "tokyo", SimTime::from_millis(73))
            .symmetric_latency("virginia", "saopaulo", SimTime::from_millis(58))
            .symmetric_latency("tokyo", "saopaulo", SimTime::from_millis(130))
            .build(),
        18,
    );
    let mut dep = build(&mut sim, small_cfg());
    dep.spawn_clients(&mut sim, 0, 1, WorkloadSpec::writes_per_sec(10.0, 200).with_max_ops(50));

    // Run a while, then add a São Paulo group at t = 2s (§3.6).
    let new_group = dep.add_execution_group(&mut sim, "saopaulo", SimTime::from_secs(2));
    sim.run_until(SimTime::from_secs(4));
    assert!(dep.directory.is_active(new_group), "AddGroup was ordered");

    // New local clients (weak reads served in Sao Paulo, writes ordered).
    let gi = dep.groups.len() - 1;
    dep.spawn_clients(&mut sim, gi, 1, WorkloadSpec::writes_per_sec(10.0, 200).with_max_ops(10));
    sim.run_until_quiescent(SimTime::from_secs(60));

    let samples = dep.collect_samples(&sim);
    let total: usize = samples.iter().map(|(_, _, s)| s.len()).sum();
    assert_eq!(total, 60, "old and new clients all served");

    // The new group converged to the same state as the old ones.
    let old = sim.actor::<ExecReplica>(dep.group_nodes(0)[0]).app_digest();
    for node in dep.group_nodes(gi) {
        let d = sim.actor::<ExecutionReplica<Box<dyn Application>>>(*node).app_digest();
        assert_eq!(d, old, "new group caught up via cross-group checkpoint");
    }
}

#[test]
fn deterministic_replay_same_seed_same_samples() {
    let run = |seed: u64| {
        let mut sim = Simulation::new(topology(), seed);
        let mut dep = build(&mut sim, small_cfg());
        dep.spawn_clients(&mut sim, 0, 2, WorkloadSpec::writes_per_sec(20.0, 200).with_max_ops(10));
        sim.run_until_quiescent(SimTime::from_secs(20));
        dep.collect_samples(&sim).into_iter().flat_map(|(_, _, s)| s).collect::<Vec<_>>()
    };
    assert_eq!(run(99), run(99));
}

#[test]
fn zero_cost_model_still_works() {
    // Pure-logic configuration used by several property tests.
    let mut cfg = small_cfg().with_cost(CostModel::zero());
    cfg.view_change_timeout = SimTime::from_millis(300);
    let mut sim = Simulation::new(topology(), 20);
    let mut dep = build(&mut sim, cfg);
    dep.spawn_clients(&mut sim, 0, 1, WorkloadSpec::writes_per_sec(50.0, 200).with_max_ops(100));
    sim.run_until_quiescent(SimTime::from_secs(30));
    let samples = dep.collect_samples(&sim);
    let total: usize = samples.iter().map(|(_, _, s)| s.len()).sum();
    assert_eq!(total, 100);
}

#[test]
fn byzantine_agreement_replica_cannot_corrupt_the_commit_channel() {
    // §3.7: a faulty agreement replica sends manipulated Executes; the
    // commit channel's fa+1 matching rule blocks them and execution
    // groups keep delivering the correct total order.
    use spider::agreement::{AgreementFault, AgreementReplica};
    let mut sim = Simulation::new(topology(), 55);
    let mut dep = build(&mut sim, small_cfg());
    dep.spawn_clients(&mut sim, 0, 1, WorkloadSpec::writes_per_sec(10.0, 200).with_max_ops(20));
    let traitor = dep.agreement[2];
    sim.actor_mut::<AgreementReplica>(traitor).set_fault(AgreementFault::CorruptExecutes);
    sim.run_until_quiescent(SimTime::from_secs(60));

    let samples = dep.collect_samples(&sim);
    let total: usize = samples.iter().map(|(_, _, s)| s.len()).sum();
    assert_eq!(total, 20, "liveness unaffected");
    for gi in 0..2 {
        for node in dep.group_nodes(gi) {
            let v = sim.actor::<ExecReplica>(*node).app().value();
            assert_eq!(v, 20, "no corrupted add:666 was ever executed");
        }
    }
}
