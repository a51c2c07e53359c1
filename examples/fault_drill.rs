//! Fault drill: Spider under fire.
//!
//! While clients keep writing, this example
//! 1. crashes the consensus leader of the agreement group (view change
//!    happens entirely inside the Virginia region, §3.1),
//! 2. partitions an execution replica long enough that it misses the
//!    commit-channel window and must recover via checkpoint (§3.4),
//! 3. runs a Byzantine client that equivocates between replicas —
//!    blocked by the request channel without hurting anyone else (§3.7),
//! 4. takes the whole Tokyo region offline for six seconds (a
//!    correlated outage) and lets it catch back up.
//!
//! The drill is declared up front as a deterministic [`FaultPlan`]; the
//! run below merely narrates it as the scripted faults fire.
//!
//! Run with: `cargo run -p spider_examples --example fault_drill`

use spider::agreement::AgreementReplica;
use spider::execution::ExecutionReplica;
use spider::{byzantine, DeploymentBuilder, SpiderConfig, WorkloadSpec};
use spider_app::{kv_op_factory, KvStore};
use spider_examples::fmt_latencies;
use spider_harness::ec2_topology;
use spider_sim::{FaultPlan, Simulation};
use spider_types::SimTime;

fn main() {
    let cfg = SpiderConfig {
        ke: 8,
        ka: 8,
        ag_win: 16,
        commit_capacity: 16,
        view_change_timeout: SimTime::from_millis(400),
        ..SpiderConfig::default()
    };

    let mut sim = Simulation::new(ec2_topology(), 99);
    let mut dep = DeploymentBuilder::new(cfg)
        .with_app(KvStore::new)
        .agreement_region("virginia")
        .execution_group("virginia")
        .execution_group("tokyo")
        .build(&mut sim);

    let workload = WorkloadSpec::writes_per_sec(5.0, 200)
        .with_max_ops(120)
        .with_op_factory(kv_op_factory(100));
    dep.spawn_clients(&mut sim, 0, 2, workload.clone());
    dep.spawn_clients(&mut sim, 1, 2, workload.clone());
    let liar_workload = WorkloadSpec::writes_per_sec(5.0, 200).with_max_ops(20);
    let liar = dep.spawn_clients(&mut sim, 0, 1, liar_workload)[0];
    dep.make_byzantine(&mut sim, liar, byzantine::conflicting_requests());

    let leader = dep.agreement[0];
    let victim = dep.group_nodes(1)[1];
    sim.install_fault_plan(
        FaultPlan::new()
            .crash_replica(leader, SimTime::from_secs(2))
            .isolate_replica(victim, SimTime::from_secs(4), SimTime::from_secs(12))
            .region_outage("tokyo", SimTime::from_secs(14), SimTime::from_secs(20)),
    );

    sim.run_until(SimTime::from_secs(2));
    println!("t=2s   crashed agreement leader {leader:?}");
    sim.run_until(SimTime::from_secs(4));
    println!("t=4s   partitioned execution replica {victim:?} until t=12s");
    sim.run_until(SimTime::from_secs(14));
    println!("t=14s  tokyo region offline until t=20s (correlated outage)");

    sim.run_until_quiescent(SimTime::from_secs(90));

    println!("\nresults after the drill:");
    let view = sim.actor::<AgreementReplica>(dep.agreement[1]).view();
    println!("  consensus view: {view} (>= v1 means the leader was replaced)");
    for (id, group, samples) in dep.collect_samples(&sim) {
        if dep.directory.client_node(id) == Some(liar) {
            println!(
                "  byzantine client {id}: {} completed (isolated by the request channel)",
                samples.len()
            );
            assert!(samples.is_empty(), "an equivocating client completes nothing (§3.7)");
            continue;
        }
        let region = &dep.groups[group.0 as usize].1;
        println!("  client {id} ({region:>8}): {}", fmt_latencies(&samples));
    }

    // Convergence including the recovered victim.
    let reference = sim.actor::<ExecutionReplica<KvStore>>(dep.group_nodes(0)[0]).app_digest();
    let victim_digest = sim.actor::<ExecutionReplica<KvStore>>(victim).app_digest();
    println!(
        "  partitioned replica state: {}",
        if victim_digest == reference {
            "recovered via checkpoint, consistent"
        } else {
            "STILL DIVERGED"
        }
    );
    let victim_replica = sim.actor::<ExecutionReplica<KvStore>>(victim);
    println!(
        "  victim executed {} of {} requests (rest skipped via checkpoint)",
        victim_replica.executed,
        victim_replica.app().ops_applied
    );
    assert_eq!(victim_digest, reference);
}
