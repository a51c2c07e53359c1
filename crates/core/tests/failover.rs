//! Group failover (§3.1) and IRMC-SC end-to-end coverage.

use spider::execution::ExecutionReplica;
use spider::{CounterApp, DeploymentBuilder, SpiderConfig, WorkloadSpec};
use spider_irmc::Variant;
use spider_sim::{FaultPlan, Simulation, Topology};
use spider_types::SimTime;

type ExecReplica = ExecutionReplica<CounterApp>;

fn topology() -> Topology {
    Topology::builder()
        .region("virginia", 4)
        .region("oregon", 3)
        .region("tokyo", 3)
        .symmetric_latency("virginia", "oregon", SimTime::from_millis(31))
        .symmetric_latency("virginia", "tokyo", SimTime::from_millis(73))
        .symmetric_latency("oregon", "tokyo", SimTime::from_millis(49))
        .build()
}

#[test]
fn client_fails_over_when_its_group_dies() {
    let cfg = SpiderConfig {
        client_retry: SimTime::from_millis(500),
        group_failover_retries: 2,
        ..SpiderConfig::default()
    };
    let mut sim = Simulation::new(topology(), 31);
    let mut dep = DeploymentBuilder::new(cfg)
        .agreement_region("virginia")
        .execution_group("oregon")
        .execution_group("tokyo")
        .build(&mut sim);
    dep.spawn_clients(&mut sim, 0, 1, WorkloadSpec::writes_per_sec(4.0, 200).with_max_ops(30));

    // Let some writes complete, then kill the whole Oregon group (more
    // than fe = 1 failures: the group is gone, §3.1).
    sim.run_until(SimTime::from_secs(2));
    let now = sim.now();
    let crashes = dep
        .group_nodes(0)
        .iter()
        .fold(FaultPlan::new(), |plan, &node| plan.crash_replica(node, now));
    sim.install_fault_plan(crashes);
    sim.run_until_quiescent(SimTime::from_secs(120));

    let samples = dep.collect_samples(&sim);
    let total: usize = samples.iter().map(|(_, _, s)| s.len()).sum();
    assert_eq!(total, 30, "all writes completed despite the group loss");
    // The surviving Tokyo group executed everything.
    let v = sim.actor::<ExecReplica>(dep.group_nodes(1)[0]).app().value();
    assert_eq!(v, 30);
}

#[test]
fn removed_group_redirects_clients() {
    // RemoveGroup (§3.6) + failover: clients of a removed group continue
    // at another group.
    use spider::messages::{AdminCommand, SpiderMsg};
    let cfg = SpiderConfig {
        client_retry: SimTime::from_millis(500),
        group_failover_retries: 2,
        ..SpiderConfig::default()
    };
    let mut sim = Simulation::new(topology(), 32);
    let mut dep = DeploymentBuilder::new(cfg)
        .agreement_region("virginia")
        .execution_group("oregon")
        .execution_group("tokyo")
        .build(&mut sim);
    dep.spawn_clients(&mut sim, 0, 1, WorkloadSpec::writes_per_sec(4.0, 200).with_max_ops(20));
    sim.run_until(SimTime::from_secs(2));

    // Admin removes the Oregon group; its replicas stop being served by
    // the agreement group (commit channel closed).
    let group = dep.groups[0].0;
    let zone = sim.zone_of(dep.agreement[0]);
    struct Admin(spider::Directory, spider_types::GroupId);
    impl spider_sim::Actor<SpiderMsg> for Admin {
        fn on_start(&mut self, ctx: &mut spider_sim::Context<'_, SpiderMsg>) {
            ctx.set_timer(SimTime::from_millis(1), 1);
        }
        fn on_message(
            &mut self,
            _: &mut spider_sim::Context<'_, SpiderMsg>,
            _: spider_types::NodeId,
            _: SpiderMsg,
        ) {
        }
        fn on_timer(&mut self, ctx: &mut spider_sim::Context<'_, SpiderMsg>, _: spider_sim::Timer) {
            for &n in self.0.agreement().iter() {
                ctx.send(n, SpiderMsg::Admin(AdminCommand::RemoveGroup { group: self.1 }));
            }
        }
    }
    sim.add_node(zone, Admin(dep.directory.clone(), group));
    sim.run_until_quiescent(SimTime::from_secs(120));

    assert!(!dep.directory.is_active(group));
    let samples = dep.collect_samples(&sim);
    let total: usize = samples.iter().map(|(_, _, s)| s.len()).sum();
    assert_eq!(total, 20, "client finished via the Tokyo group");
}

#[test]
fn sender_collect_variant_works_end_to_end() {
    // Both channels on IRMC-SC: certificates, collectors, progress.
    let cfg = SpiderConfig::default().with_variant(Variant::SenderCollect);
    let mut sim = Simulation::new(topology(), 33);
    let mut dep = DeploymentBuilder::new(cfg)
        .agreement_region("virginia")
        .execution_group("oregon")
        .execution_group("tokyo")
        .build(&mut sim);
    dep.spawn_clients(&mut sim, 0, 2, WorkloadSpec::writes_per_sec(5.0, 200).with_max_ops(25));
    dep.spawn_clients(&mut sim, 1, 2, WorkloadSpec::writes_per_sec(5.0, 200).with_max_ops(25));
    sim.run_until_quiescent(SimTime::from_secs(60));
    let samples = dep.collect_samples(&sim);
    let total: usize = samples.iter().map(|(_, _, s)| s.len()).sum();
    assert_eq!(total, 100);
    // Convergence under SC too.
    let a = sim.actor::<ExecReplica>(dep.group_nodes(0)[0]).app().value();
    let b = sim.actor::<ExecReplica>(dep.group_nodes(1)[0]).app().value();
    assert_eq!(a, 100);
    assert_eq!(b, 100);
}

#[test]
fn sender_collect_saves_wan_bytes_vs_receiver_collect() {
    let run = |variant: Variant| -> u64 {
        let cfg = SpiderConfig::default().with_variant(variant);
        let mut sim = Simulation::new(topology(), 34);
        let mut dep = DeploymentBuilder::new(cfg)
            .agreement_region("virginia")
            .execution_group("tokyo")
            .build(&mut sim);
        dep.spawn_clients(&mut sim, 0, 1, WorkloadSpec::writes_per_sec(10.0, 200).with_max_ops(50));
        sim.run_until_quiescent(SimTime::from_secs(60));
        let samples = dep.collect_samples(&sim);
        assert_eq!(samples[0].2.len(), 50);
        sim.stats().total_wan_sent()
    };
    let rc = run(Variant::ReceiverCollect);
    let sc = run(Variant::SenderCollect);
    assert!(sc < rc, "IRMC-SC must move fewer WAN bytes ({sc} vs {rc}) — Fig 9d");
}
