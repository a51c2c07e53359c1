//! Reconfiguration across the whole stack (§3.6): groups added and
//! removed at runtime while a kv workload runs.

use spider::execution::ExecutionReplica;
use spider::messages::{AdminCommand, SpiderMsg};
use spider::{SpiderConfig, WorkloadSpec};
use spider_app::{kv_op_factory, KvStore};
use spider_tests::standard_deployment;
use spider_types::{GroupId, SimTime};

#[test]
fn add_then_remove_group_mid_workload() {
    let (mut sim, mut dep) = standard_deployment(21, SpiderConfig::default());
    let workload =
        WorkloadSpec::writes_per_sec(4.0, 200).with_max_ops(60).with_op_factory(kv_op_factory(100));
    dep.spawn_clients(&mut sim, 0, 2, workload.clone());

    // Add a São Paulo group at t = 3s.
    let new_group = dep.add_execution_group(&mut sim, "saopaulo", SimTime::from_secs(3));
    sim.run_until(SimTime::from_secs(8));
    assert!(dep.directory.is_active(new_group));

    // New clients served locally.
    let gi = dep.groups.len() - 1;
    dep.spawn_clients(
        &mut sim,
        gi,
        1,
        WorkloadSpec::writes_per_sec(4.0, 200).with_max_ops(10).with_op_factory(kv_op_factory(100)),
    );
    sim.run_until(SimTime::from_secs(15));

    // Remove the group again: the admin submits RemoveGroup directly.
    let admin_zone = sim.zone_of(dep.agreement[0]);
    struct OneShotAdmin {
        directory: spider::Directory,
        group: GroupId,
    }
    impl spider_sim::Actor<SpiderMsg> for OneShotAdmin {
        fn on_start(&mut self, ctx: &mut spider_sim::Context<'_, SpiderMsg>) {
            ctx.set_timer(SimTime::from_millis(10), 1);
        }
        fn on_message(
            &mut self,
            _: &mut spider_sim::Context<'_, SpiderMsg>,
            _: spider_types::NodeId,
            _: SpiderMsg,
        ) {
        }
        fn on_timer(&mut self, ctx: &mut spider_sim::Context<'_, SpiderMsg>, _: spider_sim::Timer) {
            for &node in self.directory.agreement().iter() {
                ctx.send(node, SpiderMsg::Admin(AdminCommand::RemoveGroup { group: self.group }));
            }
        }
    }
    sim.add_node(admin_zone, OneShotAdmin { directory: dep.directory.clone(), group: new_group });
    sim.run_until(SimTime::from_secs(18));
    assert!(!dep.directory.is_active(new_group), "RemoveGroup ordered and applied");

    // The original groups keep serving to completion.
    sim.run_until_quiescent(SimTime::from_secs(90));
    let samples = dep.collect_samples(&sim);
    let virginia_total: usize =
        samples.iter().filter(|(_, g, _)| g.0 == 0).map(|(_, _, s)| s.len()).sum();
    assert_eq!(virginia_total, 120, "both Virginia clients finished all writes");

    // Remaining groups stay convergent.
    let reference = sim.actor::<ExecutionReplica<KvStore>>(dep.group_nodes(0)[0]).app_digest();
    for gi in 0..4 {
        for node in dep.group_nodes(gi) {
            assert_eq!(sim.actor::<ExecutionReplica<KvStore>>(*node).app_digest(), reference);
        }
    }
}

#[test]
fn late_joining_group_converges_to_full_history() {
    let cfg =
        SpiderConfig { ke: 8, ka: 8, ag_win: 16, commit_capacity: 16, ..SpiderConfig::default() };
    let (mut sim, mut dep) = standard_deployment(22, cfg);
    let workload = WorkloadSpec::writes_per_sec(10.0, 200)
        .with_max_ops(80)
        .with_op_factory(kv_op_factory(100));
    dep.spawn_clients(&mut sim, 1, 2, workload);

    // Let a lot of history accumulate, then join.
    let new_group = dep.add_execution_group(&mut sim, "saopaulo", SimTime::from_secs(10));
    sim.run_until_quiescent(SimTime::from_secs(120));

    let reference = sim.actor::<ExecutionReplica<KvStore>>(dep.group_nodes(0)[0]).app_digest();
    let gi = dep.groups.iter().position(|(g, _, _)| *g == new_group).unwrap();
    for node in dep.group_nodes(gi) {
        let replica = sim.actor::<ExecutionReplica<KvStore>>(*node);
        assert_eq!(
            replica.app_digest(),
            reference,
            "late group caught up via cross-group checkpoint + commit stream"
        );
        assert!(replica.executed < 160, "the late group must not re-execute the full history");
    }
}
