//! Workspace-level integration: Spider + key-value store + EC2 topology,
//! checking cross-crate behaviour the per-crate tests cannot: application
//! semantics through the full replication pipeline.

use bytes::Bytes;
use spider::execution::ExecutionReplica;
use spider::{Application, SpiderConfig, WorkloadSpec};
use spider_app::{kv_op_factory, KvOp, KvStore};
use spider_tests::standard_deployment;
use spider_types::{OpKind, SimTime};

type ExecReplica = ExecutionReplica<KvStore>;

#[test]
fn kv_writes_survive_replication_and_all_groups_agree() {
    let (mut sim, mut dep) = standard_deployment(1, SpiderConfig::default());
    let workload =
        WorkloadSpec::writes_per_sec(4.0, 200).with_max_ops(25).with_op_factory(kv_op_factory(50));
    for gi in 0..4 {
        dep.spawn_clients(&mut sim, gi, 2, workload.clone());
    }
    sim.run_until_quiescent(SimTime::from_secs(60));

    let samples = dep.collect_samples(&sim);
    let total: usize = samples.iter().map(|(_, _, s)| s.len()).sum();
    assert_eq!(total, 8 * 25);

    // Twelve replicas in four regions converged to an identical store.
    let mut digests = Vec::new();
    for gi in 0..4 {
        for node in dep.group_nodes(gi) {
            digests.push(sim.actor::<ExecReplica>(*node).app_digest());
        }
    }
    assert!(digests.windows(2).all(|w| w[0] == w[1]));
    let store = sim.actor::<ExecReplica>(dep.group_nodes(0)[0]).app();
    assert!(store.len() <= 50, "keys bounded by the key space");
    assert!(!store.is_empty());
}

#[test]
fn weak_reads_see_previously_acknowledged_writes() {
    // One client writes a key, then weak-reads it from the same group:
    // the read must return the written value (the group executed the
    // write before replying, so its replicas are up to date).
    let (mut sim, mut dep) = standard_deployment(2, SpiderConfig::default());
    let key = b"account-7";
    let value = vec![9u8; 32];
    let value_for_factory = value.clone();
    let workload = WorkloadSpec {
        rate_per_sec: 2.0,
        payload_bytes: 200,
        write_fraction: 0.0,
        strong_read_fraction: 0.0,
        max_ops: 5,
        start_delay: SimTime::from_secs(5), // reads start after the write
        op_factory: std::sync::Arc::new(move |_seq, _kind, _payload| {
            KvOp::get(b"account-7").encode()
        }),
    };
    // The writer: a single write at t ~= 0.2s.
    let writer = WorkloadSpec {
        rate_per_sec: 2.0,
        payload_bytes: 200,
        write_fraction: 1.0,
        strong_read_fraction: 0.0,
        max_ops: 1,
        start_delay: SimTime::from_millis(200),
        op_factory: std::sync::Arc::new(move |_seq, _kind, _payload| {
            KvOp::put(b"account-7", value_for_factory.clone()).encode()
        }),
    };
    dep.spawn_clients(&mut sim, 2, 1, writer);
    dep.spawn_clients(&mut sim, 2, 1, workload);
    sim.run_until_quiescent(SimTime::from_secs(30));

    let samples = dep.collect_samples(&sim);
    let reads: usize =
        samples.iter().flat_map(|(_, _, s)| s).filter(|s| s.kind == OpKind::WeakRead).count();
    assert_eq!(reads, 5);
    // And the value is in every replica of the reading group.
    for node in dep.group_nodes(2) {
        let store = sim.actor::<ExecReplica>(*node).app();
        assert_eq!(store.get(key), Some(&value[..]));
    }
}

#[test]
fn mixed_workload_with_strong_reads_completes() {
    let (mut sim, mut dep) = standard_deployment(3, SpiderConfig::default());
    let mixed = WorkloadSpec {
        rate_per_sec: 3.0,
        payload_bytes: 200,
        write_fraction: 0.4,
        strong_read_fraction: 0.3,
        max_ops: 20,
        start_delay: SimTime::from_millis(200),
        op_factory: kv_op_factory(20),
    };
    for gi in 0..4 {
        dep.spawn_clients(&mut sim, gi, 1, mixed.clone());
    }
    sim.run_until_quiescent(SimTime::from_secs(90));
    let samples = dep.collect_samples(&sim);
    let total: usize = samples.iter().map(|(_, _, s)| s.len()).sum();
    assert_eq!(total, 80);
    // All three kinds actually occurred.
    for kind in [OpKind::Write, OpKind::StrongRead, OpKind::WeakRead] {
        let n = samples.iter().flat_map(|(_, _, s)| s).filter(|s| s.kind == kind).count();
        assert!(n > 0, "no {kind} completed");
    }
}

#[test]
fn acknowledged_write_is_present_in_final_state() {
    // Linearizability spot check: any write a client saw acknowledged
    // must be reflected in the final converged state.
    let (mut sim, mut dep) = standard_deployment(4, SpiderConfig::default());
    let marker: Bytes = KvOp::put(b"marker", vec![1, 2, 3]).encode();
    let workload = WorkloadSpec {
        rate_per_sec: 5.0,
        payload_bytes: 200,
        write_fraction: 1.0,
        strong_read_fraction: 0.0,
        max_ops: 1,
        start_delay: SimTime::from_millis(100),
        op_factory: std::sync::Arc::new(move |_, _, _| marker.clone()),
    };
    dep.spawn_clients(&mut sim, 3, 1, workload); // from Tokyo
    sim.run_until_quiescent(SimTime::from_secs(30));
    let samples = dep.collect_samples(&sim);
    assert_eq!(samples[0].2.len(), 1, "write acknowledged");
    for gi in 0..4 {
        for node in dep.group_nodes(gi) {
            let store = sim.actor::<ExecReplica>(*node).app();
            assert_eq!(store.get(b"marker"), Some(&[1u8, 2, 3][..]), "write durable everywhere");
        }
    }
}

/// A replica whose state differs from its group's is caught at the next
/// checkpoint, where its vote loses, and repairs itself: it fetches the
/// certified checkpoint, installs it although it is already past it, and
/// replays what followed from its commit channel.
#[test]
fn a_replica_whose_checkpoint_vote_loses_repairs_itself() {
    let (mut sim, mut dep) = standard_deployment(3, SpiderConfig::default());
    // Every write has a key of its own, so a lost or doubled one shows.
    for gi in 0..4 {
        let writes = move |seq, _, payload: usize| {
            let key = format!("g{gi}-{seq}");
            KvOp::sized_put(key.as_bytes(), payload, b'x').encode()
        };
        let workload = WorkloadSpec::writes_per_sec(10.0, 200)
            .with_max_ops(60)
            .with_op_factory(std::sync::Arc::new(writes));
        dep.spawn_clients(&mut sim, gi, 1, workload);
    }
    let victim = dep.group_nodes(1)[2];
    sim.run_until(SimTime::from_secs(2));
    let replica = sim.actor_mut::<ExecReplica>(victim);
    let diverged_at = replica.sequence();
    replica.app_mut().execute(&KvOp::put(b"stray", vec![1]).encode());
    sim.run_until_quiescent(SimTime::from_secs(60));

    let samples = dep.collect_samples(&sim);
    assert_eq!(samples.iter().map(|(_, _, s)| s.len()).sum::<usize>(), 240);
    let replica = sim.actor::<ExecReplica>(victim);
    assert!(diverged_at.0 > 0 && replica.sequence().0 == 240, "{diverged_at:?}");
    assert_eq!(replica.lost_votes(), 1, "caught at one checkpoint, repaired by the next");
    let group = dep.group_nodes(1).iter().map(|node| sim.actor::<ExecReplica>(*node).app());
    let reference = sim.actor::<ExecReplica>(dep.group_nodes(1)[0]).app().map_digest();
    for store in group {
        assert_eq!(store.map_digest(), reference);
        assert_eq!((store.len(), store.ops_applied), (240, 240), "no write lost or doubled");
        assert!(store.get(b"stray").is_none());
    }
}
