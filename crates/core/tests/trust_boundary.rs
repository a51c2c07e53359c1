//! Group ids and client counters arrive in frames: one naming a group
//! nobody registered, or a counter no correct client reaches, must be
//! dropped by the replica that receives it, not abort the run.

use bytes::Bytes;
use spider::messages::{ChannelLeg, CheckpointMsg, ClientRequest, Operation, SpiderMsg};
use spider::{Deployment, DeploymentBuilder, SpiderConfig, WorkloadSpec};
use spider_crypto::{Digest, Hashed};
use spider_irmc::{ChannelMsg, ReceiverMsg};
use spider_sim::{Simulation, Topology};
use spider_types::{ClientId, GroupId, OpKind, Position, SeqNr, SimTime};

const NOBODY: GroupId = GroupId(999);

fn deployment() -> (Simulation<SpiderMsg>, Deployment) {
    let topology = Topology::builder()
        .region("virginia", 4)
        .region("tokyo", 3)
        .symmetric_latency("virginia", "tokyo", SimTime::from_millis(73))
        .build();
    let mut sim = Simulation::new(topology, 5);
    let dep = DeploymentBuilder::new(SpiderConfig::default())
        .agreement_region("virginia")
        .execution_group("virginia")
        .execution_group("tokyo")
        .build(&mut sim);
    (sim, dep)
}

/// The deployment still serves its clients after the stray frames.
fn serves(mut sim: Simulation<SpiderMsg>, mut dep: Deployment) {
    dep.spawn_clients(&mut sim, 1, 1, WorkloadSpec::writes_per_sec(20.0, 200).with_max_ops(5));
    sim.run_until_quiescent(SimTime::from_secs(30));
    let done: usize = dep.collect_samples(&sim).iter().map(|(_, _, s)| s.len()).sum();
    assert_eq!(done, 5);
}

#[test]
fn agreement_replica_drops_channel_frames_of_an_unregistered_group() {
    let (mut sim, dep) = deployment();
    let (exec, agreement) = (dep.group_nodes(0)[0], dep.agreement[0]);
    let ack = ReceiverMsg::Move { sc: 0, p: Position(1) };
    let vouch = ChannelMsg::Vouch { sc: 0, first: Position(1), count: 1, root: Digest::ZERO };
    for frame in [
        SpiderMsg::CommitChannel { group: NOBODY, leg: ChannelLeg::ToSender(ack) },
        SpiderMsg::RequestChannel { group: NOBODY, leg: ChannelLeg::ToReceiver(vouch) },
    ] {
        sim.post(SimTime::ZERO, exec, agreement, frame);
    }
    sim.run_until(SimTime::from_millis(100));
    serves(sim, dep);
}

#[test]
fn execution_replica_drops_checkpoint_frames_of_an_unregistered_group() {
    let (mut sim, dep) = deployment();
    let (peer, exec) = (dep.group_nodes(0)[1], dep.group_nodes(0)[0]);
    let fetch = CheckpointMsg::FetchRequest { seq: SeqNr(1) };
    sim.post(SimTime::ZERO, peer, exec, SpiderMsg::Checkpoint { group: NOBODY, msg: fetch });
    sim.run_until(SimTime::from_millis(100));
    serves(sim, dep);
}

/// A write under a counter near `u64::MAX`, from a client nobody spawned,
/// posted to every replica of group 0.
#[test]
fn execution_replica_drops_requests_at_counters_no_client_reaches() {
    for tc in [u64::MAX, u64::MAX - 1, u64::MAX - 2] {
        let (mut sim, dep) = deployment();
        let agreement = dep.agreement[0];
        let operation = Operation { op: Bytes::from_static(b"x"), kind: OpKind::Write };
        let req: Hashed<ClientRequest> =
            ClientRequest { client: ClientId(77), tc, operation }.into();
        for &exec in dep.group_nodes(0) {
            sim.post(SimTime::ZERO, agreement, exec, SpiderMsg::Request(req.clone()));
        }
        sim.run_until(SimTime::from_millis(500));
        serves(sim, dep);
    }
}
