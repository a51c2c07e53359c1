//! The weak-read retry/escalation path (§3.3): under quorum-less weak
//! replies a client retries and, when retries are exhausted, re-issues
//! the operation as a strongly consistent read.
//!
//! Uses stub "replica" actors so the divergence is fully controlled —
//! something a real deployment only produces under precise write/read
//! races.

use bytes::Bytes;
use spider::messages::{Reply, SpiderMsg};
use spider::{Directory, SpiderClient, SpiderConfig, WorkloadSpec};
use spider_sim::{Actor, Context, Simulation, Topology};
use spider_types::{ClientId, GroupId, NodeId, OpKind, SimTime};
use std::sync::Arc;

/// A stub execution replica: answers weak reads with a configured value
/// and records strongly consistent read requests.
struct StubReplica {
    weak_value: &'static [u8],
    strong_requests: u64,
}

impl Actor<SpiderMsg> for StubReplica {
    fn on_message(&mut self, ctx: &mut Context<'_, SpiderMsg>, from: NodeId, msg: SpiderMsg) {
        let SpiderMsg::Request(req) = msg else { return };
        match req.operation.kind {
            OpKind::WeakRead => {
                ctx.send(
                    from,
                    SpiderMsg::Reply(Reply {
                        tc: req.tc,
                        result: Bytes::from_static(self.weak_value),
                        weak: true,
                        resubmit: false,
                    }),
                );
            }
            OpKind::StrongRead => {
                // Record the escalation; answer consistently so the
                // client completes.
                self.strong_requests += 1;
                ctx.send(
                    from,
                    SpiderMsg::Reply(Reply {
                        tc: req.tc,
                        result: Bytes::from_static(b"stable"),
                        weak: false,
                        resubmit: false,
                    }),
                );
            }
            OpKind::Write => {}
        }
    }
}

#[test]
fn weak_read_without_quorum_escalates_to_strong_read() {
    let topology = Topology::builder().region("virginia", 3).build();
    let mut sim = Simulation::new(topology, 9);
    let directory = Directory::new();

    // Three stub replicas that always disagree on weak reads.
    let values: [&'static [u8]; 3] = [b"v1", b"v2", b"v3"];
    let mut nodes = Vec::new();
    for (i, v) in values.iter().enumerate() {
        let zone = sim.topology().zone("virginia", i as u8);
        nodes.push(sim.add_node(zone, StubReplica { weak_value: v, strong_requests: 0 }));
    }
    directory.register_group(
        GroupId(0),
        spider::directory::GroupInfo { replicas: nodes.clone(), active: true },
    );

    let workload = WorkloadSpec {
        rate_per_sec: 5.0,
        payload_bytes: 64,
        write_fraction: 0.0,
        strong_read_fraction: 0.0, // weak reads only
        max_ops: 1,
        start_delay: SimTime::from_millis(10),
        op_factory: Arc::new(|_, _, _| Bytes::from_static(b"get")),
    };
    let id = ClientId(1);
    let zone = sim.topology().zone("virginia", 0);
    let client = SpiderClient::new(
        SpiderConfig::default(),
        id,
        GroupId(0),
        directory.clone(),
        Some(workload),
    );
    let node = sim.add_node(zone, client);
    directory.register_client(id, node);

    sim.run_until_quiescent(SimTime::from_secs(10));

    // The client completed exactly one operation…
    let samples = &sim.actor::<SpiderClient>(node).samples;
    assert_eq!(samples.len(), 1);
    // …which was escalated: the stubs saw a strongly consistent read.
    let escalations: u64 = nodes.iter().map(|n| sim.actor::<StubReplica>(*n).strong_requests).sum();
    assert!(escalations >= 3, "all three replicas saw the strong read");
    // Latency covers the retries (the sample is measured from the first
    // weak attempt, §3.3).
    assert_eq!(samples[0].kind, OpKind::StrongRead);
}

#[test]
fn weak_read_with_quorum_completes_without_escalation() {
    let topology = Topology::builder().region("virginia", 3).build();
    let mut sim = Simulation::new(topology, 10);
    let directory = Directory::new();
    // Two of three replicas agree: fe + 1 = 2 matching replies suffice.
    let values: [&'static [u8]; 3] = [b"same", b"same", b"other"];
    let mut nodes = Vec::new();
    for (i, v) in values.iter().enumerate() {
        let zone = sim.topology().zone("virginia", i as u8);
        nodes.push(sim.add_node(zone, StubReplica { weak_value: v, strong_requests: 0 }));
    }
    directory.register_group(
        GroupId(0),
        spider::directory::GroupInfo { replicas: nodes.clone(), active: true },
    );
    let workload = WorkloadSpec {
        rate_per_sec: 5.0,
        payload_bytes: 64,
        write_fraction: 0.0,
        strong_read_fraction: 0.0,
        max_ops: 1,
        start_delay: SimTime::from_millis(10),
        op_factory: Arc::new(|_, _, _| Bytes::from_static(b"get")),
    };
    let id = ClientId(1);
    let zone = sim.topology().zone("virginia", 0);
    let client = SpiderClient::new(
        SpiderConfig::default(),
        id,
        GroupId(0),
        directory.clone(),
        Some(workload),
    );
    let node = sim.add_node(zone, client);
    directory.register_client(id, node);
    sim.run_until_quiescent(SimTime::from_secs(10));

    let samples = &sim.actor::<SpiderClient>(node).samples;
    assert_eq!(samples.len(), 1);
    assert_eq!(samples[0].kind, OpKind::WeakRead, "no escalation needed");
    let escalations: u64 = nodes.iter().map(|n| sim.actor::<StubReplica>(*n).strong_requests).sum();
    assert_eq!(escalations, 0);
}
