//! How a baseline client counts replies: `quorum` matching results from
//! distinct replicas complete a write, a strong read waits for its own
//! quorum, and a replica that answers twice counts once.
//!
//! Stub replicas answer the first copy of each request with a fixed
//! script of results and ignore retransmissions. Link jitter may reorder
//! one node's answers, so no test depends on their order.

use bytes::Bytes;
use spider::messages::Reply;
use spider::{SpiderConfig, WorkloadSpec};
use spider_baselines::{BaseMsg, BaselineClient};
use spider_sim::{Actor, Context, Simulation, Topology};
use spider_types::{ClientId, NodeId, OpKind, SimTime};
use std::sync::Arc;

/// A stub replica: answers each request counter once, with its script of
/// results in order.
struct Scripted {
    script: Vec<&'static [u8]>,
    highest_tc: u64,
}

impl Actor<BaseMsg> for Scripted {
    fn on_message(&mut self, ctx: &mut Context<'_, BaseMsg>, from: NodeId, msg: BaseMsg) {
        let BaseMsg::Request(req) = msg else { return };
        if req.tc <= self.highest_tc {
            return; // A retransmission.
        }
        self.highest_tc = req.tc;
        for result in &self.script {
            let result = Bytes::from_static(result);
            let reply = Reply { tc: req.tc, result, weak: false, resubmit: false };
            ctx.send(from, BaseMsg::Reply(reply));
        }
    }
}

/// One request of `kind` from a client of four replicas (`f = 1`) that
/// answer with `scripts`, accepting 2 matching replies (3 for a strong
/// read), run for five simulated seconds: whether it completed.
fn completes(kind: OpKind, scripts: [Vec<&'static [u8]>; 4]) -> bool {
    let topology = Topology::builder().region("virginia", 4).build();
    let mut sim = Simulation::new(topology, 11);
    let replicas: Vec<NodeId> = scripts
        .into_iter()
        .enumerate()
        .map(|(i, script)| {
            let zone = sim.topology().zone("virginia", i as u8);
            sim.add_node(zone, Scripted { script, highest_tc: 0 })
        })
        .collect();
    let workload = WorkloadSpec {
        write_fraction: if kind == OpKind::Write { 1.0 } else { 0.0 },
        strong_read_fraction: if kind == OpKind::StrongRead { 1.0 } else { 0.0 },
        ..WorkloadSpec::writes_per_sec(5.0, 64).with_max_ops(1)
    }
    .with_op_factory(Arc::new(|_, _, _| Bytes::from_static(b"op")));
    let cfg = SpiderConfig::default();
    let client = BaselineClient::new(cfg, ClientId(1), replicas, 3, workload);
    let zone = sim.topology().zone("virginia", 0);
    let node = sim.add_node(zone, client);
    sim.run_until(SimTime::from_secs(5));
    let samples = &sim.actor::<BaselineClient>(node).samples;
    assert!(samples.iter().all(|s| s.kind == kind));
    !samples.is_empty()
}

#[test]
fn two_matching_results_complete_a_write() {
    assert!(completes(OpKind::Write, [vec![b"a"], vec![b"a"], vec![], vec![]]));
    assert!(!completes(OpKind::Write, [vec![b"a"], vec![b"b"], vec![], vec![]]));
}

#[test]
fn a_repeated_answer_counts_once() {
    assert!(!completes(OpKind::Write, [vec![b"a", b"a"], vec![], vec![], vec![]]));
    assert!(!completes(OpKind::StrongRead, [vec![b"a", b"a"], vec![b"a"], vec![], vec![]]));
}

#[test]
fn a_strong_read_waits_for_its_own_quorum() {
    assert!(!completes(OpKind::StrongRead, [vec![b"a"], vec![b"a"], vec![], vec![]]));
    assert!(completes(OpKind::StrongRead, [vec![b"a"], vec![b"a"], vec![b"a"], vec![]]));
}
