//! How a client counts the replies to an ordered request (Fig 15 L23):
//! `fe + 1` matching results from distinct replicas complete it, `fe + 1`
//! resubmit indications reissue it, and a node that answers again replaces
//! its earlier answer instead of adding to it.
//!
//! Stub replicas answer the first copy of each request with a fixed
//! script of replies and ignore retransmissions, so a node's answers
//! arrive once each, in a known order.

use bytes::Bytes;
use spider::messages::{Reply, SpiderMsg};
use spider::{Directory, SpiderClient, SpiderConfig, WorkloadSpec};
use spider_sim::{Actor, Context, Simulation, Topology};
use spider_types::{ClientId, GroupId, NodeId, SimTime};
use std::sync::Arc;

/// A result, or a resubmit indication.
type Answer = Option<&'static [u8]>;

/// A stub execution replica: answers each request counter once, with its
/// script in order, and remembers the highest counter it was sent.
struct Scripted {
    script: Vec<Answer>,
    highest_tc: u64,
}

impl Actor<SpiderMsg> for Scripted {
    fn on_message(&mut self, ctx: &mut Context<'_, SpiderMsg>, from: NodeId, msg: SpiderMsg) {
        let SpiderMsg::Request(req) = msg else { return };
        if req.tc <= self.highest_tc {
            return; // A retransmission.
        }
        self.highest_tc = req.tc;
        for answer in &self.script {
            let result = Bytes::from_static(answer.unwrap_or_default());
            let reply = Reply { tc: req.tc, result, weak: false, resubmit: answer.is_none() };
            ctx.send(from, SpiderMsg::Reply(reply));
        }
    }
}

/// One write from a client of a three-replica group (`fe = 1`) whose
/// replicas answer with `scripts`, run for five simulated seconds: the
/// writes the client completed and the highest counter a replica saw.
fn one_write(scripts: [Vec<Answer>; 3]) -> (usize, u64) {
    let topology = Topology::builder().region("virginia", 3).build();
    let mut sim = Simulation::new(topology, 11);
    let directory = Directory::new();
    let replicas: Vec<NodeId> = scripts
        .into_iter()
        .enumerate()
        .map(|(i, script)| {
            let zone = sim.topology().zone("virginia", i as u8);
            sim.add_node(zone, Scripted { script, highest_tc: 0 })
        })
        .collect();
    directory.register_group(
        GroupId(0),
        spider::directory::GroupInfo { replicas: replicas.clone(), active: true },
    );
    let workload = WorkloadSpec {
        rate_per_sec: 5.0,
        payload_bytes: 64,
        write_fraction: 1.0,
        strong_read_fraction: 0.0,
        max_ops: 1,
        start_delay: SimTime::from_millis(10),
        op_factory: Arc::new(|_, _, _| Bytes::from_static(b"put")),
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
    sim.run_until_quiescent(SimTime::from_secs(5));
    let completed = sim.actor::<SpiderClient>(node).samples.len();
    let highest = replicas.iter().map(|&r| sim.actor::<Scripted>(r).highest_tc).max();
    (completed, highest.unwrap_or(0))
}

#[test]
fn matching_results_from_two_replicas_complete_a_write() {
    let (a, b): (Answer, Answer) = (Some(b"a"), Some(b"b"));
    assert_eq!(one_write([vec![a], vec![a], vec![]]).0, 1);
    // Replica 0's second answer replaces its first, and matches replica 1.
    assert_eq!(one_write([vec![b, a], vec![a], vec![]]).0, 1);
}

#[test]
fn a_repeated_answer_counts_once() {
    let (a, b): (Answer, Answer) = (Some(b"a"), Some(b"b"));
    // One node saying the same thing twice is not two replicas.
    assert_eq!(one_write([vec![a, a], vec![], vec![]]), (0, 1));
    // Replica 0 took back its `a`: nothing matches replica 1's.
    assert_eq!(one_write([vec![a, b], vec![a], vec![]]), (0, 1));
}

#[test]
fn resubmit_indications_count_per_replica() {
    // Two replicas skipped the request: the client reissues it under a
    // fresh counter (the stubs never answer a result, so it never ends).
    assert!(one_write([vec![None], vec![None], vec![]]).1 > 1);
    // One replica saying so twice is not a quorum, and a result replaces it.
    assert_eq!(one_write([vec![None, None], vec![], vec![]]), (0, 1));
    assert_eq!(one_write([vec![None, Some(b"a")], vec![None], vec![]]), (0, 1));
}
