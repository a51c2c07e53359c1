//! Micro-benchmarks of the PBFT black-box: pure state-machine throughput
//! (no simulator), measured on the real host CPU.

use spider_bench::time_per_call;
use spider_consensus::{Input, Msg, Output, Pbft, PbftConfig, TestPayload};
use spider_crypto::CostModel;
use spider_types::SimTime;
use std::collections::VecDeque;

/// Orders `n` payloads through a 4-replica in-memory cluster.
fn order_n(n: u64) -> usize {
    let cfg = PbftConfig::new(1).with_cost(CostModel::zero());
    let mut replicas: Vec<Pbft<TestPayload>> = (0..4).map(|i| Pbft::new(cfg.clone(), i)).collect();
    let mut inbox: VecDeque<(usize, usize, Msg<TestPayload>)> = VecDeque::new();
    let mut delivered = 0usize;
    for k in 0..n {
        for (i, replica) in replicas.iter_mut().enumerate() {
            let mut out = Vec::new();
            replica.handle(SimTime::ZERO, Input::Order(TestPayload(k)), &mut out);
            for o in out {
                if let Output::Send { to, msg } = o {
                    inbox.push_back((i, to, msg));
                }
            }
        }
        while let Some((from, to, msg)) = inbox.pop_front() {
            let mut out = Vec::new();
            replicas[to].handle(SimTime::ZERO, Input::Message { from, msg }, &mut out);
            for o in out {
                match o {
                    Output::Send { to: t, msg } => inbox.push_back((to, t, msg)),
                    Output::Deliver { batch, .. } => delivered += batch.len(),
                    _ => {}
                }
            }
        }
    }
    delivered
}

fn main() {
    time_per_call(
        "pbft/order_64_requests_4_replicas",
        || (),
        |_| order_n(std::hint::black_box(64)),
    );
}
