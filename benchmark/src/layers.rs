//! Direct drives: each layer's public functions called in timed loops on
//! the host clock, no simulator in between (except for `sim` itself).
//! Every number is the median over [`BATCHES`] batches.

use crate::host::{self, SpeedClock};
use crate::spans::Spans;
use crate::stats::median;
use spider_consensus::{Input, Msg, Output, Pbft, PbftConfig, TestPayload};
use spider_crypto::hmac::hmac_sha256;
use spider_crypto::sha256::Sha256;
use spider_crypto::{merkle_root, CostModel, Digest, KeyId, Keyring};
use spider_obs::{ObsConfig, Recorder, PHASE_REQUEST};
use spider_sim::{Actor, Context, Simulation, Topology};
use spider_types::{NodeId, SimTime, WireSize};
use std::collections::VecDeque;
use std::hint::black_box;

/// Batches per measurement; the median batch is reported.
pub const BATCHES: usize = 11;

/// Median nanoseconds per call of `f` over [`BATCHES`] batches of `iters`,
/// on the speed-corrected stopwatch like every other host time.
fn ns_per_call(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut clock = SpeedClock::start();
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let ((), timing) = clock.time(|| {
                for _ in 0..iters {
                    f();
                }
            });
            timing.scaled_s * 1e9 / f64::from(iters)
        })
        .collect();
    median(&per_batch)
}

/// `(metric name, value)` rows of one layer.
pub type Rows = Vec<(&'static str, f64)>;

pub fn crypto(spans: &mut Spans) -> Rows {
    let s = spans.enter("layer.crypto");
    let big = vec![0xabu8; 16 * 1024];
    let kib = vec![0xabu8; 1024];
    let small = [0xabu8; 64];
    let sha_16k = ns_per_call(64, || {
        black_box(Sha256::digest(black_box(&big)));
    });
    let sha_64 = ns_per_call(4096, || {
        black_box(Sha256::digest(black_box(&small)));
    });
    let sha_1k = ns_per_call(1024, || {
        black_box(Sha256::digest(black_box(&kib)));
    });
    let hmac_64 = ns_per_call(2048, || {
        black_box(hmac_sha256(b"benchmark-key", black_box(&small)));
    });
    let hmac_1k = ns_per_call(512, || {
        black_box(hmac_sha256(b"benchmark-key", black_box(&kib)));
    });
    let leaves: Vec<Digest> = (0..32u64).map(|i| Digest::builder().u64(i).finish()).collect();
    let merkle = ns_per_call(256, || {
        black_box(merkle_root(black_box(&leaves)));
    });
    let ring = Keyring::new(1);
    let d = Digest::of_bytes(b"content");
    let sig = ring.sign(KeyId(1), &d);
    let sign = ns_per_call(2048, || {
        black_box(ring.sign(KeyId(1), black_box(&d)));
    });
    let verify = ns_per_call(2048, || {
        black_box(ring.verify(KeyId(1), black_box(&d), &sig));
    });
    let cost = CostModel::default();
    spans.exit(s);
    vec![
        ("crypto.sha256_mb_per_s", big.len() as f64 / sha_16k * 1e3),
        ("crypto.sha256_64b_ns", sha_64),
        ("crypto.hmac_64b_ns", hmac_64),
        ("crypto.merkle_root32_ns", merkle),
        ("crypto.sign_ns", sign),
        ("crypto.verify_ns", verify),
        ("crypto.model_ratio_hash", sha_1k / cost.hash(1024).as_nanos() as f64),
        ("crypto.model_ratio_hmac", hmac_1k / cost.hmac(1024).as_nanos() as f64),
    ]
}

#[derive(Clone)]
struct Ping(u32);

impl WireSize for Ping {
    fn wire_size(&self) -> usize {
        64
    }
}

struct Echo;

impl Actor<Ping> for Echo {
    fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: NodeId, msg: Ping) {
        if msg.0 > 0 {
            ctx.send(from, Ping(msg.0 - 1));
        }
    }
}

/// Host nanoseconds per event of a simulation that does nothing else: two
/// actors in one zone bounce a message `EVENTS` times.
pub fn sim(spans: &mut Spans) -> Rows {
    const EVENTS: u32 = 50_000;
    let s = spans.enter("layer.sim");
    let mut clock = SpeedClock::start();
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let topology = Topology::builder().region("a", 1).build();
            let mut sim = Simulation::new(topology, 1);
            let zone = sim.topology().zone("a", 0);
            let a = sim.add_node(zone, Echo);
            let b = sim.add_node(zone, Echo);
            sim.post(SimTime::ZERO, a, b, Ping(EVENTS));
            let (n, timing) = clock.time(|| sim.run_until_quiescent(SimTime::from_secs(3600)));
            timing.scaled_s * 1e9 / n.max(1) as f64
        })
        .collect();
    spans.exit_counted(s, EVENTS as u64 * BATCHES as u64);
    vec![("sim.empty_event_ns", median(&per_batch))]
}

struct Ordered {
    delivered: u64,
    msgs: u64,
}

/// Orders `rounds × per_round` payloads through a fresh 4-replica
/// in-memory cluster with a zero cost model (as `micro_consensus.rs`):
/// each round hands `per_round` payloads to every replica, then delivers
/// all messages until none is left.
fn order(cfg: &PbftConfig, rounds: u64, per_round: u64) -> Ordered {
    let mut replicas: Vec<Pbft<TestPayload>> = (0..4).map(|i| Pbft::new(cfg.clone(), i)).collect();
    let mut inbox: VecDeque<(usize, usize, Msg<TestPayload>)> = VecDeque::new();
    let mut done = Ordered { delivered: 0, msgs: 0 };
    let mut out = Vec::new();
    for round in 0..rounds {
        for k in 0..per_round {
            for (i, replica) in replicas.iter_mut().enumerate() {
                let payload = TestPayload(round * per_round + k);
                replica.handle(SimTime::ZERO, Input::Order(payload), &mut out);
                for o in out.drain(..) {
                    if let Output::Send { to, msg } = o {
                        inbox.push_back((i, to, msg));
                    }
                }
            }
        }
        while let Some((from, to, msg)) = inbox.pop_front() {
            done.msgs += 1;
            replicas[to].handle(SimTime::ZERO, Input::Message { from, msg }, &mut out);
            for o in out.drain(..) {
                match o {
                    Output::Send { to: t, msg } => inbox.push_back((to, t, msg)),
                    // Count one replica's deliveries: all four deliver the same.
                    Output::Deliver { batch, .. } if to == 0 => {
                        done.delivered += batch.len() as u64
                    }
                    _ => {}
                }
            }
        }
    }
    done
}

pub fn consensus(spans: &mut Spans) -> Rows {
    const REQS: u64 = 128;
    let s = spans.enter("layer.consensus");
    let b1 = PbftConfig::new(1).with_cost(CostModel::zero()).with_max_batch(1);
    // A linger lets the leader fill the batch; the 64th payload cuts it.
    let b64 = PbftConfig::new(1)
        .with_cost(CostModel::zero())
        .with_max_batch(64)
        .with_batch_delay(SimTime::from_millis(1));
    let ns_b1 = ns_per_call(1, || {
        black_box(order(&b1, REQS, 1).delivered);
    }) / REQS as f64;
    let ns_b64 = ns_per_call(1, || {
        black_box(order(&b64, REQS / 64, 64).delivered);
    }) / REQS as f64;
    let (a0, _) = host::alloc_counts();
    let ordered = order(&b64, REQS / 64, 64);
    let (a1, _) = host::alloc_counts();
    let reqs = ordered.delivered.max(1) as f64;
    spans.exit_counted(s, ordered.delivered);
    vec![
        ("consensus.host_ns_per_req.b1", ns_b1),
        ("consensus.host_ns_per_req.b64", ns_b64),
        ("consensus.msgs_per_req.b64", ordered.msgs as f64 / reqs),
        ("consensus.allocs_per_req.b64", (a1 - a0) as f64 / reqs),
    ]
}

/// Cost of one span enter + exit on an enabled and on a disabled recorder.
pub fn obs(spans: &mut Spans) -> Rows {
    let s = spans.enter("layer.obs");
    let node = NodeId(0);
    let drive = |rec: &mut Recorder| {
        rec.ensure_node(node);
        let mut req = 0u64;
        ns_per_call(20_000, || {
            req += 1;
            let at = SimTime::from_nanos(req);
            rec.span_enter(at, node, req, PHASE_REQUEST);
            rec.span_exit(at, node, req, PHASE_REQUEST);
            black_box(&*rec);
        })
    };
    let on = drive(&mut Recorder::enabled(ObsConfig::default()));
    let off = drive(&mut Recorder::disabled());
    spans.exit(s);
    vec![("obs.record_ns", on), ("obs.record_off_ns", off)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consensus_drive_orders_every_request_in_full_batches() {
        let cfg = PbftConfig::new(1)
            .with_cost(CostModel::zero())
            .with_max_batch(64)
            .with_batch_delay(SimTime::from_millis(1));
        let ordered = order(&cfg, 2, 64);
        assert_eq!(ordered.delivered, 128);
        // Two instances of pre-prepare + prepare + commit among four
        // replicas: far fewer messages than one instance per request.
        assert!(ordered.msgs < 128, "batched: {} msgs", ordered.msgs);
        let single = order(&cfg_b1(), 16, 1);
        assert_eq!(single.delivered, 16);
    }

    fn cfg_b1() -> PbftConfig {
        PbftConfig::new(1).with_cost(CostModel::zero()).with_max_batch(1)
    }
}
