//! Cluster-level tests for the PBFT black-box: safety under adversarial
//! message schedules, liveness through view changes, garbage collection,
//! and weighted-voting configurations.
//!
//! The harness here is a miniature deterministic "network": messages go
//! into a pool, a seeded RNG picks delivery order (and may delay), and
//! virtual time advances to the earliest armed timer when the pool runs
//! dry. This is exactly the kind of schedule randomization the DES-based
//! integration tests use at system level, but focused on one group.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spider_consensus::{Input, Msg, Output, Pbft, PbftConfig, TestPayload};
use spider_crypto::CostModel;
use spider_types::{SeqNr, SimTime};
use std::collections::BTreeMap;

type Delivered = Vec<(SeqNr, Vec<TestPayload>)>;

struct Cluster {
    replicas: Vec<Option<Pbft<TestPayload>>>,
    /// (from, to, msg, earliest delivery time)
    pool: Vec<(usize, usize, Msg<TestPayload>, SimTime)>,
    timers: Vec<BTreeMap<u64, SimTime>>,
    delivered: Vec<Delivered>,
    /// Directed cuts `(from, to, open, close)`: a message `from` sends to
    /// `to` while `open <= now < close` is lost.
    cuts: Vec<(usize, usize, SimTime, SimTime)>,
    now: SimTime,
    rng: SmallRng,
}

impl Cluster {
    fn new(cfg: PbftConfig, seed: u64) -> Self {
        let n = cfg.n();
        Cluster {
            replicas: (0..n).map(|i| Some(Pbft::new(cfg.clone(), i))).collect(),
            pool: Vec::new(),
            timers: vec![BTreeMap::new(); n],
            delivered: vec![Vec::new(); n],
            cuts: Vec::new(),
            now: SimTime::ZERO,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    fn crash(&mut self, i: usize) {
        self.replicas[i] = None;
    }

    /// Cuts replica `i` off from every other replica, both ways, over
    /// `[open, close)`.
    fn isolate(&mut self, i: usize, open: SimTime, close: SimTime) {
        for j in (0..self.replicas.len()).filter(|&j| j != i) {
            self.cuts.push((i, j, open, close));
            self.cuts.push((j, i, open, close));
        }
    }

    fn order_on(&mut self, i: usize, p: TestPayload) {
        let mut out = Vec::new();
        if let Some(r) = self.replicas[i].as_mut() {
            r.handle(self.now, Input::Order(p), &mut out);
        }
        self.absorb(i, out);
    }

    fn order_everywhere(&mut self, p: TestPayload) {
        for i in 0..self.replicas.len() {
            self.order_on(i, p);
        }
    }

    fn absorb(&mut self, from: usize, out: Vec<Output<TestPayload>>) {
        for o in out {
            match o {
                Output::Send { to, .. }
                    if self.cuts.iter().any(|&(f, t, open, close)| {
                        (f, t) == (from, to) && (open..close).contains(&self.now)
                    }) => {}
                Output::Send { to, msg } => {
                    // Random extra delay up to 5ms models reordering.
                    let delay = SimTime::from_micros(self.rng.gen_range(0..5_000));
                    self.pool.push((from, to, msg, self.now + delay));
                }
                Output::Deliver { seq, batch } => self.delivered[from].push((seq, batch.to_vec())),
                Output::SetTimer { token, delay } => {
                    self.timers[from].insert(token.0, self.now + delay);
                }
                Output::CancelTimer { token } => {
                    self.timers[from].remove(&token.0);
                }
                _ => {}
            }
        }
    }

    /// Runs until neither messages nor timers remain, or `max_steps` hit.
    fn run(&mut self, max_steps: usize) {
        for _ in 0..max_steps {
            if !self.step() {
                return;
            }
        }
        panic!("cluster did not quiesce within {max_steps} steps");
    }

    /// Steps every event due at or before `t`, then moves the clock to
    /// `t`; nothing later runs.
    fn run_to(&mut self, t: SimTime) {
        while self.next_at().is_some_and(|at| at <= t) {
            self.step();
        }
        self.now = self.now.max(t);
    }

    /// When the next message or timer of a live replica is due.
    fn next_at(&self) -> Option<SimTime> {
        let live = |i: usize| self.replicas[i].is_some();
        let msgs = self.pool.iter().filter(|m| live(m.1)).map(|m| m.3);
        let timers = self.timers.iter().enumerate().filter(|(i, _)| live(*i));
        msgs.chain(timers.flat_map(|(_, t)| t.values().copied())).min()
    }

    fn step(&mut self) -> bool {
        // Deliverable messages: those whose time has come.
        let ready: Vec<usize> = self
            .pool
            .iter()
            .enumerate()
            .filter(|(_, (_, to, _, at))| *at <= self.now && self.replicas[*to].is_some())
            .map(|(i, _)| i)
            .collect();
        if !ready.is_empty() {
            let pick = ready[self.rng.gen_range(0..ready.len())];
            let (from, to, msg, _) = self.pool.swap_remove(pick);
            let mut out = Vec::new();
            if let Some(r) = self.replicas[to].as_mut() {
                r.handle(self.now, Input::Message { from, msg }, &mut out);
            }
            self.absorb(to, out);
            return true;
        }
        // Nothing ready: advance time to the next message or timer.
        let next_msg = self
            .pool
            .iter()
            .filter(|(_, to, _, _)| self.replicas[*to].is_some())
            .map(|(_, _, _, at)| *at)
            .min();
        let next_timer = self
            .timers
            .iter()
            .enumerate()
            .filter(|(i, _)| self.replicas[*i].is_some())
            .flat_map(|(_, t)| t.values().copied())
            .min();
        match (next_msg, next_timer) {
            (None, None) => false,
            (Some(m), None) => {
                self.now = m;
                true
            }
            (msg_at, Some(t)) if msg_at.is_none() || t <= msg_at.unwrap() => {
                self.now = t;
                // Fire every due timer.
                for i in 0..self.timers.len() {
                    if self.replicas[i].is_none() {
                        continue;
                    }
                    let due: Vec<u64> = self.timers[i]
                        .iter()
                        .filter(|(_, at)| **at <= self.now)
                        .map(|(tok, _)| *tok)
                        .collect();
                    for tok in due {
                        self.timers[i].remove(&tok);
                        let mut out = Vec::new();
                        if let Some(r) = self.replicas[i].as_mut() {
                            r.handle(
                                self.now,
                                Input::Timer(spider_consensus::TimerToken(tok)),
                                &mut out,
                            );
                        }
                        self.absorb(i, out);
                    }
                }
                true
            }
            (Some(m), Some(_)) => {
                self.now = m;
                true
            }
            (None, Some(_)) => unreachable!("covered by the timer arm above"),
        }
    }

    /// Asserts A-Safety: all correct replicas delivered identical
    /// sequences (up to prefix).
    fn assert_prefix_consistent(&self) {
        let seqs: Vec<&Delivered> = self
            .replicas
            .iter()
            .zip(&self.delivered)
            .filter(|(r, _)| r.is_some())
            .map(|(_, d)| d)
            .collect();
        for w in seqs.windows(2) {
            let (a, b) = (w[0], w[1]);
            let common = a.len().min(b.len());
            assert_eq!(&a[..common], &b[..common], "A-Safety violated");
        }
    }
}

fn fast_cfg(f: usize) -> PbftConfig {
    PbftConfig::new(f)
        .with_cost(CostModel::zero())
        .with_view_change_timeout(SimTime::from_millis(100))
}

#[test]
fn hundred_requests_totally_ordered() {
    let mut c = Cluster::new(fast_cfg(1), 1);
    for k in 0..100 {
        c.order_everywhere(TestPayload(k));
    }
    c.run(2_000_000);
    c.assert_prefix_consistent();
    let total: usize = c.delivered[0].iter().map(|(_, b)| b.len()).sum();
    assert_eq!(total, 100, "all payloads delivered");
    // Exactly once.
    let mut seen = std::collections::BTreeSet::new();
    for (_, b) in &c.delivered[0] {
        for p in b {
            assert!(seen.insert(p.0), "payload {} delivered twice", p.0);
        }
    }
}

#[test]
fn f2_cluster_orders_with_two_crashed_followers() {
    let mut c = Cluster::new(fast_cfg(2), 2); // n = 7
    c.crash(5);
    c.crash(6);
    for k in 0..20 {
        c.order_everywhere(TestPayload(k));
    }
    c.run(2_000_000);
    c.assert_prefix_consistent();
    let total: usize = c.delivered[0].iter().map(|(_, b)| b.len()).sum();
    assert_eq!(total, 20);
}

#[test]
fn crashed_leader_is_replaced_and_requests_survive() {
    let mut c = Cluster::new(fast_cfg(1), 3);
    c.crash(0); // leader of view 0
    for k in 0..5 {
        c.order_everywhere(TestPayload(k));
    }
    c.run(2_000_000);
    c.assert_prefix_consistent();
    for (i, r) in c.replicas.iter().enumerate().skip(1) {
        let r = r.as_ref().unwrap();
        assert!(r.view().0 >= 1, "replica {i} left view 0");
    }
    let total: usize = c.delivered[1].iter().map(|(_, b)| b.len()).sum();
    assert_eq!(total, 5, "requests survive the view change");
}

#[test]
fn leader_crash_mid_stream_loses_nothing() {
    let mut c = Cluster::new(fast_cfg(1), 4);
    for k in 0..10 {
        c.order_everywhere(TestPayload(k));
    }
    c.run(2_000_000);
    c.crash(0);
    for k in 10..20 {
        c.order_everywhere(TestPayload(k));
    }
    c.run(2_000_000);
    c.assert_prefix_consistent();
    let all: Vec<u64> = c.delivered[1].iter().flat_map(|(_, b)| b).map(|p| p.0).collect();
    for k in 0..20 {
        assert!(all.contains(&k), "payload {k} lost across leader crash");
    }
}

#[test]
fn gc_mid_stream_keeps_replicas_aligned() {
    let mut c = Cluster::new(fast_cfg(1), 5);
    for k in 0..30 {
        c.order_everywhere(TestPayload(k));
    }
    c.run(2_000_000);
    let cut = c.delivered[0].last().unwrap().0.next();
    for r in c.replicas.iter_mut().flatten() {
        r.gc(cut);
    }
    for k in 30..60 {
        c.order_everywhere(TestPayload(k));
    }
    c.run(2_000_000);
    c.assert_prefix_consistent();
    let total: usize = c.delivered[0].iter().map(|(_, b)| b.len()).sum();
    assert_eq!(total, 60);
}

#[test]
fn weighted_cluster_tolerates_vmin_crash() {
    // BFT-WV shape: 5 replicas, weights [2,2,1,1,1], quorum 5. Crashing a
    // Vmin replica leaves weight 6 >= 5: progress must continue.
    let cfg = PbftConfig::weighted(1, 1, &[0, 1])
        .with_cost(CostModel::zero())
        .with_view_change_timeout(SimTime::from_millis(100));
    let mut c = Cluster::new(cfg, 6);
    c.crash(4);
    for k in 0..15 {
        c.order_everywhere(TestPayload(k));
    }
    c.run(2_000_000);
    c.assert_prefix_consistent();
    let total: usize = c.delivered[0].iter().map(|(_, b)| b.len()).sum();
    assert_eq!(total, 15);
}

#[test]
fn weighted_cluster_blocks_without_quorum_weight() {
    // Crashing both Vmax holders leaves weight 3 < 5: no progress, but
    // also no divergence.
    let cfg = PbftConfig::weighted(1, 1, &[0, 1])
        .with_cost(CostModel::zero())
        .with_view_change_timeout(SimTime::from_millis(100));
    let mut c = Cluster::new(cfg, 7);
    c.crash(0);
    c.crash(1);
    for k in 0..3 {
        c.order_everywhere(TestPayload(k));
    }
    // Bounded run: view changes will spin (weight 3 can never conclude
    // one), so cap steps rather than expecting quiescence.
    for _ in 0..50_000 {
        if !c.step() {
            break;
        }
        if c.now > SimTime::from_secs(30) {
            break;
        }
    }
    c.assert_prefix_consistent();
    for d in c.delivered.iter().skip(2) {
        assert!(d.is_empty(), "cannot commit below quorum weight");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A-Safety under arbitrary schedules: random seeds shuffle delivery
    /// order and inject up to 5ms reordering; replicas never diverge and
    /// every payload is delivered exactly once system-wide.
    #[test]
    fn safety_under_random_schedules(seed in 0u64..5_000, load in 1usize..40) {
        let mut c = Cluster::new(fast_cfg(1), seed);
        for k in 0..load {
            c.order_everywhere(TestPayload(k as u64));
        }
        c.run(4_000_000);
        c.assert_prefix_consistent();
        let total: usize = c.delivered[0].iter().map(|(_, b)| b.len()).sum();
        prop_assert_eq!(total, load);
    }

    /// Liveness + safety with one crashed replica chosen at random.
    #[test]
    fn safety_with_one_crash(seed in 0u64..5_000, victim in 0usize..4) {
        let mut c = Cluster::new(fast_cfg(1), seed);
        c.crash(victim);
        for k in 0..10u64 {
            c.order_everywhere(TestPayload(k));
        }
        c.run(4_000_000);
        c.assert_prefix_consistent();
        // The three survivors each delivered all 10.
        for (i, d) in c.delivered.iter().enumerate() {
            if i == victim { continue; }
            let total: usize = d.iter().map(|(_, b)| b.len()).sum();
            prop_assert_eq!(total, 10, "replica {} incomplete", i);
        }
    }
}

#[test]
fn cascading_leader_crashes_reach_the_third_leader() {
    // Leaders of views 0 and 1 both crash: the group must cascade into
    // view 2 and still deliver everything.
    let mut c = Cluster::new(fast_cfg(1), 8);
    c.crash(0);
    c.crash(1);
    // n = 4, f = 1: two crashes exceed f, but the two survivors can never
    // reach a 2f+1 quorum — so this *must not* make progress. Check that
    // instead (safety under over-failure).
    for k in 0..3 {
        c.order_everywhere(TestPayload(k));
    }
    for _ in 0..200_000 {
        if !c.step() {
            break;
        }
        if c.now > SimTime::from_secs(20) {
            break;
        }
    }
    c.assert_prefix_consistent();
    for d in c.delivered.iter() {
        assert!(d.is_empty(), "no quorum possible with 2 of 4 replicas");
    }

    // With f = 2 (n = 7), two leader crashes are tolerated: view >= 2 and
    // delivery completes.
    let mut c = Cluster::new(fast_cfg(2), 9);
    c.crash(0);
    c.crash(1);
    for k in 0..5 {
        c.order_everywhere(TestPayload(k));
    }
    c.run(4_000_000);
    c.assert_prefix_consistent();
    for (i, r) in c.replicas.iter().enumerate().skip(2) {
        let r = r.as_ref().unwrap();
        assert!(r.view().0 >= 2, "replica {i} should sit in view >= 2");
    }
    let total: usize = c.delivered[2].iter().map(|(_, b)| b.len()).sum();
    assert_eq!(total, 5, "requests survive cascading view changes");
}

/// A leader cut off while its group changes view misses the group's
/// `NewView`, and waits in a view change of its own, raising its target
/// with backoff. Once the cut heals, the new leader sees its `ViewChange`
/// for a later view and sends it the `NewView` again, so it joins view 1
/// within a round trip of its next `ViewChange`. It still delivers
/// nothing: it missed the instances decided during the cut, and `Cluster`
/// has no checkpoints, so nothing skips it past them; the requests it
/// watches stall, and it suspects view 1's leader in turn.
#[test]
fn a_leader_cut_off_during_a_view_change_learns_the_new_view_again() {
    let mut c = Cluster::new(fast_cfg(1), 1);
    for k in 0..5 {
        c.order_everywhere(TestPayload(k));
    }
    c.run_to(SimTime::from_millis(5));
    c.isolate(0, SimTime::from_millis(5), SimTime::from_millis(205));
    c.order_everywhere(TestPayload(5));
    c.run_to(SimTime::from_millis(305));
    for k in 6..10 {
        c.order_everywhere(TestPayload(k));
    }
    c.run_to(SimTime::from_millis(400));
    let r0 = c.replicas[0].as_ref().expect("replica 0 runs");
    assert_eq!((r0.view().0, r0.in_view_change()), (1, false), "the NewView reached replica 0");
    while c.now < SimTime::from_secs(60) && c.step() {}
    c.assert_prefix_consistent();
    let replicas = || c.replicas.iter().flatten();
    let views: Vec<u64> = replicas().map(|r| r.view().0).collect();
    let delivered: Vec<usize> =
        c.delivered.iter().map(|d| d.iter().map(|(_, b)| b.len()).sum()).collect();
    assert_eq!((views, delivered), (vec![1, 1, 1, 1], vec![0, 10, 10, 10]));
    let in_view_change: Vec<bool> = replicas().map(|r| r.in_view_change()).collect();
    assert_eq!(in_view_change, vec![true, false, false, false]);
}

/// A known fault, pinned: a backup cut off alone suspects the leader and
/// then stays in a view change of its own at view 0 for good. There is no
/// `NewView` to send it, since view 0 was never announced, and its
/// `ViewChange` never finds the f + 1 senders it needs. A replica that
/// asked for view 1 cannot simply go back to view 0; ending this needs a
/// design.
#[test]
fn a_backup_cut_off_alone_stays_in_its_view_change() {
    let mut c = Cluster::new(fast_cfg(1), 1);
    for k in 0..5 {
        c.order_everywhere(TestPayload(k));
    }
    c.run_to(SimTime::from_millis(5));
    c.isolate(2, SimTime::from_millis(5), SimTime::from_millis(405));
    c.order_everywhere(TestPayload(5));
    c.run_to(SimTime::from_millis(505));
    for k in 6..10 {
        c.order_everywhere(TestPayload(k));
    }
    while c.now < SimTime::from_secs(60) && c.step() {}
    c.assert_prefix_consistent();
    let replicas = || c.replicas.iter().flatten();
    let views: Vec<u64> = replicas().map(|r| r.view().0).collect();
    let delivered: Vec<usize> =
        c.delivered.iter().map(|d| d.iter().map(|(_, b)| b.len()).sum()).collect();
    assert_eq!((views, delivered), (vec![0, 0, 0, 0], vec![10, 10, 0, 10]));
    assert!(c.replicas[2].as_ref().is_some_and(|r| r.in_view_change()));
}

/// One generated leader isolation case: 5 payloads, then `rounds` times
/// the leader of the connected replicas' view cut off for 200 ms while
/// one more payload is ordered, then 4 more payloads and a run to 10 s.
/// Returns the replicas cut off, and why the case failed, if it did.
fn leader_isolation_case(
    seed: u64,
    f: usize,
    weighted: bool,
    rounds: usize,
) -> (Vec<usize>, Result<(), String>) {
    let cfg = if weighted {
        PbftConfig::weighted(f, f, &(0..2 * f).collect::<Vec<_>>())
            .with_cost(CostModel::zero())
            .with_view_change_timeout(SimTime::from_millis(100))
    } else {
        fast_cfg(f)
    };
    let n = cfg.n();
    let mut c = Cluster::new(cfg.clone(), seed);
    for k in 0..5 {
        c.order_everywhere(TestPayload(k));
    }
    c.run_to(SimTime::from_millis(5));
    let mut cut = Vec::new();
    for round in 0..rounds as u64 {
        let connected = (0..n).find(|i| !cut.contains(i)).expect("a replica stays connected");
        let view = c.replicas[connected].as_ref().expect("no replica crashes").view().0;
        let leader = cfg.leader_of(view);
        cut.push(leader);
        let open = c.now;
        c.isolate(leader, open, open + SimTime::from_millis(200));
        c.order_everywhere(TestPayload(5 + round));
        c.run_to(open + SimTime::from_millis(300));
    }
    for k in 0..4 {
        c.order_everywhere(TestPayload(5 + rounds as u64 + k));
    }
    while c.now < SimTime::from_secs(10) && c.step() {}
    c.assert_prefix_consistent();
    let views: Vec<u64> = c.replicas.iter().flatten().map(|r| r.view().0).collect();
    let delivered: Vec<usize> =
        c.delivered.iter().map(|d| d.iter().map(|(_, b)| b.len()).sum()).collect();
    let total = 5 + rounds + 4;
    let verdict = if (0..n).any(|i| !cut.contains(&i) && delivered[i] != total) {
        Err(format!("a connected replica missed payloads: deliveries {delivered:?}"))
    } else if views.windows(2).any(|w| w[0] != w[1]) {
        Err(format!("views differ: {views:?}, deliveries {delivered:?}"))
    } else if views[0] > rounds as u64 + 1 {
        Err(format!("view {} after {rounds} isolations", views[0]))
    } else {
        Ok(())
    };
    (cut, verdict)
}

/// Generated leader isolations: seeds × f ∈ {1, 2} × classic and
/// weighted groups × 1..=f rounds. A cut-off leader never catches up on
/// what it missed (`Cluster` has no checkpoints), so it counts against f
/// and the rounds stay at most f.
#[test]
fn generated_leader_isolations_end_in_one_view() {
    let mut cases = 0;
    let mut failures = Vec::new();
    for seed in 0..250 {
        for f in [1, 2] {
            for weighted in [false, true] {
                for rounds in 1..=f {
                    cases += 1;
                    let (cut, verdict) = leader_isolation_case(seed, f, weighted, rounds);
                    if let Err(why) = verdict {
                        failures.push(format!(
                            "seed {seed}, f {f}, weighted {weighted}, cut {cut:?}: {why}"
                        ));
                    }
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {cases} cases failed, first: {}",
        failures.len(),
        failures[..failures.len().min(5)].join("; ")
    );
}
