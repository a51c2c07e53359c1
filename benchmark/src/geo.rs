//! The geo workloads: a full Spider deployment on the EC2 topology
//! (agreement in Virginia, one execution group per region, `KvStore`),
//! closed-loop clients with a finite op budget, an optional scripted
//! fault, and an always-on correctness oracle.
//!
//! One [`Pass`] is one complete simulation from the seed: `setup` (build
//! the deployment and clients, simulate the warm-up), the timed section
//! (simulate the goodput window) and the drain (simulate until every
//! client has finished). A simulation cannot be rewound, so every repeat
//! of a run is a fresh pass from the same seed and must reproduce the same
//! [`Modelled`] numbers and digest.

use crate::host::{self, SpeedClock, Timing};
use crate::model::{Modelled, Pass};
use crate::spans::Spans;
use crate::stats;
use spider::agreement::AgreementReplica;
use spider::client::OpFactory;
use spider::execution::ExecutionReplica;
use spider::{
    Deployment, DeploymentBuilder, Sample, SpiderClient, SpiderConfig, SpiderMsg, WorkloadSpec,
};
use spider_app::{KvOp, KvStore};
use spider_harness::stats::{longest_unavailability, mean_goodput, recovery_time};
use spider_harness::{ec2_topology, REGIONS4};
use spider_sim::{FaultPlan, Simulation};
use spider_types::{ClientId, GroupId, NodeId, OpKind, SimTime};
use std::sync::{Arc, Mutex};

/// The scripted fault of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// No fault plan.
    None,
    /// Virginia + Ireland severed from Oregon + Tokyo over `[from, until)`.
    WanPartition { from: SimTime, until: SimTime },
    /// `acts` leader isolations from `from`, `gap` apart, `hold` long each.
    LeaderStorm { from: SimTime, acts: usize, gap: SimTime, hold: SimTime },
    /// The last replica of every group (agreement and execution) isolated.
    BackupOutage { from: SimTime, until: SimTime },
    /// Every Virginia–Tokyo link drops `drop_rate` of its messages and
    /// delays the rest by `extra_delay`.
    WanDegrade { from: SimTime, until: SimTime, drop_rate: f64, extra_delay: SimTime },
}

/// The ungated rate ladder a traced run of a workload adds: the same
/// deployment at `clients_per_region`, `measured` simulated seconds per
/// rung after one second of warm-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ladder {
    pub clients_per_region: usize,
    pub measured: SimTime,
}

/// Parameters of one geo workload. The seed is not part of the spec: it
/// comes from the command line and is the simulation's only randomness.
#[derive(Debug, Clone)]
pub struct GeoSpec {
    pub clients_per_region: usize,
    /// Mean requests/second per client (exponential think time).
    pub rate: f64,
    pub write_fraction: f64,
    pub strong_read_fraction: f64,
    pub payload: usize,
    /// Ops per client (`WorkloadSpec::with_max_ops`); the run continues
    /// until all are done, so the number of attempted ops is exact.
    pub budget: u64,
    /// End of set-up: latency samples count from here on.
    pub warmup: SimTime,
    /// Goodput is counted over `[warmup, goodput_end)`.
    pub goodput_end: SimTime,
    /// Simulated deadline; an op not complete by then has failed.
    pub deadline: SimTime,
    /// The disaster suite's tight flow-control windows (stalls show within
    /// seconds instead of minutes).
    pub tight_windows: bool,
    pub fault: Fault,
    pub ladder: Option<Ladder>,
}

impl GeoSpec {
    fn spider_config(&self, traced: bool) -> SpiderConfig {
        let base = SpiderConfig { tracing: traced, ..SpiderConfig::default() };
        if !self.tight_windows {
            return base;
        }
        SpiderConfig {
            ke: 8,
            ka: 8,
            ag_win: 16,
            commit_capacity: 16,
            z: 0,
            view_change_timeout: SimTime::from_millis(400),
            ..base
        }
    }

    /// `[start, end)` of the scripted fault: from the first cut to the last
    /// rejoin.
    pub fn fault_window(&self) -> Option<(SimTime, SimTime)> {
        match self.fault {
            Fault::None => None,
            Fault::WanPartition { from, until }
            | Fault::BackupOutage { from, until }
            | Fault::WanDegrade { from, until, .. } => Some((from, until)),
            Fault::LeaderStorm { from, acts, gap, hold } => {
                let last_act = SimTime::from_nanos(gap.as_nanos() * acts.saturating_sub(1) as u64);
                Some((from, from + last_act + hold))
            }
        }
    }

    /// `[start, end]` of the interval `core.stall_ms` is measured over: the
    /// fault plus ten seconds of recovery, or the goodput window when the
    /// workload has no fault.
    pub fn stall_window(&self) -> (SimTime, SimTime) {
        match self.fault_window() {
            None => (self.warmup, self.goodput_end),
            Some((from, until)) => (from, until + SimTime::from_secs(10)),
        }
    }
}

/// Every op the clients generated, by client, in issue order — recorded by
/// the op factory itself so the oracle knows exactly what was attempted.
type Issued = Arc<Mutex<Vec<Vec<(u64, OpKind)>>>>;

fn key_of(client: usize, seq: u64) -> String {
    format!("c{client:04}-{seq:08}")
}

/// Factory writing globally unique keys `c{client}-{seq}`, so lost and
/// duplicated writes can be counted exactly instead of assumed absent.
fn recording_factory(client: usize, issued: Issued) -> OpFactory {
    Arc::new(move |seq, kind, payload| {
        issued.lock().expect("single-threaded")[client].push((seq, kind));
        let key = key_of(client, seq);
        match kind {
            OpKind::Write => {
                KvOp::sized_put(key.as_bytes(), payload.max(key.len() + 16), b'x').encode()
            }
            _ => KvOp::get(key.as_bytes()).encode(),
        }
    })
}

struct Built {
    sim: Simulation<SpiderMsg>,
    dep: Deployment,
    issued: Issued,
}

fn build(spec: &GeoSpec, seed: u64, traced: bool, spans: &mut Spans) -> Built {
    let s = spans.enter("sim.new");
    let mut sim = Simulation::new(ec2_topology(), seed);
    spans.exit(s);

    let s = spans.enter("core.deploy");
    let mut builder = DeploymentBuilder::new(spec.spider_config(traced))
        .with_app(KvStore::new)
        .agreement_region("virginia");
    for region in REGIONS4 {
        builder = builder.execution_group(region);
    }
    let mut dep = builder.build(&mut sim);
    if let Some(plan) = fault_plan(spec, &dep) {
        sim.install_fault_plan(plan);
    }
    spans.exit(s);

    let s = spans.enter("core.spawn_clients");
    let n_clients = REGIONS4.len() * spec.clients_per_region;
    let issued: Issued = Arc::new(Mutex::new(vec![Vec::new(); n_clients]));
    for gi in 0..REGIONS4.len() {
        for _ in 0..spec.clients_per_region {
            // The factory's client index is the spawn position, which is
            // this client's position in `dep.clients`.
            let ci = dep.clients.len();
            let workload = WorkloadSpec {
                write_fraction: spec.write_fraction,
                strong_read_fraction: spec.strong_read_fraction,
                ..WorkloadSpec::writes_per_sec(spec.rate, spec.payload)
            }
            .with_max_ops(spec.budget)
            .with_op_factory(recording_factory(ci, issued.clone()));
            dep.spawn_clients(&mut sim, gi, 1, workload);
        }
    }
    spans.exit(s);
    Built { sim, dep, issued }
}

fn fault_plan(spec: &GeoSpec, dep: &Deployment) -> Option<FaultPlan> {
    match spec.fault {
        Fault::None => None,
        Fault::WanPartition { from, until } => Some(FaultPlan::new().wan_partition(
            &["virginia", "ireland"],
            &["oregon", "tokyo"],
            from,
            until,
        )),
        Fault::WanDegrade { from, until, drop_rate, extra_delay } => Some(
            FaultPlan::new().link_degrade("virginia", "tokyo", drop_rate, extra_delay, from, until),
        ),
        Fault::BackupOutage { from, until } => {
            let groups = dep.groups.iter().map(|(_, _, nodes)| nodes);
            let backups = std::iter::once(&dep.agreement).chain(groups).filter_map(|g| g.last());
            Some(backups.fold(FaultPlan::new(), |plan, &n| plan.isolate_replica(n, from, until)))
        }
        Fault::LeaderStorm { from, acts, gap, hold } => {
            let n = dep.agreement.len();
            let mut plan = FaultPlan::new();
            for act in 0..acts {
                let start = from + SimTime::from_nanos(gap.as_nanos() * act as u64);
                plan = plan.isolate_replica(dep.agreement[act % n], start, start + hold);
            }
            Some(plan)
        }
    }
}

/// Simulates to `until` one simulated second at a time: one span per
/// second carrying the events processed as its count, each second timed
/// on the speed-corrected stopwatch. Traced and untraced runs step
/// identically, so stepping cannot make them differ.
fn run_stepped(
    sim: &mut Simulation<SpiderMsg>,
    until: SimTime,
    spans: &mut Spans,
    clock: &mut SpeedClock,
) -> (u64, Timing) {
    let mut events = 0;
    let mut total = Timing::default();
    while sim.now() < until {
        let next = (sim.now() + SimTime::from_secs(1)).min(until);
        let s = spans.enter("sim.run_until");
        let (n, timing) = clock.time(|| sim.run_until(next));
        spans.exit_counted(s, n);
        events += n;
        total += timing;
    }
    (events, total)
}

/// Runs one pass: set-up (build, simulate the warm-up), the timed section
/// (simulate the goodput window `[warmup, goodput_end)` — a fixed piece of
/// simulated time, so that its host cost does not depend on when the last
/// client happens to finish), then the untimed drain until every client
/// is done. Allocations are counted around the timed section only.
pub fn run_pass(spec: &GeoSpec, seed: u64, traced: bool, spans: &mut Spans) -> Pass {
    let mut clock = SpeedClock::start();
    let s_setup = spans.enter("setup");
    let (Built { mut sim, dep, issued }, mut setup) =
        clock.time(|| build(spec, seed, traced, spans));
    let s = spans.enter("warmup");
    let (warm_events, warmup) = run_stepped(&mut sim, spec.warmup, spans, &mut clock);
    setup += warmup;
    spans.exit_counted(s, warm_events);
    spans.exit(s_setup);

    let (a0, b0) = host::alloc_counts();
    let s_timed = spans.enter("timed");
    let (timed_events, wall) = run_stepped(&mut sim, spec.goodput_end, spans, &mut clock);
    spans.exit_counted(s_timed, timed_events);
    let (a1, b1) = host::alloc_counts();

    let s_drain = spans.enter("drain");
    let mut drain_events = 0;
    while sim.now() < spec.deadline && !finished(spec, &sim, &dep) {
        let next = (sim.now() + SimTime::from_secs(1)).min(spec.deadline);
        drain_events += run_stepped(&mut sim, next, spans, &mut clock).0;
    }
    spans.exit_counted(s_drain, drain_events);

    let s_collect = spans.enter("collect");
    let modelled = collect(spec, &sim, &dep, &issued, timed_events, spans);
    spans.exit(s_collect);
    let obs = traced.then(|| {
        let s = spans.enter("obs.report");
        let report = sim.obs().report();
        spans.exit(s);
        report
    });
    Pass { modelled, setup, wall, allocs: a1 - a0, alloc_bytes: b1 - b0, obs }
}

/// `(group index, node, last applied sequence number)` of every execution
/// replica.
fn replica_seqs(sim: &Simulation<SpiderMsg>, dep: &Deployment) -> Vec<(usize, NodeId, u64)> {
    dep.groups
        .iter()
        .enumerate()
        .flat_map(|(gi, (_, _, nodes))| nodes.iter().map(move |&n| (gi, n)))
        .map(|(gi, n)| (gi, n, sim.actor::<ExecutionReplica<KvStore>>(n).sequence().0))
        .collect()
}

/// How many replicas a group is short of `fe + 1` at sequence number
/// `seq`, summed over the groups: 0 means every group can still answer
/// its clients from current state.
fn short_of_quorum(seqs: &[(usize, NodeId, u64)], seq: u64, dep: &Deployment) -> u64 {
    (0..dep.groups.len())
        .map(|gi| {
            let current = seqs.iter().filter(|(g, _, s)| *g == gi && *s == seq).count();
            (dep.cfg.fe + 1).saturating_sub(current) as u64
        })
        .sum()
}

/// Whether the run is over: every client has completed its budget and in
/// every group `fe + 1` replicas have applied the last sequence number. A
/// replica that fell behind catches up at the next checkpoint, and with
/// the clients done there may be none — up to `fe` such replicas per group
/// are what the fault model allows, so the run does not wait for them. The
/// deployment's periodic timers never let the event queue drain, so the
/// run cannot wait for quiescence either; this is checked once per
/// simulated second, which keeps the stopping point a function of the
/// seed alone.
fn finished(spec: &GeoSpec, sim: &Simulation<SpiderMsg>, dep: &Deployment) -> bool {
    let clients_done = dep
        .clients
        .iter()
        .all(|(_, _, node)| sim.actor::<SpiderClient>(*node).samples.len() as u64 >= spec.budget);
    if !clients_done {
        return false;
    }
    let seqs = replica_seqs(sim, dep);
    let last = seqs.iter().map(|r| r.2).max().unwrap_or(0);
    short_of_quorum(&seqs, last, dep) == 0
}

fn kind_index(kind: OpKind) -> usize {
    match kind {
        OpKind::Write => 0,
        OpKind::StrongRead => 1,
        OpKind::WeakRead => 2,
    }
}

/// What the oracle counted when a pass stopped.
struct Verdict {
    attempted: u64,
    completed: u64,
    lost: u64,
    duplicated: u64,
    diverged: u64,
    lagging: u64,
}

/// Checks every generated op against the replicas' stores.
///
/// The reference is the first replica that has applied the last sequence
/// number. Replicas at that number must hold the same state; replicas
/// behind it are lagging, which the fault model allows for up to `fe` per
/// group — a group short of `fe + 1` current replicas counts as diverged
/// by as many as it is short.
fn oracle(
    sim: &Simulation<SpiderMsg>,
    dep: &Deployment,
    per_client: &[(ClientId, GroupId, Vec<Sample>)],
    issued: &[Vec<(u64, OpKind)>],
) -> Verdict {
    let seqs = replica_seqs(sim, dep);
    let last = seqs.iter().map(|r| r.2).max().unwrap_or(0);
    let app = |n: NodeId| sim.actor::<ExecutionReplica<KvStore>>(n).app();
    let &(ref_group, ref_node, _) =
        seqs.iter().find(|r| r.2 == last).expect("a deployment has execution replicas");
    let store = app(ref_node);
    let mut completed = 0u64;
    let mut lost = 0u64;
    for (ci, (_, _, samples)) in per_client.iter().enumerate() {
        completed += samples.len() as u64;
        // A client has one request outstanding and finishes it before the
        // next, so its completed writes are the first ones it generated.
        let done_writes = samples.iter().filter(|s| s.kind == OpKind::Write).count();
        let writes = issued[ci].iter().filter(|(_, k)| *k == OpKind::Write);
        for (seq, _) in writes.take(done_writes) {
            if store.get(key_of(ci, *seq).as_bytes()).is_none() {
                lost += 1;
            }
        }
    }
    // The store counts every ordered op it executed: one per key written,
    // plus the strong reads of its own group's clients (a strong read is
    // ordered everywhere but executed only at the client's group).
    let local_strong_reads = per_client
        .iter()
        .filter(|(_, group, _)| *group == dep.groups[ref_group].0)
        .flat_map(|(_, _, samples)| samples.iter())
        .filter(|s| s.kind == OpKind::StrongRead)
        .count() as u64;
    let reference = store.map_digest();
    let disagreeing =
        seqs.iter().filter(|r| r.2 == last && app(r.1).map_digest() != reference).count() as u64;
    Verdict {
        attempted: issued.iter().map(|ops| ops.len() as u64).sum(),
        completed,
        lost,
        duplicated: store.ops_applied.saturating_sub(store.len() as u64 + local_strong_reads),
        diverged: disagreeing + short_of_quorum(&seqs, last, dep),
        lagging: seqs.iter().filter(|r| r.2 < last).count() as u64,
    }
}

fn latency_of<'a>(samples: impl Iterator<Item = &'a Sample>) -> stats::Latency {
    stats::Latency::of(samples.map(|s| s.latency().as_millis_f64()).collect())
}

fn collect(
    spec: &GeoSpec,
    sim: &Simulation<SpiderMsg>,
    dep: &Deployment,
    issued: &Issued,
    timed_events: u64,
    spans: &mut Spans,
) -> Modelled {
    let s = spans.enter("core.collect_samples");
    let per_client = dep.collect_samples(sim);
    spans.exit(s);

    let s = spans.enter("oracle.check");
    let verdict = oracle(sim, dep, &per_client, &issued.lock().expect("single-threaded"));
    spans.exit(s);

    // Digest over every sample of every client plus the simulator totals.
    let mut digest = stats::Fnv::new();
    for (ci, (_, _, samples)) in per_client.iter().enumerate() {
        for s in samples {
            digest.u64(ci as u64);
            digest.u64(kind_index(s.kind) as u64);
            digest.u64(s.issued.as_nanos());
            digest.u64(s.completed.as_nanos());
        }
    }
    let st = sim.stats();
    let wan_bytes = st.total_wan_sent();
    let lan_bytes = st.total_lan_sent();
    // Clients are added last, so the highest client node bounds all ids.
    let n_nodes = dep.clients.iter().map(|c| c.2 .0).max().map_or(0, |m| m + 1);
    let msgs: u64 = (0..n_nodes).map(|n| st.net(NodeId(n)).messages_sent).sum();
    for v in [st.total_events, st.dropped_messages, wan_bytes, lan_bytes, msgs] {
        digest.u64(v);
    }

    let busy = |nodes: &[NodeId]| -> u64 { nodes.iter().map(|&n| st.cpu(n).busy.as_nanos()).sum() };
    let execution: Vec<NodeId> = dep.groups.iter().flat_map(|g| g.2.iter().copied()).collect();
    let clients: Vec<NodeId> = dep.clients.iter().map(|c| c.2).collect();
    let end = sim.now();

    let all: Vec<Sample> = per_client.iter().flat_map(|(_, _, s)| s.iter().copied()).collect();
    let measured = || all.iter().filter(|s| s.issued >= spec.warmup);
    let by_kind = [OpKind::Write, OpKind::StrongRead, OpKind::WeakRead]
        .map(|kind| latency_of(measured().filter(|s| s.kind == kind)));
    let mut region_p50_ms = [0.0; 4];
    for (gi, slot) in region_p50_ms.iter_mut().enumerate() {
        let group = dep.groups[gi].0;
        let writes = per_client
            .iter()
            .filter(|(_, g, _)| *g == group)
            .flat_map(|(_, _, s)| s.iter())
            .filter(|s| s.issued >= spec.warmup && s.kind == OpKind::Write);
        *slot = latency_of(writes).p50_ms;
    }

    let (stall_from, stall_to) = spec.stall_window();
    let recovery_ms = spec.fault_window().map_or(0.0, |(_, heal)| {
        let horizon = SimTime::from_secs(15);
        let reference_rps = mean_goodput(&all, spec.warmup, stall_from);
        let bucket = SimTime::from_millis(500);
        // Never recovering inside the horizon reads as the horizon.
        recovery_time(&all, heal, reference_rps, 0.9, bucket, heal + horizon)
            .unwrap_or(horizon)
            .as_millis_f64()
    });
    let goodput = mean_goodput(&all, spec.warmup, spec.goodput_end);
    let timed_sim_s = (spec.goodput_end - spec.warmup).as_secs_f64();

    Modelled {
        digest: digest.finish(),
        attempted: verdict.attempted,
        completed: verdict.completed,
        timed_ops: (goodput * timed_sim_s).round() as u64,
        lost: verdict.lost,
        duplicated: verdict.duplicated,
        diverged: verdict.diverged,
        lagging: verdict.lagging,
        goodput,
        latency: latency_of(measured()),
        stall_ms: longest_unavailability(&all, stall_from, stall_to).as_millis_f64(),
        recovery_ms,
        final_view: dep
            .agreement
            .iter()
            .map(|&n| sim.actor::<AgreementReplica>(n).view().0)
            .max()
            .unwrap_or(0),
        events: st.total_events,
        timed_events,
        timed_sim_s,
        msgs,
        dropped_msgs: st.dropped_messages,
        wan_bytes,
        lan_bytes,
        busy_ns: [busy(&dep.agreement), busy(&execution), busy(&clients)],
        agreement_util_max: dep
            .agreement
            .iter()
            .map(|&n| st.cpu(n).utilization(end))
            .fold(0.0f64, f64::max),
        end_ms: end.as_millis_f64(),
        kind_p50_ms: by_kind.map(|l| l.p50_ms),
        kind_p99_ms: by_kind.map(|l| l.p99_ms),
        region_p50_ms,
        ..Modelled::default()
    }
}
