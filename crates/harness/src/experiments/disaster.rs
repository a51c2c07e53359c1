//! Disaster suite: scripted multi-region fault scenarios over a
//! [`FaultPlan`], with availability metrics and placement frontiers.
//!
//! The paper argues (§3.4–§3.5) that Spider stays safe under arbitrary
//! WAN disasters and recovers through its own catch-up paths — commit
//! channels stall, back-pressure propagates, checkpoints repair lagging
//! replicas after the network heals. This module turns that argument
//! into four measured scenarios:
//!
//! 1. **Correlated outage** — two regions go dark at once while clients
//!    keep writing; with `z` skippable groups the survivors keep
//!    committing at local speed.
//! 2. **WAN partition** — the agreement group is severed from half the
//!    execution groups at `z = 0`: commit windows fill, back-pressure
//!    stalls *everyone*, and after the heal the backlog drains with zero
//!    lost and zero duplicated operations.
//! 3. **View-change storm** — repeated leader isolation at sub-timeout
//!    intervals forces back-to-back view changes under load.
//! 4. **Placement sweep** — varies which region hosts agreement and
//!    whether execution-group backups spread into neighbor regions,
//!    reporting an availability/latency frontier.
//!
//! Every client writes globally unique keys, so post-run accounting can
//! *prove* zero lost and zero duplicated operations instead of assuming
//! them: a lost op is a completed write whose key is missing from the
//! store; a duplicated op shows up as `ops_applied > distinct keys`.

use crate::stats::{longest_unavailability, mean_goodput, recovery_time, LatencySummary};
use crate::topology::{ec2_topology, NEIGHBORS4, REGIONS4};
use spider::agreement::AgreementReplica;
use spider::client::OpFactory;
use spider::execution::ExecutionReplica;
use spider::{Deployment, DeploymentBuilder, Sample, SpiderConfig, SpiderMsg, WorkloadSpec};
use spider_app::{KvOp, KvStore};
use spider_sim::{FaultPlan, ObsReport, Simulation};
use spider_types::{OpKind, SimTime};
use std::sync::Arc;

/// Encoded operation size in bytes.
const PAYLOAD: usize = 64;
/// Goodput bucket width for recovery detection.
const BUCKET: SimTime = SimTime::from_millis(500);
/// View-change storm: number of leader-isolation acts.
pub const STORM_ACTS: usize = 3;
/// View-change storm: spacing between acts.
const STORM_GAP: SimTime = SimTime::from_millis(1_500);
/// View-change storm: how long each leader stays isolated.
const STORM_HOLD: SimTime = SimTime::from_millis(900);

/// Scale configuration shared by all disaster scenarios.
#[derive(Debug, Clone)]
pub struct Config {
    /// Clients per execution group.
    pub clients_per_region: usize,
    /// Mean requests/second per client.
    pub rate_per_client: f64,
    /// Steady-state metrics start here (skips connection ramp-up).
    pub warmup: SimTime,
    /// When the disaster strikes.
    pub fault_at: SimTime,
    /// When the network heals.
    pub heal_at: SimTime,
    /// Nominal offered-load horizon: each client's op budget is
    /// `rate_per_client · duration` and the run continues to quiescence
    /// so the backlog fully drains before accounting.
    pub duration: SimTime,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            clients_per_region: 2,
            rate_per_client: 4.0,
            warmup: SimTime::from_secs(2),
            fault_at: SimTime::from_secs(8),
            heal_at: SimTime::from_secs(18),
            duration: SimTime::from_secs(30),
            seed: 42,
        }
    }
}

impl Config {
    /// The quick clock the disaster tests, `bench_summary` and
    /// `SPIDER_QUICK=1 disaster_suite` share: fault at 6 s, heal at 14 s,
    /// 24 s of offered load, 2 clients per region at 3 req/s each.
    pub fn quick() -> Config {
        Config {
            clients_per_region: 2,
            rate_per_client: 3.0,
            fault_at: SimTime::from_secs(6),
            heal_at: SimTime::from_secs(14),
            duration: SimTime::from_secs(24),
            ..Config::default()
        }
    }
}

/// Outcome of one disaster scenario.
#[derive(Debug, Clone, serde::Serialize)]
pub struct DisasterRow {
    /// Scenario label.
    pub scenario: String,
    /// Goodput of the observed clients before the fault (req/s).
    pub pre_fault_rps: f64,
    /// Goodput of the observed clients over the whole nominal horizon.
    pub goodput_rps: f64,
    /// Median write latency before the fault (ms).
    pub pre_fault_p50_ms: f64,
    /// Longest interval with zero completed ops after the fault (ms).
    pub unavailability_ms: f64,
    /// Heal → goodput back to 90 % of pre-fault, `None` if never (ms).
    pub recovery_ms: Option<f64>,
    /// Completed writes whose key is missing from the store.
    pub lost_ops: u64,
    /// Operations executed more than once (`ops_applied − keys`).
    pub duplicated_ops: u64,
    /// Execution replicas whose final map digest diverges.
    pub diverged_replicas: usize,
    /// Highest consensus view reached by any agreement replica.
    pub final_view: u64,
    /// Checkpoint votes that lost, over every agreement and execution
    /// replica: each a checkpoint at which a replica's state differed from
    /// its group's.
    pub lost_votes: u64,
}

/// Tight flow-control windows so stalls (and their back-pressure) show
/// up within seconds instead of minutes; `z` is the scenario's skippable
/// trailing-group budget (§3.5).
fn disaster_spider_cfg(z: usize) -> SpiderConfig {
    SpiderConfig {
        ke: 8,
        ka: 8,
        ag_win: 16,
        commit_capacity: 16,
        z,
        view_change_timeout: SimTime::from_millis(400),
        ..SpiderConfig::default()
    }
}

/// Factory writing globally unique keys `c{client}-{seq}` so accounting
/// can detect lost and duplicated operations exactly.
fn unique_key_factory(client: usize) -> OpFactory {
    Arc::new(move |seq, kind, payload| {
        let key = format!("c{client:04}-{seq:08}");
        match kind {
            OpKind::Write => {
                KvOp::sized_put(key.as_bytes(), payload.max(key.len() + 16), b'x').encode()
            }
            _ => KvOp::get(key.as_bytes()).encode(),
        }
    })
}

struct Run {
    sim: Simulation<SpiderMsg>,
    dep: Deployment,
}

fn build(
    cfg: &Config,
    spider_cfg: SpiderConfig,
    agreement_region: &str,
    spans: &[Vec<&'static str>],
) -> Run {
    let mut sim = Simulation::new(ec2_topology(), cfg.seed);
    let mut builder = DeploymentBuilder::new(spider_cfg)
        .with_app(KvStore::new)
        .agreement_region(agreement_region);
    for span in spans {
        builder = builder.execution_group_span(span);
    }
    let mut dep = builder.build(&mut sim);
    let max_ops = (cfg.rate_per_client * cfg.duration.as_secs_f64()).ceil() as u64;
    for gi in 0..spans.len() {
        for _ in 0..cfg.clients_per_region {
            // The factory's client index is the spawn position, which is
            // exactly this client's position in `dep.clients`.
            let ci = dep.clients.len();
            let workload = WorkloadSpec::writes_per_sec(cfg.rate_per_client, PAYLOAD)
                .with_max_ops(max_ops)
                .with_op_factory(unique_key_factory(ci));
            dep.spawn_clients(&mut sim, gi, 1, workload);
        }
    }
    Run { sim, dep }
}

/// Runs to quiescence (clients have finite op budgets, so the backlog
/// drains) and computes every metric. `observed_groups` selects whose
/// clients feed the availability metrics — accounting always covers all
/// clients and all replicas.
fn finish(
    mut run: Run,
    cfg: &Config,
    scenario: String,
    heal_at: SimTime,
    observed_groups: &[usize],
) -> (DisasterRow, Option<ObsReport>) {
    run.sim.run_until_quiescent(cfg.duration + SimTime::from_secs(40));
    let per_client = run.dep.collect_samples(&run.sim);

    let observed: Vec<Sample> = per_client
        .iter()
        .filter(|(_, group, _)| observed_groups.contains(&(group.0 as usize)))
        .flat_map(|(_, _, samples)| samples.iter().copied())
        .collect();
    let pre_fault: Vec<Sample> =
        observed.iter().copied().filter(|s| s.completed < cfg.fault_at).collect();
    let pre_fault_rps = mean_goodput(&observed, cfg.warmup, cfg.fault_at);
    let unavailability =
        longest_unavailability(&observed, cfg.fault_at, heal_at + SimTime::from_secs(10));
    let recovery = recovery_time(
        &observed,
        heal_at,
        pre_fault_rps,
        0.9,
        BUCKET,
        heal_at + SimTime::from_secs(15),
    );

    // Accounting against the reference replica (group 0, replica 0).
    let store = run.sim.actor::<ExecutionReplica<KvStore>>(run.dep.group_nodes(0)[0]).app();
    let mut lost_ops = 0u64;
    for (ci, (_, _, samples)) in per_client.iter().enumerate() {
        // Closed-loop clients complete writes in sequence order, so a
        // client with k samples must have executed seqs 0..k exactly.
        for seq in 0..samples.len() as u64 {
            let key = format!("c{ci:04}-{seq:08}");
            if store.get(key.as_bytes()).is_none() {
                lost_ops += 1;
            }
        }
    }
    let duplicated_ops = store.ops_applied.saturating_sub(store.len() as u64);
    let reference_digest = store.map_digest();
    let execution = run.dep.groups.iter().flat_map(|(_, _, nodes)| nodes.iter());
    let execution = execution.map(|&node| run.sim.actor::<ExecutionReplica<KvStore>>(node));
    let diverged_replicas =
        execution.clone().filter(|replica| replica.app().map_digest() != reference_digest).count();
    let agreement = run.dep.agreement.iter().map(|&node| run.sim.actor::<AgreementReplica>(node));
    let final_view = agreement.clone().map(|replica| replica.view().0).max().unwrap_or(0);
    let lost_votes = agreement.map(AgreementReplica::lost_votes).sum::<u64>()
        + execution.map(ExecutionReplica::lost_votes).sum::<u64>();

    let obs = run.sim.obs().is_enabled().then(|| run.sim.obs().report());
    let row = DisasterRow {
        scenario,
        pre_fault_rps,
        goodput_rps: mean_goodput(&observed, cfg.warmup, cfg.duration),
        pre_fault_p50_ms: LatencySummary::of_samples(&pre_fault).map_or(f64::NAN, |s| s.p50_ms),
        unavailability_ms: unavailability.as_millis_f64(),
        recovery_ms: recovery.map(|r| r.as_millis_f64()),
        lost_ops,
        duplicated_ops,
        diverged_replicas,
        final_view,
        lost_votes,
    };
    (row, obs)
}

fn single_region_spans() -> Vec<Vec<&'static str>> {
    REGIONS4.iter().map(|r| vec![*r]).collect()
}

/// Scenario 1: Oregon and Tokyo go dark together over
/// `[fault_at, heal_at)`. With `z = 2` the agreement group may leave the
/// two dead groups behind, so Virginia and Ireland clients keep
/// committing; after the restore the dead groups catch up via
/// checkpoints.
pub fn run_correlated_outage(cfg: &Config) -> DisasterRow {
    let mut run = build(cfg, disaster_spider_cfg(2), "virginia", &single_region_spans());
    let plan = FaultPlan::new().region_outage("oregon", cfg.fault_at, cfg.heal_at).region_outage(
        "tokyo",
        cfg.fault_at,
        cfg.heal_at,
    );
    run.sim.install_fault_plan(plan);
    finish(run, cfg, "correlated-outage".into(), cfg.heal_at, &[0, 2]).0
}

/// Scenario 2: a WAN partition severs the agreement side
/// (Virginia + Ireland) from Oregon + Tokyo at `z = 0`. The severed
/// groups' commit channels stall, flow control blocks the agreement
/// group within `commit_capacity` slots, and *all* clients stall — the
/// paper's back-pressure story. After the heal the backlog must drain
/// with zero lost/duplicated ops and byte-identical stores.
pub fn run_wan_partition(cfg: &Config) -> DisasterRow {
    wan_partition_inner(cfg, false).0
}

/// [`run_wan_partition`] with end-to-end tracing on: the returned
/// [`ObsReport`] carries the full span timeline, including the
/// commit-channel recast that re-ships the stalled ranges after the
/// heal (the smoke gate `bench_summary` checks).
pub fn run_wan_partition_traced(cfg: &Config) -> (DisasterRow, ObsReport) {
    let (row, obs) = wan_partition_inner(cfg, true);
    (row, obs.expect("tracing was enabled"))
}

fn wan_partition_inner(cfg: &Config, traced: bool) -> (DisasterRow, Option<ObsReport>) {
    let mut spider_cfg = disaster_spider_cfg(0);
    spider_cfg.tracing = traced;
    let mut run = build(cfg, spider_cfg, "virginia", &single_region_spans());
    let plan = FaultPlan::new().wan_partition(
        &["virginia", "ireland"],
        &["oregon", "tokyo"],
        cfg.fault_at,
        cfg.heal_at,
    );
    run.sim.install_fault_plan(plan);
    finish(run, cfg, "wan-partition".into(), cfg.heal_at, &[0, 1, 2, 3])
}

/// Scenario 3: repeated leader isolation at sub-timeout intervals. Act
/// `i` cuts the replica that leads view `i` (round-robin rotation) long
/// enough to force a view change, then rejoins it. Ordering keeps
/// making progress between acts and fully recovers afterwards.
pub fn run_view_change_storm(cfg: &Config) -> DisasterRow {
    let mut run = build(cfg, disaster_spider_cfg(0), "virginia", &single_region_spans());
    let n = run.dep.agreement.len();
    let mut plan = FaultPlan::new();
    let mut last_rejoin = cfg.fault_at;
    for act in 0..STORM_ACTS {
        let from = cfg.fault_at + SimTime::from_nanos(STORM_GAP.as_nanos() * act as u64);
        let until = from + STORM_HOLD;
        plan = plan.isolate_replica(run.dep.agreement[act % n], from, until);
        last_rejoin = until;
    }
    run.sim.install_fault_plan(plan);
    finish(run, cfg, "view-change-storm".into(), last_rejoin, &[0, 1, 2, 3]).0
}

/// Scenario 4 (one point of the placement sweep): agreement in
/// `REGIONS4[host_idx]`; every execution group either keeps all three
/// replicas in its home region (`spread = false`) or places two backups
/// in the aligned neighbor region (`spread = true`). The region
/// "across" from the host then fails.
///
/// With spread backups the victim group still has `fe + 1` live
/// replicas, so its commit channel advances and nobody else notices;
/// concentrated placement kills the whole group and, at `z = 0`, stalls
/// the system until the heal. Latency is the other frontier axis: the
/// pre-fault p50 varies with the agreement host's centrality.
pub fn run_placement(cfg: &Config, host_idx: usize, spread: bool) -> DisasterRow {
    let host = REGIONS4[host_idx];
    let victim = REGIONS4[(host_idx + 2) % REGIONS4.len()];
    let spans: Vec<Vec<&'static str>> = (0..REGIONS4.len())
        .map(|i| {
            if spread {
                vec![REGIONS4[i], NEIGHBORS4[i], NEIGHBORS4[i]]
            } else {
                vec![REGIONS4[i]]
            }
        })
        .collect();
    let mut run = build(cfg, disaster_spider_cfg(0), host, &spans);
    run.sim.install_fault_plan(FaultPlan::new().region_outage(victim, cfg.fault_at, cfg.heal_at));
    // The victim region's clients are inside the outage; availability is
    // judged by everyone else.
    let observed: Vec<usize> = (0..REGIONS4.len()).filter(|i| REGIONS4[*i] != victim).collect();
    let backups = if spread { "spread" } else { "concentrated" };
    finish(
        run,
        cfg,
        format!("placement host={host} backups={backups} victim={victim}"),
        cfg.heal_at,
        &observed,
    )
    .0
}

/// The placement frontier: every requested agreement host, concentrated
/// vs spread backups.
pub fn run_placement_sweep(cfg: &Config, hosts: &[usize]) -> Vec<DisasterRow> {
    let mut rows = Vec::new();
    for &host in hosts {
        rows.push(run_placement(cfg, host, false));
        rows.push(run_placement(cfg, host, true));
    }
    rows
}

/// Runs the non-sweep scenarios plus a two-host frontier (Virginia and
/// Tokyo) — the set `bench_summary` and the `disaster_suite` example
/// report.
pub fn run(cfg: &Config) -> Vec<DisasterRow> {
    let mut rows =
        vec![run_correlated_outage(cfg), run_wan_partition(cfg), run_view_change_storm(cfg)];
    rows.extend(run_placement_sweep(cfg, &[0, 3]));
    rows
}

/// Renders disaster rows as an aligned text table.
pub fn render(rows: &[DisasterRow]) -> String {
    let mut out = String::new();
    out.push_str("Disaster suite: availability under scripted fault plans\n");
    out.push_str(&format!(
        "{:<46} {:>8} {:>8} {:>8} {:>9} {:>9} {:>5} {:>5} {:>5} {:>5}\n",
        "scenario",
        "pre[r/s]",
        "run[r/s]",
        "p50[ms]",
        "unavl[ms]",
        "recov[ms]",
        "lost",
        "dup",
        "divg",
        "view"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<46} {:>8.1} {:>8.1} {:>8.1} {:>9.0} {:>9} {:>5} {:>5} {:>5} {:>5}\n",
            r.scenario,
            r.pre_fault_rps,
            r.goodput_rps,
            r.pre_fault_p50_ms,
            r.unavailability_ms,
            r.recovery_ms.map_or_else(|| "never".into(), |v| format!("{v:.0}")),
            r.lost_ops,
            r.duplicated_ops,
            r.diverged_replicas,
            r.final_view,
        ));
    }
    out
}
