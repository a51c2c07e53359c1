//! Shared scenario machinery: deploy a system, run clients in every
//! region, collect per-region latency samples.
//!
//! One loop (`run_regions`) serves every architecture and every fault
//! threshold: the per-system functions only say where the replicas go
//! and how a client attaches. The deployment knobs live in the
//! [`SpiderConfig`] a [`ScenarioCfg`] holds — the same struct configures
//! Spider's agreement group and the consensus cores of the BFT/HFT
//! baselines, so a sweep exercises identical batching policies.

use crate::topology::{ec2_topology, REGIONS4};
use spider::{DeploymentBuilder, Sample, SpiderClient, SpiderConfig, WorkloadSpec};
use spider_app::{kv_op_factory, KvStore};
use spider_baselines::{BaseMsg, BaselineClient, BftDeployment, StewardDeployment};
use spider_sim::{NodeId, ObsReport, Simulation};
use spider_types::{ClientId, SimTime, WireSize};
use std::collections::BTreeMap;

/// Which architecture a scenario runs (§5 "Environment").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Traditional geo-distributed PBFT; leader at `REGIONS4[leader]`.
    Bft {
        /// Index into the region list.
        leader: usize,
    },
    /// Steward-style hierarchy; leader site at `REGIONS4[leader_site]`.
    Hft {
        /// Index into the region list.
        leader_site: u16,
    },
    /// Spider with the agreement group in Virginia; consensus leader in
    /// the given availability zone (0-based; the paper's V-1 is zone 0).
    Spider {
        /// Leader's availability zone within Virginia.
        leader_zone: u8,
    },
    /// Spider variant without execution groups: the agreement group also
    /// executes (Fig 9a).
    Spider0E,
    /// Spider variant with a single execution group co-located with the
    /// agreement group in Virginia (Fig 9a).
    Spider1E,
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemKind::Bft { leader } => write!(f, "BFT(leader={})", REGIONS4[*leader]),
            SystemKind::Hft { leader_site } => {
                write!(f, "HFT(leader-site={})", REGIONS4[*leader_site as usize])
            }
            SystemKind::Spider { leader_zone } => {
                write!(f, "SPIDER(leader=V-{})", leader_zone + 1)
            }
            SystemKind::Spider0E => write!(f, "SPIDER-0E"),
            SystemKind::Spider1E => write!(f, "SPIDER-1E"),
        }
    }
}

/// Request payload bytes of every scenario client (the paper uses 200).
const PAYLOAD: usize = 200;

/// Scale and workload parameters of a scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioCfg {
    /// Clients per region (the paper uses 50; defaults are scaled down).
    pub clients_per_region: usize,
    /// Mean requests/second per client.
    pub rate_per_client: f64,
    /// Workload mix (fractions of writes / strong reads; rest weak).
    pub write_fraction: f64,
    /// Fraction of strong reads.
    pub strong_read_fraction: f64,
    /// Measurement duration.
    pub duration: SimTime,
    /// Warm-up cut: samples completing before this time are discarded.
    pub warmup: SimTime,
    /// RNG seed.
    pub seed: u64,
    /// The deployment configuration: fault thresholds, consensus
    /// batching and pipelining, commit-channel mode, tracing. Used for
    /// Spider and for the consensus cores of the BFT/HFT baselines.
    pub spider: SpiderConfig,
}

impl Default for ScenarioCfg {
    fn default() -> Self {
        ScenarioCfg {
            clients_per_region: 10,
            rate_per_client: 2.0,
            write_fraction: 1.0,
            strong_read_fraction: 0.0,
            duration: SimTime::from_secs(20),
            warmup: SimTime::from_secs(2),
            seed: 42,
            spider: SpiderConfig::default(),
        }
    }
}

impl ScenarioCfg {
    fn workload(&self) -> WorkloadSpec {
        WorkloadSpec {
            rate_per_sec: self.rate_per_client,
            payload_bytes: PAYLOAD,
            write_fraction: self.write_fraction,
            strong_read_fraction: self.strong_read_fraction,
            max_ops: 0,
            start_delay: SimTime::from_millis(200),
            op_factory: kv_op_factory(1000),
        }
    }
}

/// Latency samples per client region.
pub type RegionSamples = BTreeMap<String, Vec<Sample>>;

/// What one scenario run yields: per-region samples in [`REGIONS4`]
/// order, plus the observability report when tracing was on.
pub(crate) type Run = (Vec<(String, Vec<Sample>)>, Option<ObsReport>);

/// Runs one scenario and returns per-region samples.
pub fn run_scenario(kind: SystemKind, cfg: &ScenarioCfg) -> RegionSamples {
    run_kind(kind, cfg).0.into_iter().collect()
}

/// Runs one scenario with end-to-end tracing forced on and returns both
/// the per-region samples and the observability report (phase spans,
/// metrics snapshots, per-operation CPU attribution).
pub fn run_scenario_obs(kind: SystemKind, cfg: &ScenarioCfg) -> (RegionSamples, ObsReport) {
    let mut cfg = cfg.clone();
    cfg.spider.tracing = true;
    let (samples, obs) = run_kind(kind, &cfg);
    (samples.into_iter().collect(), obs.expect("tracing was enabled"))
}

fn run_kind(kind: SystemKind, cfg: &ScenarioCfg) -> Run {
    let virginia = || DeploymentBuilder::new(cfg.spider.clone()).agreement_region("virginia");
    match kind {
        SystemKind::Bft { leader } => {
            // Leader region first: replica 0 is the view-0 leader.
            let mut placements = REGIONS4.map(|r| (r, 0));
            placements.rotate_left(leader);
            run_bft(&placements, cfg)
        }
        SystemKind::Hft { leader_site } => run_hft(&REGIONS4.map(|r| vec![r]), leader_site, cfg),
        SystemKind::Spider { leader_zone } => run_spider(
            virginia().agreement_leader_zone(leader_zone),
            &REGIONS4.map(|r| vec![r]),
            cfg,
        ),
        SystemKind::Spider0E => {
            // The agreement group executes directly: equivalent to a PBFT
            // group whose replicas all sit in separate Virginia zones.
            let zones = 0..cfg.spider.agreement_size();
            run_bft(&zones.map(|i| ("virginia", i as u8 % 6)).collect::<Vec<_>>(), cfg)
        }
        SystemKind::Spider1E => run_spider(virginia(), &[vec!["virginia"]], cfg),
    }
}

/// The scenario loop every system shares: `spawn(sim, i, region)` starts
/// the clients of `REGIONS4[i]`, the simulation runs for `cfg.duration`,
/// and `samples(sim, node)` reads back what each client recorded; samples
/// completing before the warm-up cut are dropped.
fn run_regions<M: Clone + WireSize + 'static>(
    mut sim: Simulation<M>,
    cfg: &ScenarioCfg,
    mut spawn: impl FnMut(&mut Simulation<M>, usize, &'static str) -> Vec<NodeId>,
    samples: impl Fn(&Simulation<M>, NodeId) -> Vec<Sample>,
) -> Run {
    let clients: Vec<Vec<NodeId>> =
        REGIONS4.iter().enumerate().map(|(i, region)| spawn(&mut sim, i, region)).collect();
    sim.run_until(cfg.duration);
    let per_region = REGIONS4
        .iter()
        .zip(clients)
        .map(|(region, nodes)| {
            let mut kept: Vec<Sample> = nodes.iter().flat_map(|n| samples(&sim, *n)).collect();
            kept.retain(|s| s.completed >= cfg.warmup);
            ((*region).to_owned(), kept)
        })
        .collect();
    (per_region, cfg.spider.tracing.then(|| sim.obs().report()))
}

fn new_sim<M: Clone + WireSize + 'static>(cfg: &ScenarioCfg) -> Simulation<M> {
    let mut sim = Simulation::new(ec2_topology(), cfg.seed);
    if cfg.spider.tracing {
        sim.enable_obs();
    }
    sim
}

fn baseline_samples(sim: &Simulation<BaseMsg>, node: NodeId) -> Vec<Sample> {
    sim.actor::<BaselineClient>(node).samples.clone()
}

/// One global PBFT group with a replica at each `(region, zone)` of
/// `placements` (replica 0 leads view 0); clients in every region.
pub(crate) fn run_bft(placements: &[(&str, u8)], cfg: &ScenarioCfg) -> Run {
    let mut sim = new_sim(cfg);
    let mut dep =
        BftDeployment::build_in_zones(&mut sim, cfg.spider.clone(), placements, KvStore::new);
    let spawn = |sim: &mut _, _, region: &'static str| {
        dep.spawn_clients(sim, region, cfg.clients_per_region, cfg.workload())
    };
    run_regions(sim, cfg, spawn, baseline_samples)
}

/// Steward-style hierarchy: site `i` serves `REGIONS4[i]` and cycles its
/// replicas over `spans[i]`.
pub(crate) fn run_hft(spans: &[Vec<&str>], leader_site: u16, cfg: &ScenarioCfg) -> Run {
    let mut sim = new_sim(cfg);
    let mut dep = StewardDeployment::build_span(
        &mut sim,
        cfg.spider.clone(),
        spans,
        leader_site,
        KvStore::new,
    );
    let spawn = |sim: &mut _, site: usize, region: &'static str| {
        dep.spawn_clients(sim, site as u16, region, cfg.clients_per_region, cfg.workload())
    };
    run_regions(sim, cfg, spawn, baseline_samples)
}

/// Spider with the agreement group as placed on `builder` and one
/// execution group per entry of `group_spans` (group `i` serves
/// `REGIONS4[i]`). Clients always live in all four regions; a region
/// without a group of its own attaches to group 0 (Fig 9a's setup).
pub(crate) fn run_spider(
    builder: DeploymentBuilder,
    group_spans: &[Vec<&str>],
    cfg: &ScenarioCfg,
) -> Run {
    let mut sim = new_sim(cfg);
    let mut builder = builder.with_app(KvStore::new);
    for span in group_spans {
        builder = builder.execution_group_span(span);
    }
    let mut dep = builder.build(&mut sim);
    let spawn = |sim: &mut Simulation<_>, i: usize, region: &'static str| {
        // The client's *group* may be remote, but its *node* sits in its
        // home region.
        let (group, _, _) = dep.groups[if i < group_spans.len() { i } else { 0 }];
        let zones = sim.topology().cycle_zones(&[region], 0, cfg.clients_per_region);
        zones
            .into_iter()
            .map(|zone| {
                let id = ClientId(10_000 + dep.clients.len() as u32);
                let client = SpiderClient::new(
                    dep.cfg.clone(),
                    id,
                    group,
                    dep.directory.clone(),
                    Some(cfg.workload()),
                );
                let node = sim.add_node(zone, client);
                dep.directory.register_client(id, node);
                dep.clients.push((id, group, node));
                node
            })
            .collect()
    };
    run_regions(sim, cfg, spawn, |sim, node| sim.actor::<SpiderClient>(node).samples.clone())
}
