//! Figure 10: adaptability — response time over time when a new client
//! site (São Paulo) joins a running system.
//!
//! Paper result: all systems see the *average* write latency jump when
//! the distant São Paulo clients join (their requests are slow
//! everywhere; existing clients are unaffected). Weighted voting does not
//! help (the São Paulo replica never improves quorums). Only Spider lets
//! the new clients read with local latency, by spinning up an execution
//! group in their region at runtime (§3.6).

use crate::stats::{timeline, LatencySummary};
use crate::topology::{ec2_topology, REGIONS4, REGIONS5};
use spider::{DeploymentBuilder, Sample, SpiderConfig, WorkloadSpec};
use spider_app::{kv_op_factory, KvStore};
use spider_baselines::{BftDeployment, StewardDeployment};
use spider_sim::Simulation;
use spider_types::SimTime;

/// Mean requests/second per client.
const RATE_PER_CLIENT: f64 = 2.0;
/// RNG seed.
const SEED: u64 = 42;

/// Scale configuration for Figure 10.
#[derive(Debug, Clone)]
pub struct Config {
    /// Clients per region.
    pub clients_per_region: usize,
    /// Total run length.
    pub duration: SimTime,
    /// When the São Paulo clients start (paper: t = 80 s).
    pub join_at: SimTime,
    /// Timeline bucket width.
    pub bucket: SimTime,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            clients_per_region: 6,
            duration: SimTime::from_secs(110),
            join_at: SimTime::from_secs(80),
            bucket: SimTime::from_secs(2),
        }
    }
}

/// A response-time-over-time series for one system.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Series {
    /// System label.
    pub system: String,
    /// `(bucket start seconds, mean ms, p99 ms, p99.9 ms, samples)`
    /// points.
    pub points: Vec<(f64, f64, f64, f64, usize)>,
}

fn workload(weak_reads: bool, start: SimTime) -> WorkloadSpec {
    let mix =
        if weak_reads { WorkloadSpec::weak_reads_per_sec } else { WorkloadSpec::writes_per_sec };
    mix(RATE_PER_CLIENT, 200).with_start_delay(start).with_op_factory(kv_op_factory(1000))
}

fn to_series(system: &str, samples: Vec<Sample>, cfg: &Config) -> Series {
    let points = timeline(&samples, cfg.bucket, cfg.duration)
        .into_iter()
        .map(|b| (b.start.as_secs_f64(), b.mean_ms, b.p99_ms, b.p999_ms, b.count))
        .collect();
    Series { system: system.to_owned(), points }
}

fn run_bft(cfg: &Config, weak: bool, weighted: bool) -> (String, Vec<Sample>) {
    let mut sim = Simulation::new(ec2_topology(), SEED);
    let mut dep = if weighted {
        // Five replicas including São Paulo; Vmax weights in Virginia and
        // Oregon (the paper's best-performing assignment).
        BftDeployment::build_weighted(
            &mut sim,
            SpiderConfig::default(),
            &REGIONS5,
            1,
            &[0, 1],
            KvStore::new,
        )
    } else {
        BftDeployment::build(&mut sim, SpiderConfig::default(), &REGIONS4, KvStore::new)
    };
    for region in REGIONS4 {
        dep.spawn_clients(
            &mut sim,
            region,
            cfg.clients_per_region,
            workload(weak, SimTime::from_millis(200)),
        );
    }
    // The São Paulo clients exist from the start but stay silent until
    // `join_at` (their workload's start delay).
    dep.spawn_clients(&mut sim, "saopaulo", cfg.clients_per_region, workload(weak, cfg.join_at));
    sim.run_until(cfg.duration);
    let samples: Vec<Sample> = dep.collect_samples(&sim).into_iter().flat_map(|(_, s)| s).collect();
    ((if weighted { "BFT-WV" } else { "BFT" }).to_owned(), samples)
}

fn run_hft(cfg: &Config, weak: bool) -> (String, Vec<Sample>) {
    let mut sim = Simulation::new(ec2_topology(), SEED);
    let mut dep =
        StewardDeployment::build(&mut sim, SpiderConfig::default(), &REGIONS4, 0, KvStore::new);
    for (si, region) in REGIONS4.iter().enumerate() {
        dep.spawn_clients(
            &mut sim,
            si as u16,
            region,
            cfg.clients_per_region,
            workload(weak, SimTime::from_millis(200)),
        );
    }
    // New clients contact their nearest existing site: Virginia (site 0)
    // is closest to São Paulo in this matrix.
    dep.spawn_clients(&mut sim, 0, "saopaulo", cfg.clients_per_region, workload(weak, cfg.join_at));
    sim.run_until(cfg.duration);
    let samples: Vec<Sample> =
        dep.collect_samples(&sim).into_iter().flat_map(|(_, _, s)| s).collect();
    ("HFT".to_owned(), samples)
}

fn run_spider(cfg: &Config, weak: bool) -> (String, Vec<Sample>) {
    let mut sim = Simulation::new(ec2_topology(), SEED);
    let mut builder = DeploymentBuilder::new(SpiderConfig::default())
        .with_app(KvStore::new)
        .agreement_region("virginia");
    for r in REGIONS4 {
        builder = builder.execution_group(r);
    }
    let mut dep = builder.build(&mut sim);
    for gi in 0..REGIONS4.len() {
        dep.spawn_clients(
            &mut sim,
            gi,
            cfg.clients_per_region,
            workload(weak, SimTime::from_millis(200)),
        );
    }
    // A São Paulo execution group is added shortly before the clients
    // arrive (§3.6), then serves them locally.
    let lead_time = SimTime::from_secs(3);
    dep.add_execution_group(&mut sim, "saopaulo", cfg.join_at.saturating_sub(lead_time));
    let gi = dep.groups.len() - 1;
    dep.spawn_clients(&mut sim, gi, cfg.clients_per_region, workload(weak, cfg.join_at));
    sim.run_until(cfg.duration);
    let samples: Vec<Sample> =
        dep.collect_samples(&sim).into_iter().flat_map(|(_, _, s)| s).collect();
    ("SPIDER".to_owned(), samples)
}

/// Runs the four systems under writes or weak reads and returns raw
/// samples per system label.
fn run_systems(cfg: &Config, weak: bool) -> Vec<(String, Vec<Sample>)> {
    vec![
        run_bft(cfg, weak, false),
        run_bft(cfg, weak, true),
        run_hft(cfg, weak),
        run_spider(cfg, weak),
    ]
}

/// Whole-run latency summary + completion throughput of one system.
#[derive(Debug, Clone)]
pub struct SystemSummary {
    /// System label ("BFT", "BFT-WV", "HFT", "SPIDER").
    pub system: String,
    /// Latency distribution over the entire run.
    pub summary: LatencySummary,
    /// Completed requests per second over the entire run.
    pub throughput_rps: f64,
}

/// Runs the write workload of all four systems and summarizes each one
/// (p50/p90/throughput) — the headless counterpart of [`run`] used by the
/// `bench_summary` CI gate.
pub fn run_write_summaries(cfg: &Config) -> Vec<SystemSummary> {
    run_systems(cfg, false)
        .into_iter()
        .filter_map(|(system, samples)| {
            let summary = LatencySummary::of_samples(&samples)?;
            let throughput_rps = samples.len() as f64 / cfg.duration.as_secs_f64();
            Some(SystemSummary { system, summary, throughput_rps })
        })
        .collect()
}

/// Result of the adaptability experiment.
#[derive(Debug, Clone)]
pub struct Result {
    /// Figure 10a: write-latency series.
    pub writes: Vec<Series>,
    /// Figure 10b: weak-read-latency series.
    pub weak_reads: Vec<Series>,
}

/// Runs all four systems for writes and weak reads.
pub fn run(cfg: &Config) -> Result {
    let series = |weak| {
        run_systems(cfg, weak)
            .into_iter()
            .map(|(sys, samples)| to_series(&sys, samples, cfg))
            .collect()
    };
    Result { writes: series(false), weak_reads: series(true) }
}

fn render_series(title: &str, series: &[Series]) -> String {
    let mut out = String::from(title);
    out.push('\n');
    for s in series {
        out.push_str(&format!("  {}:\n", s.system));
        for (t, ms, p99, p999, n) in &s.points {
            out.push_str(&format!(
                "    t={t:>6.1}s  mean={ms:>7.1}ms  p99={p99:>7.1}ms  p99.9={p999:>7.1}ms  n={n}\n"
            ));
        }
    }
    out
}

/// Renders both sub-figures as text.
pub fn render(result: &Result) -> String {
    let mut out = render_series(
        "Figure 10a — average write latency over time (São Paulo clients join)",
        &result.writes,
    );
    out.push('\n');
    out.push_str(&render_series(
        "Figure 10b — average weakly consistent read latency over time",
        &result.weak_reads,
    ));
    out
}
