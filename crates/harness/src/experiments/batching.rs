//! Batching ablation: fixed vs adaptive consensus batching across
//! offered load.
//!
//! The paper's batch-size ablation shows consensus batch size is a
//! first-order latency/throughput knob. This experiment sweeps offered
//! load against three leader batching policies:
//!
//! * **greedy** — the legacy default: propose whatever is pending, at
//!   most `max_batch` per instance, immediately (`batch_delay = 0`),
//! * **fixed** — fixed-size batching: wait for a full `max_batch` (or
//!   the linger cap) before proposing,
//! * **adaptive** — rate-adaptive sizing within the same linger cap: the
//!   target batch size follows the measured arrival rate, so low load
//!   proposes immediately and high load fills large batches.
//!
//! The deployment is the two-execution-group shape (agreement +
//! Virginia group + Oregon group): with two commit channels, the
//! agreement replicas — not the execution replicas — are the saturating
//! resource, so the consensus batching policy is what the sweep actually
//! measures.
//!
//! Expected shape (and what the CI bench summary records): at low load
//! adaptive beats fixed on p50 (no pointless linger) and edges out
//! greedy (burst coalescing); at high load adaptive beats greedy on
//! throughput and latency (larger batches amortize the per-instance
//! agreement cost) while matching fixed, whose linger is what costs it
//! the low-load end. No static policy matches adaptive at both ends.

use crate::stats::LatencySummary;
use crate::topology::ec2_topology;
use spider::{DeploymentBuilder, Sample, SpiderConfig, WorkloadSpec};
use spider_app::{kv_op_factory, KvStore};
use spider_sim::Simulation;
use spider_types::SimTime;

/// A leader batching policy under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Legacy greedy cut: `pending.len().min(max_batch)`, proposed
    /// immediately.
    Greedy,
    /// Fixed-size batching with a linger cap.
    Fixed,
    /// Rate-adaptive batching within the same linger cap.
    Adaptive,
}

impl Mode {
    /// All modes, sweep order.
    pub const ALL: [Mode; 3] = [Mode::Greedy, Mode::Fixed, Mode::Adaptive];
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mode::Greedy => write!(f, "greedy"),
            Mode::Fixed => write!(f, "fixed"),
            Mode::Adaptive => write!(f, "adaptive"),
        }
    }
}

/// One load point of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Number of (closed-loop) clients.
    pub clients: usize,
    /// Mean issue attempts per second per client.
    pub rate_per_client: f64,
}

impl Load {
    /// Offered load in requests per second.
    pub fn offered_rps(&self) -> f64 {
        self.clients as f64 * self.rate_per_client
    }
}

/// Load points of the sweep, low to high.
pub const LOADS: [Load; 3] = [
    Load { clients: 4, rate_per_client: 2.0 },
    Load { clients: 24, rate_per_client: 8.0 },
    Load { clients: 96, rate_per_client: 20.0 },
];
/// Measurement duration per point.
const DURATION: SimTime = SimTime::from_secs(10);
/// Warm-up cut.
const WARMUP: SimTime = SimTime::from_secs(2);
/// Linger cap used by the fixed and adaptive policies.
const LINGER: SimTime = SimTime::from_millis(5);
/// Batch-size cap of the fixed policy (the paper's default).
const FIXED_MAX_BATCH: usize = 8;
/// Batch-size ceiling the adaptive policy may grow into.
const ADAPTIVE_MAX_BATCH: usize = 64;
/// RNG seed.
const SEED: u64 = 11;

/// One measured `(mode, load)` cell.
#[derive(Debug, Clone)]
pub struct Row {
    /// Batching policy label.
    pub mode: String,
    /// Offered load in requests per second.
    pub offered_rps: f64,
    /// Latency summary of the agreement-local (Virginia) clients, the
    /// clean consensus-latency signal (after warm-up).
    pub summary: LatencySummary,
    /// Completed requests per second across all clients (after warm-up).
    pub throughput_rps: f64,
}

/// The deployment configuration a mode induces.
pub fn spider_config(mode: Mode) -> SpiderConfig {
    let mut base = SpiderConfig::default();
    base.batching.max_batch = FIXED_MAX_BATCH;
    match mode {
        Mode::Greedy => base,
        Mode::Fixed => {
            base.batching.delay = LINGER;
            base
        }
        Mode::Adaptive => base.with_adaptive_batching(LINGER, ADAPTIVE_MAX_BATCH),
    }
}

fn run_point(mode: Mode, load: Load) -> Option<Row> {
    let mut sim = Simulation::new(ec2_topology(), SEED);
    let mut dep = DeploymentBuilder::new(spider_config(mode))
        .with_app(KvStore::new)
        .agreement_region("virginia")
        .execution_group("virginia")
        .execution_group("oregon")
        .build(&mut sim);
    let workload = WorkloadSpec::writes_per_sec(load.rate_per_client, 200)
        .with_start_delay(SimTime::from_millis(200))
        .with_op_factory(kv_op_factory(1000));
    dep.spawn_clients(&mut sim, 0, load.clients / 2, workload.clone());
    dep.spawn_clients(&mut sim, 1, load.clients - load.clients / 2, workload);
    sim.run_until(DURATION);
    let collected = dep.collect_samples(&sim);
    let all: Vec<Sample> = collected
        .iter()
        .flat_map(|(_, _, s)| s.iter().copied())
        .filter(|s| s.completed >= WARMUP)
        .collect();
    let virginia: Vec<Sample> = collected
        .iter()
        .filter(|(_, g, _)| g.0 == 0)
        .flat_map(|(_, _, s)| s.iter().copied())
        .filter(|s| s.completed >= WARMUP)
        .collect();
    let summary = LatencySummary::of_samples(&virginia)?;
    let measured = (DURATION - WARMUP).as_secs_f64();
    Some(Row {
        mode: mode.to_string(),
        offered_rps: load.offered_rps(),
        summary,
        throughput_rps: all.len() as f64 / measured,
    })
}

/// Runs the full sweep: every mode at every load point of [`LOADS`].
pub fn run() -> Vec<Row> {
    let mut rows = Vec::new();
    for load in LOADS {
        for mode in Mode::ALL {
            rows.extend(run_point(mode, load));
        }
    }
    rows
}

/// Renders the sweep as an aligned text table.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::from(
        "Batching ablation — fixed vs adaptive consensus batching across offered load\n",
    );
    out.push_str(&format!(
        "{:<10} {:>12} {:>9} {:>9} {:>12}\n",
        "mode", "offered[r/s]", "p50[ms]", "p90[ms]", "thruput[r/s]"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>12.0} {:>9.1} {:>9.1} {:>12.0}\n",
            r.mode, r.offered_rps, r.summary.p50_ms, r.summary.p90_ms, r.throughput_rps
        ));
    }
    out
}
