//! Ablation sweeps of three design knobs no other program varies: global
//! flow control `z` with a slow execution group (§3.5), the checkpoint
//! interval, and the IRMC subchannel capacity. Each prints a small table.
//! The batching and commit-range sweeps are `bench_summary`'s.
//!
//! Run with: `cargo bench -p spider_bench --bench ablations`

use spider::{DeploymentBuilder, SpiderConfig, WorkloadSpec};
use spider_app::{kv_op_factory, KvStore};
use spider_harness::ec2_topology;
use spider_harness::experiments::fig9bcd;
use spider_harness::stats::LatencySummary;
use spider_irmc::Variant;
use spider_sim::{FaultPlan, Simulation};
use spider_types::SimTime;

/// Runs a two-group Spider deployment with the given config knobs and a
/// deliberately slowed Tokyo execution group; returns Virginia's p50 and
/// the total completed requests.
fn run_with(cfg: SpiderConfig, slow_tokyo_ms: u64, seed: u64) -> (f64, usize) {
    let mut sim = Simulation::new(ec2_topology(), seed);
    let mut dep = DeploymentBuilder::new(cfg)
        .with_app(KvStore::new)
        .agreement_region("virginia")
        .execution_group("virginia")
        .execution_group("tokyo")
        .build(&mut sim);
    let workload = WorkloadSpec::writes_per_sec(8.0, 200)
        .with_start_delay(SimTime::from_millis(200))
        .with_op_factory(kv_op_factory(100));
    dep.spawn_clients(&mut sim, 0, 4, workload.clone());
    dep.spawn_clients(&mut sim, 1, 4, workload);
    if slow_tokyo_ms > 0 {
        // Delay everything the agreement group sends to Tokyo's replicas:
        // the commit channel drags, exercising the `z` skip rule (§3.5).
        let delay = SimTime::from_millis(slow_tokyo_ms);
        let (start, end) = (sim.now(), SimTime::from_secs(12));
        let tokyo = dep.group_nodes(1);
        let slow = FaultPlan::new().degrade_links(&dep.agreement, tokyo, 0.0, delay, start, end);
        sim.install_fault_plan(slow);
    }
    sim.run_until(SimTime::from_secs(12));
    let samples = dep.collect_samples(&sim);
    let virginia: Vec<_> = samples
        .iter()
        .filter(|(_, g, _)| g.0 == 0)
        .flat_map(|(_, _, s)| s.iter().map(|x| x.latency()))
        .collect();
    let total: usize = samples.iter().map(|(_, _, s)| s.len()).sum();
    let p50 = LatencySummary::of(&virginia).map(|s| s.p50_ms).unwrap_or(f64::NAN);
    (p50, total)
}

fn ablation_z() {
    // The slow group must actually exhaust the commit-channel window for
    // `z` to matter: small capacity + a 2s-per-hop straggler + enough
    // load. With z = 0 the agreement group couples everyone to the
    // straggler (Virginia latency explodes); with z = 1 it skips the
    // trailing group, which later catches up via checkpoints (§3.5).
    println!("\nAblation — global flow control z with a slow (+2s) Tokyo group:");
    println!("{:<6} {:>16} {:>12}", "z", "virginia p50[ms]", "completed");
    for z in [0usize, 1] {
        let cfg = SpiderConfig {
            z,
            commit_capacity: 16,
            ke: 8,
            ka: 8,
            ag_win: 16,
            ..SpiderConfig::default()
        };
        let (p50, total) = run_with(cfg, 2_000, 7);
        println!("{z:<6} {p50:>16.1} {total:>12}");
    }
}

fn ablation_checkpoint_interval() {
    println!("\nAblation — checkpoint intervals ka = ke (liveness needs k <= capacity):");
    println!("{:<6} {:>16} {:>12}", "k", "virginia p50[ms]", "completed");
    for k in [8u64, 32, 128] {
        let mut cfg = SpiderConfig::default();
        cfg.ka = k;
        cfg.ke = k;
        cfg.commit_capacity = cfg.commit_capacity.max(k);
        cfg.ag_win = cfg.ag_win.max(k);
        let (p50, total) = run_with(cfg, 0, 9);
        println!("{k:<6} {p50:>16.1} {total:>12}");
    }
}

fn ablation_irmc_capacity() {
    println!("\nAblation — IRMC subchannel capacity (flooded RC channel, 1 KiB):");
    println!("{:<10} {:>14}", "capacity", "thruput[r/s]");
    for cap in [16u64, 64, 256] {
        let cfg = fig9bcd::Config {
            sizes: vec![1024],
            duration: SimTime::from_secs(3),
            capacity: cap,
            seed: 42,
        };
        let row = fig9bcd::run_point(Variant::ReceiverCollect, 1024, &cfg);
        println!("{cap:<10} {:>14.0}", row.throughput_rps);
    }
}

fn main() {
    ablation_z();
    ablation_checkpoint_interval();
    ablation_irmc_capacity();
}
