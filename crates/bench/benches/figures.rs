//! Figures 7–11 of the paper's evaluation: each function prints its
//! figure's regenerated data at figure scale, then registers Criterion
//! measurements of the underlying scenarios at bench scale.

use criterion::{criterion_group, criterion_main, Criterion};
use spider_bench::{bench_scale, figure_scale};
use spider_harness::experiments::{fig10, fig11, fig7, fig8, fig9a, fig9bcd};
use spider_harness::scenarios::{run_scenario, ScenarioCfg, SystemKind};
use spider_irmc::Variant;
use spider_types::SimTime;

const SPIDER: SystemKind = SystemKind::Spider { leader_zone: 0 };

/// Figure 7 — write latencies by client region and leader location; one
/// measured scenario per system family.
fn fig7_writes(c: &mut Criterion) {
    let rows = fig7::run(&fig7::Config { scenario: figure_scale(), only: None });
    println!("\n{}", fig7::render(&rows));
    let scale = bench_scale();
    let mut g = c.benchmark_group("fig7");
    g.sample_size(10);
    for (name, kind) in [
        ("spider_leader_v1", SPIDER),
        ("bft_leader_virginia", SystemKind::Bft { leader: 0 }),
        ("hft_leader_virginia", SystemKind::Hft { leader_site: 0 }),
    ] {
        g.bench_function(name, |b| b.iter(|| run_scenario(kind, &scale)));
    }
    g.finish();
}

/// Figure 8 — strongly and weakly consistent read latencies.
fn fig8_reads(c: &mut Criterion) {
    let result = fig8::run(&fig8::Config { scenario: figure_scale() });
    println!("\n{}", fig8::render(&result));
    let mut g = c.benchmark_group("fig8");
    g.sample_size(10);
    for (name, strong_read_fraction) in [("spider_weak_reads", 0.0), ("spider_strong_reads", 1.0)] {
        let scale = ScenarioCfg { write_fraction: 0.0, strong_read_fraction, ..bench_scale() };
        g.bench_function(name, |b| b.iter(|| run_scenario(SPIDER, &scale)));
    }
    g.finish();
}

/// Figure 9a — modularity impact (SPIDER-0E / SPIDER-1E / SPIDER).
fn fig9a_modularity(c: &mut Criterion) {
    let rows = fig9a::run(&fig9a::Config { scenario: figure_scale() });
    println!("\n{}", fig9a::render(&rows));
    let scale = bench_scale();
    let mut g = c.benchmark_group("fig9a");
    g.sample_size(10);
    for (name, kind) in [
        ("spider_0e", SystemKind::Spider0E),
        ("spider_1e", SystemKind::Spider1E),
        ("spider_full", SPIDER),
    ] {
        g.bench_function(name, |b| b.iter(|| run_scenario(kind, &scale)));
    }
    g.finish();
}

/// Figures 9b–9d — IRMC throughput, CPU usage, and network usage.
fn fig9bcd_irmc(c: &mut Criterion) {
    let rows = fig9bcd::run(&fig9bcd::Config::default());
    println!("\n{}", fig9bcd::render(&rows));
    let quick = fig9bcd::Config {
        sizes: vec![1024],
        duration: SimTime::from_secs(2),
        ..fig9bcd::Config::default()
    };
    let mut g = c.benchmark_group("fig9bcd");
    g.sample_size(10);
    for (name, variant) in [
        ("irmc_rc_1kb_flood", Variant::ReceiverCollect),
        ("irmc_sc_1kb_flood", Variant::SenderCollect),
    ] {
        g.bench_function(name, |b| b.iter(|| fig9bcd::run_point(variant, 1024, &quick)));
    }
    g.finish();
}

/// Figure 10 — response time over time when a new client site joins.
fn fig10_adaptability(c: &mut Criterion) {
    let result = fig10::run(&fig10::Config::default());
    println!("\n{}", fig10::render(&result));
    let quick = fig10::Config {
        clients_per_region: 2,
        duration: SimTime::from_secs(20),
        join_at: SimTime::from_secs(12),
        bucket: SimTime::from_secs(4),
    };
    let mut g = c.benchmark_group("fig10");
    g.sample_size(10);
    g.bench_function("adaptability_all_systems", |b| b.iter(|| fig10::run(&quick)));
    g.finish();
}

/// Figure 11 — write latencies when tolerating f = 2 faults per group.
fn fig11_f2(c: &mut Criterion) {
    let rows = fig11::run(&fig11::Config { scenario: figure_scale() });
    println!("\n{}", fig11::render(&rows));
    let cfg = fig11::Config { scenario: bench_scale() };
    let mut g = c.benchmark_group("fig11");
    g.sample_size(10);
    g.bench_function("f2_sweep", |b| b.iter(|| fig11::run(&cfg)));
    g.finish();
}

criterion_group!(
    benches,
    fig7_writes,
    fig8_reads,
    fig9a_modularity,
    fig9bcd_irmc,
    fig10_adaptability,
    fig11_f2
);
criterion_main!(benches);
