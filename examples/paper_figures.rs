//! Regenerates every figure of the paper's evaluation section and prints
//! the data as text tables/series.
//!
//! Run with: `cargo run --release -p spider_examples --example paper_figures`
//!
//! Environment:
//! * `SPIDER_QUICK=1` — small scale (~1 minute total).
//! * `SPIDER_OUT=<dir>` — additionally write one CSV per figure.
//! * default — moderate scale (a few minutes), closer to the paper's
//!   client counts.

use spider_bench::{quick_fig10, quick_scale};
use spider_harness::experiments::{fig10, fig11, fig7, fig8, fig9a, fig9bcd};
use spider_harness::scenarios::ScenarioCfg;
use spider_types::SimTime;

fn scale() -> (ScenarioCfg, fig10::Config, fig9bcd::Config) {
    if std::env::var("SPIDER_QUICK").is_ok() {
        let fig9bcd = fig9bcd::Config { duration: SimTime::from_secs(3), ..Default::default() };
        return (quick_scale(), quick_fig10(), fig9bcd);
    }
    let scenario = ScenarioCfg {
        clients_per_region: 12,
        rate_per_client: 2.0,
        duration: SimTime::from_secs(30),
        warmup: SimTime::from_secs(4),
        ..ScenarioCfg::default()
    };
    (scenario, fig10::Config::default(), fig9bcd::Config::default())
}

fn main() {
    let (scenario, fig10_cfg, fig9bcd_cfg) = scale();
    let out_dir = std::env::var("SPIDER_OUT").ok();
    let write = |name: &str, csv: String| {
        if let Some(dir) = &out_dir {
            std::fs::create_dir_all(dir).expect("create SPIDER_OUT dir");
            let path = format!("{dir}/{name}.csv");
            std::fs::write(&path, csv).expect("write csv");
            println!("wrote {path}");
        }
    };
    println!("Regenerating the paper's evaluation figures (simulated EC2)…\n");

    let rows = fig7::run(&scenario);
    println!("{}", fig7::render(&rows));
    write("fig7_writes", spider_harness::export::latency_rows_to_csv(&rows));

    let result = fig8::run(&scenario);
    println!("{}", fig8::render(&result));
    write("fig8a_strong_reads", spider_harness::export::latency_rows_to_csv(&result.strong));
    write("fig8b_weak_reads", spider_harness::export::latency_rows_to_csv(&result.weak));

    let rows = fig9a::run(&scenario);
    println!("{}", fig9a::render(&rows));
    write("fig9a_modularity", spider_harness::export::latency_rows_to_csv(&rows));

    let rows = fig9bcd::run(&fig9bcd_cfg);
    println!("{}", fig9bcd::render(&rows));
    write("fig9bcd_irmc", spider_harness::export::irmc_rows_to_csv(&rows));

    let result = fig10::run(&fig10_cfg);
    println!("{}", fig10::render(&result));
    write("fig10a_writes", spider_harness::export::series_to_csv(&result.writes));
    write("fig10b_weak_reads", spider_harness::export::series_to_csv(&result.weak_reads));

    let mut f11_scenario = scenario;
    f11_scenario.clients_per_region = f11_scenario.clients_per_region.min(6);
    let rows = fig11::run(&f11_scenario);
    println!("{}", fig11::render(&rows));
    write("fig11_f2", spider_harness::export::latency_rows_to_csv(&rows));
}
