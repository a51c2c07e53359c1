//! Runs the full disaster suite and prints the availability table:
//! correlated two-region outage, WAN partition with back-pressure and
//! drain, view-change storm, and the placement frontier (agreement host
//! × backup spread vs a region failure).
//!
//! Run with: `cargo run --release -p spider_examples --example disaster_suite`
//!
//! Environment:
//! * `SPIDER_QUICK=1` — the CI-scale clock, `disaster::Config::quick`
//!   (fault at 6 s, heal at 14 s, 24 s of offered load).
//! * default — the full clock (fault at 8 s, heal at 18 s, 30 s of
//!   load), a few minutes of wall time.

use spider_harness::experiments::disaster;

fn main() {
    let quick = std::env::var("SPIDER_QUICK").is_ok();
    let cfg = if quick { disaster::Config::quick() } else { disaster::Config::default() };
    let rows = disaster::run(&cfg);
    println!("{}", disaster::render(&rows));
    println!(
        "reading the frontier: `unavl` is the longest gap in completed client \
         operations over the fault window; `recov` is how long after the heal \
         goodput took to return to 90% of pre-fault; `lost`/`dup` must be 0."
    );
}
