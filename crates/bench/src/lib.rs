//! The quick scales of the checked-in artifacts, shared by
//! `bench_summary` and `SPIDER_QUICK=1 paper_figures`.
//!
//! The crate's benches are the `micro_*` host-time measurements and the
//! `ablations` sweeps; the paper's figures are printed by the
//! `paper_figures` example.

#![forbid(unsafe_code)]

use spider_harness::experiments::fig10;
use spider_harness::scenarios::ScenarioCfg;
use spider_types::SimTime;

/// Quick scale of the checked-in artifacts: `bench_summary`'s Figure 7
/// sweep and `SPIDER_QUICK=1 paper_figures`.
pub fn quick_scale() -> ScenarioCfg {
    ScenarioCfg {
        clients_per_region: 3,
        rate_per_client: 2.0,
        duration: SimTime::from_secs(12),
        warmup: SimTime::from_secs(2),
        ..ScenarioCfg::default()
    }
}

/// Figure 10 at the quick scale of the checked-in artifacts.
pub fn quick_fig10() -> fig10::Config {
    fig10::Config {
        clients_per_region: 3,
        duration: SimTime::from_secs(40),
        join_at: SimTime::from_secs(25),
        bucket: SimTime::from_secs(5),
    }
}
