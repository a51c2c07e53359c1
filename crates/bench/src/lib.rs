//! Shared scales for the figure-regeneration benches, `bench_summary`,
//! and the `paper_figures` example.
//!
//! The `figures` bench does two things per paper figure:
//!
//! 1. **Regenerates the figure's data** at a laptop-friendly scale and
//!    prints the rows/series the paper reports (this is the primary
//!    purpose — absolute wall-clock numbers of a simulator run are not
//!    the paper's metric).
//! 2. Registers a Criterion measurement of the underlying scenario so
//!    regressions in simulator/protocol performance are visible.

#![forbid(unsafe_code)]

use spider_harness::experiments::fig10;
use spider_harness::scenarios::ScenarioCfg;
use spider_types::SimTime;

fn scale(clients_per_region: usize, duration_s: u64, warmup_s: u64) -> ScenarioCfg {
    ScenarioCfg {
        clients_per_region,
        rate_per_client: 2.0,
        duration: SimTime::from_secs(duration_s),
        warmup: SimTime::from_secs(warmup_s),
        ..ScenarioCfg::default()
    }
}

/// Very small scenario scale used inside Criterion iteration loops.
pub fn bench_scale() -> ScenarioCfg {
    scale(2, 5, 1)
}

/// Quick scale of the checked-in artifacts: `bench_summary`'s Figure 7
/// sweep and `SPIDER_QUICK=1 paper_figures`.
pub fn quick_scale() -> ScenarioCfg {
    scale(3, 12, 2)
}

/// Moderate scale used for the printed figure data.
pub fn figure_scale() -> ScenarioCfg {
    scale(8, 25, 3)
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
