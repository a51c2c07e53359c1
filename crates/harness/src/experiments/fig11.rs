//! Figure 11: write latencies when tolerating `f = 2` faults per group.
//!
//! Extra replicas go to nearby regions for additional fault domains
//! (Virginia+Ohio, Oregon+California, Ireland+London, Tokyo+Seoul).
//! Paper result: HFT and Spider pay a moderate increase (larger groups
//! communicate across neighboring regions), with Spider still clearly
//! below BFT and HFT.

use super::{latency_rows, LatencyRow};
use crate::scenarios::{run_bft, run_hft, run_spider, ScenarioCfg};
use crate::topology::{NEIGHBORS4, REGIONS4};
use spider::DeploymentBuilder;

/// Runs the `f = 2` comparison: the Figure 7 systems with `f = 2` group
/// sizes and the extra replicas spread over neighboring regions, at
/// `scenario`'s scale (its fault thresholds are overridden to 2, its
/// workload to pure writes).
pub fn run(scenario: &ScenarioCfg) -> Vec<LatencyRow> {
    let cfg = &ScenarioCfg {
        write_fraction: 1.0,
        strong_read_fraction: 0.0,
        spider: scenario.spider.clone().with_faults(2, 2),
        ..scenario.clone()
    };
    // BFT: seven replicas — the four client regions plus three fault
    // domains.
    let bft = ["virginia", "oregon", "ireland", "tokyo", "ohio", "california", "london"];
    let mut rows = latency_rows("BFT(f=2, leader=virginia)", run_bft(&bft.map(|r| (r, 0)), cfg).0);
    // HFT: each site has seven replicas cycling home region + neighbor.
    let sites: Vec<_> = REGIONS4.iter().zip(NEIGHBORS4).map(|(h, n)| vec![*h, n]).collect();
    rows.extend(latency_rows("HFT(f=2, leader-site=virginia)", run_hft(&sites, 0, cfg).0));
    // Spider agreement: 7 replicas over Virginia's six zones plus one in
    // Ohio. Execution groups: 5 replicas, three in the home region + two
    // in the neighbor.
    let groups: Vec<_> =
        REGIONS4.iter().zip(NEIGHBORS4).map(|(h, n)| vec![*h, *h, *h, n, n]).collect();
    for leader_zone in [0u8, 1, 3, 5] {
        let mut agreement =
            ["virginia", "virginia", "virginia", "virginia", "virginia", "virginia", "ohio"];
        agreement.rotate_left(leader_zone as usize % 6);
        let builder = DeploymentBuilder::new(cfg.spider.clone()).agreement_span(&agreement);
        let system = format!("SPIDER(f=2, leader=V-{})", leader_zone + 1);
        rows.extend(latency_rows(&system, run_spider(builder, &groups, cfg).0));
    }
    rows
}

/// Renders the result table.
pub fn render(rows: &[LatencyRow]) -> String {
    super::render_rows(
        "Figure 11 — write latency (p50/p90/p99/p99.9) when tolerating f = 2 faults",
        rows,
    )
}
