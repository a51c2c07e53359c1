//! Figure 7: write latencies per client region for different leader
//! locations, across BFT, HFT, and Spider.
//!
//! Paper result: BFT/HFT latencies vary strongly with both the client's
//! region and the leader's region; Spider's depend only on the client's
//! distance to the agreement group, and moving the consensus leader
//! between Virginia availability zones changes nothing.

use super::{latency_rows, LatencyRow};
use crate::scenarios::{run_scenario, ScenarioCfg, SystemKind};

/// The leader placements evaluated by the paper: every region for BFT and
/// HFT; Virginia zones 1, 2, 4, 6 for Spider.
pub fn systems() -> Vec<SystemKind> {
    let mut v = Vec::new();
    for leader in 0..4 {
        v.push(SystemKind::Bft { leader });
    }
    for leader_site in 0..4 {
        v.push(SystemKind::Hft { leader_site });
    }
    for leader_zone in [0u8, 1, 3, 5] {
        v.push(SystemKind::Spider { leader_zone });
    }
    v
}

/// Runs the sweep at `scenario`'s scale; one row per (system, client region).
pub fn run(scenario: &ScenarioCfg) -> Vec<LatencyRow> {
    systems()
        .into_iter()
        .flat_map(|kind| latency_rows(&kind.to_string(), run_scenario(kind, scenario)))
        .collect()
}

/// Renders the result table.
pub fn render(rows: &[LatencyRow]) -> String {
    super::render_rows(
        "Figure 7 — write latency (p50/p90/p99/p99.9) by client region and leader location",
        rows,
    )
}
