//! Figure 9a: modularity impact — Spider-0E (agreement group executes
//! directly), Spider-1E (one execution group co-located in Virginia), and
//! full Spider, for 200-byte writes.
//!
//! Paper result: wide-area client-replica distance dominates; the
//! IRMC/externalized-execution machinery adds less than 14 ms.

use super::{latency_rows, LatencyRow};
use crate::scenarios::{run_scenario, ScenarioCfg, SystemKind};

const SYSTEMS: [SystemKind; 3] =
    [SystemKind::Spider0E, SystemKind::Spider1E, SystemKind::Spider { leader_zone: 0 }];

/// Runs the three variants at `scenario`'s scale; one row per (variant, region).
pub fn run(scenario: &ScenarioCfg) -> Vec<LatencyRow> {
    SYSTEMS
        .iter()
        .flat_map(|kind| latency_rows(&kind.to_string(), run_scenario(*kind, scenario)))
        .collect()
}

/// Renders the result table.
pub fn render(rows: &[LatencyRow]) -> String {
    super::render_rows(
        "Figure 9a — modularity impact: SPIDER-0E vs SPIDER-1E vs SPIDER (200-byte writes)",
        rows,
    )
}
