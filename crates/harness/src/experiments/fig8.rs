//! Figure 8: read latencies — strongly consistent (8a) and weakly
//! consistent (8b) — for BFT, HFT, and Spider with leaders in Virginia.
//!
//! Paper result: strong reads follow the write path everywhere. Weak
//! reads are ~2 ms in HFT and Spider (answered by the local cluster /
//! execution group) but require wide-area communication in BFT (a client
//! needs `f + 1` matching replies and only one replica is local).

use super::{latency_rows, LatencyRow};
use crate::scenarios::{run_scenario, ScenarioCfg, SystemKind};

/// Result: rows for strong reads (8a) and weak reads (8b).
#[derive(Debug, Clone)]
pub struct Result {
    /// Figure 8a rows.
    pub strong: Vec<LatencyRow>,
    /// Figure 8b rows.
    pub weak: Vec<LatencyRow>,
}

const SYSTEMS: [SystemKind; 3] = [
    SystemKind::Bft { leader: 0 },
    SystemKind::Hft { leader_site: 0 },
    SystemKind::Spider { leader_zone: 0 },
];

/// Runs both read experiments at `scenario`'s scale (its write mix is
/// overridden to pure reads).
pub fn run(scenario: &ScenarioCfg) -> Result {
    let reads = |strong_read_fraction: f64| -> Vec<LatencyRow> {
        let scenario =
            ScenarioCfg { write_fraction: 0.0, strong_read_fraction, ..scenario.clone() };
        SYSTEMS
            .iter()
            .flat_map(|kind| latency_rows(&kind.to_string(), run_scenario(*kind, &scenario)))
            .collect()
    };
    Result { strong: reads(1.0), weak: reads(0.0) }
}

/// Renders both tables.
pub fn render(result: &Result) -> String {
    let mut out = super::render_rows(
        "Figure 8a — strongly consistent read latency (p50/p90/p99/p99.9)",
        &result.strong,
    );
    out.push('\n');
    out.push_str(&super::render_rows(
        "Figure 8b — weakly consistent read latency (p50/p90/p99/p99.9)",
        &result.weak,
    ));
    out
}
