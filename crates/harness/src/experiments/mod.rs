//! One module per figure of the paper's evaluation (§5).
//!
//! Every module exposes a `run` function returning structured rows and a
//! `render` function producing the table/series as text. The
//! `paper_figures` example and `bench_summary` are thin wrappers around
//! these runners.
//!
//! The latency figures (7, 8, 9a, 11) are sweeps over
//! [`crate::scenarios`] at the scale of the
//! [`ScenarioCfg`](crate::scenarios::ScenarioCfg) they are given,
//! summarized by [`latency_rows`]; the others carry their own scale
//! knobs. The two IRMC
//! microbenchmarks ([`fig9bcd`], [`commit_channel`]) drive the one
//! Virginia→Tokyo channel rig in `channel_rig.rs` with different feed
//! policies.

pub mod batching;
mod channel_rig;
pub mod commit_channel;
pub mod disaster;
pub mod fig10;
pub mod fig11;
pub mod fig7;
pub mod fig8;
pub mod fig9a;
pub mod fig9bcd;

use crate::stats::LatencySummary;
use spider::Sample;

/// A latency-table row shared by several figures.
#[derive(Debug, Clone, serde::Serialize)]
pub struct LatencyRow {
    /// System configuration label (e.g. "BFT(leader=virginia)").
    pub system: String,
    /// Client region.
    pub client_region: String,
    /// Latency summary for that (system, region) cell.
    pub summary: LatencySummary,
}

/// Summarizes per-region samples as one row per region that completed
/// anything, labelled `system`, in the order the regions arrive.
pub fn latency_rows(
    system: &str,
    samples: impl IntoIterator<Item = (String, Vec<Sample>)>,
) -> Vec<LatencyRow> {
    let row = |(client_region, s): (String, Vec<Sample>)| {
        let summary = LatencySummary::of_samples(&s)?;
        Some(LatencyRow { system: system.to_owned(), client_region, summary })
    };
    samples.into_iter().filter_map(row).collect()
}

/// Renders latency rows as an aligned text table.
pub fn render_rows(title: &str, rows: &[LatencyRow]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!(
        "{:<28} {:<10} {:>9} {:>9} {:>9} {:>10} {:>7}\n",
        "system", "clients", "p50[ms]", "p90[ms]", "p99[ms]", "p99.9[ms]", "n"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<28} {:<10} {:>9.1} {:>9.1} {:>9.1} {:>10.1} {:>7}\n",
            r.system,
            r.client_region,
            r.summary.p50_ms,
            r.summary.p90_ms,
            r.summary.p99_ms,
            r.summary.p999_ms,
            r.summary.count
        ));
    }
    out
}
