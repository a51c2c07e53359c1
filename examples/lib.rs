//! Shared helpers for the example binaries.
//!
//! The runnable examples live next to this file:
//!
//! * `quickstart` — smallest possible Spider deployment, a few writes,
//!   printed latencies.
//! * `paper_figures` — regenerates every figure of the paper's evaluation
//!   (set `SPIDER_QUICK=1` for a fast pass).
//! * `geo_kvstore` — a realistic geo-replicated key-value store with a
//!   mixed read/write workload and a runtime-added region.
//! * `fault_drill` — crashes the consensus leader, partitions a replica,
//!   and unleashes a Byzantine client, showing that service continues.

#![forbid(unsafe_code)]

use spider::Sample;
use spider_harness::LatencySummary;

/// Formats samples as `p50 … p90 … (n requests)` for example output, with
/// the quantiles `spider_harness` computes for every table and figure.
pub fn fmt_latencies(samples: &[Sample]) -> String {
    match LatencySummary::of_samples(samples) {
        None => "no samples".to_owned(),
        Some(s) => {
            format!("p50 {:.1}ms  p90 {:.1}ms  ({} requests)", s.p50_ms, s.p90_ms, s.count)
        }
    }
}
