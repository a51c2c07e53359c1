//! Commit-channel microbenchmark: multi-slot range certification vs the
//! legacy per-slot path, on the commit-channel shape of the fig9bcd
//! scenario (4 agreement-side senders, `fa = 1` → 3 execution-side
//! receivers, `fe = 1`, Virginia → Tokyo).
//!
//! Two modes:
//!
//! * **Flood** ([`run_flood`]): every sender keeps the subchannel window
//!   full with `send_batch` ranges of a given size; the busy-server CPU
//!   model yields the saturation throughput in **slots/s** directly.
//!   Range size 1 is the per-slot baseline (one RSA signature per slot on
//!   each sender — the cost PR 2 identified as the high-load plateau).
//! * **Paced** ([`run_paced`]): senders submit one range per interval
//!   well below saturation and receivers record submit→deliver latency
//!   per slot. Used to compare IRMC-SC **overlapped** shipping (§A.9:
//!   content ships before shares arrive, certificate follows
//!   shares-only) against ship-after-bundle.

use super::channel_rig::{Feed, Outcome, Rig};
use spider_irmc::ChannelMode;
use spider_sim::ObsReport;
use spider_types::SimTime;

/// One measurement of the commit-channel benchmark.
#[derive(Debug, Clone, serde::Serialize)]
pub struct CommitRow {
    /// Channel variant.
    pub variant: String,
    /// Slots per range certificate (1 = legacy per-slot).
    pub range: usize,
    /// Payload size per slot in bytes.
    pub msg_size: usize,
    /// Delivered slots per second (averaged over receivers).
    pub slots_per_sec: f64,
    /// Mean CPU utilization of sender endpoints (0..1).
    pub sender_cpu: f64,
    /// Mean CPU utilization of receiver endpoints (0..1).
    pub receiver_cpu: f64,
    /// Paced mode: p50 submit→deliver commit latency (ms); NaN for flood.
    pub commit_p50_ms: f64,
    /// Paced mode: p99 submit→deliver commit latency (ms); NaN for flood.
    pub commit_p99_ms: f64,
}

/// Subchannel capacity (in-flight positions). Large enough that the CPU
/// cost model — not flow control — is the binding constraint at
/// saturation (the window admits ~200k slots/s at this capacity over a
/// 160 ms RTT; the fastest variant, digest-only dedup RC, saturates near
/// 137k).
const CAPACITY: u64 = 32768;

/// Paced mode: interval between range submissions.
const PACE: SimTime = SimTime::from_millis(50);

/// Scale configuration of the commit-channel benchmark.
#[derive(Debug, Clone)]
pub struct Config {
    /// Payload size per slot (commit channels carry small `Execute`s).
    pub msg_size: usize,
    /// Measurement duration per point.
    pub duration: SimTime,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config { msg_size: 512, duration: SimTime::from_secs(3), seed: 42 }
    }
}

fn run_rig(
    mode: ChannelMode,
    range: usize,
    feed: Feed,
    traced: bool,
    cfg: &Config,
) -> (CommitRow, Outcome) {
    let o = Rig {
        mode,
        feed,
        msg_size: cfg.msg_size,
        capacity: CAPACITY,
        move_every: (CAPACITY / 8).max(1),
        traced,
        duration: cfg.duration,
        seed: cfg.seed,
    }
    .run();
    let row = CommitRow {
        variant: mode.to_string(),
        range,
        msg_size: cfg.msg_size,
        slots_per_sec: o.slots_per_sec,
        sender_cpu: o.sender_cpu,
        receiver_cpu: o.receiver_cpu,
        commit_p50_ms: o.commit_p50_ms,
        commit_p99_ms: o.commit_p99_ms,
    };
    (row, o)
}

/// Floods the channel with ranges of `range` slots and returns the
/// saturation throughput point. `mode` selects the fan-in (and, for
/// IRMC-RC, whether digest-only dedup is on — labelled `IRMC-RC-dedup`).
pub fn run_flood(mode: impl Into<ChannelMode>, range: usize, cfg: &Config) -> CommitRow {
    run_rig(mode.into(), range, Feed::Pump(range), false, cfg).0
}

/// Like [`run_flood`], but with the simulator's observability recorder
/// enabled: every `Action::Charge` is attributed per (node, component,
/// operation), so the returned [`ObsReport`] carries the CPU breakdown
/// that `bench_summary` folds into a flamegraph.
pub fn run_flood_traced(
    mode: impl Into<ChannelMode>,
    range: usize,
    cfg: &Config,
) -> (CommitRow, ObsReport) {
    let (row, o) = run_rig(mode.into(), range, Feed::Pump(range), true, cfg);
    (row, o.obs.expect("traced run records an obs report"))
}

/// Paced submissions measuring submit→deliver commit latency; the mode
/// carries the per-variant knob (e.g. `SenderCast { overlap }` toggles
/// the §A.9 content/share-exchange overlap).
pub fn run_paced(mode: impl Into<ChannelMode>, range: usize, cfg: &Config) -> CommitRow {
    run_rig(mode.into(), range, Feed::Paced(range, PACE), false, cfg).0
}

/// The amortization curve: flood throughput for each range size, for
/// legacy IRMC-RC, digest-only dedup IRMC-RC, and IRMC-SC.
pub fn run_range_sweep(ranges: &[usize], cfg: &Config) -> Vec<CommitRow> {
    let mut rows = Vec::new();
    for mode in [
        ChannelMode::ReliableCast { dedup: false },
        ChannelMode::ReliableCast { dedup: true },
        ChannelMode::SenderCast { overlap: true },
    ] {
        for &r in ranges {
            rows.push(run_flood(mode, r, cfg));
        }
    }
    rows
}

/// Renders commit-channel rows as an aligned text table.
pub fn render(rows: &[CommitRow]) -> String {
    let mut out = String::from(
        "Commit channel — range certification vs per-slot (Virginia->Tokyo, flooded)\n",
    );
    let w = rows.iter().map(|r| r.variant.len()).max().unwrap_or(0).max("variant".len());
    out.push_str(&format!(
        "{:<w$} {:>6} {:>8} {:>13} {:>11} {:>13} {:>9} {:>9}\n",
        "variant",
        "range",
        "size[B]",
        "slots/s",
        "sender-cpu",
        "receiver-cpu",
        "p50[ms]",
        "p99[ms]"
    ));
    for r in rows {
        let fmt = |v: f64| if v.is_finite() { format!("{v:.1}") } else { "-".into() };
        out.push_str(&format!(
            "{:<w$} {:>6} {:>8} {:>13.0} {:>10.0}% {:>12.0}% {:>9} {:>9}\n",
            r.variant,
            r.range,
            r.msg_size,
            r.slots_per_sec,
            r.sender_cpu * 100.0,
            r.receiver_cpu * 100.0,
            fmt(r.commit_p50_ms),
            fmt(r.commit_p99_ms)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_irmc::Variant;

    fn quick() -> Config {
        Config { duration: SimTime::from_secs(1), ..Config::default() }
    }

    #[test]
    fn flood_range_amortization_beats_per_slot() {
        let cfg = quick();
        let base = run_flood(Variant::ReceiverCollect, 1, &cfg);
        let ranged = run_flood(Variant::ReceiverCollect, 32, &cfg);
        assert_eq!(base.variant, "IRMC-RC");
        assert!(base.slots_per_sec > 0.0);
        assert!(
            ranged.slots_per_sec > 3.0 * base.slots_per_sec,
            "range 32 must deliver >= 3x the per-slot saturation throughput \
             (got {:.0} vs {:.0} slots/s)",
            ranged.slots_per_sec,
            base.slots_per_sec
        );
    }

    #[test]
    fn dedup_cuts_receiver_cpu_per_slot() {
        let cfg = quick();
        let legacy = run_flood(ChannelMode::ReliableCast { dedup: false }, 32, &cfg);
        let dedup = run_flood(ChannelMode::ReliableCast { dedup: true }, 32, &cfg);
        assert_eq!(dedup.variant, "IRMC-RC-dedup");
        assert!(dedup.slots_per_sec > 0.0 && legacy.slots_per_sec > 0.0);
        let legacy_per_slot = legacy.receiver_cpu / legacy.slots_per_sec;
        let dedup_per_slot = dedup.receiver_cpu / dedup.slots_per_sec;
        assert!(
            dedup_per_slot < 0.5 * legacy_per_slot,
            "digest-only fan-in must at least halve per-slot receiver CPU \
             (got {:.3e} vs legacy {:.3e} cpu-s/slot)",
            dedup_per_slot,
            legacy_per_slot
        );
    }

    #[test]
    fn sc_overlap_lowers_commit_latency() {
        // Big ranges of big payloads: the content WAN transfer is long
        // enough that overlapping it with signing + share exchange shows.
        let cfg = Config { msg_size: 16 * 1024, ..quick() };
        let overlapped = run_paced(ChannelMode::SenderCast { overlap: true }, 64, &cfg);
        let after_bundle = run_paced(ChannelMode::SenderCast { overlap: false }, 64, &cfg);
        assert!(overlapped.commit_p50_ms.is_finite() && after_bundle.commit_p50_ms.is_finite());
        assert!(
            overlapped.commit_p50_ms < after_bundle.commit_p50_ms,
            "§A.9 overlap must lower commit latency (got {:.3} vs {:.3} ms)",
            overlapped.commit_p50_ms,
            after_bundle.commit_p50_ms
        );
    }
}
