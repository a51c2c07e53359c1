//! Headless bench summary: regenerates the CI-tracked modelled numbers,
//! writes them as machine-readable artifacts, and checks the gate table.
//!
//! Runs (at a CI-friendly scale, all on the deterministic simulator):
//!
//! 1. the Figure 7 write-latency sweep (every system × client region),
//! 2. the Figure 10 adaptability write workload (whole-run summary per
//!    system),
//! 3. the batching ablation (greedy / fixed / adaptive across offered
//!    load),
//! 4. the commit-channel range-certification sweep (slots/s at
//!    agreement-replica saturation for range sizes 1/8/32/128, for
//!    legacy IRMC-RC, digest-only dedup IRMC-RC, and IRMC-SC) and the
//!    IRMC-SC §A.9 overlap latency comparison,
//! 5. the disaster suite (correlated outage, WAN partition, view-change
//!    storm, placement frontier) with goodput/unavailability/recovery
//!    per scenario.
//!
//! On top of the numbers it runs two traced repeats with the
//! observability recorder on: a Spider fig7-scale run (per-phase
//! request-latency breakdown + Perfetto trace) and a dedup-RC range-32
//! flood (per-(component, operation) CPU attribution + folded stacks
//! for flamegraphs). The flood trace additionally records causal edges
//! and sampled request spans, from which the differential critical-path
//! profile (p99.9 cohort vs p50 cohort) is assembled; the traced
//! WAN-partition run feeds the streaming health watchdog, whose event
//! stream is checked against the fault schedule.
//!
//! Output: `BENCH_model.json` (override with `--out PATH`), plus
//! `BENCH_trace_perfetto.json` (load in ui.perfetto.dev),
//! `BENCH_cpu_folded.txt` (feed to flamegraph.pl / inferno),
//! `BENCH_critical_path_folded.txt` (speedscope-shaped differential
//! critical-path stacks), and `BENCH_health_events.jsonl` (the
//! watchdog's typed event stream from the traced partition run).
//!
//! Two things guard the numbers. *Properties* — the claims each
//! mechanism exists to deliver — are rows of the gate table in `main`:
//! every run evaluates all of them, prints each row, and exits non-zero
//! if any fails. *Drift* is caught by bytes: the simulator is
//! deterministic, so CI regenerates the artifacts and `git diff`s them
//! against the checked-in copies; an intended modelled change commits
//! the regenerated files in the same PR.

use spider_bench::{quick_fig10, quick_scale};
use spider_harness::experiments::{batching, commit_channel, disaster, fig10, fig7};
use spider_harness::scenarios::{run_scenario_obs, SystemKind};
use spider_irmc::ChannelMode;
use spider_obs::export as obs_export;
use spider_obs::{causal, HealthEvent};
use std::fmt::Write as _;

/// Range sizes of the commit-channel amortization curve.
const COMMIT_RANGES: [usize; 4] = [1, 8, 32, 128];

/// The fig7 cell the summary headlines: Spider with the leader in
/// Virginia zone 1, measured from Virginia clients.
const HEADLINE_SYSTEM: &str = "SPIDER(leader=V-1)";
const HEADLINE_REGION: &str = "virginia";

/// Where the p99.9 cohort of the traced flood spends its critical path:
/// in flight on the WAN. A shifted name means the tail moved (or the
/// edge/span plumbing broke).
const TAIL_DOMINANT_SEGMENT: &str = "cast/wire/transit";

/// How a gate compares its measurement with its bound.
#[derive(Debug, Clone, Copy)]
enum Check {
    AtLeast(f64),
    Above(f64),
    AtMost(f64),
    Below(f64),
    Equals(f64),
    /// The measurement is a flag ([`flag`]): 1 when the property held.
    IsTrue,
}

/// One row of the gate table.
struct Gate {
    name: &'static str,
    measured: f64,
    check: Check,
    /// What a failure of this row means.
    reason: &'static str,
}

/// A boolean property as a gate measurement.
fn flag(held: bool) -> f64 {
    f64::from(u8::from(held))
}

impl Gate {
    /// The comparison as text, and whether the measurement satisfies it.
    /// A non-finite measurement (a cell that never materialized) fails
    /// whatever the comparator.
    fn judge(&self) -> (String, bool) {
        let m = self.measured;
        let (text, holds) = match self.check {
            Check::AtLeast(b) => (format!(">= {b}"), m >= b),
            Check::Above(b) => (format!("> {b}"), m > b),
            Check::AtMost(b) => (format!("<= {b}"), m <= b),
            Check::Below(b) => (format!("< {b:.3}"), m < b),
            Check::Equals(b) => (format!("== {b}"), m == b),
            Check::IsTrue => ("is true".to_owned(), m == 1.0),
        };
        (text, m.is_finite() && holds)
    }
}

/// Walks the gate table: one report line per row, plus how many failed.
fn evaluate(gates: &[Gate]) -> (String, usize) {
    let mut report = String::new();
    let mut failed = 0;
    for g in gates {
        let (check, ok) = g.judge();
        failed += usize::from(!ok);
        let verdict = if ok { "ok  " } else { "FAIL" };
        let _ = writeln!(
            report,
            "gate {verdict} {:<48} {:>12.3} {check:<12} {}",
            g.name, g.measured, g.reason
        );
    }
    (report, failed)
}

/// Formats a float for JSON (`null` for non-finite values).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_owned()
    }
}

/// Formats a string for JSON (labels and segment names never need
/// escapes).
fn json_str(s: &str) -> String {
    format!("\"{s}\"")
}

/// Renders `"key": [ {row}, … ]`, one object per line, from each row's
/// `(field, encoded value)` pairs.
fn json_array<T>(
    key: &str,
    rows: &[T],
    fields: impl Fn(&T) -> Vec<(&'static str, String)>,
) -> String {
    let object = |r: &T| {
        let pairs: Vec<String> =
            fields(r).into_iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("    {{{}}}", pairs.join(", "))
    };
    let lines: Vec<String> = rows.iter().map(object).collect();
    format!("  \"{key}\": [\n{}\n  ]", lines.join(",\n"))
}

fn main() {
    let mut out_path = "BENCH_model.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => panic!("unknown argument: {other} (expected --out PATH)"),
        }
    }

    println!("bench_summary: fig7 write-latency sweep…");
    let fig7_scale = quick_scale();
    let fig7_measured = (fig7_scale.duration - fig7_scale.warmup).as_secs_f64();
    let fig7_rows = fig7::run(&fig7_scale);
    println!("{}", fig7::render(&fig7_rows));
    let spider_p50 = fig7_rows
        .iter()
        .find(|r| r.system == HEADLINE_SYSTEM && r.client_region == HEADLINE_REGION)
        .map_or(f64::NAN, |r| r.summary.p50_ms);

    println!("bench_summary: traced Spider run (fig7 scale, end-to-end request tracing)…");
    let (_, spider_trace) = run_scenario_obs(SystemKind::Spider { leader_zone: 0 }, &fig7_scale);
    let phase_rows = obs_export::phase_breakdown(&spider_trace);
    println!("per-phase request latency breakdown (traced Spider run):");
    println!(
        "  {:<16} {:>7} {:>9} {:>9} {:>9} {:>9}",
        "segment", "n", "p50[ms]", "p90[ms]", "p99[ms]", "mean[ms]"
    );
    for r in &phase_rows {
        println!(
            "  {:<16} {:>7} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            r.segment, r.count, r.p50_ms, r.p90_ms, r.p99_ms, r.mean_ms
        );
    }
    println!();

    println!("bench_summary: fig10 adaptability write workload…");
    let fig10_rows = fig10::run_write_summaries(&quick_fig10());
    for r in &fig10_rows {
        println!(
            "  {:<8} p50={:>7.1}ms p90={:>7.1}ms thruput={:>7.1}r/s",
            r.system, r.summary.p50_ms, r.summary.p90_ms, r.throughput_rps
        );
    }

    println!("\nbench_summary: batching ablation sweep…");
    let sweep = batching::run();
    println!("{}", batching::render(&sweep));
    // Did adaptive beat the static policies where each is weak? At low
    // load, fixed-size batching wastes its linger (p50); at high load,
    // the seed's greedy cut (fixed max_batch, no delay cap) under-batches
    // (throughput).
    let cell = |mode: &str, rps: f64| sweep.iter().find(|r| r.mode == mode && r.offered_rps == rps);
    let [low, .., high] = batching::LOADS.map(|load| load.offered_rps());
    let low_win = matches!(
        (cell("adaptive", low), cell("fixed", low)),
        (Some(a), Some(f)) if a.summary.p50_ms < f.summary.p50_ms
    );
    let high_win = matches!(
        (cell("adaptive", high), cell("greedy", high)),
        (Some(a), Some(g)) if a.throughput_rps > g.throughput_rps
    );

    println!("bench_summary: commit-channel range certification sweep…");
    let commit_cfg = commit_channel::Config::default();
    let commit_rows = commit_channel::run_range_sweep(&COMMIT_RANGES, &commit_cfg);
    println!("{}", commit_channel::render(&commit_rows));
    let commit_row = |variant: &str, range: usize| {
        commit_rows.iter().find(|r| r.variant == variant && r.range == range)
    };
    let commit_cell = |variant: &str, range: usize| {
        commit_row(variant, range).map_or(f64::NAN, |r| r.slots_per_sec)
    };
    // Per-slot receiver CPU in µs of CPU per delivered slot (utilization
    // normalized by throughput — raw utilization is meaningless across
    // variants that saturate at different rates).
    let rx_us_per_slot = |variant: &str, range: usize| {
        commit_row(variant, range).map_or(f64::NAN, |r| r.receiver_cpu / r.slots_per_sec * 1e6)
    };
    let commit_slots_range1 = commit_cell("IRMC-RC", 1);
    let commit_slots_range32 = commit_cell("IRMC-RC", 32);
    let commit_speedup = commit_slots_range32 / commit_slots_range1;
    // Headline of the digest-only fan-in: the commit mode Spider deploys
    // by default (IRMC-RC with dedup).
    let dedup_slots_range32 = commit_cell("IRMC-RC-dedup", 32);
    let rc_dedup_rx_us = rx_us_per_slot("IRMC-RC-dedup", 32);
    let rc_legacy_rx_us = rx_us_per_slot("IRMC-RC", 32);
    let sc_rx_us = rx_us_per_slot("IRMC-SC", 32);

    println!("bench_summary: traced dedup-RC range-32 flood (CPU attribution)…");
    let (_, commit_trace) = commit_channel::run_flood_traced(
        ChannelMode::ReliableCast { dedup: true },
        32,
        &commit_cfg,
    );
    println!("{}", obs_export::cpu_table(&commit_trace));
    let top_sender = obs_export::top_op(&commit_trace, "sender");

    println!("bench_summary: differential critical-path profile (p99.9 vs p50 cohort)…");
    let commit_paths = causal::assemble(&commit_trace);
    let commit_profiles = causal::differential_profile(&commit_paths);
    for p in &commit_profiles {
        println!(
            "  cohort {:<5} {:>5} requests, mean latency {:.2} ms",
            p.cohort,
            p.requests,
            p.mean_latency.as_millis_f64()
        );
        for row in p.rows.iter().take(5) {
            println!(
                "    {:<32} {:>5.1}%  {:>9.3} ms  (in {} requests)",
                format!("{}/{}/{}", row.hop, row.component, row.op),
                row.share * 100.0,
                row.total.as_millis_f64(),
                row.count
            );
        }
    }
    // The tail-forensics headline: where does the p99.9 cohort's
    // critical-path time go?
    let (tail_dominant, tail_share) = commit_profiles
        .iter()
        .find(|p| p.cohort == "p999")
        .and_then(|p| p.rows.first())
        .map(|r| (format!("{}/{}/{}", r.hop, r.component, r.op), r.share))
        .unwrap_or_else(|| ("none".to_owned(), 0.0));
    println!(
        "  tail-dominant segment: {tail_dominant} ({:.0} % of p99.9-cohort \
         critical-path time)\n",
        tail_share * 100.0
    );

    println!("bench_summary: disaster suite…");
    let dis_cfg = disaster::Config::quick();
    let (partition_row, partition_trace) = disaster::run_wan_partition_traced(&dis_cfg);
    let mut disaster_rows = vec![disaster::run_correlated_outage(&dis_cfg), partition_row.clone()];
    disaster_rows.push(disaster::run_view_change_storm(&dis_cfg));
    disaster_rows.extend(disaster::run_placement_sweep(&dis_cfg, &[0, 3]));
    println!("{}", disaster::render(&disaster_rows));

    // Watchdog event stream vs the known fault schedule: the partition
    // cut must surface as an IRMC window stall shortly after `fault_at`,
    // the first post-heal window movement as a recovery; the unfaulted
    // fig7 run must stay stall-free (false-positive check).
    let first_stall_ms = partition_trace.health.iter().find_map(|e| match e {
        HealthEvent::IrmcWindowStall { at, .. } => Some(at.as_millis_f64()),
        _ => None,
    });
    let recover_after_heal = partition_trace
        .health
        .iter()
        .any(|e| matches!(e, HealthEvent::IrmcWindowRecover { at, .. } if *at > dis_cfg.heal_at));
    let fig7_stalls = spider_trace
        .health
        .iter()
        .filter(|e| matches!(e, HealthEvent::IrmcWindowStall { .. }))
        .count();
    // The commit channel must have recast unacked ranges after the heal,
    // otherwise the post-partition catch-up worked by accident (or the
    // trace lost the recast instants).
    let recast_after_heal = partition_trace
        .spans
        .iter()
        .any(|e| e.phase == spider_obs::PHASE_RECAST && e.at > dis_cfg.heal_at);

    println!("bench_summary: IRMC-SC §A.9 overlap latency…");
    let overlap_cfg =
        commit_channel::Config { msg_size: 16 * 1024, ..commit_channel::Config::default() };
    let sc_p50 = |overlap| {
        commit_channel::run_paced(ChannelMode::SenderCast { overlap }, 64, &overlap_cfg)
            .commit_p50_ms
    };
    let (sc_overlap_p50, sc_after_bundle_p50) = (sc_p50(true), sc_p50(false));
    println!(
        "SC commit p50: overlapped {sc_overlap_p50:.2} ms vs ship-after-bundle \
         {sc_after_bundle_p50:.2} ms\n"
    );

    let mut json = String::from("{\n  \"schema\": 3,\n");
    let scalars = [
        ("fig7_spider_p50_ms", json_f64(spider_p50)),
        ("tail_dominant_segment", json_str(&tail_dominant)),
        ("tail_dominant_share", json_f64(tail_share)),
        ("partition_first_stall_ms", json_f64(first_stall_ms.unwrap_or(f64::NAN))),
        ("partition_recover_after_heal", recover_after_heal.to_string()),
        ("fig7_stall_events", fig7_stalls.to_string()),
        ("adaptive_beats_fixed_low_load_p50", low_win.to_string()),
        ("adaptive_beats_greedy_high_load_throughput", high_win.to_string()),
        ("commit_slots_per_sec_range1", json_f64(commit_slots_range1)),
        ("commit_slots_per_sec_range32", json_f64(commit_slots_range32)),
        ("commit_range32_speedup", json_f64(commit_speedup)),
        ("commit_slots_per_sec_range32_dedup", json_f64(dedup_slots_range32)),
        ("rc_dedup_rx_us_per_slot", json_f64(rc_dedup_rx_us)),
        ("rc_legacy_rx_us_per_slot", json_f64(rc_legacy_rx_us)),
        ("sc_rx_us_per_slot", json_f64(sc_rx_us)),
        ("sc_overlap_p50_ms", json_f64(sc_overlap_p50)),
        ("sc_ship_after_bundle_p50_ms", json_f64(sc_after_bundle_p50)),
    ];
    for (key, value) in scalars {
        let _ = writeln!(json, "  \"{key}\": {value},");
    }
    let cp_rows: Vec<_> =
        commit_profiles.iter().flat_map(|p| p.rows.iter().map(move |r| (p.cohort, r))).collect();
    let arrays = [
        json_array("commit_channel", &commit_rows, |r| {
            vec![
                ("variant", json_str(&r.variant)),
                ("range", r.range.to_string()),
                ("slots_per_sec", json_f64(r.slots_per_sec)),
                ("sender_cpu", json_f64(r.sender_cpu)),
                ("receiver_cpu", json_f64(r.receiver_cpu)),
            ]
        }),
        json_array("fig7", &fig7_rows, |r| {
            vec![
                ("system", json_str(&r.system)),
                ("region", json_str(&r.client_region)),
                ("p50_ms", json_f64(r.summary.p50_ms)),
                ("p90_ms", json_f64(r.summary.p90_ms)),
                ("p99_ms", json_f64(r.summary.p99_ms)),
                ("p999_ms", json_f64(r.summary.p999_ms)),
                ("throughput_rps", json_f64(r.summary.count as f64 / fig7_measured)),
            ]
        }),
        json_array("fig10_writes", &fig10_rows, |r| {
            vec![
                ("system", json_str(&r.system)),
                ("p50_ms", json_f64(r.summary.p50_ms)),
                ("p90_ms", json_f64(r.summary.p90_ms)),
                ("p99_ms", json_f64(r.summary.p99_ms)),
                ("p999_ms", json_f64(r.summary.p999_ms)),
                ("throughput_rps", json_f64(r.throughput_rps)),
            ]
        }),
        json_array("adaptive_batching", &sweep, |r| {
            vec![
                ("mode", json_str(&r.mode)),
                ("offered_rps", json_f64(r.offered_rps)),
                ("p50_ms", json_f64(r.summary.p50_ms)),
                ("p90_ms", json_f64(r.summary.p90_ms)),
                ("p99_ms", json_f64(r.summary.p99_ms)),
                ("throughput_rps", json_f64(r.throughput_rps)),
            ]
        }),
        json_array("phase_breakdown", &phase_rows, |r| {
            vec![
                ("segment", json_str(r.segment)),
                ("count", r.count.to_string()),
                ("p50_ms", json_f64(r.p50_ms)),
                ("p90_ms", json_f64(r.p90_ms)),
                ("p99_ms", json_f64(r.p99_ms)),
                ("mean_ms", json_f64(r.mean_ms)),
            ]
        }),
        json_array("critical_path", &cp_rows, |(cohort, r)| {
            vec![
                ("cohort", json_str(cohort)),
                ("hop", json_str(r.hop)),
                ("component", json_str(r.component)),
                ("op", json_str(r.op)),
                ("total_ms", json_f64(r.total.as_millis_f64())),
                ("share", json_f64(r.share)),
                ("count", r.count.to_string()),
            ]
        }),
        json_array("disaster", &disaster_rows, |r| {
            vec![
                ("scenario", json_str(&r.scenario)),
                ("pre_fault_rps", json_f64(r.pre_fault_rps)),
                ("goodput_rps", json_f64(r.goodput_rps)),
                ("pre_fault_p50_ms", json_f64(r.pre_fault_p50_ms)),
                ("unavailability_ms", json_f64(r.unavailability_ms)),
                ("recovery_ms", json_f64(r.recovery_ms.unwrap_or(f64::NAN))),
                ("lost_ops", r.lost_ops.to_string()),
                ("duplicated_ops", r.duplicated_ops.to_string()),
                ("diverged_replicas", r.diverged_replicas.to_string()),
                ("final_view", r.final_view.to_string()),
            ]
        }),
    ];
    json.push_str(&arrays.join(",\n"));
    json.push_str("\n}\n");

    // The summary, the Perfetto track view of the traced Spider run, the
    // folded stacks of the traced commit-channel flood, its differential
    // critical paths, and the partition run's watchdog stream.
    for (path, content) in [
        (out_path.as_str(), json),
        ("BENCH_trace_perfetto.json", obs_export::perfetto_json(&spider_trace)),
        ("BENCH_cpu_folded.txt", obs_export::folded_stacks(&commit_trace)),
        ("BENCH_critical_path_folded.txt", obs_export::critical_path_folded(&commit_profiles)),
        ("BENCH_health_events.jsonl", obs_export::health_jsonl(&partition_trace)),
    ] {
        std::fs::write(path, content).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }

    let stall_delay_ms = first_stall_ms.unwrap_or(f64::NAN) - dis_cfg.fault_at.as_millis_f64();
    let gates = [
        Gate {
            name: "commit range-32 speedup over per-slot",
            measured: commit_speedup,
            check: Check::AtLeast(3.0),
            reason: "range certification must keep amortizing the per-slot signature",
        },
        Gate {
            name: "dedup RC range-32 saturation [slots/s]",
            measured: dedup_slots_range32,
            check: Check::Above(100_000.0),
            reason: "the digest-only fan-in keeps the RC receiver off the hash wall",
        },
        Gate {
            name: "dedup RC receiver CPU per slot / SC's",
            measured: rc_dedup_rx_us / sc_rx_us,
            check: Check::AtMost(2.0),
            reason: "SC verifies one signature per range and hashes content once; \
                     dedup must stay within 2x despite its fs extra digest vouches",
        },
        Gate {
            name: "SC overlapped p50 vs ship-after-bundle [ms]",
            measured: sc_overlap_p50,
            check: Check::Below(sc_after_bundle_p50),
            reason: "the §A.9 overlap must keep lowering IRMC-SC commit latency",
        },
        Gate {
            name: "adaptive beats fixed at low load (p50)",
            measured: flag(low_win),
            check: Check::IsTrue,
            reason: "adaptive batching must not pay the linger fixed-size batching wastes",
        },
        Gate {
            name: "adaptive beats greedy at high load (throughput)",
            measured: flag(high_win),
            check: Check::IsTrue,
            reason: "adaptive batching must fill the batches the greedy cut leaves small",
        },
        Gate {
            name: "wan-partition lost ops",
            measured: partition_row.lost_ops as f64,
            check: Check::Equals(0.0),
            reason: "a completed write is missing from the store",
        },
        Gate {
            name: "wan-partition duplicated ops",
            measured: partition_row.duplicated_ops as f64,
            check: Check::Equals(0.0),
            reason: "an operation executed twice",
        },
        Gate {
            name: "wan-partition diverged replicas",
            measured: partition_row.diverged_replicas as f64,
            check: Check::Equals(0.0),
            reason: "the stores did not converge after the heal",
        },
        Gate {
            name: "wan-partition recovery after heal [ms]",
            measured: partition_row.recovery_ms.unwrap_or(f64::INFINITY),
            check: Check::AtMost(10_000.0),
            reason: "goodput must return to 90 % of pre-fault within 10 simulated s",
        },
        Gate {
            name: "top dedup-RC sender op is range_sign",
            measured: flag(matches!(top_sender, Some(("range_sign", _)))),
            check: Check::IsTrue,
            reason: "the attribution plumbing broke or the sender grew an unplanned hot spot",
        },
        Gate {
            name: "wan-partition trace has a recast span after heal",
            measured: flag(recast_after_heal),
            check: Check::IsTrue,
            reason: "the liveness mechanism must actually fire, not catch up by accident",
        },
        Gate {
            name: "p99.9 dominant segment is cast/wire/transit",
            measured: flag(tail_dominant == TAIL_DOMINANT_SEGMENT),
            check: Check::IsTrue,
            reason: "the tail moved, or the edge/span plumbing broke",
        },
        Gate {
            name: "p99.9 dominant segment share",
            measured: tail_share,
            check: Check::AtLeast(0.40),
            reason: "the profile must name where the tail goes, not spread it thin",
        },
        Gate {
            name: "watchdog stall after the cut [ms]",
            measured: stall_delay_ms,
            check: Check::AtLeast(0.0),
            reason: "a stall before the cut is a false positive",
        },
        Gate {
            name: "watchdog stall detection delay [ms]",
            measured: stall_delay_ms,
            check: Check::AtMost(2_000.0),
            reason: "the partition must surface as an IrmcWindowStall within 2 s",
        },
        Gate {
            name: "watchdog recovery event after heal",
            measured: flag(recover_after_heal),
            check: Check::IsTrue,
            reason: "the first post-heal window movement must clear the stall",
        },
        Gate {
            name: "stall events in the unfaulted fig7 run",
            measured: fig7_stalls as f64,
            check: Check::Equals(0.0),
            reason: "the watchdog false-positives on a healthy run",
        },
    ];
    let (report, failed) = evaluate(&gates);
    print!("\n{report}");
    if failed > 0 {
        eprintln!("bench_summary: {failed} of {} gates FAILED", gates.len());
        std::process::exit(1);
    }
    println!("bench_summary: all {} gates ok", gates.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluator_reports_every_row_and_fails_exactly_the_bad_ones() {
        let gate = |name, measured, check| Gate { name, measured, check, reason: "because" };
        let gates = [
            gate("ok at-least", 3.0, Check::AtLeast(3.0)),
            gate("bad at-least", 2.9, Check::AtLeast(3.0)),
            gate("ok above", 3.1, Check::Above(3.0)),
            gate("bad above", 3.0, Check::Above(3.0)),
            gate("ok at-most", 2.0, Check::AtMost(2.0)),
            gate("bad at-most", 2.1, Check::AtMost(2.0)),
            gate("ok below", 1.9, Check::Below(2.0)),
            gate("bad below", 2.0, Check::Below(2.0)),
            gate("ok equals", 0.0, Check::Equals(0.0)),
            gate("bad equals", 1.0, Check::Equals(0.0)),
            gate("ok is-true", flag(true), Check::IsTrue),
            gate("bad is-true", flag(false), Check::IsTrue),
            gate("bad infinite", f64::INFINITY, Check::AtLeast(3.0)),
            gate("bad nan", f64::NAN, Check::AtMost(2.0)),
            gate("bad nan bound", 1.0, Check::Below(f64::NAN)),
        ];
        let (report, failed) = evaluate(&gates);
        let lines: Vec<&str> = report.lines().collect();
        assert_eq!(lines.len(), gates.len(), "one report line per gate:\n{report}");
        for (g, line) in gates.iter().zip(&lines) {
            assert!(line.contains(g.name) && line.contains("because"), "{line}");
            let expect = if g.name.starts_with("ok") { "gate ok " } else { "gate FAIL " };
            assert!(line.starts_with(expect), "{} judged wrongly: {line}", g.name);
        }
        assert_eq!(failed, gates.iter().filter(|g| g.name.starts_with("bad")).count());
    }
}
