//! Runs one workload for the time given and assembles the result: the
//! end-to-end metrics from untraced passes (`--trace 0`), or the per-layer
//! ledger from a traced pass plus the direct drives (`--trace 1`).

use crate::commit::{self, CommitSpec};
use crate::geo::{self, GeoSpec, Ladder};
use crate::host::{self, SpeedClock};
use crate::layers;
use crate::metrics::{Ledger, END_TO_END, PER_LAYER};
use crate::model::{Modelled, Pass};
use crate::spans::Spans;
use crate::stats::{self, median};
use crate::workloads::{Spec, Workload};
use spider_harness::experiments::{commit_channel, fig9bcd};
use spider_irmc::{ChannelMode, Variant};
use spider_obs::{causal, export, HealthEvent, ObsReport};
use spider_types::SimTime;
use std::time::Instant;

/// Fewest passes of a run: the median needs three, and every pass after
/// the first is also a check that the simulation repeats exactly.
pub const MIN_REPEATS: usize = 3;

/// What a run found, ready to print.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Whether every output checked out; `problems` says what did not.
    pub correct: bool,
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// FNV digest of every sample and the simulator totals.
    pub digest: u64,
    pub ledger: Ledger,
    /// Latency samples behind `op_p50_ms` / `op_p99_ms`.
    pub samples: u64,
    /// Per-pass host measurements (`wall_s`, `setup_s`), for spread.
    pub host_samples: Vec<(&'static str, Vec<f64>)>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
    pub spans: Spans,
}

/// Checks that a pass reproduced the first one of the run.
fn check(first: &Modelled, pass: &Modelled, label: &str, problems: &mut Vec<String>) {
    if pass != first {
        problems.push(format!(
            "{label}: modelled results differ from the first pass (digest {:016x} vs {:016x})",
            pass.digest, first.digest
        ));
    }
}

fn oracle(m: &Modelled, problems: &mut Vec<String>) {
    if m.failed() > 0 {
        problems.push(format!(
            "oracle: {} of {} ops failed ({} incomplete, {} lost, {} duplicated, {} replicas \
             diverged)",
            m.failed(),
            m.attempted,
            m.attempted - m.completed,
            m.lost,
            m.duplicated,
            m.diverged
        ));
    }
    if m.latency.p50_ms <= 0.0 || m.latency.p99_ms <= 0.0 {
        problems.push(format!(
            "only {} latency samples: a 99th percentile needs {} beyond it",
            m.latency.count,
            stats::MIN_BEYOND
        ));
    }
}

/// `--trace 0`: repeats the workload from the seed until `seconds` of
/// host time are used (at least [`MIN_REPEATS`] passes) and reports the
/// end-to-end metrics; host-clock ones are medians over the passes.
pub fn untraced(w: &Workload, seed: u64, seconds: f64, min_repeats: usize) -> Outcome {
    let started = Instant::now();
    let mut spans = Spans::new(false, seed);
    let mut passes: Vec<Pass> = Vec::new();
    let mut problems = Vec::new();
    loop {
        let pass = w.run_pass(seed, false, &mut spans);
        if let Some(first) = passes.first() {
            check(
                &first.modelled,
                &pass.modelled,
                &format!("pass {}", passes.len()),
                &mut problems,
            );
        }
        passes.push(pass);
        let elapsed = started.elapsed().as_secs_f64();
        let per_pass = elapsed / passes.len() as f64;
        if passes.len() >= min_repeats && elapsed + per_pass > seconds {
            break;
        }
    }
    let m = passes[0].modelled.clone();
    oracle(&m, &mut problems);

    let column = |f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let wall = column(&|p| p.wall.scaled_s);
    let setup = column(&|p| p.setup.scaled_s);
    let wall_raw = column(&|p| p.wall.raw_s);
    let ops = m.timed_ops.max(1) as f64;
    let allocs = column(&|p| p.allocs as f64 / ops);
    if allocs.windows(2).any(|w| w[0] != w[1]) {
        problems.push(format!("allocations differ between passes: {allocs:?} per op"));
    }

    let mut ledger = Ledger::new(&END_TO_END);
    ledger.set("setup_s", median(&setup));
    ledger.set("wall_s", median(&wall));
    ledger.set("allocs_per_op", median(&allocs));
    ledger.set("peak_rss_mb", host::peak_rss_mb());
    ledger.set("goodput_ops_per_sim_s", m.goodput);
    ledger.set("op_p50_ms", m.latency.p50_ms);
    ledger.set("op_p99_ms", m.latency.p99_ms);

    let notes = vec![
        format!("passes: {} (each one simulation from seed {seed})", passes.len()),
        format!(
            "timed section per pass, wall clock: min {:.4} median {:.4} max {:.4} s; scaled to the \
             reference speed: min {:.4} median {:.4} max {:.4} s",
            stats::min(&wall_raw),
            median(&wall_raw),
            stats::max(&wall_raw),
            stats::min(&wall),
            median(&wall),
            stats::max(&wall),
        ),
        format!(
            "modelled: {} ops attempted, {} completed, {} lost, {} duplicated, {} replicas \
             diverged; stall {:.1} ms, final view {}, stopped at {:.0} ms simulated",
            m.attempted,
            m.completed,
            m.lost,
            m.duplicated,
            m.diverged,
            m.stall_ms,
            m.final_view,
            m.end_ms
        ),
    ];
    Outcome {
        workload: w.name,
        seed,
        traced: false,
        correct: problems.is_empty(),
        problems,
        attempted: m.attempted,
        failed: m.failed(),
        digest: m.digest,
        ledger,
        samples: m.latency.count,
        host_samples: vec![("wall_s", wall), ("setup_s", setup), ("wall_raw_s", wall_raw)],
        notes,
        spans,
    }
}

/// `--trace 1`: one untraced and one traced pass (their modelled results
/// must be equal — tracing is a pure observer), the trace-derived layer
/// metrics, the direct drives, the workload's extra layer runs, and then
/// more untraced/traced pairs while time remains, to steady the tracing
/// overhead ratio.
pub fn traced(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let started = Instant::now();
    let cpu0 = host::cpu_s();
    let mut spans = Spans::new(true, seed);
    let s_run = spans.enter("run");
    let mut problems = Vec::new();
    let mut ledger = Ledger::new(&PER_LAYER);
    let mut notes = Vec::new();

    let pair_started = Instant::now();
    let s = spans.enter("pass.untraced");
    let plain = w.run_pass(seed, false, &mut spans);
    spans.exit(s);
    let s = spans.enter("pass.traced");
    let mut observed = w.run_pass(seed, true, &mut spans);
    spans.exit(s);
    let pair_s = pair_started.elapsed().as_secs_f64();
    let m = plain.modelled.clone();
    check(&m, &observed.modelled, "traced pass", &mut problems);
    oracle(&m, &mut problems);
    let report = observed.obs.take().expect("a traced pass carries its report");

    from_modelled(&m, &mut ledger);
    from_trace(w, &m, &report, &mut spans, &mut ledger, &mut notes, &mut problems);
    for (name, value) in layers::crypto(&mut spans)
        .into_iter()
        .chain(layers::sim(&mut spans))
        .chain(layers::consensus(&mut spans))
        .chain(layers::obs(&mut spans))
    {
        ledger.set(name, value);
    }
    match &w.spec {
        Spec::Commit(spec) => irmc_suite(spec, seed, &plain, &mut spans, &mut ledger),
        Spec::Geo(spec) => {
            if let Some(ladder) = spec.ladder {
                rate_ladder(spec, ladder, seed, &mut spans, &mut ledger, &mut notes);
            }
        }
    }

    let mut plain_passes = vec![plain];
    let mut traced_passes = vec![observed];
    while started.elapsed().as_secs_f64() + pair_s <= seconds {
        let s = spans.enter("pass.untraced");
        let p = w.run_pass(seed, false, &mut spans);
        spans.exit(s);
        let s = spans.enter("pass.traced");
        let t = w.run_pass(seed, true, &mut spans);
        spans.exit(s);
        check(&m, &p.modelled, "untraced repeat", &mut problems);
        check(&m, &t.modelled, "traced repeat", &mut problems);
        plain_passes.push(p);
        traced_passes.push(t);
    }
    let plain_wall: Vec<f64> = plain_passes.iter().map(|p| p.wall.scaled_s).collect();
    let traced_wall: Vec<f64> = traced_passes.iter().map(|p| p.wall.scaled_s).collect();
    let plain_s = median(&plain_wall);
    ledger.set("obs.trace_overhead_ratio", median(&traced_wall) / plain_s);
    ledger.set("bench.wall_min_s", stats::min(&plain_wall));
    ledger.set("bench.wall_max_s", stats::max(&plain_wall));
    ledger.set("bench.traced_wall_s", median(&traced_wall));
    if m.timed_events > 0 {
        ledger.set("sim.host_ns_per_event", plain_s * 1e9 / m.timed_events as f64);
    }
    ledger.set("sim.sim_s_per_host_s", m.timed_sim_s / plain_s);
    let plain = &plain_passes[0];
    ledger.set("bench.repeats", plain_wall.len() as f64);
    ledger.set("bench.samples", m.latency.count as f64);
    ledger.set("bench.alloc_bytes_per_op", plain.alloc_bytes as f64 / m.timed_ops.max(1) as f64);
    spans.exit(s_run);
    ledger.set("bench.span_count", spans.len() as f64);
    ledger.set("bench.cpu_s", host::cpu_s() - cpu0);

    Outcome {
        workload: w.name,
        seed,
        traced: true,
        correct: problems.is_empty(),
        problems,
        attempted: m.attempted,
        failed: m.failed(),
        digest: m.digest,
        ledger,
        samples: m.latency.count,
        host_samples: vec![("wall_s", plain_wall), ("traced_wall_s", traced_wall)],
        notes,
        spans,
    }
}

/// Layer metrics that are plain arithmetic on a pass's modelled numbers.
fn from_modelled(m: &Modelled, ledger: &mut Ledger) {
    let ops = m.completed.max(1) as f64;
    ledger.set("sim.events_per_op", m.events as f64 / ops);
    ledger.set("sim.msgs_per_op", m.msgs as f64 / ops);
    ledger.set("sim.dropped_msgs", m.dropped_msgs as f64);
    ledger.set("consensus.final_view", m.final_view as f64);
    for (i, kind) in ["write", "strong_read", "weak_read"].into_iter().enumerate() {
        ledger.set(&format!("core.{kind}_p50_ms"), m.kind_p50_ms[i]);
        ledger.set(&format!("core.{kind}_p99_ms"), m.kind_p99_ms[i]);
    }
    for (i, region) in spider_harness::REGIONS4.into_iter().enumerate() {
        ledger.set(&format!("core.region_p50_ms.{region}"), m.region_p50_ms[i]);
    }
    for (i, role) in ["agreement", "execution", "client"].into_iter().enumerate() {
        ledger.set(&format!("core.{role}_cpu_us_per_op"), m.busy_ns[i] as f64 / 1e3 / ops);
    }
    ledger.set("core.agreement_util_max", m.agreement_util_max);
    ledger.set("core.wan_bytes_per_op", m.wan_bytes as f64 / ops);
    ledger.set("core.lan_bytes_per_op", m.lan_bytes as f64 / ops);
    ledger.set("core.stall_ms", m.stall_ms);
    ledger.set("core.recovery_ms", m.recovery_ms);
    ledger.set("core.lost_ops", m.lost as f64);
    ledger.set("core.dup_ops", m.duplicated as f64);
    ledger.set("core.diverged_replicas", m.diverged as f64);
    ledger.set("core.lagging_replicas", m.lagging as f64);
    ledger.set("irmc.sender_cpu_us_per_slot", m.sender_cpu_us_per_slot);
    ledger.set("irmc.receiver_cpu_us_per_slot", m.receiver_cpu_us_per_slot);
}

/// Layer metrics read out of the traced pass's `ObsReport`.
fn from_trace(
    w: &Workload,
    m: &Modelled,
    report: &ObsReport,
    spans: &mut Spans,
    ledger: &mut Ledger,
    notes: &mut Vec<String>,
    problems: &mut Vec<String>,
) {
    ledger.set("obs.report_ms", spans.total_s("obs.report") * 1e3);
    ledger.set("obs.spans_per_op", report.spans.len() as f64 / m.completed.max(1) as f64);
    ledger.set("obs.spans_dropped", report.spans_dropped as f64);
    ledger.set("obs.edges_dropped", report.edges_dropped as f64);

    for row in export::phase_breakdown(report) {
        let name = match row.segment {
            "client->propose" => "client_propose",
            "propose->commit" => "propose_commit",
            "commit->deliver" => "commit_deliver",
            "deliver->reply" => "deliver_reply",
            _ => continue,
        };
        ledger.set(&format!("core.phase_p50_ms.{name}"), row.p50_ms);
        if name == "propose_commit" {
            ledger.set("consensus.propose_commit_p50_ms", row.p50_ms);
            ledger.set("consensus.propose_commit_samples", row.count as f64);
            if row.count as usize >= 100 * stats::MIN_BEYOND {
                ledger.set("consensus.propose_commit_p99_ms", row.p99_ms);
            }
            notes.push(format!(
                "ordered by consensus: {} of {} ops ({:.1} %)",
                row.count,
                m.completed,
                100.0 * row.count as f64 / m.completed.max(1) as f64
            ));
        }
    }

    let s = spans.enter("obs.assemble");
    let paths = causal::assemble(report);
    let profiles = causal::differential_profile(&paths);
    spans.exit_counted(s, paths.len() as u64);
    ledger.set("obs.assemble_ms", spans.total_s("obs.assemble") * 1e3);
    let tail_wire: f64 = profiles
        .iter()
        .filter(|p| p.cohort == "p999")
        .flat_map(|p| p.rows.iter())
        .filter(|r| r.hop == "cast" && r.component == "wire")
        .map(|r| r.share)
        .sum::<f64>()
        + 0.0; // An empty sum is -0.0.
    ledger.set("irmc.tail_cast_wire_share", tail_wire);

    let cpu = report.cpu_by_op();
    let total: f64 = cpu.values().map(|t| t.as_nanos() as f64).sum();
    let share_of = |op: &str| -> f64 {
        let ns: f64 =
            cpu.iter().filter(|((_, o), _)| *o == op).map(|(_, t)| t.as_nanos() as f64).sum();
        if total > 0.0 {
            ns / total
        } else {
            0.0
        }
    };
    ledger.set("irmc.cpu_share.range_sign", share_of("range_sign"));
    ledger.set("irmc.cpu_share.range_hash", share_of("range_hash"));
    let mut components: Vec<&str> = cpu.keys().map(|(c, _)| *c).collect();
    components.dedup();
    notes.push(format!("CPU attributed to components: {}", components.join(", ")));
    if matches!(w.spec, Spec::Commit(_)) {
        // The workload claims to bypass consensus and core: hold it to that.
        if let Some(c) = components.iter().find(|c| !matches!(**c, "sender" | "receiver")) {
            problems.push(format!("commit_channel trace attributes CPU to `{c}`"));
        }
    }

    // A stall the watchdog flagged is explained by a scripted fault that
    // was in force, or by a later recovery of the same channel.
    let scripted_window =
        w.geo().filter(|spec| spec.fault_window().is_some()).map(GeoSpec::stall_window);
    let unexplained = report
        .health
        .iter()
        .filter(|e| match **e {
            HealthEvent::IrmcWindowStall { at, component, key, .. } => {
                let scripted = scripted_window.is_some_and(|(from, to)| at >= from && at <= to);
                let recovered = report.health.iter().any(|r| {
                    matches!(*r, HealthEvent::IrmcWindowRecover { at: r_at, component: c, key: k, .. }
                        if r_at >= at && c == component && k == key)
                });
                !scripted && !recovered
            }
            _ => false,
        })
        .count();
    ledger.set("obs.stalls_unexplained", unexplained as f64);
}

/// `commit_channel` only: the other channel modes and ranges, flooded and
/// paced at the workload's scale, and two Fig 9d byte-accounting points.
fn irmc_suite(spec: &CommitSpec, seed: u64, plain: &Pass, spans: &mut Spans, ledger: &mut Ledger) {
    let s_suite = spans.enter("layer.irmc");
    let cfg = spec.config(spec.duration, seed);
    let mut clock = SpeedClock::start();
    let mut flood = |label: &str, mode: ChannelMode, range: usize, spans: &mut Spans| {
        let s = spans.enter("irmc.run_flood");
        let (row, timing) = clock.time(|| commit_channel::run_flood(mode, range, &cfg));
        let host_ns = timing.scaled_s * 1e9;
        let delivered = commit::slots(&row, spec.duration);
        spans.exit_counted(s, delivered);
        ledger.set(&format!("irmc.flood_slots_per_sim_s.{label}"), row.slots_per_sec);
        if range == spec.range {
            ledger
                .set(&format!("irmc.host_ns_per_slot.{label}"), host_ns / delivered.max(1) as f64);
        }
    };
    flood("rc_r32", ChannelMode::ReliableCast { dedup: false }, spec.range, spans);
    flood("sc_r32", ChannelMode::SenderCast { overlap: true }, spec.range, spans);
    flood("dedup_r1", commit::MODE, 1, spans);
    // The workload's own untraced pass already is the dedup range-32 flood
    // (plus the paced pass, which costs a few milliseconds).
    let m = &plain.modelled;
    ledger.set("irmc.flood_slots_per_sim_s.dedup_r32", m.goodput);
    ledger.set(
        "irmc.host_ns_per_slot.dedup_r32",
        plain.wall.scaled_s * 1e9 / m.timed_ops.max(1) as f64,
    );
    ledger.set("irmc.paced_p50_ms.dedup", m.latency.p50_ms);
    for (label, overlap) in [("sc_overlap", true), ("sc_bundle", false)] {
        let s = spans.enter("irmc.run_paced");
        let row = commit_channel::run_paced(ChannelMode::SenderCast { overlap }, spec.range, &cfg);
        spans.exit(s);
        ledger.set(&format!("irmc.paced_p50_ms.{label}"), row.commit_p50_ms);
    }
    let fig9 = fig9bcd::Config { duration: spec.duration, seed, ..fig9bcd::Config::default() };
    for (label, variant) in [("rc_1k", Variant::ReceiverCollect), ("sc_1k", Variant::SenderCollect)]
    {
        let s = spans.enter("irmc.fig9_point");
        let row = fig9bcd::run_point(variant, 1024, &fig9);
        spans.exit(s);
        let per_msg = row.wan_mbps * 1e6 / 8.0 / row.throughput_rps;
        ledger.set(&format!("irmc.wan_bytes_per_msg.{label}"), per_msg);
    }
    spans.exit(s_suite);
}

/// `geo_writes` only, ungated: the same deployment at more clients per
/// region (25), a few simulated seconds per rung at 4, 8 and 16
/// requests per second per client. Near saturation the modelled results are chaotic in
/// the seed, which is why this regime is reported here and not gated.
/// `core.max_rate_under_500ms` is the nominal rate (clients x rate) of the
/// highest rung whose p99 stays within 500 ms. The clients wait for each
/// reply before the next request, so no backlog can grow and the latency
/// limit is the whole criterion; each rung's goodput is reported beside it.
fn rate_ladder(
    base: &GeoSpec,
    ladder: Ladder,
    seed: u64,
    spans: &mut Spans,
    ledger: &mut Ledger,
    notes: &mut Vec<String>,
) {
    const LIMIT_MS: f64 = 500.0;
    let s_ladder = spans.enter("layer.core.ladder");
    let mut best = 0.0;
    for rate in [4u32, 8, 16] {
        let spec = GeoSpec {
            clients_per_region: ladder.clients_per_region,
            rate: rate as f64,
            // More than any client can issue in the window: the rung ends
            // at its deadline, not when a budget runs out.
            budget: u64::MAX,
            warmup: SimTime::from_secs(1),
            goodput_end: SimTime::from_secs(1) + ladder.measured,
            deadline: SimTime::from_secs(1) + ladder.measured,
            ladder: None,
            ..base.clone()
        };
        let mut quiet = Spans::new(false, seed);
        let s = spans.enter("core.ladder_rung");
        let m = geo::run_pass(&spec, seed, false, &mut quiet).modelled;
        spans.exit_counted(s, m.completed);
        let offered = (4 * spec.clients_per_region) as f64 * spec.rate;
        ledger.set(&format!("core.ladder_p99_ms.r{rate}"), m.latency.p99_ms);
        ledger.set(&format!("core.ladder_goodput.r{rate}"), m.goodput);
        if m.latency.p99_ms > 0.0 && m.latency.p99_ms <= LIMIT_MS {
            best = offered;
        }
        notes.push(format!(
            "ladder r{rate}: {offered:.0}/s nominal, goodput {:.1}/s, p99 {:.1} ms over {} samples",
            m.goodput, m.latency.p99_ms, m.latency.count
        ));
    }
    ledger.set("core.max_rate_under_500ms", best);
    spans.exit(s_ladder);
}
