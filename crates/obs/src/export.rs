//! Exporters: Perfetto `trace_event` JSON, folded stacks for
//! flamegraphs, per-phase latency breakdowns (exact, nearest rank), the
//! health-event JSONL, and the FNV digest used by determinism double-run
//! tests.
//!
//! All output is rendered with deterministic iteration (the report's
//! collections are ordered) and fixed-precision formatting, so the same
//! run always produces byte-identical artifacts.

use crate::causal::{nearest_rank, CohortProfile};
use crate::{
    HealthEvent, ObsReport, SpanKind, PHASE_COMMIT, PHASE_DELIVER, PHASE_PROPOSE, PHASE_REQUEST,
};
use std::fmt::Write as _;

/// FNV-1a 64-bit digest of a rendered artifact; the determinism tests
/// compare digests across double runs.
pub fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Renders the full report into a canonical text form for digesting:
/// every span event, CPU attribution entry, causal edge, health event and
/// gauge, one per line, in deterministic order.
pub fn digest_render(report: &ObsReport) -> String {
    let mut out = String::new();
    for e in &report.spans {
        let _ = writeln!(
            out,
            "span {} n{} r{} {} {}",
            e.at.as_nanos(),
            e.node.0,
            e.req,
            e.phase,
            e.kind.tag()
        );
    }
    for (&(node, component, op), &t) in &report.cpu {
        let _ = writeln!(out, "cpu n{node} {component};{op} {}", t.as_nanos());
    }
    for e in &report.edges {
        let _ = writeln!(
            out,
            "edge {} n{}->n{} r{} {}",
            e.at.as_nanos(),
            e.src.0,
            e.dst.0,
            e.req,
            e.kind
        );
    }
    for e in &report.health {
        let _ = writeln!(out, "health {}", health_event_json(e));
    }
    for (&(node, component, key), &(cur, hw)) in &report.gauges {
        let _ = writeln!(out, "gauge n{node} {component}#{key} cur={cur} hw={hw}");
    }
    out
}

/// Renders one watchdog event as a JSON object (no trailing newline).
fn health_event_json(e: &HealthEvent) -> String {
    match *e {
        HealthEvent::IrmcWindowStall { at, node, component, key } => format!(
            "{{\"event\":\"irmc_window_stall\",\"at_ms\":{:.3},\"node\":{},\"component\":\"{}\",\"key\":{}}}",
            at.as_millis_f64(),
            node.0,
            component,
            key
        ),
        HealthEvent::IrmcWindowRecover { at, node, component, key } => format!(
            "{{\"event\":\"irmc_window_recover\",\"at_ms\":{:.3},\"node\":{},\"component\":\"{}\",\"key\":{}}}",
            at.as_millis_f64(),
            node.0,
            component,
            key
        ),
        HealthEvent::ViewChange { at, node, view } => format!(
            "{{\"event\":\"view_change\",\"at_ms\":{:.3},\"node\":{},\"view\":{}}}",
            at.as_millis_f64(),
            node.0,
            view
        ),
        HealthEvent::ViewChangeStorm { at, node, count } => format!(
            "{{\"event\":\"view_change_storm\",\"at_ms\":{:.3},\"node\":{},\"count\":{}}}",
            at.as_millis_f64(),
            node.0,
            count
        ),
    }
}

/// Renders the watchdog event stream as JSONL, one event per line in
/// time order — the `BENCH_health_events.jsonl` artifact.
pub fn health_jsonl(report: &ObsReport) -> String {
    let mut out = String::new();
    for e in &report.health {
        let _ = writeln!(out, "{}", health_event_json(e));
    }
    out
}

/// Renders differential critical-path profiles as folded stacks
/// (`cohort;hop;component;op <ns>`) — the
/// `BENCH_critical_path_folded.txt` artifact. Load in
/// <https://www.speedscope.app> to compare the tail cohort's flame
/// against the median cohort's.
pub fn critical_path_folded(profiles: &[CohortProfile]) -> String {
    let mut out = String::new();
    for p in profiles {
        for row in &p.rows {
            let _ = writeln!(
                out,
                "{};{};{};{} {}",
                p.cohort,
                row.hop,
                row.component,
                row.op,
                row.total.as_nanos()
            );
        }
    }
    out
}

/// Renders the spans as Chrome/Perfetto `trace_event` JSON. Request
/// phases become async nestable events (`ph:"b"`/`"e"`, id = request
/// id); instants become global instant events. Load in
/// <https://ui.perfetto.dev> or `chrome://tracing`.
pub fn perfetto_json(report: &ObsReport) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for e in &report.spans {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let ts_us = e.at.as_nanos() as f64 / 1_000.0;
        match e.kind {
            SpanKind::Enter | SpanKind::Exit => {
                let ph = if e.kind == SpanKind::Enter { "b" } else { "e" };
                let _ = write!(
                    out,
                    "{{\"ph\":\"{ph}\",\"cat\":\"spider\",\"id\":{},\"pid\":{},\"tid\":{},\"ts\":{ts_us:.3},\"name\":\"{}\"}}",
                    e.req, e.node.0, e.node.0, e.phase
                );
            }
            SpanKind::Instant => {
                let _ = write!(
                    out,
                    "{{\"ph\":\"i\",\"s\":\"g\",\"cat\":\"spider\",\"pid\":{},\"tid\":{},\"ts\":{ts_us:.3},\"name\":\"{}\",\"args\":{{\"req\":{}}}}}",
                    e.node.0, e.node.0, e.phase, e.req
                );
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Renders CPU attribution as folded stacks (`component;op <ns>`, one
/// line per stack, aggregated over nodes) — the input format of
/// `flamegraph.pl` and <https://www.speedscope.app>.
pub fn folded_stacks(report: &ObsReport) -> String {
    let mut out = String::new();
    for ((component, op), t) in report.cpu_by_op() {
        let _ = writeln!(out, "{component};{op} {}", t.as_nanos());
    }
    out
}

/// Renders a per-component CPU table: each component's total busy time
/// and its ops sorted by share, largest first.
pub fn cpu_table(report: &ObsReport) -> String {
    let by_op = report.cpu_by_op();
    let mut total_ns = 0u64;
    let mut components: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    for (&(component, _), &t) in &by_op {
        total_ns += t.as_nanos();
        *components.entry(component).or_insert(0) += t.as_nanos();
    }
    let mut out = String::new();
    let _ = writeln!(out, "{:<16} {:<16} {:>12} {:>7}", "component", "op", "busy_ms", "share");
    for (&component, &comp_ns) in &components {
        let share = if total_ns > 0 { 100.0 * comp_ns as f64 / total_ns as f64 } else { 0.0 };
        let _ = writeln!(
            out,
            "{:<16} {:<16} {:>12.3} {:>6.1}%",
            component,
            "(total)",
            comp_ns as f64 / 1e6,
            share
        );
        let mut ops: Vec<(&'static str, u64)> = by_op
            .iter()
            .filter(|((c, _), _)| *c == component)
            .map(|(&(_, op), &t)| (op, t.as_nanos()))
            .collect();
        ops.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        for (op, ns) in ops {
            let op_share = if comp_ns > 0 { 100.0 * ns as f64 / comp_ns as f64 } else { 0.0 };
            let _ =
                writeln!(out, "{:<16} {:<16} {:>12.3} {:>6.1}%", "", op, ns as f64 / 1e6, op_share);
        }
    }
    out
}

/// The operation with the most attributed busy time in `component`,
/// with its share of the component total (0.0 when nothing recorded).
pub fn top_op(report: &ObsReport, component: &str) -> Option<(&'static str, f64)> {
    let by_op = report.cpu_by_op();
    let comp_total: u64 =
        by_op.iter().filter(|((c, _), _)| *c == component).map(|(_, &t)| t.as_nanos()).sum();
    by_op
        .iter()
        .filter(|((c, _), _)| *c == component)
        .max_by_key(|(&(_, op), &t)| (t.as_nanos(), std::cmp::Reverse(op)))
        .map(|(&(_, op), &t)| {
            let share = if comp_total > 0 { t.as_nanos() as f64 / comp_total as f64 } else { 0.0 };
            (op, share)
        })
}

/// One per-phase latency row of the request lifecycle breakdown.
#[derive(Debug, Clone)]
pub struct PhaseRow {
    /// Segment label, e.g. `"client->propose"`.
    pub segment: &'static str,
    /// Requests with both endpoints observed.
    pub count: u64,
    /// Median segment latency in milliseconds.
    pub p50_ms: f64,
    /// 90th percentile in milliseconds.
    pub p90_ms: f64,
    /// 99th percentile in milliseconds.
    pub p99_ms: f64,
    /// 99.9th percentile in milliseconds.
    pub p999_ms: f64,
    /// Mean in milliseconds.
    pub mean_ms: f64,
}

/// Computes the per-phase latency breakdown (client→propose,
/// propose→commit, commit→deliver, deliver→reply) from the trace. For
/// each request, each milestone's *first* occurrence is used (the first
/// execution replica to receive the commit, the first reply quorum).
/// Quantiles are exact: the recorded latency at nearest rank
/// `max(1, ceil(q·n))`. A segment without samples reports 0.
pub fn phase_breakdown(report: &ObsReport) -> Vec<PhaseRow> {
    // Milestone slots per request: submit, propose, commit, deliver, reply.
    let mut marks: std::collections::BTreeMap<u64, [Option<u64>; 5]> =
        std::collections::BTreeMap::new();
    for e in &report.spans {
        if e.req == 0 {
            continue;
        }
        let slot = match (e.phase, e.kind) {
            (PHASE_REQUEST, SpanKind::Enter) => 0,
            (PHASE_PROPOSE, _) => 1,
            (PHASE_COMMIT, _) => 2,
            (PHASE_DELIVER, _) => 3,
            (PHASE_REQUEST, SpanKind::Exit) => 4,
            _ => continue,
        };
        let m = marks.entry(e.req).or_insert([None; 5]);
        if m[slot].is_none() {
            m[slot] = Some(e.at.as_nanos());
        }
    }
    const SEGMENTS: [(&str, usize, usize); 5] = [
        ("client->propose", 0, 1),
        ("propose->commit", 1, 2),
        ("commit->deliver", 2, 3),
        ("deliver->reply", 3, 4),
        ("client->reply", 0, 4),
    ];
    SEGMENTS
        .iter()
        .map(|&(segment, a, b)| {
            let mut lats: Vec<u64> =
                marks.values().filter_map(|m| Some(m[b]?.saturating_sub(m[a]?))).collect();
            lats.sort_unstable();
            let ms = |q: f64| nearest_rank(&lats, q).unwrap_or(0) as f64 / 1e6;
            let sum: u128 = lats.iter().map(|&v| v as u128).sum();
            let count = lats.len() as u64;
            PhaseRow {
                segment,
                count,
                p50_ms: ms(0.50),
                p90_ms: ms(0.90),
                p99_ms: ms(0.99),
                p999_ms: ms(0.999),
                mean_ms: if count == 0 { 0.0 } else { sum as f64 / count as f64 / 1e6 },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{req_id, ObsConfig, Recorder, PHASE_SHIP};
    use spider_types::{NodeId, SimTime};

    fn sample_report() -> ObsReport {
        let mut r = Recorder::enabled(ObsConfig::default());
        for c in 0..3u32 {
            let req = req_id(c, 1);
            let base = SimTime::from_millis(c as u64 * 10);
            r.span_enter(base, NodeId(c), req, PHASE_REQUEST);
            r.span_instant(base + SimTime::from_millis(2), NodeId(10), req, PHASE_PROPOSE);
            r.span_instant(base + SimTime::from_millis(5), NodeId(10), req, PHASE_COMMIT);
            r.span_instant(base + SimTime::from_millis(6), NodeId(11), req, PHASE_SHIP);
            r.span_instant(base + SimTime::from_millis(8), NodeId(12), req, PHASE_DELIVER);
            r.span_exit(base + SimTime::from_millis(9), NodeId(c), req, PHASE_REQUEST);
        }
        r.cpu_add(NodeId(10), "sender", "range_sign", SimTime::from_millis(7));
        r.cpu_add(NodeId(10), "sender", "vouch_mac", SimTime::from_millis(2));
        r.cpu_add(NodeId(12), "receiver", "range_verify", SimTime::from_millis(1));
        r.report()
    }

    #[test]
    fn phase_breakdown_measures_segments() {
        let rows = phase_breakdown(&sample_report());
        assert_eq!(rows.len(), 5);
        let seg = |name: &str| rows.iter().find(|r| r.segment == name).unwrap().clone();
        let cp = seg("client->propose");
        assert_eq!((cp.count, cp.p50_ms, cp.mean_ms), (3, 2.0, 2.0));
        let e2e = seg("client->reply");
        assert_eq!((e2e.count, e2e.p50_ms, e2e.p999_ms), (3, 9.0, 9.0));
    }

    #[test]
    fn phase_quantiles_are_exact_nearest_ranks() {
        let mut r = Recorder::enabled(ObsConfig::default());
        for k in 1..=1_000u64 {
            let req = req_id(0, k);
            let base = SimTime::from_millis(k);
            r.span_enter(base, NodeId(0), req, PHASE_REQUEST);
            r.span_instant(base + SimTime::from_micros(k), NodeId(10), req, PHASE_PROPOSE);
        }
        let rows = phase_breakdown(&r.report());
        let cp = rows.iter().find(|r| r.segment == "client->propose").unwrap();
        assert_eq!(cp.count, 1_000);
        assert_eq!((cp.p50_ms, cp.p90_ms, cp.p99_ms, cp.p999_ms), (0.5, 0.9, 0.99, 0.999));
        assert_eq!(cp.mean_ms, 0.5005);
    }

    #[test]
    fn a_segment_without_samples_reports_zero() {
        let mut r = Recorder::enabled(ObsConfig::default());
        let req = req_id(0, 1);
        r.span_enter(SimTime::from_millis(1), NodeId(0), req, PHASE_REQUEST);
        r.span_instant(SimTime::from_millis(3), NodeId(10), req, PHASE_PROPOSE);
        r.span_exit(SimTime::from_millis(9), NodeId(0), req, PHASE_REQUEST);
        let rows = phase_breakdown(&r.report());
        let cd = rows.iter().find(|r| r.segment == "commit->deliver").unwrap();
        assert_eq!(cd.count, 0);
        assert_eq!([cd.p50_ms, cd.p90_ms, cd.p99_ms, cd.p999_ms, cd.mean_ms], [0.0; 5]);
        let e2e = rows.iter().find(|r| r.segment == "client->reply").unwrap();
        assert_eq!((e2e.count, e2e.p50_ms), (1, 8.0));
    }

    #[test]
    fn perfetto_json_is_balanced_and_parsable_shape() {
        let json = perfetto_json(&sample_report());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert_eq!(json.matches("\"ph\":\"b\"").count(), 3);
        assert_eq!(json.matches("\"ph\":\"e\"").count(), 3);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 12);
        // Braces balance — cheap structural validity check.
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn folded_stacks_and_top_op() {
        let rep = sample_report();
        let folded = folded_stacks(&rep);
        assert!(folded.contains("sender;range_sign 7000000"));
        assert!(folded.contains("receiver;range_verify 1000000"));
        let (op, share) = top_op(&rep, "sender").unwrap();
        assert_eq!(op, "range_sign");
        assert!((share - 7.0 / 9.0).abs() < 1e-9);
        assert!(top_op(&rep, "nonexistent").is_none());
    }

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        let rep = sample_report();
        let a = fnv64(&digest_render(&rep));
        let b = fnv64(&digest_render(&rep));
        assert_eq!(a, b);
        let mut rep2 = sample_report();
        rep2.cpu.insert((99, "extra", "op"), SimTime::from_nanos(1));
        assert_ne!(a, fnv64(&digest_render(&rep2)));
    }

    #[test]
    fn cpu_table_reports_component_totals() {
        let table = cpu_table(&sample_report());
        assert!(table.contains("sender"));
        assert!(table.contains("(total)"));
        assert!(table.contains("range_sign"));
    }

    #[test]
    fn digest_covers_edges() {
        let mut r = Recorder::enabled(ObsConfig::default());
        let req = req_id(0, 1);
        r.span_enter(SimTime::from_millis(1), NodeId(0), req, PHASE_REQUEST);
        r.edge(SimTime::from_millis(2), NodeId(0), NodeId(10), "request", req);
        r.span_exit(SimTime::from_millis(9), NodeId(0), req, PHASE_REQUEST);
        let rep = r.report();
        assert!(digest_render(&rep).contains("edge 2000000 n0->n10 r1 request"));
        let mut rep2 = rep.clone();
        rep2.edges[0].dst = NodeId(11);
        assert_ne!(fnv64(&digest_render(&rep)), fnv64(&digest_render(&rep2)));
    }

    #[test]
    fn health_jsonl_renders_events_in_time_order() {
        let mut r = Recorder::enabled(ObsConfig::default());
        r.health_pending(SimTime::from_secs(1), NodeId(4), "commit", 0, 5);
        r.span_instant(SimTime::from_secs(5), NodeId(0), 0, crate::PHASE_RECAST);
        r.health_mark(SimTime::from_secs(6), NodeId(4), "commit", 0);
        let rep = r.report();
        let jsonl = health_jsonl(&rep);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\":\"irmc_window_stall\""));
        assert!(lines[1].contains("\"event\":\"irmc_window_recover\""));
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn critical_path_folded_is_speedscope_shaped() {
        use crate::causal::{CohortProfile, ProfileRow, SegmentKind};
        let profiles = vec![CohortProfile {
            cohort: "p999",
            requests: 3,
            mean_latency: SimTime::from_millis(120),
            rows: vec![ProfileRow {
                hop: "commit-cast",
                component: "wire",
                op: SegmentKind::Transit.op(),
                total: SimTime::from_millis(240),
                share: 0.8,
                count: 3,
            }],
        }];
        let folded = critical_path_folded(&profiles);
        assert_eq!(folded, "p999;commit-cast;wire;transit 240000000\n");
    }

    #[test]
    fn phase_rows_carry_tail_columns() {
        let rows = phase_breakdown(&sample_report());
        let e2e = rows.iter().find(|r| r.segment == "client->reply").unwrap();
        assert!(e2e.p999_ms >= e2e.p99_ms && e2e.p99_ms >= e2e.p50_ms);
        assert!(e2e.p999_ms > 0.0);
    }
}
