//! Tests of the benchmark as a whole: the metric tables against
//! `BENCHMARK.json`, and every workload end to end at smoke scale.

use crate::json::{self, Json};
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::run;
use crate::workloads::{self, NAMES, UNGATED};

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{key} in {entry:?}"))
}

fn assert_table_matches(table: &[Metric], listed: &[Json]) {
    assert_eq!(listed.len(), table.len());
    for (m, entry) in table.iter().zip(listed) {
        assert!(well_formed(m.name), "{}", m.name);
        assert!(m.unit.len() <= 16, "{}", m.unit);
        assert_eq!(field(entry, "name"), m.name);
        assert_eq!(field(entry, "unit"), m.unit, "{}", m.name);
        assert_eq!(field(entry, "better"), m.better.as_str(), "{}", m.name);
    }
    let mut names: Vec<&str> = table.iter().map(|m| m.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), table.len(), "a metric name is used twice");
}

#[test]
fn names_are_well_formed_and_match_benchmark_json() {
    let contract = contract();
    let listed = contract.get("workloads").expect("workloads").as_arr();
    let listed_names: Vec<&str> = listed.iter().map(|w| field(w, "name")).collect();
    assert_eq!(listed_names, NAMES);
    for entry in listed {
        let w = workloads::by_name(field(entry, "name")).expect("listed workload exists");
        assert!(well_formed(w.name));
        assert_eq!(field(entry, "why"), w.why, "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    for name in UNGATED {
        assert!(workloads::by_name(name).is_some() && !listed_names.contains(&name));
    }
    assert!(workloads::by_name("no_such_workload").is_none());

    assert_table_matches(&END_TO_END, contract.get("end_to_end").expect("end_to_end").as_arr());
    assert_table_matches(&PER_LAYER, contract.get("per_layer").expect("per_layer").as_arr());
    for entry in contract.get("end_to_end").expect("end_to_end").as_arr() {
        let bound = entry.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{entry:?}");
    }
    assert_eq!(END_TO_END[0].name, "setup_s");
}

/// One untraced and one traced smoke run of `name`; both must be correct
/// and must agree on what the simulation did.
fn smoke(name: &str) {
    let w = workloads::smoke(name);
    let plain = run::untraced(&w, 9, 0.0, 1);
    let traced = run::traced(&w, 9, 0.0);
    for outcome in [&plain, &traced] {
        // At this scale there are far too few samples for a 99th
        // percentile; every other check must hold.
        let real: Vec<&String> =
            outcome.problems.iter().filter(|p| !p.contains("latency samples")).collect();
        assert!(real.is_empty(), "{name}: {real:?}");
        assert!(outcome.attempted > 0 && outcome.failed == 0, "{name}");
    }
    assert_eq!(plain.digest, traced.digest, "{name}: tracing changed the simulation");
    assert!(plain.ledger.rows().all(|(_, v)| v.is_finite()));
    let value = |wanted: &str| {
        traced.ledger.rows().find(|(m, _)| m.name == wanted).map(|(_, v)| v).expect("listed")
    };
    assert!(value("obs.trace_overhead_ratio") > 0.0, "{name}");
    assert!(value("crypto.sha256_mb_per_s") > 0.0, "{name}");
    assert!(value("bench.span_count") >= 10.0, "{name}");
    let jsonl = traced.spans.to_jsonl();
    assert_eq!(jsonl.lines().count(), traced.spans.len());
    for line in jsonl.lines() {
        let span = json::parse(line).expect("a span line is JSON");
        let at = |k: &str| span.get(k).and_then(Json::as_f64).expect("number");
        assert!(at("end_ns") >= at("start_ns"), "{line}");
    }
    assert_eq!(
        json::parse(jsonl.lines().next().expect("root")).expect("json").get("parent"),
        Some(&Json::Null)
    );
}

#[test]
fn geo_writes_smoke() {
    smoke("geo_writes");
}

#[test]
fn geo_reads_smoke() {
    smoke("geo_reads");
}

#[test]
fn commit_channel_smoke() {
    smoke("commit_channel");
}

#[test]
fn wan_degrade_smoke() {
    smoke("wan_degrade");
}

#[test]
fn ungated_workloads_run_to_an_outcome() {
    // They are ungated because ops fail on them on some seeds, so the
    // oracle's verdict is not asserted here — only that a run completes
    // and accounts for what it attempted.
    for name in UNGATED {
        let outcome = run::untraced(&workloads::smoke(name), 9, 0.0, 1);
        assert!(outcome.attempted > 0 && outcome.failed <= outcome.attempted, "{name}");
    }
}

#[test]
fn backup_outage_smoke() {
    smoke("backup_outage");
}

#[test]
fn oracle_counts_an_unfinished_budget_as_failed_ops() {
    // A deadline in the middle of the load: clients have issued ops that
    // cannot complete, and the run must say so instead of reporting zeros.
    let mut w = workloads::smoke("geo_writes");
    if let workloads::Spec::Geo(spec) = &mut w.spec {
        spec.budget = 1_000;
        spec.deadline = spider_types::SimTime::from_secs(2);
    }
    let outcome = run::untraced(&w, 9, 0.0, 1);
    assert!(!outcome.correct);
    assert!(outcome.failed > 0 && outcome.failed <= outcome.attempted);
    assert!(outcome.problems.iter().any(|p| p.starts_with("oracle:")), "{:?}", outcome.problems);
}
