//! `--compare A B`: two result sets of this benchmark side by side.
//!
//! `A` and `B` are result files written with `--out`, or directories of
//! them (files are paired by name). For every metric in both it prints the
//! two values, the relative difference, the bound from `BENCHMARK.json`
//! and a verdict. For one seed, modelled metrics and run digests must be
//! *equal*: the simulation is deterministic, so any difference is a change
//! in behaviour, not noise. Host metrics with a bound are `worse` when B is
//! worse than A by more than the bound, and `unresolved` when the spread
//! between a run's own passes is wider than the bound.

use crate::json::{self, Json};
use crate::stats;
use std::path::{Path, PathBuf};

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The result files under `path`: itself, or its `*.json` entries by name.
fn result_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if !path.is_dir() {
        return Ok(vec![path.to_owned()]);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    Ok(files)
}

/// `(bound, better)` of an end-to-end metric of `BENCHMARK.json`.
fn bound_of<'a>(contract: &'a Json, metric: &str) -> Option<(f64, &'a str)> {
    let entry = contract
        .get("end_to_end")?
        .as_arr()
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))?;
    Some((entry.get("bound")?.as_f64()?, entry.get("better")?.as_str()?))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
    /// A modelled number or digest that had to be equal and is not.
    Differs,
    /// No bound and no equality rule applies: reported, not judged.
    Info,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "DIFFERS",
            Verdict::Info => "-",
        }
    }
}

/// Judges one metric. `spread` is the widest quartile spread between the
/// passes of either run, where the result files carry per-pass values.
pub fn judge(
    a: f64,
    b: f64,
    modelled: bool,
    same_seed: bool,
    bound: Option<(f64, &str)>,
    spread: Option<f64>,
) -> Verdict {
    if modelled && same_seed {
        return if a == b { Verdict::Ok } else { Verdict::Differs };
    }
    let Some((bound, better)) = bound else {
        return Verdict::Info;
    };
    if spread.is_some_and(|s| s > bound) {
        return Verdict::Unresolved;
    }
    let worse_by = if better == "higher" { (a - b) / a.abs() } else { (b - a) / a.abs() };
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn pass_spread(result: &Json, metric: &str) -> Option<f64> {
    let values: Vec<f64> =
        result.get("host_samples")?.get(metric)?.as_arr().iter().filter_map(Json::as_f64).collect();
    stats::spread(&values)
}

/// Compares one pair of result files; returns how many verdicts failed.
fn compare_pair(a: &Json, b: &Json, contract: &Json) -> usize {
    let text = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap_or("?").to_owned();
    let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let same_seed = num(a, "seed") == num(b, "seed");
    println!(
        "== {} (seed {} vs {}, trace {})",
        text(a, "workload"),
        num(a, "seed"),
        num(b, "seed"),
        num(a, "trace")
    );
    let mut failed = 0;
    if text(a, "workload") != text(b, "workload") || num(a, "trace") != num(b, "trace") {
        println!("   different workloads or trace modes: nothing to compare");
        return 1;
    }
    if same_seed {
        let equal = text(a, "digest") == text(b, "digest");
        println!(
            "   {:<40} {:>18} {:>18} {:>9} {:>7}  {}",
            "run digest",
            text(a, "digest"),
            text(b, "digest"),
            "",
            "equal",
            if equal { "ok" } else { "DIFFERS" }
        );
        failed += usize::from(!equal);
    }
    let empty = Json::Obj(Vec::new());
    let b_metrics = b.get("metrics").unwrap_or(&empty);
    for (name, entry) in a.get("metrics").unwrap_or(&empty).fields() {
        let Some(other) = b_metrics.get(name) else { continue };
        let (va, vb) = (num(entry, "value"), num(other, "value"));
        let modelled = entry.get("clock").and_then(Json::as_str) == Some("modelled");
        let bound = bound_of(contract, name);
        let spread =
            [pass_spread(a, name), pass_spread(b, name)].into_iter().flatten().reduce(f64::max);
        let verdict = judge(va, vb, modelled, same_seed, bound, spread);
        failed += usize::from(matches!(verdict, Verdict::Worse | Verdict::Differs));
        let rel =
            if va != 0.0 { format!("{:+.2}%", 100.0 * (vb - va) / va.abs()) } else { "-".into() };
        let limit = if modelled && same_seed {
            "equal".to_owned()
        } else {
            bound.map_or_else(|| "-".to_owned(), |(b, _)| format!("{:.0}%", b * 100.0))
        };
        println!(
            "   {:<40} {:>18} {:>18} {:>9} {:>7}  {}",
            name,
            format!("{va:.6}"),
            format!("{vb:.6}"),
            rel,
            limit,
            verdict.as_str()
        );
    }
    failed
}

/// Runs the comparison; `Ok(true)` when nothing is worse and nothing that
/// must be equal differs.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let contract = load(Path::new("BENCHMARK.json"))
        .map_err(|e| format!("{e} (run --compare from the repository root)"))?;
    let (files_a, files_b) = (result_files(a)?, result_files(b)?);
    let mut failed = 0;
    let mut pairs = 0;
    for fa in &files_a {
        let fb = if b.is_dir() {
            files_b.iter().find(|f| f.file_name() == fa.file_name())
        } else {
            files_b.first()
        };
        let Some(fb) = fb else {
            println!("== {}: no counterpart in {}", fa.display(), b.display());
            continue;
        };
        failed += compare_pair(&load(fa)?, &load(fb)?, &contract);
        pairs += 1;
    }
    if pairs == 0 {
        return Err("no result files to compare".to_owned());
    }
    println!("{pairs} result file pair(s) compared, {failed} verdict(s) failed");
    Ok(failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modelled_numbers_of_one_seed_must_be_equal() {
        assert_eq!(judge(84.5, 84.5, true, true, None, None), Verdict::Ok);
        assert_eq!(judge(84.5, 84.6, true, true, Some((0.25, "lower")), None), Verdict::Differs);
        // Across seeds they are judged by their bound like any other metric.
        assert_eq!(judge(84.5, 84.6, true, false, Some((0.05, "lower")), None), Verdict::Ok);
    }

    #[test]
    fn host_numbers_are_judged_by_bound_direction_and_spread() {
        let lower = Some((0.10, "lower"));
        assert_eq!(judge(1.0, 1.09, false, true, lower, Some(0.02)), Verdict::Ok);
        assert_eq!(judge(1.0, 1.11, false, true, lower, Some(0.02)), Verdict::Worse);
        assert_eq!(judge(1.0, 0.50, false, true, lower, None), Verdict::Ok);
        assert_eq!(judge(1.0, 1.11, false, true, lower, Some(0.12)), Verdict::Unresolved);
        let higher = Some((0.10, "higher"));
        assert_eq!(judge(100.0, 89.0, false, false, higher, None), Verdict::Worse);
        assert_eq!(judge(100.0, 120.0, false, false, higher, None), Verdict::Ok);
        assert_eq!(judge(1.0, 9.0, false, true, None, None), Verdict::Info);
    }
}
