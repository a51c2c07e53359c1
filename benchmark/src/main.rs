//! The Spider benchmark: five seeded workloads, end-to-end metrics on two
//! clocks, and a per-layer ledger. See `benchmark/README.md`.
//!
//! ```text
//! spider_benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out <path>]
//! spider_benchmark --compare <A> <B>
//! ```
//!
//! A run prints every metric by name, unit and clock, checks the outputs
//! (oracle, digest equality between passes), and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod commit;
mod compare;
mod geo;
mod host;
mod json;
mod layers;
mod metrics;
mod model;
mod run;
mod spans;
mod stats;
mod workloads;

use json::Json;
use run::Outcome;
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

const USAGE: &str = "usage: spider_benchmark --workload <name> --seed <u64> --seconds <n> \
                     --trace <0|1> [--out <path>]\n       spider_benchmark --compare <A> <B>";

/// Where a traced run writes its spans, relative to the repository root.
const SPAN_DIR: &str = "benchmark/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

enum Command {
    Run(Args),
    Compare(String, String),
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--compare" => return Ok(Command::Compare(value()?, value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--out" => out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    }))
}

/// The `metrics` object of the result line: `{name: {value, unit}}`.
fn metrics_json(outcome: &Outcome, with_clock: bool) -> Json {
    Json::Obj(
        outcome
            .ledger
            .rows()
            .map(|(m, value)| {
                let mut fields =
                    vec![("value", Json::Num(value)), ("unit", Json::Str(m.unit.to_owned()))];
                if with_clock {
                    fields.push(("clock", Json::Str(m.clock.as_str().to_owned())));
                }
                (m.name.to_owned(), Json::obj(fields))
            })
            .collect(),
    )
}

/// The one-line result the driver reads.
fn result_line(outcome: &Outcome) -> String {
    Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(outcome, false)),
    ])
    .render()
}

/// The richer result file `--out` writes and `--compare` reads.
fn result_file(outcome: &Outcome, nproc: usize, toolchain: &str) -> String {
    let host_samples = Json::Obj(
        outcome
            .host_samples
            .iter()
            .map(|(name, values)| {
                ((*name).to_owned(), Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()))
            })
            .collect(),
    );
    Json::obj([
        ("workload", Json::Str(outcome.workload.to_owned())),
        ("seed", Json::Num(outcome.seed as f64)),
        ("trace", Json::Num(f64::from(u8::from(outcome.traced)))),
        ("digest", Json::Str(format!("{:016x}", outcome.digest))),
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("samples", Json::Num(outcome.samples as f64)),
        (
            "host",
            Json::obj([
                ("nproc", Json::Num(nproc as f64)),
                ("toolchain", Json::Str(toolchain.to_owned())),
            ]),
        ),
        ("metrics", metrics_json(outcome, true)),
        ("host_samples", host_samples),
    ])
    .render()
}

fn print_report(outcome: &Outcome) {
    for (m, value) in outcome.ledger.rows() {
        let beside = match m.name {
            "op_p50_ms" | "op_p99_ms" => format!("  (n = {})", outcome.samples),
            _ => String::new(),
        };
        println!(
            "  {:<42} {:>16.6} {:<6} {:<9} {:<6} is better{beside}",
            m.name,
            value,
            m.unit,
            m.clock.as_str(),
            m.better.as_str()
        );
    }
    for note in &outcome.notes {
        println!("note: {note}");
    }
    println!("run digest: {:016x}", outcome.digest);
    if outcome.traced {
        println!("benchmark spans (self time = duration - children):");
        for (name, calls, total_ns, self_ns) in outcome.spans.self_times() {
            println!(
                "  {:<28} x{:<5} total {:>10.3} ms  self {:>10.3} ms",
                name,
                calls,
                total_ns as f64 / 1e6,
                self_ns as f64 / 1e6
            );
        }
    }
    for problem in &outcome.problems {
        println!("PROBLEM: {problem}");
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let workload = workloads::by_name(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {} (one of {}; ungated: {})",
            args.workload,
            workloads::NAMES.join(", "),
            workloads::UNGATED.join(", ")
        )
    })?;
    let (nproc, toolchain) = (host::nproc(), host::toolchain());
    println!(
        "spider_benchmark: workload {}, seed {}, trace {}, {} s",
        workload.name,
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    println!("host: nproc {nproc}, {toolchain}; one process, one thread, no sockets");
    println!("why: {}", workload.why);

    let outcome = if args.trace {
        run::traced(&workload, args.seed, args.seconds)
    } else {
        run::untraced(&workload, args.seed, args.seconds, run::MIN_REPEATS)
    };
    print_report(&outcome);
    if outcome.traced {
        let path = Path::new(SPAN_DIR).join(format!("{}.spans.jsonl", workload.name));
        std::fs::create_dir_all(SPAN_DIR)
            .and_then(|()| std::fs::write(&path, outcome.spans.to_jsonl()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans: {} written to {}", outcome.spans.len(), path.display());
    }
    if let Some(out) = &args.out {
        std::fs::write(out, result_file(&outcome, nproc, &toolchain) + "\n")
            .map_err(|e| format!("{out}: {e}"))?;
    }
    println!("{}", result_line(&outcome));
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let done = match parse_args(&argv) {
        Ok(Command::Run(args)) => run(&args),
        Ok(Command::Compare(a, b)) => compare::run(Path::new(&a), Path::new(&b)),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests;
