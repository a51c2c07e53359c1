//! CLI for the workspace lints: `cargo run -p spider-analyzer -- check`.

use std::path::PathBuf;
use std::process::ExitCode;

use spider_analyzer::analyze_workspace;

fn usage() -> ! {
    eprintln!(
        "usage: spider-analyzer check [--json PATH] [--root PATH]\n\
         \n\
         Lints the protocol crates for determinism, panic-freedom,\n\
         wire-format totality, cost-charge coverage, trace-span\n\
         hygiene, causal-edge pairing, and unsafe containment. Exits 1\n\
         when any unallowed violation is found. See README \"Sans-IO\n\
         invariants\"."
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("check") => {}
        _ => usage(),
    }
    let mut json_path: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_path = Some(args.next().unwrap_or_else(|| usage()).into()),
            "--root" => root = Some(args.next().unwrap_or_else(|| usage()).into()),
            _ => usage(),
        }
    }
    // Default root: the workspace containing this crate (two levels above
    // crates/analyzer), falling back to the current directory.
    let root = root.unwrap_or_else(|| {
        let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        manifest
            .parent()
            .and_then(|p| p.parent())
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."))
    });

    let report = match analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("spider-analyzer: failed to read workspace at {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("spider-analyzer: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("report written to {}", path.display());
    }

    for v in &report.violations {
        println!("{}:{}: [{}] {}", v.file, v.line, v.lint.name(), v.message);
    }
    println!(
        "spider-analyzer: {} file(s) scanned, {} violation(s), {} allow(s) in use",
        report.files_scanned,
        report.violations.len(),
        report.allows.len()
    );
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
