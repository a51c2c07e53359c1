//! `spider-analyzer`: workspace determinism & protocol-hygiene lints.
//!
//! The whole reproduction rests on two properties nothing in the compiler
//! enforces: **same seed → same trace** (CI perf gates and byte-identical
//! regression tests assume it) and **handlers total over the wire format**
//! (the paper's §A.9 "never deliver early" argument assumes no message is
//! silently swallowed). This crate mechanically enforces both, plus
//! panic-freedom on hot paths and honesty of the simulator's cost model:
//!
//! 1. **determinism** — no `HashMap`/`HashSet` in protocol crates (their
//!    iteration order is arbitrary under the real std), and no ambient
//!    time/randomness/threads outside the sim's clock.
//! 2. **panic** — no `unwrap`/`expect`/`panic!`-family macros/direct
//!    indexing in sender/receiver/replica hot paths.
//! 3. **wire-totality** — no wildcard `_ =>` arm in a `match` over a
//!    wire-message enum.
//! 4. **charge-coverage** — every function that emits messages also
//!    charges CPU cost, keeping the busy-server perf model honest.
//! 5. **trace-hygiene** — span enter/exit pairs recorded by the
//!    observability layer stay balanced per function with no early
//!    `return` leaking an open span (cross-function lifecycle spans,
//!    which only enter or only exit, are exempt by construction).
//! 6. **edge-pairing** — in the fully traced core stack, every function
//!    that emits messages also records a causal edge
//!    (`ctx.edge`/`ctx.edge_for`), so the critical-path assembly can
//!    follow each hop; payload-free sends carry a reasoned allow.
//! 7. **unsafe-containment** — every `unsafe` token in a scanned crate
//!    is a violation unless it carries `allow(unsafe, <reason>)`. The
//!    workspace has one: the call into the `#[target_feature]` SHA-NI
//!    kernel in `crates/crypto/src/sha256.rs`, right under its runtime
//!    feature check.
//!
//! Escape hatch: `// analyzer: allow(<lint>, <reason>)` on (or directly
//! above) the offending line. The reason is mandatory, and an allow that
//! suppresses nothing is itself a violation, so annotations cannot rot.
//!
//! No external dependencies: a small hand-rolled lexer (see [`lexer`])
//! tokenizes the sources, so the analyzer runs in offline environments and
//! never competes with the protocol crates for dependency versions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod lints;

pub use lints::{check_source, FileLints, Lint, UsedAllow, Violation};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Hot-path files subject to the panic-freedom lint: the code that handles
/// input from other (possibly faulty) nodes at line rate.
const HOT_PATHS: &[&str] = &[
    "crates/irmc/src/sender.rs",
    "crates/irmc/src/receiver.rs",
    "crates/consensus/src/replica.rs",
    "crates/core/src/agreement.rs",
    "crates/core/src/execution.rs",
];

/// Per-crate lint configuration for `crates/<name>/src/**.rs`.
///
/// `sim` owns the clock, so it is exempt from the ambient-time checks (it
/// still must not use hash collections — the event loop's iteration order
/// feeds straight into the trace). Crates that run inside the simulator
/// (`irmc`, `consensus`, `core`) additionally get charge-coverage; `app`,
/// the replicated state machine they host, and `baselines`, the systems
/// Spider is compared with, get the determinism lints.
const CRATE_CFG: &[(&str, bool, bool, bool, bool)] = &[
    // (crate, time_sources, charge_coverage, trace_hygiene, edge_pairing)
    ("types", true, false, false, false),
    ("crypto", true, false, false, false),
    ("sim", false, false, true, false),
    ("obs", true, false, true, false),
    ("irmc", true, true, true, false),
    ("consensus", true, true, true, false),
    // Core is the fully traced stack: every send that carries request
    // payload must also record a causal edge, or the critical-path
    // assembly silently loses the hop.
    ("core", true, true, true, true),
    // The store's iteration order decides how a snapshot is cut into
    // parts, and replicas sign a hash over those parts: a hash
    // collection or ambient randomness here would split correct
    // replicas. It runs no protocol code, so nothing to charge or trace.
    ("app", true, false, false, false),
    // The BFT and Steward baselines run inside the simulator too, and
    // their latencies sit next to Spider's in every comparison figure:
    // the determinism lints. They model CPU by direct charges and are
    // not traced, so no charge, span or edge pairing to check.
    ("baselines", true, false, false, false),
];

/// Files outside the protocol crates that feed CI-gated numbers: the
/// disaster experiment family and the availability metrics behind its
/// gates. Scanned with the full determinism lints (hash collections and
/// ambient time/randomness) so scripted fault plans and the metrics
/// derived from them stay replayable.
const EXTRA_FILES: &[&str] =
    &["crates/harness/src/stats.rs", "crates/harness/src/experiments/disaster.rs"];

/// Full analysis result for a workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Unallowed findings, sorted by file then line.
    pub violations: Vec<Violation>,
    /// Allow annotations that suppressed something, for auditability.
    pub allows: Vec<UsedAllow>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the workspace has no unallowed violations.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Serializes the report as JSON (hand-rolled; no serde in this crate).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"lint\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                json_str(v.lint.name()),
                json_str(&v.file),
                v.line,
                json_str(&v.message)
            ));
        }
        if !self.violations.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n  \"allows\": [");
        for (i, a) in self.allows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"lint\": {}, \"file\": {}, \"line\": {}, \"reason\": {}}}",
                json_str(&a.lint),
                json_str(&a.file),
                a.line,
                json_str(&a.reason)
            ));
        }
        if !self.allows.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str(&format!(
            "],\n  \"files_scanned\": {},\n  \"clean\": {}\n}}\n",
            self.files_scanned,
            self.clean()
        ));
        s
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Analyzes every checked crate under `root` (the workspace root).
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    for &(krate, time_sources, charge_coverage, trace_hygiene, edge_pairing) in CRATE_CFG {
        let src_dir = root.join("crates").join(krate).join("src");
        let mut files = Vec::new();
        collect_rs(&src_dir, &mut files)?;
        files.sort();
        for path in files {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
            let cfg = FileLints {
                hash_collections: true,
                time_sources,
                panic_freedom: HOT_PATHS.contains(&rel.as_str()),
                charge_coverage,
                trace_hygiene,
                edge_pairing,
            };
            let src = fs::read_to_string(&path)?;
            let (violations, allows) = check_source(&rel, &src, cfg);
            report.violations.extend(violations);
            report.allows.extend(allows);
            report.files_scanned += 1;
        }
    }
    for rel in EXTRA_FILES {
        let path = root.join(rel);
        let cfg = FileLints {
            hash_collections: true,
            time_sources: true,
            panic_freedom: false,
            charge_coverage: false,
            trace_hygiene: false,
            edge_pairing: false,
        };
        let src = fs::read_to_string(&path)?;
        let (violations, allows) = check_source(rel, &src, cfg);
        report.violations.extend(violations);
        report.allows.extend(allows);
        report.files_scanned += 1;
    }
    report.violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report.allows.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_escapes_and_round_trips_shape() {
        let report = Report {
            violations: vec![Violation {
                lint: Lint::Panic,
                file: "a.rs".into(),
                line: 3,
                message: "say \"no\"\n".into(),
            }],
            allows: vec![UsedAllow {
                file: "b.rs".into(),
                line: 9,
                lint: "determinism".into(),
                reason: "topology map, never iterated on the wire path".into(),
            }],
            files_scanned: 2,
        };
        let json = report.to_json();
        assert!(json.contains("\"say \\\"no\\\"\\n\""));
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("\"files_scanned\": 2"));
    }

    #[test]
    fn empty_report_is_clean() {
        let report = Report::default();
        assert!(report.clean());
        assert!(report.to_json().contains("\"clean\": true"));
    }
}
