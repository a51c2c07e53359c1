//! The seven lint families, implemented over the token stream.
//!
//! All passes work on [`crate::lexer::Lexed`] output, so comments,
//! strings, and `#[cfg(test)]` items are already out of the picture.

use crate::lexer::{lex, Kind, Lexed, Tok};

/// Lint families (plus the two annotation-hygiene lints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lint {
    /// Nondeterministic containers or ambient time/randomness/threads.
    Determinism,
    /// `unwrap`/`expect`/`panic!`/direct indexing in hot paths.
    Panic,
    /// Wildcard arms in matches over wire-message enums.
    WireTotality,
    /// Message emission without a CPU cost charge.
    ChargeCoverage,
    /// Unbalanced or leak-prone trace span enter/exit pairs.
    TraceHygiene,
    /// Message emission in a traced module without a causal edge record.
    EdgePairing,
    /// An `unsafe` block, function, trait or impl (unsafe-containment).
    Unsafe,
    /// Malformed `analyzer:` annotation.
    BadAllow,
    /// Allow annotation that suppresses nothing.
    UnusedAllow,
}

impl Lint {
    /// Stable name used in annotations and reports.
    pub fn name(self) -> &'static str {
        match self {
            Lint::Determinism => "determinism",
            Lint::Panic => "panic",
            Lint::WireTotality => "wire-totality",
            Lint::ChargeCoverage => "charge-coverage",
            Lint::TraceHygiene => "trace-hygiene",
            Lint::EdgePairing => "edge-pairing",
            Lint::Unsafe => "unsafe",
            Lint::BadAllow => "bad-allow",
            Lint::UnusedAllow => "unused-allow",
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The lint family.
    pub lint: Lint,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human explanation.
    pub message: String,
}

/// A used allow annotation, surfaced in the report for auditability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsedAllow {
    /// Workspace-relative file path.
    pub file: String,
    /// Annotated line.
    pub line: u32,
    /// Lint suppressed.
    pub lint: String,
    /// The stated reason.
    pub reason: String,
}

/// Which lint families apply to a file.
#[derive(Debug, Clone, Copy)]
pub struct FileLints {
    /// Forbid `HashMap`/`HashSet`.
    pub hash_collections: bool,
    /// Forbid ambient time/randomness/threads (`false` for the sim crate,
    /// which owns the clock).
    pub time_sources: bool,
    /// Panic-freedom (hot-path files only).
    pub panic_freedom: bool,
    /// Send-without-charge detection.
    pub charge_coverage: bool,
    /// Span enter/exit balance checks (crates that record trace spans).
    pub trace_hygiene: bool,
    /// Send-without-causal-edge detection (modules whose sends carry
    /// request payloads the critical-path assembly must follow).
    pub edge_pairing: bool,
}

/// Enums that travel on the wire: a `match` with an arm over any of these
/// must not end in a wildcard, so new variants force explicit handling.
pub const WIRE_ENUMS: &[&str] = &[
    "ChannelMsg",
    "ReceiverMsg",
    "Msg",
    "SpiderMsg",
    "ChannelLeg",
    "CheckpointMsg",
    "ExecutePayload",
    "AdminCommand",
    "OrderItem",
];

/// Identifiers that pull in wall-clock time or ambient randomness.
const TIME_SOURCES: &[(&str, &str)] = &[
    ("SystemTime", "wall-clock time breaks same-seed reproducibility; use the sim clock"),
    ("Instant", "monotonic OS time breaks same-seed reproducibility; use the sim clock"),
    ("thread_rng", "ambient RNG breaks same-seed reproducibility; thread a seeded rng through"),
];

/// Checks one source file; returns findings and the allows that were used.
pub fn check_source(file: &str, src: &str, cfg: FileLints) -> (Vec<Violation>, Vec<UsedAllow>) {
    let lexed = lex(src);
    let mut cfg = cfg;
    // Fault plans must stay scripted and seed-deterministic: any file
    // that constructs or handles a `FaultPlan` is held to the
    // ambient-time/randomness lint even in crates otherwise exempt. The
    // sim crate owns the clock, but a wall-clock- or `thread_rng`-driven
    // fault timeline would silently break disaster replayability.
    if !cfg.time_sources
        && lexed.toks.iter().any(|t| t.kind == Kind::Ident && t.text == "FaultPlan")
    {
        cfg.time_sources = true;
    }
    let cfg = cfg;
    let mut raw: Vec<Violation> = Vec::new();

    if cfg.hash_collections || cfg.time_sources {
        determinism_pass(file, &lexed, cfg, &mut raw);
    }
    if cfg.panic_freedom {
        panic_pass(file, &lexed, &mut raw);
    }
    wire_totality_pass(file, &lexed, &mut raw);
    unsafe_containment_pass(file, &lexed, &mut raw);
    if cfg.charge_coverage {
        charge_pass(file, &lexed, &mut raw);
    }
    if cfg.trace_hygiene {
        trace_hygiene_pass(file, &lexed, &mut raw);
    }
    if cfg.edge_pairing {
        edge_pairing_pass(file, &lexed, &mut raw);
    }

    // Apply allow annotations: a violation on an annotated line (for the
    // matching lint) is suppressed; every allow must suppress something.
    let mut used = vec![false; lexed.allows.len()];
    let mut out: Vec<Violation> = Vec::new();
    for v in raw {
        let allowed = lexed
            .allows
            .iter()
            .enumerate()
            .find(|(_, a)| a.target_line == v.line && a.lint == v.lint.name());
        match allowed {
            Some((i, _)) => used[i] = true,
            None => out.push(v),
        }
    }
    for b in &lexed.bad_allows {
        out.push(Violation {
            lint: Lint::BadAllow,
            file: file.to_string(),
            line: b.line,
            message: format!("malformed analyzer annotation: {}", b.problem),
        });
    }
    let mut used_allows = Vec::new();
    for (i, a) in lexed.allows.iter().enumerate() {
        if used[i] {
            used_allows.push(UsedAllow {
                file: file.to_string(),
                line: a.target_line,
                lint: a.lint.clone(),
                reason: a.reason.clone(),
            });
        } else {
            out.push(Violation {
                lint: Lint::UnusedAllow,
                file: file.to_string(),
                line: a.comment_line,
                message: format!(
                    "allow({}) suppresses nothing on line {}; remove it",
                    a.lint, a.target_line
                ),
            });
        }
    }
    out.sort_by_key(|v| v.line);
    (out, used_allows)
}

fn violation(out: &mut Vec<Violation>, lint: Lint, file: &str, line: u32, msg: impl Into<String>) {
    out.push(Violation { lint, file: file.to_string(), line, message: msg.into() });
}

// ---------------------------------------------------------------------
// Family 1: determinism
// ---------------------------------------------------------------------

fn determinism_pass(file: &str, lexed: &Lexed, cfg: FileLints, out: &mut Vec<Violation>) {
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != Kind::Ident {
            continue;
        }
        if cfg.hash_collections && (t.text == "HashMap" || t.text == "HashSet") {
            violation(
                out,
                Lint::Determinism,
                file,
                t.line,
                format!(
                    "std::{} iterates in RandomState order; use BTree{} (or a sorted drain) so \
                     same-seed runs stay byte-identical",
                    t.text,
                    &t.text[4..]
                ),
            );
        }
        if cfg.time_sources {
            if let Some((_, why)) = TIME_SOURCES.iter().find(|(name, _)| t.text == *name) {
                // `SpanKind::Instant`-style variant paths reuse the name
                // without touching the OS clock; only a path through the
                // `time` module (or a bare use) is the std type.
                let foreign_variant = i >= 2
                    && toks[i - 1].is_punct("::")
                    && !toks[i - 2].is_ident("time")
                    && !toks[i - 2].is_ident("std");
                if !foreign_variant {
                    violation(out, Lint::Determinism, file, t.line, format!("{}: {}", t.text, why));
                }
            }
            // `thread::spawn` / `std::thread::spawn`.
            if t.text == "spawn"
                && i >= 2
                && toks[i - 1].is_punct("::")
                && toks[i - 2].is_ident("thread")
            {
                violation(
                    out,
                    Lint::Determinism,
                    file,
                    t.line,
                    "thread::spawn: OS scheduling breaks same-seed reproducibility; \
                     protocol code must stay single-threaded sans-IO",
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Family 2: panic-freedom (hot paths)
// ---------------------------------------------------------------------

fn panic_pass(file: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            Kind::Ident
                if (t.text == "unwrap" || t.text == "expect")
                    && i > 0
                    && toks[i - 1].is_punct(".")
                    && toks.get(i + 1).is_some_and(|n| n.is_punct("(")) =>
            {
                violation(
                    out,
                    Lint::Panic,
                    file,
                    t.line,
                    format!(
                        ".{}() can panic on hostile input; return a protocol error or guard \
                         with a debug_assert-backed invariant",
                        t.text
                    ),
                );
            }
            Kind::Ident
                if matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                ) && toks.get(i + 1).is_some_and(|n| n.is_punct("!")) =>
            {
                violation(
                    out,
                    Lint::Panic,
                    file,
                    t.line,
                    format!(
                        "{}! aborts the replica; hot paths must be total over the wire format",
                        t.text
                    ),
                );
            }
            Kind::Punct
                if t.text == "["
                    && i > 0
                    && (toks[i - 1].kind == Kind::Ident
                        || toks[i - 1].is_punct(")")
                        || toks[i - 1].is_punct("]"))
                    && !is_keyword(&toks[i - 1].text) =>
            {
                violation(
                    out,
                    Lint::Panic,
                    file,
                    t.line,
                    "direct indexing can panic on out-of-range input; use .get()/.get_mut() \
                     or guard with a debug_assert-backed invariant",
                );
            }
            _ => {}
        }
    }
}

/// Keywords that may directly precede `[` without forming an index
/// expression (e.g. `return [..]`, `in [..]`, `else [..]`-ish positions).
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "return" | "in" | "if" | "else" | "match" | "break" | "mut" | "ref" | "as" | "where"
    )
}

// ---------------------------------------------------------------------
// Family 3: wire-format totality
// ---------------------------------------------------------------------

struct MatchCtx {
    body_depth: u32,
    collecting: bool,
    pattern: Vec<usize>,
    has_enum_arm: bool,
    wildcard_lines: Vec<(u32, String)>,
    enum_name: String,
}

fn wire_totality_pass(file: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
    let toks = &lexed.toks;
    let mut depth: u32 = 0;
    let mut stack: Vec<MatchCtx> = Vec::new();
    // A `match` whose body brace is pending: (paren_depth, bracket_depth)
    // at the keyword, so we only accept a `{` once groups are balanced.
    let mut pending: Option<(i32, i32)> = None;
    let mut paren: i32 = 0;
    let mut bracket: i32 = 0;

    for (i, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "(" if t.kind == Kind::Punct => paren += 1,
            ")" if t.kind == Kind::Punct => paren -= 1,
            "[" if t.kind == Kind::Punct => bracket += 1,
            "]" if t.kind == Kind::Punct => bracket -= 1,
            _ => {}
        }
        if t.is_ident("match") {
            pending = Some((paren, bracket));
            continue;
        }
        if t.is_punct("{") {
            depth += 1;
            if let Some((p, b)) = pending {
                if paren == p && bracket == b {
                    stack.push(MatchCtx {
                        body_depth: depth,
                        collecting: true,
                        pattern: Vec::new(),
                        has_enum_arm: false,
                        wildcard_lines: Vec::new(),
                        enum_name: String::new(),
                    });
                    pending = None;
                }
            }
            continue;
        }
        if t.is_punct("}") {
            let closes_match = stack.last().is_some_and(|m| m.body_depth == depth);
            depth = depth.saturating_sub(1);
            if closes_match {
                if let Some(m) = stack.pop() {
                    if m.has_enum_arm {
                        for (line, pat) in m.wildcard_lines {
                            violation(
                                out,
                                Lint::WireTotality,
                                file,
                                line,
                                format!(
                                    "catch-all `{pat} =>` in a match over wire enum `{}`: a new \
                                     variant would be silently swallowed; list variants explicitly",
                                    m.enum_name
                                ),
                            );
                        }
                    }
                }
            } else if let Some(m) = stack.last_mut() {
                // An arm body's closing brace returns us to arm level:
                // the next tokens start a fresh pattern.
                if m.body_depth == depth && !m.collecting {
                    m.collecting = true;
                    m.pattern.clear();
                }
            }
            continue;
        }
        let Some(m) = stack.last_mut() else { continue };
        if m.body_depth != depth {
            continue;
        }
        if m.collecting {
            if t.is_punct("=>") && paren == 0 && bracket == 0 {
                finish_arm(toks, m);
                m.collecting = false;
                m.pattern.clear();
            } else {
                m.pattern.push(i);
            }
        } else if t.is_punct(",") && paren == 0 && bracket == 0 {
            m.collecting = true;
            m.pattern.clear();
        }
    }
}

fn finish_arm(toks: &[Tok], m: &mut MatchCtx) {
    // Enum-ness: any wire enum name followed by `::` in the pattern.
    for w in m.pattern.windows(2) {
        let (a, b) = (&toks[w[0]], &toks[w[1]]);
        if a.kind == Kind::Ident && WIRE_ENUMS.contains(&a.text.as_str()) && b.is_punct("::") {
            m.has_enum_arm = true;
            if m.enum_name.is_empty() {
                m.enum_name = a.text.clone();
            }
        }
    }
    // Wildcard-ness: the pattern is `_`, a bare binder ident, or either
    // followed by an `if` guard. (A guarded catch-all still swallows new
    // variants when the guard matches.)
    let first = m.pattern.first().map(|&i| &toks[i]);
    let is_catch_all = match first {
        Some(t) if t.kind == Kind::Ident && !is_keyword(&t.text) => {
            let rest_is_guard = m.pattern.get(1).map(|&i| toks[i].is_ident("if")).unwrap_or(true);
            // A path pattern (`Foo::Bar`) or struct pattern is not a
            // catch-all; a single lowercase-or-underscore ident is.
            rest_is_guard
                && (t.text == "_"
                    || t.text.chars().next().is_some_and(|c| c.is_lowercase() || c == '_'))
        }
        _ => false,
    };
    if is_catch_all {
        if let Some(&i) = m.pattern.first() {
            m.wildcard_lines.push((toks[i].line, toks[i].text.clone()));
        }
    }
}

// ---------------------------------------------------------------------
// Family 4: charge coverage
// ---------------------------------------------------------------------

/// Identifiers that mark a message emission when called as a method.
const SEND_METHODS: &[&str] = &["send", "broadcast", "send_batch"];
/// Identifiers that mark a message emission when `Action::`-qualified
/// (`Action::ToReceiver { .. }`, as the irmc endpoints emit). The bare
/// variant names also appear in `match` patterns on the receiving
/// side, so only the constructing path counts as a send site.
const SEND_VARIANTS: &[&str] = &["ToReceiver", "ToSender", "ToPeerSender"];

/// Scans each function body for message-send sites and for pairing
/// evidence (any identifier in `evidence`). Calls `sink(name, line)`
/// with the first send line of every sending function that lacks the
/// evidence. Shared by the charge-coverage and edge-pairing lints,
/// which differ only in what must accompany a send.
fn for_each_unpaired_send(lexed: &Lexed, evidence: &[&str], mut sink: impl FnMut(&str, u32)) {
    let toks = &lexed.toks;
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let name = toks.get(i + 1).map(|t| t.text.clone()).unwrap_or_default();
        // Find the body: first `{` after the signature.
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct("{") {
            j += 1;
        }
        let body_start = j;
        let mut depth = 0i32;
        let mut first_send: Option<u32> = None;
        let mut has_evidence = false;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.kind == Kind::Ident {
                let is_method_send = SEND_METHODS.contains(&t.text.as_str())
                    && j > body_start
                    && toks[j - 1].is_punct(".")
                    && toks.get(j + 1).is_some_and(|n| n.is_punct("("));
                let is_variant_send = SEND_VARIANTS.contains(&t.text.as_str())
                    && j >= 2
                    && j > body_start
                    && toks[j - 1].is_punct("::")
                    && toks[j - 2].is_ident("Action");
                let is_output_send = t.text == "Send"
                    && j >= 2
                    && toks[j - 1].is_punct("::")
                    && toks[j - 2].is_ident("Output");
                if is_method_send || is_variant_send || is_output_send {
                    first_send.get_or_insert(t.line);
                }
                if evidence.contains(&t.text.as_str()) {
                    has_evidence = true;
                }
            }
            j += 1;
        }
        if let (Some(line), false) = (first_send, has_evidence) {
            sink(&name, line);
        }
        i = if j > i { j } else { i + 1 };
    }
}

fn charge_pass(file: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
    for_each_unpaired_send(lexed, &["charge", "Charge"], |name, line| {
        violation(
            out,
            Lint::ChargeCoverage,
            file,
            line,
            format!(
                "fn `{name}` emits messages but never charges CPU cost; pair every send \
                 site with a CostModel charge (or charge at a caller and allow here)"
            ),
        );
    });
}

// ---------------------------------------------------------------------
// Family 6: edge pairing
// ---------------------------------------------------------------------

/// Identifiers that record a causal edge for a departing message.
const EDGE_METHODS: &[&str] = &["edge", "edge_for"];

/// Checks that every sending function in a traced module also records
/// a causal edge, so the critical-path assembly can follow the message
/// across nodes. Sends that carry no per-request payload (checkpoint
/// gossip, admin commands) are expected to carry a reasoned allow.
fn edge_pairing_pass(file: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
    for_each_unpaired_send(lexed, EDGE_METHODS, |name, line| {
        violation(
            out,
            Lint::EdgePairing,
            file,
            line,
            format!(
                "fn `{name}` emits messages but records no causal edge; pair every send \
                 site with ctx.edge()/ctx.edge_for() so the critical-path assembly can \
                 follow the hop (or record at a caller and allow here)"
            ),
        );
    });
}

// ---------------------------------------------------------------------
// Family 7: unsafe containment
// ---------------------------------------------------------------------

/// Flags every `unsafe` keyword. `#![forbid(unsafe_code)]` already keeps
/// it out of every crate but `crypto`, whose SHA-NI dispatch needs one
/// block; this lint makes that block (and any later one) carry a written
/// reason, and makes loosening another crate's `forbid` show up here.
fn unsafe_containment_pass(file: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
    for t in lexed.toks.iter().filter(|t| t.is_ident("unsafe")) {
        violation(
            out,
            Lint::Unsafe,
            file,
            t.line,
            "`unsafe` without a stated need; write it in safe Rust, or put an \
             `allow(unsafe, <reason>)` next to the `// SAFETY:` comment",
        );
    }
}

// ---------------------------------------------------------------------
// Family 5: trace hygiene
// ---------------------------------------------------------------------

/// One span call site inside a function body.
struct SpanCall {
    /// Token index of the `span_enter`/`span_exit` identifier.
    tok: usize,
    line: u32,
    /// The phase argument: the last identifier before the call's `)`.
    phase: String,
    enter: bool,
}

/// Checks span enter/exit pairing per function.
///
/// A function that both enters and exits the same phase is treated as
/// owning that span locally, so the counts must balance and no `return`
/// may sit between the first enter and the last exit (an early return
/// would leak the span and skew every phase-latency percentile built on
/// it). Functions that only enter or only exit a phase are lifecycle
/// spans closed elsewhere (e.g. the client request span opened at issue
/// time and closed by the reply quorum) and are exempt by construction.
fn trace_hygiene_pass(file: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
    let toks = &lexed.toks;
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let name = toks.get(i + 1).map(|t| t.text.clone()).unwrap_or_default();
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct("{") {
            j += 1;
        }
        let mut depth = 0i32;
        let mut calls: Vec<SpanCall> = Vec::new();
        let mut returns: Vec<(usize, u32)> = Vec::new();
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.is_ident("return") {
                returns.push((j, t.line));
            } else if (t.is_ident("span_enter") || t.is_ident("span_exit"))
                && toks.get(j + 1).is_some_and(|n| n.is_punct("("))
            {
                // Scan to the call's closing paren; the phase is the last
                // identifier before it (a PHASE_* const, possibly
                // path-qualified).
                let mut paren = 0i32;
                let mut k = j + 1;
                let mut phase = String::new();
                while k < toks.len() {
                    if toks[k].is_punct("(") {
                        paren += 1;
                    } else if toks[k].is_punct(")") {
                        paren -= 1;
                        if paren == 0 {
                            break;
                        }
                    } else if toks[k].kind == Kind::Ident {
                        phase = toks[k].text.clone();
                    }
                    k += 1;
                }
                calls.push(SpanCall {
                    tok: j,
                    line: t.line,
                    phase,
                    enter: t.is_ident("span_enter"),
                });
            }
            j += 1;
        }
        // Phases in first-appearance order (no hash maps here either).
        let mut phases: Vec<&str> = Vec::new();
        for c in &calls {
            if !phases.contains(&c.phase.as_str()) {
                phases.push(&c.phase);
            }
        }
        for phase in phases {
            let enters: Vec<&SpanCall> =
                calls.iter().filter(|c| c.enter && c.phase == phase).collect();
            let exits: Vec<&SpanCall> =
                calls.iter().filter(|c| !c.enter && c.phase == phase).collect();
            let (Some(first_enter), Some(last_exit)) = (enters.first(), exits.last()) else {
                // Enter-only or exit-only: a lifecycle span closed in
                // another handler; nothing to check locally.
                continue;
            };
            if enters.len() != exits.len() {
                violation(
                    out,
                    Lint::TraceHygiene,
                    file,
                    first_enter.line,
                    format!(
                        "fn `{name}` enters span `{phase}` {} time(s) but exits it {} time(s); \
                         unbalanced spans corrupt the phase-latency breakdown",
                        enters.len(),
                        exits.len()
                    ),
                );
                continue;
            }
            for &(_, line) in
                returns.iter().filter(|&&(r, _)| r > first_enter.tok && r < last_exit.tok)
            {
                violation(
                    out,
                    Lint::TraceHygiene,
                    file,
                    line,
                    format!(
                        "fn `{name}` returns between span_enter({phase}) and \
                         span_exit({phase}); the early return leaks the span — exit before \
                         returning or restructure without `return`"
                    ),
                );
            }
        }
        i = if j > i { j } else { i + 1 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: FileLints = FileLints {
        hash_collections: true,
        time_sources: true,
        panic_freedom: true,
        charge_coverage: true,
        trace_hygiene: true,
        edge_pairing: false,
    };

    /// Edge-pairing only, so its findings are not entangled with the
    /// charge-coverage lint that shares the send-site scanner.
    const EDGES: FileLints = FileLints {
        hash_collections: false,
        time_sources: false,
        panic_freedom: false,
        charge_coverage: false,
        trace_hygiene: false,
        edge_pairing: true,
    };

    fn lints_of(src: &str) -> Vec<(Lint, u32)> {
        check_source("test.rs", src, ALL).0.into_iter().map(|v| (v.lint, v.line)).collect()
    }

    // -- determinism ---------------------------------------------------

    #[test]
    fn determinism_flags_hash_collections_and_time() {
        let src = "use std::collections::HashMap;\n\
                   fn f() { let t = Instant::now(); let r = thread_rng(); }\n\
                   fn g() { std::thread::spawn(|| {}); }\n";
        let found = lints_of(src);
        assert_eq!(found.iter().filter(|(l, _)| *l == Lint::Determinism).count(), 4);
    }

    #[test]
    fn determinism_accepts_foreign_instant_variant_but_flags_std_paths() {
        let src = "fn f(k: SpanKind) -> char {\n\
                       match k { SpanKind::Instant => 'I', SpanKind::Enter => 'B' }\n\
                   }\n\
                   fn g() { let t = std::time::Instant::now(); }\n";
        let found = lints_of(src);
        assert_eq!(
            found.iter().filter(|(l, _)| *l == Lint::Determinism).count(),
            1,
            "only the std path is a time source: {found:?}"
        );
    }

    #[test]
    fn determinism_accepts_btree_and_sim_time() {
        let src = "use std::collections::{BTreeMap, BTreeSet};\n\
                   fn f(now: SimTime) -> BTreeMap<u64, u64> { BTreeMap::new() }\n";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn fault_plan_site_is_held_to_time_sources_even_when_exempt() {
        let exempt = FileLints {
            hash_collections: true,
            time_sources: false,
            panic_freedom: false,
            charge_coverage: false,
            trace_hygiene: false,
            edge_pairing: false,
        };
        let src = "fn plan() -> FaultPlan {\n\
                       let jitter = thread_rng().gen_range(0..9);\n\
                       FaultPlan::new()\n\
                   }\n";
        let (found, _) = check_source("sim.rs", src, exempt);
        assert!(
            found.iter().any(|v| v.lint == Lint::Determinism && v.message.contains("thread_rng")),
            "a FaultPlan construction site must not draw ambient randomness: {found:?}"
        );
    }

    #[test]
    fn exempt_file_without_fault_plan_keeps_its_exemption() {
        let exempt = FileLints {
            hash_collections: true,
            time_sources: false,
            panic_freedom: false,
            charge_coverage: false,
            trace_hygiene: false,
            edge_pairing: false,
        };
        let src = "fn f() { let t = Instant::now(); }\n";
        let (found, _) = check_source("sim.rs", src, exempt);
        assert!(found.is_empty(), "the sim crate's clock exemption must survive: {found:?}");
    }

    // -- panic-freedom -------------------------------------------------

    #[test]
    fn panic_flags_unwrap_expect_macros_and_indexing() {
        let src = "fn f(v: Vec<u8>, i: usize) -> u8 {\n\
                       let a = v.get(i).unwrap();\n\
                       let b = v.first().expect(\"nonempty\");\n\
                       if i > 9 { panic!(\"bad\"); }\n\
                       v[i]\n\
                   }\n";
        let found = lints_of(src);
        assert_eq!(found.iter().filter(|(l, _)| *l == Lint::Panic).count(), 4);
    }

    #[test]
    fn panic_accepts_get_and_combinators() {
        let src = "fn f(v: &[u8], i: usize) -> u8 {\n\
                       v.get(i).copied().unwrap_or(0)\n\
                   }\n\
                   fn g(x: Option<u8>) -> u8 { x.unwrap_or_default() }\n";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn panic_skips_array_types_attrs_and_macros() {
        let src = "#[derive(Debug)]\n\
                   struct S { a: [u8; 32] }\n\
                   fn f() -> Vec<u8> { vec![1, 2] }\n";
        assert!(lints_of(src).is_empty());
    }

    // -- wire-totality -------------------------------------------------

    #[test]
    fn wire_totality_flags_wildcard_over_wire_enum() {
        let src = "fn f(m: Msg<P>) {\n\
                       match m {\n\
                           Msg::PrePrepare { .. } => handle(),\n\
                           _ => {}\n\
                       }\n\
                   }\n";
        let found = lints_of(src);
        assert_eq!(found, vec![(Lint::WireTotality, 4)]);
    }

    #[test]
    fn wire_totality_flags_bare_binder_catch_all() {
        let src = "fn f(m: ChannelMsg<M>) -> u32 {\n\
                       match m {\n\
                           ChannelMsg::Cast { .. } => 1,\n\
                           other => 0,\n\
                       }\n\
                   }\n";
        let found = lints_of(src);
        assert_eq!(found, vec![(Lint::WireTotality, 4)]);
    }

    #[test]
    fn wire_totality_ignores_non_wire_matches_and_total_matches() {
        let src = "fn f(x: Option<u32>, m: Msg<P>) -> u32 {\n\
                       let a = match x { Some(v) => v, _ => 0 };\n\
                       match m {\n\
                           Msg::PrePrepare { .. } => 1,\n\
                           Msg::Prepare { .. } => 2,\n\
                       }\n\
                   }\n";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn wire_totality_handles_nested_matches() {
        let src = "fn f(m: SpiderMsg, x: Option<u8>) {\n\
                       match m {\n\
                           SpiderMsg::Request(r) => match x {\n\
                               Some(_) => a(),\n\
                               None => b(),\n\
                           },\n\
                           SpiderMsg::Reply(r) => c(),\n\
                           _ => {}\n\
                       }\n\
                   }\n";
        let found = lints_of(src);
        assert_eq!(found, vec![(Lint::WireTotality, 8)]);
    }

    // -- charge-coverage -----------------------------------------------

    #[test]
    fn charge_flags_send_without_charge() {
        let src = "fn gossip(&mut self, ctx: &mut Ctx) {\n\
                       ctx.send(peer, msg);\n\
                   }\n";
        let found = lints_of(src);
        assert_eq!(found, vec![(Lint::ChargeCoverage, 2)]);
    }

    #[test]
    fn charge_accepts_send_with_charge_or_forwarded_charge() {
        let src = "fn a(&mut self, ctx: &mut Ctx) {\n\
                       ctx.charge(self.cost.hmac(32));\n\
                       ctx.send(peer, msg);\n\
                   }\n\
                   fn b(&mut self, out: &mut Vec<Action<M>>) {\n\
                       out.push(Action::Charge(self.cfg.cost.rsa_sign()));\n\
                       out.push(Action::ToReceiver { to: 0, msg });\n\
                   }\n";
        assert!(lints_of(src).is_empty());
    }

    // -- edge-pairing --------------------------------------------------

    #[test]
    fn edge_pairing_flags_send_without_edge() {
        let src = "fn ship(&mut self, ctx: &mut Ctx) {\n\
                       ctx.charge(self.cost.hmac(32));\n\
                       ctx.send(peer, msg);\n\
                   }\n";
        let (found, _) = check_source("t.rs", src, EDGES);
        assert_eq!(
            found.iter().map(|v| (v.lint, v.line)).collect::<Vec<_>>(),
            vec![(Lint::EdgePairing, 3)]
        );
    }

    #[test]
    fn edge_pairing_accepts_edge_and_edge_for() {
        let src = "fn a(&mut self, ctx: &mut Ctx) {\n\
                       ctx.edge_for(node, &msg);\n\
                       ctx.send(node, msg);\n\
                   }\n\
                   fn b(&mut self, ctx: &mut Ctx) {\n\
                       ctx.edge(node, \"reply\", rid);\n\
                       ctx.send(node, msg);\n\
                   }\n";
        let (found, _) = check_source("t.rs", src, EDGES);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn edge_pairing_allow_suppresses_payload_free_sends() {
        let src = "fn gossip(&mut self, ctx: &mut Ctx) {\n\
                       // analyzer: allow(edge-pairing, \"checkpoint gossip carries no request\")\n\
                       ctx.send(peer, msg);\n\
                   }\n";
        let (found, used) = check_source("t.rs", src, EDGES);
        assert!(found.is_empty(), "{found:?}");
        assert_eq!(used.len(), 1);
    }

    #[test]
    fn edge_pairing_and_charge_coverage_report_independently() {
        let both = FileLints { charge_coverage: true, ..EDGES };
        let src = "fn ship(&mut self, ctx: &mut Ctx) {\n\
                       ctx.send(peer, msg);\n\
                   }\n";
        let (found, _) = check_source("t.rs", src, both);
        let lints: Vec<Lint> = found.iter().map(|v| v.lint).collect();
        assert!(lints.contains(&Lint::ChargeCoverage) && lints.contains(&Lint::EdgePairing));
    }

    // -- trace-hygiene -------------------------------------------------

    #[test]
    fn trace_hygiene_accepts_balanced_span_pair() {
        let src = "fn f(&mut self, ctx: &mut Ctx) {\n\
                       ctx.span_enter(rid, PHASE_EXEC);\n\
                       self.run();\n\
                       ctx.span_exit(rid, PHASE_EXEC);\n\
                   }\n";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn trace_hygiene_exempts_lifecycle_spans_split_across_fns() {
        // Enter-only / exit-only functions close the span elsewhere (the
        // client request span spans issue() → on_reply()).
        let src = "fn issue(&mut self, ctx: &mut Ctx) {\n\
                       ctx.span_enter(rid, PHASE_REQUEST);\n\
                       if done { return; }\n\
                   }\n\
                   fn on_reply(&mut self, ctx: &mut Ctx) {\n\
                       ctx.span_exit(rid, PHASE_REQUEST);\n\
                   }\n";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn trace_hygiene_flags_unbalanced_counts() {
        let src = "fn f(&mut self, ctx: &mut Ctx) {\n\
                       ctx.span_enter(rid, PHASE_EXEC);\n\
                       ctx.span_enter(rid2, PHASE_EXEC);\n\
                       ctx.span_exit(rid, PHASE_EXEC);\n\
                   }\n";
        let found = lints_of(src);
        assert_eq!(found, vec![(Lint::TraceHygiene, 2)]);
    }

    #[test]
    fn trace_hygiene_flags_return_between_enter_and_exit() {
        let src = "fn f(&mut self, ctx: &mut Ctx) -> u32 {\n\
                       ctx.span_enter(rid, PHASE_EXEC);\n\
                       if bad { return 0; }\n\
                       ctx.span_exit(rid, PHASE_EXEC);\n\
                       1\n\
                   }\n";
        let found = lints_of(src);
        assert_eq!(found, vec![(Lint::TraceHygiene, 3)]);
    }

    #[test]
    fn trace_hygiene_tracks_phases_independently() {
        // A balanced exec pair next to a lifecycle enter of another
        // phase: only phases with both an enter and an exit are audited.
        let src = "fn f(&mut self, ctx: &mut Ctx) {\n\
                       ctx.span_enter(rid, PHASE_REQUEST);\n\
                       ctx.span_enter(rid, PHASE_EXEC);\n\
                       ctx.span_exit(rid, PHASE_EXEC);\n\
                   }\n";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn trace_hygiene_allow_suppresses() {
        let src = "fn f(&mut self, ctx: &mut Ctx) {\n\
                       ctx.span_enter(rid, PHASE_EXEC); \
                       // analyzer: allow(trace-hygiene, \"exit charged via drop guard\")\n\
                       ctx.span_enter(rid2, PHASE_EXEC);\n\
                       ctx.span_exit(rid, PHASE_EXEC);\n\
                   }\n";
        let (found, used) = check_source("t.rs", src, ALL);
        assert!(found.is_empty(), "{found:?}");
        assert_eq!(used.len(), 1);
    }

    // -- unsafe-containment --------------------------------------------

    #[test]
    fn unsafe_containment_flags_blocks_fns_and_impls() {
        let src = "fn f(p: *const u8) -> u8 {\n\
                       unsafe { *p }\n\
                   }\n\
                   unsafe fn g() {}\n\
                   unsafe impl Send for S {}\n";
        let found = lints_of(src);
        assert_eq!(found, vec![(Lint::Unsafe, 2), (Lint::Unsafe, 4), (Lint::Unsafe, 5)]);
    }

    #[test]
    fn unsafe_containment_ignores_lint_names_comments_and_strings() {
        let src = "#![deny(unsafe_code)]\n\
                   // unsafe in a comment\n\
                   #[allow(unsafe_code)]\n\
                   fn f() -> &'static str { \"unsafe\" }\n";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn unsafe_containment_allow_needs_a_use() {
        let src = "fn f() {\n\
                       // SAFETY: the features were detected on the line above.\n\
                       // analyzer: allow(unsafe, \"target_feature kernel under its check\")\n\
                       unsafe { kernel() };\n\
                   }\n\
                   // analyzer: allow(unsafe, \"nothing below needs it\")\n\
                   fn g() {}\n";
        let (found, used) = check_source("t.rs", src, ALL);
        assert_eq!(
            found.iter().map(|v| (v.lint, v.line)).collect::<Vec<_>>(),
            vec![(Lint::UnusedAllow, 6)]
        );
        assert_eq!(used.len(), 1);
        assert_eq!(used[0].line, 4);
    }

    // -- allow handling ------------------------------------------------

    #[test]
    fn allow_suppresses_matching_lint_on_line() {
        let src = "fn f(v: &[u8]) -> u8 {\n\
                       v[0] // analyzer: allow(panic, \"caller checks nonempty\")\n\
                   }\n";
        let (found, used) = check_source("t.rs", src, ALL);
        assert!(found.is_empty(), "{found:?}");
        assert_eq!(used.len(), 1);
        assert_eq!(used[0].reason, "caller checks nonempty");
    }

    #[test]
    fn allow_for_wrong_lint_does_not_suppress() {
        let src = "fn f(v: &[u8]) -> u8 {\n\
                       v[0] // analyzer: allow(determinism, \"wrong family\")\n\
                   }\n";
        let (found, _) = check_source("t.rs", src, ALL);
        // The panic violation survives AND the allow is unused.
        assert!(found.iter().any(|v| v.lint == Lint::Panic));
        assert!(found.iter().any(|v| v.lint == Lint::UnusedAllow));
    }

    #[test]
    fn unused_allow_is_reported() {
        let src = "// analyzer: allow(panic, \"stale\")\nfn f() {}\n";
        let (found, _) = check_source("t.rs", src, ALL);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].lint, Lint::UnusedAllow);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "fn live() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t(v: Vec<u8>) { v.clone().pop().unwrap(); let m = HashMap::new(); }\n\
                   }\n";
        assert!(lints_of(src).is_empty());
    }
}
