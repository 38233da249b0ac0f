//! The domain-aware lint rule pack, matched over the token stream.
//!
//! | rule id          | invariant                                                        |
//! |------------------|------------------------------------------------------------------|
//! | `float-eq`       | no `==`/`!=` on floating-point operands                          |
//! | `no-panic`       | no `panic!`/`.unwrap()`/`.expect(` in gated library code         |
//! | `unit-newtype`   | power/energy/capacitance returns use `units` newtypes            |
//! | `must-use`       | scalar power/energy/metric returns carry `#[must_use]`           |
//! | `seeded-rng`     | no ambient-entropy RNG outside the bench crate                   |
//! | `finite-guard`   | hot numerical kernels carry `debug_assert!(..is_finite..)`       |
//! | `ambient-time`   | no `Instant::now`/`SystemTime` outside the pluggable obs clock   |
//! | `unordered-iter` | no unsorted iteration over `HashMap`/`HashSet` bindings          |
//! | `atomic-ordering`| `Ordering::Relaxed` on non-counter atomics needs `// relaxed:`   |
//! | `unsafe-audit`   | every `unsafe` carries a `// SAFETY:` comment                    |
//! | `static-mut`     | no `static mut` items, ever                                      |
//! | `cast-truncation`| no narrowing `as` casts inside the hot numerical kernels         |
//! | `stale-allow`    | every `lint:allow(...)` escape must suppress something           |
//!
//! Rules match syntax over the [`crate::tokens`] stream (comments and
//! literals blanked first), which keeps the checker dependency-free while
//! seeing real code shapes — `unsafe_code` in an attribute is one identifier,
//! `0..10` is a range, a `lint:allow` inside a string is inert. Rules remain
//! heuristic (no type inference), so each supports a `lint:allow(rule-id)`
//! escape on the same or preceding line; stale escapes are themselves
//! diagnosed, and the workspace total is capped by `lint-budget.toml`.

use crate::source::SourceFile;
use crate::tokens::{TokenKind, TokenStream};

/// A single finding, printed as `file:line: rule-id: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Catalogue entry for one rule (consumed by the SARIF emitter and the
/// stale-allow filter).
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule identifier.
    pub id: &'static str,
    /// One-line description for reports.
    pub summary: &'static str,
    /// Whole-file rules accept a `lint:allow` anywhere in the file.
    pub whole_file: bool,
}

/// The full rule catalogue, including synthetic rules (`stale-allow` fires
/// from the suppression pass; `suppression-budget` from the budget check).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "float-eq",
        summary: "exact ==/!= on floating-point operands",
        whole_file: false,
    },
    RuleInfo {
        id: "no-panic",
        summary: "panicking construct in simulation library code",
        whole_file: false,
    },
    RuleInfo {
        id: "unit-newtype",
        summary: "dimensioned quantity returned as bare f64",
        whole_file: false,
    },
    RuleInfo {
        id: "must-use",
        summary: "power/energy/metric computation without #[must_use]",
        whole_file: false,
    },
    RuleInfo {
        id: "seeded-rng",
        summary: "ambient-entropy RNG outside the bench crate",
        whole_file: false,
    },
    RuleInfo {
        id: "finite-guard",
        summary: "hot numerical kernel without finiteness guards",
        whole_file: true,
    },
    RuleInfo {
        id: "ambient-time",
        summary: "ambient clock read outside the pluggable obs clock",
        whole_file: false,
    },
    RuleInfo {
        id: "unordered-iter",
        summary: "iteration over HashMap/HashSet without a sort",
        whole_file: false,
    },
    RuleInfo {
        id: "atomic-ordering",
        summary: "Ordering::Relaxed on a non-counter atomic without justification",
        whole_file: false,
    },
    RuleInfo {
        id: "unsafe-audit",
        summary: "unsafe without a SAFETY comment",
        whole_file: false,
    },
    RuleInfo {
        id: "static-mut",
        summary: "static mut item",
        whole_file: false,
    },
    RuleInfo {
        id: "cast-truncation",
        summary: "narrowing `as` cast inside a hot numerical kernel",
        whole_file: false,
    },
    RuleInfo {
        id: "stale-allow",
        summary: "lint:allow escape that suppresses nothing",
        whole_file: false,
    },
    RuleInfo {
        id: "suppression-budget",
        summary: "lint:allow escape count exceeds the committed budget",
        whole_file: false,
    },
];

/// Looks up a rule id in the catalogue.
#[must_use]
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// `true` for rules whose `lint:allow` may sit anywhere in the file.
#[must_use]
pub fn is_whole_file_rule(id: &str) -> bool {
    rule_info(id).is_some_and(|r| r.whole_file)
}

/// Crates whose library code must not panic (simulation inner loops).
const NO_PANIC_CRATES: [&str; 6] = [
    "crates/core/src/",
    "crates/power/src/",
    "crates/cs/src/",
    "crates/dsp/src/",
    "crates/faults/src/",
    "crates/obs/src/",
];

/// Library crates under the determinism rules (`ambient-time`,
/// `unordered-iter`, `atomic-ordering`). The bench crate is exempt: it
/// measures wall time and formats reports by design.
const LIB_CRATE_PREFIXES: [&str; 10] = [
    "crates/core/src/",
    "crates/power/src/",
    "crates/cs/src/",
    "crates/dsp/src/",
    "crates/faults/src/",
    "crates/obs/src/",
    "crates/signals/src/",
    "crates/blocks/src/",
    "crates/ml/src/",
    "crates/rng/src/",
];

/// The one file allowed to read ambient clocks: the pluggable clock
/// implementations themselves.
const AMBIENT_TIME_EXEMPT: [&str; 1] = ["crates/obs/src/clock.rs"];

/// Numerical kernels that must guard stage boundaries against non-finite
/// values, and in which bare narrowing casts are banned.
const FINITE_GUARD_FILES: [&str; 7] = [
    "crates/cs/src/linalg.rs",
    "crates/cs/src/recon.rs",
    "crates/cs/src/decode.rs",
    "crates/dsp/src/fft.rs",
    "crates/core/src/simulate.rs",
    "crates/core/src/stream.rs",
    "crates/core/src/prefix.rs",
];

/// Runs every rule against one file, applies `lint:allow` suppression, and
/// reports stale escapes.
pub fn check_file(f: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    float_eq(f, &mut out);
    no_panic(f, &mut out);
    unit_newtype(f, &mut out);
    must_use(f, &mut out);
    seeded_rng(f, &mut out);
    finite_guard(f, &mut out);
    ambient_time(f, &mut out);
    unordered_iter(f, &mut out);
    atomic_ordering(f, &mut out);
    unsafe_audit(f, &mut out);
    cast_truncation(f, &mut out);

    // Suppression pass: drop allowed diagnostics, tracking which escapes
    // actually earned their keep.
    let mut used = vec![false; f.allows.len()];
    out.retain(|d| {
        if is_whole_file_rule(d.rule) {
            if let Some(i) = f.allow_anywhere_index(d.rule) {
                used[i] = true;
                return false;
            }
        } else if let Some(i) = f.allow_index(d.rule, d.line) {
            used[i] = true;
            return false;
        }
        true
    });

    // stale-allow: an escape that suppressed nothing is itself a finding.
    // Unknown rule names are ignored (doc prose about the escape syntax uses
    // placeholders like `rule-id`); `stale-allow` cannot be suppressed.
    for (i, (line, rule)) in f.allows.iter().enumerate() {
        if !used[i] && rule_info(rule).is_some() {
            out.push(Diagnostic {
                path: f.path.clone(),
                line: *line,
                rule: "stale-allow",
                message: format!(
                    "lint:allow({rule}) suppresses no diagnostic; remove the stale escape"
                ),
            });
        }
    }
    out.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    out
}

fn push(out: &mut Vec<Diagnostic>, f: &SourceFile, line: usize, rule: &'static str, msg: String) {
    out.push(Diagnostic {
        path: f.path.clone(),
        line,
        rule,
        message: msg,
    });
}

fn in_lib_scope(f: &SourceFile) -> bool {
    LIB_CRATE_PREFIXES.iter().any(|p| f.path.starts_with(p))
}

// ---------------------------------------------------------------------------
// float-eq
// ---------------------------------------------------------------------------

/// Identifier suffixes that by workspace convention denote f64 quantities
/// (watts, joules, farads, hertz, decibels, volts-rms) — comparing them
/// exactly is as wrong as comparing literals.
const FLOAT_SUFFIXES: [&str; 7] = ["_w", "_j", "_f", "_hz", "_db", "_vrms", "_percent"];

/// Flags `==`/`!=` where either operand looks floating-point: a float
/// literal (`0.0`, `1e-6`), an `f64`/`f32` cast, or an identifier with a
/// unit suffix. Exact comparison is almost always wrong for computed floats;
/// route through `efficsense_dsp::approx::{approx_eq, total_eq, is_zero}`.
fn float_eq(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let ts = &f.tokens;
    let mut flagged_lines: Vec<usize> = Vec::new();
    for (i, t) in ts.tokens.iter().enumerate() {
        if t.kind != TokenKind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        if flagged_lines.contains(&t.line) {
            continue; // one diagnostic per line is enough
        }
        let (lhs, rhs) = operand_windows(ts, i);
        if window_looks_float(ts, lhs) || window_looks_float(ts, rhs) {
            flagged_lines.push(t.line);
            push(
                out,
                f,
                t.line,
                "float-eq",
                "exact float comparison; use approx_eq/total_eq/is_zero from \
                 efficsense_dsp::approx"
                    .to_string(),
            );
        }
    }
}

/// Token index ranges left and right of the comparison at `op`, clipped at
/// punctuation that cannot be part of a simple operand and at the
/// operator's own line (operands spanning a line break are vanishingly rare,
/// and clipping keeps the window from bleeding into unrelated code).
fn operand_windows(
    ts: &TokenStream,
    op: usize,
) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
    const STOP: [&str; 9] = ["(", ")", ",", ";", "{", "}", "&", "|", "="];
    let line = ts.tokens[op].line;
    let stops = |t: &crate::tokens::Token| {
        t.line != line
            || (t.kind == TokenKind::Punct
                && (STOP.contains(&t.text.as_str()) || t.text == "&&" || t.text == "||"))
    };
    let mut lo = op;
    while lo > 0 && !stops(&ts.tokens[lo - 1]) {
        lo -= 1;
    }
    let mut hi = op + 1;
    while hi < ts.tokens.len() && !stops(&ts.tokens[hi]) {
        hi += 1;
    }
    (lo..op, op + 1..hi)
}

/// Heuristic: does the token window contain a float literal, a float type
/// token, or an identifier with a unit suffix?
fn window_looks_float(ts: &TokenStream, range: std::ops::Range<usize>) -> bool {
    ts.tokens[range].iter().any(|t| match t.kind {
        TokenKind::Number { is_float } => is_float,
        TokenKind::Ident => {
            t.text == "f64"
                || t.text == "f32"
                || FLOAT_SUFFIXES
                    .iter()
                    .any(|suf| t.text.ends_with(suf) && t.text.len() > suf.len())
        }
        _ => false,
    })
}

// ---------------------------------------------------------------------------
// no-panic
// ---------------------------------------------------------------------------

/// Flags `panic!`, `.unwrap()`, `.expect(`, `todo!` and `unimplemented!` in
/// the non-test library code of the simulation crates. These run inside
/// sweep inner loops; a bad design point must surface as an `Err`, not
/// abort a multi-hour pathfinding run.
fn no_panic(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !NO_PANIC_CRATES.iter().any(|p| f.path.starts_with(p)) {
        return;
    }
    let ts = &f.tokens;
    for (i, t) in ts.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || f.in_test.get(t.line - 1).copied().unwrap_or(false) {
            continue;
        }
        let what = match t.text.as_str() {
            "panic" if ts.is_text(i + 1, "!") => "explicit panic",
            "todo" if ts.is_text(i + 1, "!") => "todo! placeholder",
            "unimplemented" if ts.is_text(i + 1, "!") => "unimplemented! placeholder",
            "unwrap" if i > 0 && ts.is_text(i - 1, ".") && ts.is_text(i + 1, "(") => {
                "Option/Result unwrap"
            }
            "expect" if i > 0 && ts.is_text(i - 1, ".") && ts.is_text(i + 1, "(") => {
                "Option/Result expect"
            }
            _ => continue,
        };
        push(
            out,
            f,
            t.line,
            "no-panic",
            format!("{what} in simulation library code; return Result or restructure"),
        );
    }
}

// ---------------------------------------------------------------------------
// pub fn signature scanning (shared by unit-newtype and must-use)
// ---------------------------------------------------------------------------

/// A public function signature found in the token stream.
struct PubFn {
    /// 1-based line of the `pub` keyword.
    line: usize,
    name: String,
    /// `true` when the declared return type is exactly `-> f64`.
    returns_bare_f64: bool,
}

fn pub_fns(f: &SourceFile) -> Vec<PubFn> {
    let ts = &f.tokens;
    let mut fns = Vec::new();
    for (i, t) in ts.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != "pub" {
            continue;
        }
        // `pub fn` or `pub const fn` (visibility scopes like `pub(crate)`
        // are intentionally not matched, as before the token port).
        let fn_idx = if ts.is_ident(i + 1, "fn") {
            i + 1
        } else if ts.is_ident(i + 1, "const") && ts.is_ident(i + 2, "fn") {
            i + 2
        } else {
            continue;
        };
        let Some(name_tok) = ts.tokens.get(fn_idx + 1) else {
            continue;
        };
        if name_tok.kind != TokenKind::Ident {
            continue;
        }
        // Skip the generic parameter list, then the argument parens.
        let mut j = fn_idx + 2;
        if ts.is_text(j, "<") {
            let mut angle = 1i32;
            j += 1;
            while j < ts.tokens.len() && angle > 0 {
                match ts.tokens[j].text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    ">>" => angle -= 2,
                    _ => {}
                }
                j += 1;
            }
        }
        while j < ts.tokens.len() && !ts.is_text(j, "(") {
            j += 1;
        }
        let mut depth = 0i32;
        while j < ts.tokens.len() {
            match ts.tokens[j].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        // Return clause: the tokens after `)` up to the body/terminator.
        let returns_bare_f64 = ts.is_text(j + 1, "->") && ts.is_ident(j + 2, "f64");
        fns.push(PubFn {
            line: t.line,
            name: name_tok.text.clone(),
            returns_bare_f64,
        });
    }
    fns
}

/// Does the raw source carry `#[must_use]` in the attribute block directly
/// above `line` (1-based)?
fn has_must_use_above(f: &SourceFile, line: usize) -> bool {
    // The attribute may also sit on the `pub fn` line itself in pathological
    // formatting; check it first.
    if f.raw
        .get(line - 1)
        .is_some_and(|l| l.contains("#[must_use]"))
    {
        return true;
    }
    let mut i = line - 1; // index of the fn line in 0-based raw
    while i > 0 {
        i -= 1;
        let t = f.raw[i].trim();
        if t.contains("#[must_use]") {
            return true;
        }
        // Keep walking through other attributes and doc comments.
        if t.starts_with("#[") || t.starts_with("///") || t.starts_with("//") || t.is_empty() {
            continue;
        }
        break;
    }
    false
}

// ---------------------------------------------------------------------------
// unit-newtype
// ---------------------------------------------------------------------------

/// In `efficsense-power`, public functions whose names promise a power,
/// energy, charge or capacitance must return the corresponding `units`
/// newtype, not a bare `f64` — mixing up a watt and a farad type-checks
/// otherwise.
fn unit_newtype(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !f.path.starts_with("crates/power/src/") {
        return;
    }
    for pf in pub_fns(f) {
        if !pf.returns_bare_f64 || f.in_test[pf.line - 1] {
            continue;
        }
        let n = pf.name.as_str();
        let unit_like = n.ends_with("_w")
            || n.ends_with("_j")
            || n.ends_with("_f")
            || n.contains("power")
            || n.contains("energy")
            || n.contains("capacitance")
            || n.contains("charge");
        if unit_like {
            push(
                out,
                f,
                pf.line,
                "unit-newtype",
                format!(
                    "`{n}` returns a raw f64 for a dimensioned quantity; return a units \
                     newtype (Watts/Joules/Farads)"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// must-use
// ---------------------------------------------------------------------------

/// Scalar power/energy/metric computations whose result is silently dropped
/// are always bugs; require `#[must_use]` on them. Newtype returns are
/// covered by the `#[must_use]` on the unit structs themselves.
fn must_use(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let in_scope = f.path.starts_with("crates/power/src/") || f.path == "crates/dsp/src/metrics.rs";
    if !in_scope {
        return;
    }
    for pf in pub_fns(f) {
        if !pf.returns_bare_f64 || f.in_test[pf.line - 1] {
            continue;
        }
        let n = pf.name.as_str();
        let metric_like = n.ends_with("_db")
            || n.ends_with("_w")
            || n.ends_with("_j")
            || n.ends_with("_percent")
            || n.contains("power")
            || n.contains("energy")
            || n.contains("sndr")
            || n.contains("snr")
            || n.contains("enob")
            || n.contains("thd")
            || n.contains("nmse")
            || n.contains("rmse")
            || n.contains("nef");
        if metric_like && !has_must_use_above(f, pf.line) {
            push(
                out,
                f,
                pf.line,
                "must-use",
                format!("`{n}` computes a power/energy/quality figure; mark it #[must_use]"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// seeded-rng
// ---------------------------------------------------------------------------

/// All stochastic behaviour must be reproducible from explicit seeds:
/// Monte-Carlo mismatch draws, sensing matrices and noise streams are part
/// of the experiment record. Ambient-entropy constructors are only
/// acceptable in the bench crate.
fn seeded_rng(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if f.path.starts_with("crates/bench/") {
        return;
    }
    const AMBIENT_IDENTS: [&str; 5] = [
        "thread_rng",
        "from_entropy",
        "OsRng",
        "getrandom",
        "from_os_rng",
    ];
    let ts = &f.tokens;
    let mut flagged_lines: Vec<usize> = Vec::new();
    for (i, t) in ts.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let pat = if AMBIENT_IDENTS.contains(&t.text.as_str()) {
            t.text.clone()
        } else if t.text == "rand" && ts.matches(i + 1, &["::", "random"]) {
            "rand::random".to_string()
        } else {
            continue;
        };
        if flagged_lines.contains(&t.line) {
            continue;
        }
        flagged_lines.push(t.line);
        push(
            out,
            f,
            t.line,
            "seeded-rng",
            format!("`{pat}` draws ambient entropy; construct Rng64 from an explicit seed"),
        );
    }
}

// ---------------------------------------------------------------------------
// finite-guard
// ---------------------------------------------------------------------------

/// The hot numerical kernels must assert finiteness at stage boundaries in
/// debug builds — a NaN born in a Cholesky solve otherwise propagates
/// silently into every downstream metric. The rule is satisfied by any
/// `debug_assert…is_finite` combination or a `debug_assert_all_finite` call.
fn finite_guard(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !FINITE_GUARD_FILES.contains(&f.path.as_str()) {
        return;
    }
    let mut has_all_finite = false;
    let mut has_debug_assert = false;
    let mut has_is_finite = false;
    for t in &f.tokens.tokens {
        if t.kind != TokenKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "debug_assert_all_finite" => has_all_finite = true,
            "is_finite" => has_is_finite = true,
            w if w.starts_with("debug_assert") => has_debug_assert = true,
            _ => {}
        }
    }
    if !(has_all_finite || (has_debug_assert && has_is_finite)) {
        push(
            out,
            f,
            1,
            "finite-guard",
            "hot numerical kernel lacks debug_assert finiteness guards at stage boundaries"
                .to_string(),
        );
    }
}

// ---------------------------------------------------------------------------
// ambient-time
// ---------------------------------------------------------------------------

/// Library code must read time through the pluggable `efficsense_obs` clock
/// (`ObsRegistry::now_ns`), never ambient sources: a stray `Instant::now`
/// makes cached replay and logical-clock snapshots nondeterministic. Only
/// the clock implementations themselves may touch `std::time`.
fn ambient_time(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !in_lib_scope(f) || AMBIENT_TIME_EXEMPT.contains(&f.path.as_str()) {
        return;
    }
    let ts = &f.tokens;
    for (i, t) in ts.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let what = match t.text.as_str() {
            "Instant" if ts.matches(i + 1, &["::", "now"]) => "Instant::now()",
            "SystemTime" => "SystemTime",
            _ => continue,
        };
        push(
            out,
            f,
            t.line,
            "ambient-time",
            format!(
                "{what} reads the ambient clock; route through the pluggable obs clock \
                 (ObsRegistry::now_ns) so runs stay replayable"
            ),
        );
    }
}

// ---------------------------------------------------------------------------
// unordered-iter
// ---------------------------------------------------------------------------

/// Iterating a `HashMap`/`HashSet` yields a different order every process
/// run (SipHash keying), which silently breaks JSONL persistence,
/// `PointKey` bit-identity and snapshot comparison the moment the order
/// reaches an output. The rule flags iteration over bindings declared with
/// a hash-map type unless the enclosing function also sorts (or collects
/// into a `BTreeMap`/`BTreeSet`); order-insensitive reductions can carry a
/// per-line escape.
fn unordered_iter(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !in_lib_scope(f) {
        return;
    }
    let ts = &f.tokens;
    let hash_names = hash_typed_names(ts);
    if hash_names.is_empty() {
        return;
    }
    const ITER_METHODS: [&str; 7] = [
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "into_iter",
        "drain",
    ];
    const SORT_HINTS: [&str; 7] = [
        "sort",
        "sort_unstable",
        "sort_by",
        "sort_by_key",
        "sort_unstable_by_key",
        "BTreeMap",
        "BTreeSet",
    ];
    for (i, t) in ts.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || !hash_names.contains(&t.text) {
            continue;
        }
        // `map.iter()` / `map.keys()` / ... or `for k in &map {`.
        let method_iter = ts.is_text(i + 1, ".")
            && ts
                .tokens
                .get(i + 2)
                .is_some_and(|m| ITER_METHODS.contains(&m.text.as_str()))
            && ts.is_text(i + 3, "(");
        let for_iter = (i > 0 && ts.is_ident(i - 1, "in"))
            || (i > 1 && ts.is_text(i - 1, "&") && ts.is_ident(i - 2, "in"))
            || (i > 2
                && ts.is_ident(i - 1, "mut")
                && ts.is_text(i - 2, "&")
                && ts.is_ident(i - 3, "in"));
        if !(method_iter || for_iter) {
            continue;
        }
        // Escape hatch: the enclosing function sorts the collected order.
        let sorted_in_fn = ts.fn_body_range(i).is_some_and(|(lo, hi)| {
            ts.tokens[lo..hi]
                .iter()
                .any(|t| t.kind == TokenKind::Ident && SORT_HINTS.contains(&t.text.as_str()))
        });
        if sorted_in_fn {
            continue;
        }
        push(
            out,
            f,
            t.line,
            "unordered-iter",
            format!(
                "iteration over hash-ordered `{}` without a sort in the same function; \
                 use BTreeMap/BTreeSet or sort before the order can reach an output",
                t.text
            ),
        );
    }
}

/// Binding and field names declared with a `HashMap`/`HashSet` as the
/// outermost type constructor (`x: HashMap<..>`, `let x = HashMap::new()`).
/// Wrapped declarations (`Vec<Mutex<HashMap<..>>>`) are not collected — the
/// outer container owns the iteration order there.
fn hash_typed_names(ts: &TokenStream) -> Vec<String> {
    let mut names = Vec::new();
    for (i, t) in ts.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        // `name : [&] [mut] [std :: collections ::] HashMap`
        if ts.is_text(i + 1, ":") {
            let mut j = i + 2;
            while ts.is_text(j, "&") || ts.is_ident(j, "mut") {
                j += 1;
            }
            if ts.matches(j, &["std", "::", "collections", "::"]) {
                j += 4;
            }
            if ts.is_ident(j, "HashMap") || ts.is_ident(j, "HashSet") {
                names.push(t.text.clone());
            }
        }
        // `let [mut] name = HashMap::new()` (or with_capacity etc.)
        if t.text == "let" {
            let mut j = i + 1;
            if ts.is_ident(j, "mut") {
                j += 1;
            }
            if ts.tokens.get(j).is_some_and(|n| n.kind == TokenKind::Ident)
                && ts.is_text(j + 1, "=")
                && (ts.is_ident(j + 2, "HashMap") || ts.is_ident(j + 2, "HashSet"))
            {
                names.push(ts.tokens[j].text.clone());
            }
        }
    }
    names.sort_unstable();
    names.dedup();
    names
}

// ---------------------------------------------------------------------------
// atomic-ordering
// ---------------------------------------------------------------------------

/// Names that mark an atomic as a plain monotonic counter, where
/// `Ordering::Relaxed` is always sound (no other memory depends on the
/// value). Everything else — flags, state machines, published pointers —
/// needs an explicit `// relaxed: <why>` justification within two lines.
const COUNTER_HINTS: [&str; 13] = [
    "count",
    "counter",
    "hit",
    "miss",
    "total",
    "next",
    "done",
    "bucket",
    "_ns",
    "attempt",
    "evaluation",
    "tick",
    "idx",
];

fn atomic_ordering(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !in_lib_scope(f) {
        return;
    }
    let ts = &f.tokens;
    for (i, t) in ts.tokens.iter().enumerate() {
        if !(t.kind == TokenKind::Ident
            && t.text == "Ordering"
            && ts.matches(i + 1, &["::", "Relaxed"]))
        {
            continue;
        }
        let receiver = atomic_receiver(ts, i);
        let counter_like = |name: &str| {
            let lower = name.to_ascii_lowercase();
            COUNTER_HINTS.iter().any(|h| lower.contains(h))
        };
        if receiver.as_deref().is_some_and(counter_like) {
            continue;
        }
        // Tuple-field receivers (`self.0.fetch_add`) fall back to the
        // enclosing impl/fn name — `impl Counter` marks its whole body.
        if ts
            .enclosing_impl(i)
            .or_else(|| ts.enclosing_fn(i))
            .is_some_and(counter_like)
        {
            continue;
        }
        if f.comment_near(t.line, 2, "relaxed:") {
            continue;
        }
        let recv = receiver.unwrap_or_else(|| "<unknown>".to_string());
        push(
            out,
            f,
            t.line,
            "atomic-ordering",
            format!(
                "Ordering::Relaxed on non-counter atomic `{recv}`; add a `// relaxed: <why>` \
                 justification or use Acquire/Release"
            ),
        );
    }
}

/// The receiver identifier of the atomic method call whose argument list
/// contains the `Ordering` token at `ord_idx`: walks left to the nearest
/// `.method(` and resolves the identifier before the dot, skipping one
/// index/call suffix (`buckets[i].store` → `buckets`).
fn atomic_receiver(ts: &TokenStream, ord_idx: usize) -> Option<String> {
    // Find the opening paren of the enclosing call.
    let mut depth = 0i32;
    let mut j = ord_idx;
    let open = loop {
        if j == 0 {
            return None;
        }
        j -= 1;
        match ts.tokens[j].text.as_str() {
            ")" | "]" => depth += 1,
            "(" if depth == 0 => break j,
            "(" | "[" => depth -= 1,
            _ => {}
        }
        if ord_idx - j > 64 {
            return None;
        }
    };
    // Expect `recv . method (`.
    if open < 2 || !ts.is_text(open - 2, ".") {
        return None;
    }
    let mut r = open - 3;
    // Skip one `[...]` or `(...)` suffix on the receiver.
    while let Some("]" | ")") = ts.tokens.get(r).map(|t| t.text.as_str()) {
        let close = ts.tokens[r].text.clone();
        let open_c = if close == "]" { "[" } else { "(" };
        let mut d = 1i32;
        while r > 0 && d > 0 {
            r -= 1;
            let s = ts.tokens[r].text.as_str();
            if s == close {
                d += 1;
            } else if s == open_c {
                d -= 1;
            }
        }
        if r == 0 {
            return None;
        }
        r -= 1;
    }
    let t = ts.tokens.get(r)?;
    (t.kind == TokenKind::Ident).then(|| t.text.clone())
}

// ---------------------------------------------------------------------------
// unsafe-audit / static-mut
// ---------------------------------------------------------------------------

/// Every `unsafe` keyword needs a `// SAFETY:` comment on the same or up to
/// three preceding lines, and `static mut` is banned outright (its aliasing
/// rules are almost impossible to uphold under the sweep's worker threads).
/// The workspace denies `unsafe_code` crate-wide today; this rule keeps the
/// audit trail honest if an exception is ever carved out.
fn unsafe_audit(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let ts = &f.tokens;
    for (i, t) in ts.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        if t.text == "static" && ts.is_ident(i + 1, "mut") {
            push(
                out,
                f,
                t.line,
                "static-mut",
                "`static mut` is unsynchronisable under worker threads; use an atomic, \
                 Mutex, or OnceLock"
                    .to_string(),
            );
            continue;
        }
        if t.text == "unsafe" && !f.comment_near(t.line, 3, "safety:") {
            push(
                out,
                f,
                t.line,
                "unsafe-audit",
                "`unsafe` without a `// SAFETY:` comment documenting the upheld invariants"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// cast-truncation
// ---------------------------------------------------------------------------

/// Numeric types an `as` cast may silently truncate into. `usize`/`u64`
/// targets are deliberately not listed: float→usize index math with an
/// explicit `.floor()`/`.round()` is idiomatic in the kernels, and the
/// finite guards bound the operands.
const NARROW_TARGETS: [&str; 7] = ["u8", "i8", "u16", "i16", "u32", "i32", "f32"];

/// In the hot numerical kernels, a bare `as` cast to a narrow type can wrap
/// or lose precision exactly where a wrong sample index or coefficient is
/// least visible. Use `try_from` + error handling, widen the type, or carry
/// a per-line escape with the justification.
fn cast_truncation(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !FINITE_GUARD_FILES.contains(&f.path.as_str()) {
        return;
    }
    let ts = &f.tokens;
    for (i, t) in ts.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident
            || t.text != "as"
            || f.in_test.get(t.line - 1).copied().unwrap_or(false)
        {
            continue;
        }
        let Some(target) = ts.tokens.get(i + 1) else {
            continue;
        };
        if target.kind == TokenKind::Ident && NARROW_TARGETS.contains(&target.text.as_str()) {
            push(
                out,
                f,
                t.line,
                "cast-truncation",
                format!(
                    "bare `as {}` can truncate silently in a hot kernel; use try_from or \
                     widen the type",
                    target.text
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<Diagnostic> {
        check_file(&SourceFile::parse(path, src))
    }

    #[test]
    fn float_eq_catches_literal_comparison() {
        let d = lint("crates/ml/src/x.rs", "fn f(x: f64) -> bool { x == 0.0 }\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "float-eq");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn float_eq_catches_unit_suffixed_identifiers() {
        let src = "fn same(a: &P, b: &P) -> bool { a.power_w == b.power_w }\n";
        let d = lint("crates/ml/src/x.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "float-eq");
    }

    #[test]
    fn float_eq_ignores_integer_and_compound_ops() {
        let src = "fn f(x: usize) -> bool { x == 10 && x != 3 && x <= 4 }\n";
        assert!(lint("crates/ml/src/x.rs", src).is_empty());
    }

    #[test]
    fn no_panic_only_in_gated_crates() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(lint("crates/dsp/src/x.rs", src).len(), 1);
        assert!(lint("crates/ml/src/x.rs", src).is_empty());
    }

    #[test]
    fn no_panic_covers_the_evaluation_cache_modules() {
        // The sweep-result cache, the CS artifact memo and the store both
        // run on sit inside sweep inner loops; all must stay under the
        // no-panic rule even if the crate prefix list is ever rewritten as
        // an explicit file list.
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        for path in [
            "crates/core/src/cache.rs",
            "crates/cs/src/memo.rs",
            "crates/obs/src/store.rs",
        ] {
            let d = lint(path, src);
            assert!(
                d.iter().any(|d| d.rule == "no-panic"),
                "{path} must be no-panic gated"
            );
        }
    }

    #[test]
    fn no_panic_and_seeded_rng_cover_the_faults_crate() {
        let panicky = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(lint("crates/faults/src/plan.rs", panicky).len(), 1);
        let ambient = "fn f() { let mut rng = thread_rng(); }\n";
        assert!(lint("crates/faults/src/link.rs", ambient)
            .iter()
            .any(|d| d.rule == "seeded-rng"));
    }

    #[test]
    fn no_panic_covers_the_telemetry_crate() {
        // Spans and counters run inside the same inner loops they observe;
        // a panicking instrument would abort the sweep it was watching.
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let d = lint("crates/obs/src/registry.rs", src);
        assert!(
            d.iter().any(|d| d.rule == "no-panic"),
            "crates/obs must be no-panic gated"
        );
    }

    #[test]
    fn no_panic_exempts_test_modules() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { None::<u32>.unwrap(); }\n}\n";
        assert!(lint("crates/dsp/src/x.rs", src).is_empty());
    }

    #[test]
    fn pub_fn_scanner_handles_multiline_signatures() {
        let src = "pub fn walden_fom_j_per_step(\n    power_w: f64,\n    enob: f64,\n) -> f64 {\n    0.0\n}\n";
        let f = SourceFile::parse("crates/power/src/fom.rs", src);
        let fns = pub_fns(&f);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "walden_fom_j_per_step");
        assert!(fns[0].returns_bare_f64);
        assert_eq!(fns[0].line, 1);
    }

    #[test]
    fn pub_fn_scanner_skips_generics_and_wrapped_returns() {
        let src = "pub fn pick<T: Ord>(xs: &[T]) -> f64 { 0.0 }\npub fn wrapped() -> Result<f64, E> { Ok(0.0) }\n";
        let f = SourceFile::parse("crates/power/src/fom.rs", src);
        let fns = pub_fns(&f);
        assert_eq!(fns.len(), 2);
        assert!(fns[0].returns_bare_f64);
        assert!(!fns[1].returns_bare_f64, "Result<f64> is not bare f64");
    }

    #[test]
    fn unit_newtype_flags_raw_f64_power_return() {
        let src = "pub fn power_w(&self) -> f64 { 1.0 }\n";
        let d = lint("crates/power/src/models.rs", src);
        assert!(d.iter().any(|d| d.rule == "unit-newtype"), "{d:?}");
    }

    #[test]
    fn must_use_accepts_annotated_fn() {
        let src = "#[must_use]\npub fn sndr_db(x: f64) -> f64 { x }\n";
        let d = lint("crates/dsp/src/metrics.rs", src);
        assert!(!d.iter().any(|d| d.rule == "must-use"), "{d:?}");
    }

    #[test]
    fn seeded_rng_flags_ambient_sources_outside_bench() {
        let src = "fn f() { let mut rng = thread_rng(); }\n";
        assert_eq!(lint("crates/signals/src/x.rs", src).len(), 1);
        assert!(lint("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn finite_guard_requires_guard_in_hot_kernels() {
        let bare = "pub fn omp() {}\n";
        let d = lint("crates/cs/src/recon.rs", bare);
        assert!(d.iter().any(|d| d.rule == "finite-guard"));
        let guarded = "pub fn omp(y: &[f64]) { debug_assert_all_finite(y, \"omp\"); }\n";
        assert!(lint("crates/cs/src/recon.rs", guarded).is_empty());
        // Not a hot kernel → no requirement.
        assert!(lint("crates/cs/src/matrix.rs", bare).is_empty());
    }

    #[test]
    fn allow_escape_suppresses_same_and_next_line() {
        let same = "fn f(v: f64) -> bool { v == 0.0 } // lint:allow(float-eq)\n";
        assert!(lint("crates/ml/src/x.rs", same).is_empty());
        let preceding =
            "// lint:allow(float-eq) — definitional zero check\nfn f(v: f64) -> bool { v == 0.0 }\n";
        assert!(lint("crates/ml/src/x.rs", preceding).is_empty());
        let wrong_rule = "fn f(v: f64) -> bool { v == 0.0 } // lint:allow(no-panic)\n";
        let d = lint("crates/ml/src/x.rs", wrong_rule);
        assert!(d.iter().any(|d| d.rule == "float-eq"), "{d:?}");
        assert!(
            d.iter().any(|d| d.rule == "stale-allow"),
            "the mismatched escape is itself stale: {d:?}"
        );
    }

    #[test]
    fn ambient_time_flags_instant_and_systemtime_in_lib_code() {
        let src = "fn f() { let t = Instant::now(); }\n";
        let d = lint("crates/core/src/sweep.rs", src);
        assert!(d.iter().any(|d| d.rule == "ambient-time"), "{d:?}");
        let sys = "fn f() -> SystemTime { SystemTime::now() }\n";
        assert!(lint("crates/faults/src/plan.rs", sys)
            .iter()
            .any(|d| d.rule == "ambient-time"));
        // The clock implementations and the bench crate are exempt.
        assert!(lint("crates/obs/src/clock.rs", src).is_empty());
        assert!(lint("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unordered_iter_flags_unsorted_hash_iteration() {
        let src = "use std::collections::HashMap;\nfn dump(m: &HashMap<u32, u32>) {\n    for (k, v) in m.iter() { out(k, v); }\n}\n";
        let d = lint("crates/core/src/cache.rs", src);
        assert!(d.iter().any(|d| d.rule == "unordered-iter"), "{d:?}");
    }

    #[test]
    fn unordered_iter_accepts_sorted_collection_in_same_fn() {
        let src = "fn dump(m: &HashMap<u32, u32>) {\n    let mut v: Vec<_> = m.iter().collect();\n    v.sort_unstable();\n}\n";
        let d = lint("crates/core/src/cache.rs", src);
        assert!(
            !d.iter().any(|d| d.rule == "unordered-iter"),
            "sorting in the same fn clears the rule: {d:?}"
        );
    }

    #[test]
    fn unordered_iter_ignores_wrapped_and_non_hash_bindings() {
        let src = "fn f(shards: Vec<Mutex<HashMap<u32, u32>>>, v: &Vec<u32>) {\n    for s in shards.iter() {}\n    for x in v.iter() {}\n}\n";
        assert!(lint("crates/core/src/cache.rs", src).is_empty());
    }

    #[test]
    fn atomic_ordering_accepts_counters_and_justified_flags() {
        let counter = "fn f(hits: &AtomicU64) { hits.fetch_add(1, Ordering::Relaxed); }\n";
        assert!(lint("crates/obs/src/metrics.rs", counter).is_empty());
        let justified = "fn f(flag: &AtomicBool) {\n    // relaxed: advisory flag, stale reads are harmless\n    flag.store(true, Ordering::Relaxed);\n}\n";
        assert!(lint("crates/obs/src/registry.rs", justified).is_empty());
    }

    #[test]
    fn atomic_ordering_flags_unjustified_non_counter() {
        let src = "fn f(flag: &AtomicBool) { flag.store(true, Ordering::Relaxed); }\n";
        let d = lint("crates/obs/src/registry.rs", src);
        assert!(d.iter().any(|d| d.rule == "atomic-ordering"), "{d:?}");
        assert!(d[0].message.contains("`flag`"), "{}", d[0].message);
    }

    #[test]
    fn atomic_ordering_resolves_indexed_receivers_and_impl_fallback() {
        let indexed = "fn f(&self) { self.buckets[i].fetch_add(1, Ordering::Relaxed); }\n";
        assert!(lint("crates/obs/src/metrics.rs", indexed).is_empty());
        let tuple =
            "impl Counter {\n    fn add(&self) { self.0.fetch_add(1, Ordering::Relaxed); }\n}\n";
        assert!(
            lint("crates/obs/src/metrics.rs", tuple).is_empty(),
            "impl Counter marks tuple-field atomics as counters"
        );
    }

    #[test]
    fn unsafe_audit_requires_safety_comment() {
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let d = lint("crates/cs/src/x.rs", bad);
        assert!(d.iter().any(|d| d.rule == "unsafe-audit"), "{d:?}");
        let good = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}\n";
        assert!(lint("crates/cs/src/x.rs", good).is_empty());
        // The deny attribute's `unsafe_code` ident is not the keyword.
        assert!(lint("crates/cs/src/x.rs", "#![deny(unsafe_code)]\n").is_empty());
    }

    #[test]
    fn static_mut_is_always_flagged() {
        let src = "static mut GLOBAL: u32 = 0;\n";
        let d = lint("crates/core/src/x.rs", src);
        assert!(d.iter().any(|d| d.rule == "static-mut"), "{d:?}");
    }

    #[test]
    fn cast_truncation_flags_narrow_casts_in_kernels_only() {
        let src = "pub fn f(n: usize) -> u32 { debug_assert!(n.is_finite());\n    n as u32\n}\n";
        let d = lint("crates/dsp/src/fft.rs", src);
        assert!(d.iter().any(|d| d.rule == "cast-truncation"), "{d:?}");
        // Same code outside the kernel list is fine.
        assert!(lint("crates/dsp/src/window.rs", src).is_empty());
        // Widening casts are fine even in kernels.
        let widen =
            "pub fn f(n: u32) -> f64 { debug_assert!(x.is_finite());\n    f64::from(n)\n}\n";
        assert!(lint("crates/dsp/src/fft.rs", widen).is_empty());
    }

    #[test]
    fn stale_allow_flags_unused_escapes() {
        let src = "// lint:allow(float-eq)\nfn f(x: u32) -> bool { x == 1 }\n";
        let d = lint("crates/ml/src/x.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "stale-allow");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn stale_allow_ignores_unknown_rule_names() {
        // Doc prose like `lint:allow(rule-id)` must not trip the linter on
        // its own documentation.
        let src = "// the escape syntax is lint:allow(rule-id)\nfn f() {}\n";
        assert!(lint("crates/ml/src/x.rs", src).is_empty());
    }

    #[test]
    fn used_whole_file_allow_is_not_stale() {
        let src = "// lint:allow(finite-guard) — validated at the API boundary\npub fn omp() {}\n";
        assert!(lint("crates/cs/src/recon.rs", src).is_empty());
    }
}
