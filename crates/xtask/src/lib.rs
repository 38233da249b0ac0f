//! Workspace automation library behind `cargo xtask`.
//!
//! Three subsystems, all std-only by design (they must build in the same
//! offline environment as the models they guard):
//!
//! - the domain-aware lint pass (`cargo xtask lint`) enforcing the numerical,
//!   unit-safety, determinism and concurrency invariants of the EffiCSense
//!   workspace — token-level matching lives in [`tokens`], the rule catalogue
//!   in [`rules`], machine-readable output in [`emit`], and the escape-count
//!   cap in [`budget`]; see DESIGN.md §"Token-level determinism auditing";
//! - the perf-trend gate (`cargo xtask bench-diff`) comparing sweep
//!   benchmark summaries — see [`bench_diff`];
//! - the causal trace analyser (`cargo xtask trace report|diff`) turning
//!   JSONL span traces into flamegraphs and registry snapshots into
//!   per-stage regression attributions — see [`trace_cmd`].

pub mod bench_diff;
pub mod budget;
pub mod emit;
pub mod rules;
pub mod source;
pub mod tokens;
pub mod trace_cmd;

use rules::Diagnostic;
use source::SourceFile;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Directories never descended into while walking the workspace.
const SKIP_DIRS: [&str; 3] = ["target", ".git", "fixtures"];

/// Everything one lint pass learned: the findings plus the live
/// `lint:allow` census the suppression budget is checked against.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Unsuppressed findings, sorted by path then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Count of known-rule `lint:allow` escapes per rule id across the
    /// walked tree (stale escapes are counted too, but they already appear
    /// in `diagnostics` as `stale-allow` errors).
    pub allow_counts: BTreeMap<String, usize>,
}

/// Lints one source text under a workspace-relative virtual path.
///
/// This is the seam the fixture tests use: rule scoping keys off the path,
/// so a fixture stored under `tests/fixtures/` can impersonate, say,
/// `crates/dsp/src/kernel.rs`.
#[must_use]
pub fn lint_source(virtual_path: &str, text: &str) -> Vec<Diagnostic> {
    rules::check_file(&SourceFile::parse(virtual_path, text))
}

/// Walks `root` and lints every `.rs` file, returning diagnostics sorted by
/// path then line.
///
/// # Errors
///
/// Propagates I/O errors from directory traversal and file reads.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    lint_workspace_report(root).map(|r| r.diagnostics)
}

/// Like [`lint_workspace`], but also reports the workspace-wide
/// `lint:allow` census for suppression-budget enforcement.
///
/// # Errors
///
/// Propagates I/O errors from directory traversal and file reads.
pub fn lint_workspace_report(root: &Path) -> std::io::Result<LintReport> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut report = LintReport::default();
    for file in &files {
        let text = std::fs::read_to_string(file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let f = SourceFile::parse(&rel, &text);
        for (_, rule) in &f.allows {
            if rules::rule_info(rule).is_some() {
                *report.allow_counts.entry(rule.clone()).or_insert(0) += 1;
            }
        }
        report.diagnostics.extend(rules::check_file(&f));
    }
    report
        .diagnostics
        .sort_by(|a, b| a.path.cmp(&b.path).then(a.line.cmp(&b.line)));
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_scopes_rules_by_virtual_path() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(lint_source("crates/cs/src/fake.rs", src).len(), 1);
        assert!(lint_source("crates/signals/src/fake.rs", src).is_empty());
    }

    #[test]
    fn clean_snippet_yields_no_diagnostics() {
        let src = "pub fn add(a: u32, b: u32) -> u32 { a + b }\n";
        assert!(lint_source("crates/core/src/fake.rs", src).is_empty());
    }
}
