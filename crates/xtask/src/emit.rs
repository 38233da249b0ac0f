//! Machine-readable renderings of lint results.
//!
//! Two formats, both built as `efficsense_obs::json::Json` values and
//! rendered by its writer (std-only, no serde):
//!
//! - [`render_json`] — a compact native schema for scripting: diagnostics,
//!   per-rule `lint:allow` counts, and the totals CI trend lines key off;
//! - [`render_sarif`] — minimal SARIF 2.1.0 for code-scanning UIs: one run,
//!   one `tool.driver` carrying the rule catalogue, one `result` per
//!   diagnostic with a physical location.
//!
//! Both emitters are exercised by round-trip fixture tests that re-parse the
//! output with the workspace JSON parser.

use crate::rules::{Diagnostic, RULES};
use crate::LintReport;
use efficsense_obs::json::Json;

/// Renders a [`LintReport`] as a single-document JSON object.
#[must_use]
pub fn render_json(report: &LintReport) -> String {
    let diagnostics = report
        .diagnostics
        .iter()
        .map(|d| {
            Json::obj([
                ("path", d.path.as_str().into()),
                ("line", d.line.into()),
                ("rule", d.rule.into()),
                ("message", d.message.as_str().into()),
            ])
        })
        .collect();
    let allows = report
        .allow_counts
        .iter()
        .map(|(rule, n)| (rule.as_str(), Json::from(*n)));
    let total: usize = report.allow_counts.values().sum();
    Json::obj([
        ("tool", "xtask-lint".into()),
        ("diagnostics", diagnostics),
        ("allows", Json::obj(allows)),
        ("total_allows", total.into()),
        ("total_diagnostics", report.diagnostics.len().into()),
    ])
    .to_string()
}

/// Renders diagnostics as a minimal SARIF 2.1.0 log.
#[must_use]
pub fn render_sarif(diagnostics: &[Diagnostic]) -> String {
    let text = |s: &str| Json::obj([("text", s.into())]);
    let rules = RULES
        .iter()
        .map(|r| Json::obj([("id", r.id.into()), ("shortDescription", text(r.summary))]))
        .collect();
    let results = diagnostics
        .iter()
        .map(|d| {
            let rule_index = RULES.iter().position(|r| r.id == d.rule).unwrap_or(0);
            let location = Json::obj([(
                "physicalLocation",
                Json::obj([
                    (
                        "artifactLocation",
                        Json::obj([("uri", d.path.as_str().into())]),
                    ),
                    ("region", Json::obj([("startLine", d.line.into())])),
                ]),
            )]);
            Json::obj([
                ("ruleId", d.rule.into()),
                ("ruleIndex", rule_index.into()),
                ("level", "error".into()),
                ("message", text(&d.message)),
                ("locations", Json::Arr(vec![location])),
            ])
        })
        .collect();
    let driver = Json::obj([
        ("name", "xtask-lint".into()),
        (
            "informationUri",
            "https://example.invalid/efficsense/xtask".into(),
        ),
        ("rules", rules),
    ]);
    let run = Json::obj([
        ("tool", Json::obj([("driver", driver)])),
        ("results", results),
    ]);
    Json::obj([
        (
            "$schema",
            "https://json.schemastore.org/sarif-2.1.0.json".into(),
        ),
        ("version", "2.1.0".into()),
        ("runs", Json::Arr(vec![run])),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use efficsense_obs::json::Json;
    use std::collections::BTreeMap;

    fn sample_report() -> LintReport {
        LintReport {
            diagnostics: vec![Diagnostic {
                path: "crates/dsp/src/fft.rs".to_string(),
                line: 42,
                rule: "float-eq",
                message: "exact float comparison with \"quotes\" and \\ backslash".to_string(),
            }],
            allow_counts: BTreeMap::from([("float-eq".to_string(), 2)]),
        }
    }

    #[test]
    fn json_document_parses_back() {
        let doc = render_json(&sample_report());
        let json = Json::parse(&doc).expect("valid JSON");
        let diags = json.get("diagnostics").and_then(Json::as_arr).unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(
            diags[0].get("path").and_then(Json::as_str),
            Some("crates/dsp/src/fft.rs")
        );
        assert_eq!(diags[0].get("line").and_then(Json::as_u64), Some(42));
        assert_eq!(json.get("total_allows").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn sarif_document_parses_back_with_catalogue() {
        let report = sample_report();
        let doc = render_sarif(&report.diagnostics);
        let json = Json::parse(&doc).expect("valid SARIF JSON");
        assert_eq!(json.get("version").and_then(Json::as_str), Some("2.1.0"));
        let runs = json.get("runs").and_then(Json::as_arr).unwrap();
        let rules = runs[0]
            .get("tool")
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("rules"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(rules.len(), RULES.len());
        let results = runs[0].get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(
            results[0].get("ruleId").and_then(Json::as_str),
            Some("float-eq")
        );
    }

    #[test]
    fn escaping_survives_hostile_messages() {
        let mut report = sample_report();
        report.diagnostics[0].message = "newline\n tab\t quote\" backslash\\ done".to_string();
        for doc in [render_json(&report), render_sarif(&report.diagnostics)] {
            let json = Json::parse(&doc).expect("hostile message must still parse");
            let text = doc.contains("newline\\n");
            assert!(text, "newline must be escaped: {doc}");
            drop(json);
        }
    }
}
