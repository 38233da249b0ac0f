//! Result reporting: CSV export and plain-text tables.

use crate::sweep::{PointError, QuarantinedPoint, SweepResult};
use efficsense_power::BlockKind;
use std::io::Write;

/// Writes sweep results as CSV (one row per design point).
///
/// Columns: label, architecture, lna_noise_uvrms, n_bits, m, s, c_hold_pf,
/// metric, power_uw, area_units, then one column per block kind (µW).
///
/// Non-finite metric or power values are written as empty cells; if any
/// occur, a *single* summary warning with the total count goes to stderr
/// (a 96-point sweep with a sick noise model should not scroll 96 warnings
/// past the interesting output).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_csv<W: Write>(mut w: W, results: &[SweepResult]) -> std::io::Result<()> {
    write!(
        w,
        "label,architecture,lna_noise_uvrms,n_bits,m,s,c_hold_pf,metric,power_uw,area_units"
    )?;
    for k in BlockKind::ALL {
        write!(w, ",{}_uw", block_slug(k))?;
    }
    writeln!(w)?;
    let mut blanked = 0usize;
    for r in results {
        let p = &r.point;
        write!(
            w,
            "{},{},{:.4},{},{},{},{},{},{},{:.1}",
            p.label(),
            p.architecture,
            p.lna_noise_vrms * 1e6,
            p.n_bits,
            p.m.map_or(String::new(), |v| v.to_string()),
            p.s.map_or(String::new(), |v| v.to_string()),
            p.c_hold_f
                .map_or(String::new(), |v| format!("{:.2}", v * 1e12)),
            finite_cell(r.metric, 1.0, &mut blanked),
            finite_cell(r.power_w, 1e6, &mut blanked),
            r.area_units
        )?;
        for k in BlockKind::ALL {
            write!(w, ",{:.6}", r.breakdown.get(k).value() * 1e6)?;
        }
        writeln!(w)?;
    }
    if blanked > 0 {
        efficsense_obs::global().warn(
            "report.nonfinite_cells",
            blanked as u64,
            &format!(
                "warning: {blanked} non-finite cell(s) written empty across {} result row(s)",
                results.len()
            ),
        );
    }
    Ok(())
}

/// Formats `value * scale` for a CSV cell, or an empty cell (counted in
/// `blanked`) when the value is NaN or infinite, so downstream plotting
/// tools see a missing sample rather than a poisoned column.
fn finite_cell(value: f64, scale: f64, blanked: &mut usize) -> String {
    if value.is_finite() {
        format!("{:.6}", value * scale)
    } else {
        *blanked += 1;
        String::new()
    }
}

/// Writes a sweep's quarantine as CSV (one row per failed point):
/// `index,label,error_kind,message`, where `error_kind` is the
/// stable discriminant (`config` / `panicked` / `non_finite`) and `message`
/// is the quoted human-readable error. An empty quarantine still writes the
/// header, so a sibling file of the results CSV always exists and parses.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_quarantine_csv<W: Write>(
    mut w: W,
    quarantine: &[QuarantinedPoint],
) -> std::io::Result<()> {
    writeln!(w, "index,label,error_kind,message")?;
    for q in quarantine {
        writeln!(
            w,
            "{},{},{},{}",
            q.index,
            q.point.label(),
            error_kind(&q.error),
            csv_quote(&q.error.to_string())
        )?;
    }
    Ok(())
}

/// Stable machine-readable discriminant of a [`PointError`].
fn error_kind(e: &PointError) -> &'static str {
    match e {
        PointError::Config(_) => "config",
        PointError::Panicked(_) => "panicked",
        PointError::NonFinite(_) => "non_finite",
    }
}

/// Quotes a CSV field (RFC 4180: wrap in quotes, double embedded quotes).
fn csv_quote(s: &str) -> String {
    format!("\"{}\"", s.replace('"', "\"\""))
}

/// Stable machine-readable name of a power block (CSV headers, cache files).
pub(crate) fn block_slug(k: BlockKind) -> &'static str {
    match k {
        BlockKind::Lna => "lna",
        BlockKind::SampleHold => "sh",
        BlockKind::Comparator => "comparator",
        BlockKind::SarLogic => "sar_logic",
        BlockKind::Dac => "dac",
        BlockKind::Transmitter => "tx",
        BlockKind::CsEncoderLogic => "cs_logic",
        BlockKind::Leakage => "leakage",
    }
}

/// Inverse of [`block_slug`]; `None` for unknown names.
pub(crate) fn block_from_slug(s: &str) -> Option<BlockKind> {
    BlockKind::ALL.into_iter().find(|k| block_slug(*k) == s)
}

/// Formats results as an aligned plain-text table.
pub fn text_table(results: &[SweepResult]) -> String {
    let mut s = format!(
        "{:<28} {:>10} {:>12} {:>12}\n",
        "design point", "metric", "power (µW)", "area (C_u)"
    );
    for r in results {
        s.push_str(&format!(
            "{:<28} {:>10.4} {:>12.4} {:>12.0}\n",
            r.point.label(),
            r.metric,
            r.power_w * 1e6,
            r.area_units
        ));
    }
    s
}

/// Writes a simple two-column CSV series (for single-axis figures).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_series<W: Write>(
    mut w: W,
    x_name: &str,
    y_name: &str,
    series: &[(f64, f64)],
) -> std::io::Result<()> {
    writeln!(w, "{x_name},{y_name}")?;
    for (x, y) in series {
        writeln!(w, "{x:.9},{y:.9}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Architecture;
    use crate::space::DesignPoint;
    use efficsense_power::PowerBreakdown;

    fn sample_result() -> SweepResult {
        let mut b = PowerBreakdown::new();
        b.add(BlockKind::Lna, efficsense_power::Watts(1e-6));
        b.add(BlockKind::Transmitter, efficsense_power::Watts(4.3e-6));
        SweepResult {
            point: DesignPoint {
                architecture: Architecture::CompressiveSensing,
                lna_noise_vrms: 3e-6,
                n_bits: 8,
                m: Some(75),
                s: Some(2),
                c_hold_f: Some(1e-12),
            },
            metric: 0.993,
            power_w: 5.3e-6,
            breakdown: b,
            area_units: 75000.0,
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut buf = Vec::new();
        write_csv(&mut buf, &[sample_result()]).expect("write to vec succeeds");
        let s = String::from_utf8(buf).expect("valid utf8");
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("label,architecture"));
        assert!(lines[0].contains("lna_uw"));
        assert!(lines[1].contains("cs_n8"));
        assert!(lines[1].contains("0.993"));
    }

    #[test]
    fn csv_block_columns_match_breakdown() {
        let mut buf = Vec::new();
        write_csv(&mut buf, &[sample_result()]).expect("write succeeds");
        let s = String::from_utf8(buf).expect("valid utf8");
        let header: Vec<&str> = s.lines().next().expect("header").split(',').collect();
        let row: Vec<&str> = s.lines().nth(1).expect("row").split(',').collect();
        assert_eq!(header.len(), row.len());
        let lna_idx = header
            .iter()
            .position(|h| *h == "lna_uw")
            .expect("lna column");
        assert!((row[lna_idx].parse::<f64>().expect("number") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn csv_blanks_non_finite_metric_and_power() {
        let mut nan_metric = sample_result();
        nan_metric.metric = f64::NAN;
        let mut inf_power = sample_result();
        inf_power.power_w = f64::INFINITY;
        let mut buf = Vec::new();
        write_csv(&mut buf, &[nan_metric, inf_power]).expect("write succeeds");
        let s = String::from_utf8(buf).expect("valid utf8");
        let header: Vec<&str> = s.lines().next().expect("header").split(',').collect();
        let metric_idx = header.iter().position(|h| *h == "metric").expect("metric");
        let power_idx = header
            .iter()
            .position(|h| *h == "power_uw")
            .expect("power_uw");
        let rows: Vec<Vec<&str>> = s.lines().skip(1).map(|l| l.split(',').collect()).collect();
        // Each row keeps its full column count, with the sick cell empty.
        assert!(rows.iter().all(|r| r.len() == header.len()));
        assert_eq!(rows[0][metric_idx], "");
        assert!(rows[0][power_idx].parse::<f64>().is_ok());
        assert_eq!(rows[1][power_idx], "");
        assert!(rows[1][metric_idx].parse::<f64>().is_ok());
    }

    #[test]
    fn quarantine_csv_has_header_kinds_and_quoted_messages() {
        let q = vec![
            QuarantinedPoint {
                index: 3,
                point: sample_result().point,
                error: PointError::NonFinite("metric NaN, power 5e-6 W".to_string()),
            },
            QuarantinedPoint {
                index: 7,
                point: sample_result().point,
                error: PointError::Panicked("said \"no\"".to_string()),
            },
        ];
        let mut buf = Vec::new();
        write_quarantine_csv(&mut buf, &q).expect("write to vec succeeds");
        let s = String::from_utf8(buf).expect("valid utf8");
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "index,label,error_kind,message");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("3,"));
        assert!(lines[1].contains(",non_finite,"));
        assert!(lines[2].contains(",panicked,"));
        // Embedded quotes survive as RFC 4180 doubled quotes.
        assert!(lines[2].ends_with("\"model panicked: said \"\"no\"\"\""));
        // Empty quarantine still produces a parseable header-only file.
        let mut empty = Vec::new();
        write_quarantine_csv(&mut empty, &[]).expect("write succeeds");
        assert_eq!(
            String::from_utf8(empty)
                .expect("valid utf8")
                .lines()
                .count(),
            1
        );
    }

    #[test]
    fn text_table_contains_label() {
        let t = text_table(&[sample_result()]);
        assert!(t.contains("cs_n8"));
        assert!(t.contains("metric"));
    }

    #[test]
    fn series_roundtrip() {
        let mut buf = Vec::new();
        write_series(&mut buf, "x", "y", &[(1.0, 2.0), (3.0, 4.0)]).expect("write succeeds");
        let s = String::from_utf8(buf).expect("valid utf8");
        assert_eq!(s.lines().count(), 3);
        assert!(s.starts_with("x,y\n"));
    }
}
