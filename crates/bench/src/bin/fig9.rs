//! Regenerates **Fig. 9**: detection accuracy vs total capacitor count
//! (area in multiples of `C_u,min`) across the whole search space, showing
//! the CS technique's substantial area cost.
//!
//! Run: `cargo run --release -p efficsense-bench --bin fig9`

use efficsense_bench::{save_figure, scale, sweep_cached};
use efficsense_core::sweep::{split_by_architecture, Metric};

fn main() {
    println!("=== Fig. 9: accuracy vs capacitor area ===");
    let results = sweep_cached(scale(), Metric::DetectionAccuracy);
    let mut csv = String::from("architecture,area_units,accuracy,power_uw,label\n");
    for r in &results {
        csv.push_str(&format!(
            "{},{:.1},{:.6},{:.6},{}\n",
            r.point.architecture,
            r.area_units,
            r.metric,
            r.power_w * 1e6,
            r.point.label()
        ));
    }
    save_figure("fig9_accuracy_vs_area.csv", &csv);

    let (base, cs) = split_by_architecture(&results);
    let stats = |rs: &[&efficsense_core::sweep::SweepResult]| {
        let min = rs
            .iter()
            .map(|r| r.area_units)
            .fold(f64::INFINITY, f64::min);
        let max = rs.iter().map(|r| r.area_units).fold(0.0f64, f64::max);
        let best = rs
            .iter()
            .map(|r| r.metric)
            .fold(f64::NEG_INFINITY, f64::max);
        (min, max, best)
    };
    let (bmin, bmax, bacc) = stats(&base);
    let (cmin, cmax, cacc) = stats(&cs);
    println!(
        "  baseline: area {bmin:.0}–{bmax:.0} C_u, best accuracy {:.1} %",
        bacc * 100.0
    );
    println!(
        "  CS      : area {cmin:.0}–{cmax:.0} C_u, best accuracy {:.1} %",
        cacc * 100.0
    );
    println!(
        "  area ratio (CS/baseline, min designs): {:.0}x — the paper's message that",
        cmin / bmin
    );
    println!("  CS buys its power saving with a large capacitor bank.");
    assert!(
        cmin > bmax,
        "every CS design should out-area every baseline design (got CS min {cmin} vs baseline max {bmax})"
    );
}
