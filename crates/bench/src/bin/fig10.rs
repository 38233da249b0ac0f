//! Regenerates **Fig. 10**: area-constrained accuracy-vs-power Pareto
//! fronts. Tight capacitor-area caps exclude the CS designs and clip the
//! achievable accuracy, reproducing the paper's constrained-search message.
//!
//! Run: `cargo run --release -p efficsense-bench --bin fig10`

use efficsense_bench::{save_figure, scale, sweep_cached, uw};
use efficsense_core::pareto::{pareto_front, within_area};
use efficsense_core::sweep::Metric;

fn main() {
    println!("=== Fig. 10: area-constrained Pareto fronts ===");
    let results = sweep_cached(scale(), Metric::DetectionAccuracy);
    // Constraints in C_u,min multiples, from "digital-only budget" to
    // unconstrained (the paper sweeps a comparable ladder).
    let caps: [(f64, &str); 4] = [
        (1.0e3, "1k"),
        (1.0e5, "100k"),
        (1.0e6, "1M"),
        (f64::INFINITY, "unconstrained"),
    ];
    let mut csv = String::from("area_cap_units,power_uw,accuracy,architecture,label\n");
    let mut last_best = -1.0f64;
    for (cap, cap_label) in caps {
        let feasible = within_area(&results, cap);
        println!(
            "--- area cap {cap_label} C_u: {} feasible designs ---",
            feasible.len()
        );
        if feasible.is_empty() {
            continue;
        }
        let front = pareto_front(&feasible);
        let mut best = -1.0f64;
        for r in &front {
            println!(
                "  {:>10}  accuracy {:.4}  area {:>9.0}  [{}]",
                uw(r.power_w),
                r.metric,
                r.area_units,
                r.point.label()
            );
            best = best.max(r.metric);
            csv.push_str(&format!(
                "{},{:.6},{:.6},{},{}\n",
                cap_label,
                r.power_w * 1e6,
                r.metric,
                r.point.architecture,
                r.point.label()
            ));
        }
        println!("  max accuracy under this cap: {:.2} %", best * 100.0);
        assert!(
            best >= last_best - 1e-9,
            "relaxing the area cap must not reduce achievable accuracy"
        );
        last_best = best;
    }
    save_figure("fig10_area_constrained_fronts.csv", &csv);
    println!();
    println!("Paper's expected shape: small area caps exclude the capacitor-hungry CS");
    println!("designs, limiting the accuracy/power trade-off to the baseline front;");
    println!("with relaxed caps the CS front takes over at low power.");
}
