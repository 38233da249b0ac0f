//! Regenerates **Fig. 7**: the paper's central experiment.
//!
//! * Fig. 7a — Pareto fronts of SNR vs power for the baseline and CS systems.
//! * Fig. 7b — Pareto fronts of detection accuracy vs power, and the two
//!   "optimal design solutions" (minimum power at ≥ 98 % accuracy), whose
//!   power ratio is the paper's 3.6× headline.
//!
//! Run: `cargo run --release -p efficsense-bench --bin fig7`
//! (`EFFICSENSE_FULL=1` for paper-scale workloads.)

use efficsense_bench::{save_figure, sweep_cached, uw};
use efficsense_core::prelude::*;
use efficsense_core::sweep::{split_by_architecture, Metric};

fn front_csv(results: &[&SweepResult]) -> String {
    let mut s = String::from("power_uw,metric,label\n");
    for r in results {
        s.push_str(&format!(
            "{:.6},{:.6},{}\n",
            r.power_w * 1e6,
            r.metric,
            r.point.label()
        ));
    }
    s
}

fn report_fronts(name: &str, results: &[SweepResult]) -> (Vec<SweepResult>, Vec<SweepResult>) {
    let (base, cs) = split_by_architecture(results);
    let base_owned: Vec<SweepResult> = base.into_iter().cloned().collect();
    let cs_owned: Vec<SweepResult> = cs.into_iter().cloned().collect();
    let base_front = pareto_front(&base_owned);
    let cs_front = pareto_front(&cs_owned);
    println!("--- {name}: baseline Pareto front ---");
    for r in &base_front {
        println!(
            "  {:>10}  metric {:.4}  [{}]",
            uw(r.power_w),
            r.metric,
            r.point.label()
        );
    }
    println!("--- {name}: CS Pareto front ---");
    for r in &cs_front {
        println!(
            "  {:>10}  metric {:.4}  [{}]",
            uw(r.power_w),
            r.metric,
            r.point.label()
        );
    }
    save_figure(
        &format!("{name}_baseline_front.csv"),
        &front_csv(&base_front),
    );
    save_figure(&format!("{name}_cs_front.csv"), &front_csv(&cs_front));
    (base_owned, cs_owned)
}

fn main() {
    println!("=== Fig. 7a: SNR vs power ===");
    let snr_results = sweep_cached(Metric::Snr);
    let (snr_base, snr_cs) = report_fronts("fig7a", &snr_results);
    // The paper's observation: the baseline wins at high SNR, CS at low power.
    let best_base_snr = snr_base
        .iter()
        .map(|r| r.metric)
        .fold(f64::NEG_INFINITY, f64::max);
    let best_cs_snr = snr_cs
        .iter()
        .map(|r| r.metric)
        .fold(f64::NEG_INFINITY, f64::max);
    let min_base_p = snr_base
        .iter()
        .map(|r| r.power_w)
        .fold(f64::INFINITY, f64::min);
    let min_cs_p = snr_cs
        .iter()
        .map(|r| r.power_w)
        .fold(f64::INFINITY, f64::min);
    println!(
        "  max SNR: baseline {best_base_snr:.1} dB vs CS {best_cs_snr:.1} dB (paper: baseline wins)"
    );
    println!(
        "  min power: baseline {} vs CS {} (paper: CS wins)",
        uw(min_base_p),
        uw(min_cs_p)
    );

    println!();
    println!("=== Fig. 7b: detection accuracy vs power ===");
    let acc_results = sweep_cached(Metric::DetectionAccuracy);
    let (acc_base, acc_cs) = report_fronts("fig7b", &acc_results);

    let constraint = 0.98;
    let opt_base = efficsense_core::pareto::optimal_under_constraint(&acc_base, constraint);
    let opt_cs = efficsense_core::pareto::optimal_under_constraint(&acc_cs, constraint);
    println!();
    println!("=== Optimal design solutions (min power @ accuracy >= {constraint}) ===");
    match (opt_base, opt_cs) {
        (Some(b), Some(c)) => {
            println!(
                "  baseline: {} @ {:.1} % accuracy  [{}]",
                uw(b.power_w),
                b.metric * 100.0,
                b.point.label()
            );
            println!(
                "  CS      : {} @ {:.1} % accuracy  [{}]",
                uw(c.power_w),
                c.metric * 100.0,
                c.point.label()
            );
            let saving = b.power_w / c.power_w;
            println!("  power saving: {saving:.2}x (paper: 3.6x — 8.8 µW baseline vs 2.44 µW CS)");
            let summary = format!(
                "quantity,value\nbaseline_power_uw,{:.4}\nbaseline_accuracy,{:.4}\ncs_power_uw,{:.4}\ncs_accuracy,{:.4}\npower_saving_x,{:.4}\n",
                b.power_w * 1e6,
                b.metric,
                c.power_w * 1e6,
                c.metric,
                saving
            );
            save_figure("fig7b_optimal_points.csv", &summary);
        }
        _ => {
            println!("  constraint infeasible on this workload scale;");
            println!("  rerun with EFFICSENSE_FULL=1 or inspect the fronts above.");
        }
    }
}
