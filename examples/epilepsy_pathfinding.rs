//! End-to-end architectural pathfinding for epilepsy detection — a scaled-
//! down version of the paper's Section IV experiment: generate the corpus,
//! train the detection goal function, sweep a small design space over both
//! architectures, and pick the power-optimal design at ≥ 98 % accuracy.
//!
//! Run: `cargo run --release --example epilepsy_pathfinding`

use efficsense::core::pareto::{optimal_under_constraint, pareto_front};
use efficsense::core::prelude::*;
use efficsense::core::sweep::{split_by_architecture, Metric};

fn main() {
    // Step 4 of the flow: insert (synthetic) sensor data.
    let dataset = EegDataset::generate(&DatasetConfig {
        records_per_class: 4,
        duration_s: 6.0,
        ..Default::default()
    });
    println!("dataset: {} records, 3 classes", dataset.len());

    // Steps 1–3 are embodied by the design space template (block models +
    // power models + technology).
    let space = DesignSpace {
        lna_noise_vrms: efficsense::core::space::log_grid(1e-6, 20e-6, 4),
        n_bits: vec![8],
        cs_m: vec![96],
        cs_s: vec![2],
        cs_c_hold_f: vec![1e-12],
        ..DesignSpace::paper_defaults()
    };
    println!("design space: {} points (baseline + CS)", space.len());

    // Step 5: choose the goal function (detection accuracy) and sweep.
    let sweep = Sweep::new(SweepConfig {
        metric: Metric::DetectionAccuracy,
        ..Default::default()
    });
    let results = sweep.run(&space, &dataset);

    println!("\nall evaluated points:");
    print!("{}", efficsense::core::report::text_table(&results));

    let (base, cs) = split_by_architecture(&results);
    let base: Vec<SweepResult> = base.into_iter().cloned().collect();
    let cs: Vec<SweepResult> = cs.into_iter().cloned().collect();

    println!("\nbaseline Pareto front (accuracy vs power):");
    for r in pareto_front(&base) {
        println!("  {:>9.3} µW  accuracy {:.3}", r.power_w * 1e6, r.metric);
    }
    println!("CS Pareto front (accuracy vs power):");
    for r in pareto_front(&cs) {
        println!("  {:>9.3} µW  accuracy {:.3}", r.power_w * 1e6, r.metric);
    }

    match (
        optimal_under_constraint(&base, 0.98),
        optimal_under_constraint(&cs, 0.98),
    ) {
        (Some(b), Some(c)) => {
            println!("\noptimal @ ≥98% accuracy:");
            println!(
                "  baseline: {:.2} µW ({})",
                b.power_w * 1e6,
                b.point.label()
            );
            println!(
                "  CS      : {:.2} µW ({})",
                c.power_w * 1e6,
                c.point.label()
            );
            println!(
                "  power saving: {:.2}x (paper reports 3.6x at full scale)",
                b.power_w / c.power_w
            );
        }
        _ => println!("\n(constraint infeasible at this toy scale — run the fig7 bench)"),
    }
}
