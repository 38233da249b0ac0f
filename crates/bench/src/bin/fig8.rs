//! Regenerates **Fig. 8**: per-block power breakdown at the baseline and CS
//! optimal design points of Fig. 7b.
//!
//! Run fig7 first (this replays its sweep from the persisted L1 cache), or
//! this binary will run the sweep itself.
//!
//! Run: `cargo run --release -p efficsense-bench --bin fig8`

use efficsense_bench::{save_figure, scale, sweep_cached, uw};
use efficsense_core::pareto::optimal_under_constraint;
use efficsense_core::prelude::*;
use efficsense_core::sweep::{split_by_architecture, Metric};
use efficsense_power::BlockKind;

fn pick<'a>(results: &'a [SweepResult], arch_results: Vec<&'a SweepResult>) -> &'a SweepResult {
    let owned: Vec<SweepResult> = arch_results.into_iter().cloned().collect();
    // Each architecture's knee: the cheapest design within 1 % of its own
    // peak accuracy. This matches the paper's "optimal design solution"
    // semantics while staying meaningful on any corpus (a hard 98 % line can
    // be infeasible-or-trivial depending on the detection margin).
    let peak = owned
        .iter()
        .map(|r| r.metric)
        .fold(f64::NEG_INFINITY, f64::max);
    let chosen = optimal_under_constraint(&owned, peak - 0.01)
        .cloned()
        .expect("peak constraint is feasible by construction");
    results
        .iter()
        .find(|x| x.point == chosen.point)
        .expect("point comes from results")
}

fn main() {
    let sc = scale();
    println!("=== Fig. 8: power distribution at the optimal design points ===");
    let results = sweep_cached(sc, Metric::DetectionAccuracy);
    let (base, cs) = split_by_architecture(&results);
    assert!(
        !base.is_empty() && !cs.is_empty(),
        "sweep must cover both architectures"
    );
    let opt_base = pick(&results, base);
    let opt_cs = pick(&results, cs);

    println!(
        "baseline optimum: {} @ accuracy {:.3} [{}]",
        uw(opt_base.power_w),
        opt_base.metric,
        opt_base.point.label()
    );
    println!("{}", opt_base.breakdown);
    println!();
    println!(
        "CS optimum: {} @ accuracy {:.3} [{}]",
        uw(opt_cs.power_w),
        opt_cs.metric,
        opt_cs.point.label()
    );
    println!("{}", opt_cs.breakdown);

    let mut csv = String::from("block,baseline_uw,cs_uw\n");
    for k in BlockKind::ALL {
        csv.push_str(&format!(
            "{},{:.6},{:.6}\n",
            k,
            opt_base.breakdown.get(k).value() * 1e6,
            opt_cs.breakdown.get(k).value() * 1e6
        ));
    }
    csv.push_str(&format!(
        "TOTAL,{:.6},{:.6}\n",
        opt_base.power_w * 1e6,
        opt_cs.power_w * 1e6
    ));
    save_figure("fig8_power_distribution.csv", &csv);

    println!();
    println!("Paper's expected shape: the CS optimum saves most of its power in the");
    println!("transmitter (fewer samples) and the LNA (higher tolerated noise floor),");
    println!("at the cost of a marginal CS-encoder-logic increase.");
    let tx_saving = opt_base.breakdown.get(BlockKind::Transmitter).value()
        - opt_cs.breakdown.get(BlockKind::Transmitter).value();
    let lna_saving = opt_base.breakdown.get(BlockKind::Lna).value()
        - opt_cs.breakdown.get(BlockKind::Lna).value();
    let cs_cost = opt_cs.breakdown.get(BlockKind::CsEncoderLogic).value()
        - opt_base.breakdown.get(BlockKind::CsEncoderLogic).value();
    println!(
        "measured: TX saving {}, LNA saving {}, CS logic cost {}",
        uw(tx_saving),
        uw(lna_saving),
        uw(cs_cost)
    );

    // Beyond the paper: detection quality detail at the two optima
    // (sensitivity/specificity, standard for seizure detection).
    println!();
    println!("=== detection quality at the optima (beyond the paper) ===");
    let dataset = EegDataset::generate(&sc.dataset_config());
    let space = sc.design_space();
    let fs = space.template.design.f_sample_hz();
    // The accuracy sweep above trained this detector (same dataset, rate,
    // epoch and seed); on a cold run the memo hands it back.
    let detector = efficsense_core::cache::trained_detector(
        &dataset,
        fs,
        SweepConfig::default().epoch_s,
        SweepConfig::default().detector_seed,
    );
    for (name, opt) in [("baseline", opt_base), ("cs", opt_cs)] {
        let cfg = opt.point.to_config(&space.template);
        let sim = Simulator::new(cfg).expect("optimum validates");
        let outputs: Vec<(Vec<f64>, usize)> = dataset
            .records
            .iter()
            .map(|r| {
                (
                    sim.run(&r.samples, r.fs, r.id as u64 + 1).input_referred,
                    r.label(),
                )
            })
            .collect();
        let conf = detector.confusion(&outputs, fs);
        println!(
            "{name:<9} accuracy {:.3}  sensitivity {:.3}  specificity {:.3}  (tp {} tn {} fp {} fn {})",
            conf.accuracy(),
            conf.sensitivity(),
            conf.specificity(),
            conf.tp,
            conf.tn,
            conf.fp,
            conf.fn_
        );
    }
}
