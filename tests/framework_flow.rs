//! Integration test of the paper's five-step pathfinding flow, end to end.

use efficsense::core::config::{Architecture, CsConfig, SystemConfig};
use efficsense::core::detector::SeizureDetector;
use efficsense::core::goal::{DetectionGoal, GoalFunction, SnrGoal};
use efficsense::core::pareto::{optimal_under_constraint, pareto_front};
use efficsense::core::report;
use efficsense::core::space::DesignSpace;
use efficsense::core::sweep::{split_by_architecture, Metric, Sweep, SweepConfig, SweepResult};
use efficsense::signals::{DatasetConfig, EegDataset};

fn dataset() -> EegDataset {
    EegDataset::generate(&DatasetConfig {
        records_per_class: 3,
        duration_s: 4.0,
        ..Default::default()
    })
}

fn small_space() -> DesignSpace {
    DesignSpace {
        lna_noise_vrms: vec![2e-6, 12e-6],
        n_bits: vec![8],
        cs_m: vec![96],
        cs_s: vec![2],
        cs_c_hold_f: vec![0.5e-12],
        ..DesignSpace::paper_defaults()
    }
}

#[test]
fn five_step_flow_produces_actionable_results() {
    // Step 4: insert sensor data.
    let ds = dataset();
    // Steps 1–3 are embodied in the design-space template.
    let space = small_space();
    // Step 5: choose a goal function and sweep.
    let sweep = Sweep::new(SweepConfig {
        metric: Metric::DetectionAccuracy,
        threads: 1,
        ..Default::default()
    });
    let results = sweep.run(&space, &ds);
    assert_eq!(results.len(), space.len());

    // Both architectures present, both Pareto fronts non-empty.
    let (base, cs) = split_by_architecture(&results);
    assert!(!base.is_empty() && !cs.is_empty());
    let base_owned: Vec<SweepResult> = base.into_iter().cloned().collect();
    let front = pareto_front(&base_owned);
    assert!(!front.is_empty());

    // The selection step returns a design meeting a (loose) constraint.
    let opt = optimal_under_constraint(&results, 0.5).expect("some design meets 50 %");
    assert!(opt.power_w > 0.0);

    // Reporting round-trips through CSV.
    let mut buf = Vec::new();
    report::write_csv(&mut buf, &results).expect("csv writes");
    let text = String::from_utf8(buf).expect("utf8");
    assert_eq!(text.lines().count(), results.len() + 1);
}

#[test]
fn goal_function_choice_changes_the_ranking() {
    // The paper's Fig. 7 message: SNR and detection accuracy rank designs
    // differently. Verify the two goals disagree on at least the ordering
    // direction for the CS system (poor waveform SNR, fine detection).
    let ds = dataset();
    let fs = 537.6;
    let detector = SeizureDetector::train_epoched(&ds, fs, 2.0, 1);
    let det_goal = DetectionGoal::new(detector);
    let snr_goal = SnrGoal;

    let base_cfg = {
        let mut c = SystemConfig::baseline(8);
        c.lna.noise_floor_vrms = 2e-6;
        c
    };
    let cs_cfg = {
        let mut c = SystemConfig::compressive(
            8,
            CsConfig {
                m: 150,
                ..Default::default()
            },
        );
        c.lna.noise_floor_vrms = 2e-6;
        c
    };
    let run = |cfg: SystemConfig| {
        let sim = efficsense::core::simulate::Simulator::new(cfg).expect("valid");
        ds.records
            .iter()
            .map(|r| (sim.run(&r.samples, r.fs, r.id as u64 + 1), r.label()))
            .collect::<Vec<_>>()
    };
    let base_out = run(base_cfg);
    let cs_out = run(cs_cfg);

    let snr_base = snr_goal.evaluate(&base_out);
    let snr_cs = snr_goal.evaluate(&cs_out);
    let acc_base = det_goal.evaluate(&base_out);
    let acc_cs = det_goal.evaluate(&cs_out);

    // Waveform fidelity: baseline wins clearly.
    assert!(
        snr_base > snr_cs + 3.0,
        "baseline SNR {snr_base} should clearly beat CS {snr_cs}"
    );
    // Application accuracy: CS is competitive (within a few window errors).
    assert!(
        acc_cs >= acc_base - 0.1,
        "CS accuracy {acc_cs} should be competitive with baseline {acc_base}"
    );
}

#[test]
fn sweep_respects_architecture_split_invariants() {
    let ds = dataset();
    let space = small_space();
    let results = Sweep::new(SweepConfig {
        metric: Metric::Snr,
        threads: 1,
        ..Default::default()
    })
    .run(&space, &ds);
    for r in &results {
        match r.point.architecture {
            Architecture::Baseline => {
                assert_eq!(
                    r.breakdown
                        .get(efficsense::power::BlockKind::CsEncoderLogic)
                        .value(),
                    0.0
                );
                assert!(r.area_units < 1000.0);
            }
            Architecture::CompressiveSensing => {
                assert!(
                    r.breakdown
                        .get(efficsense::power::BlockKind::CsEncoderLogic)
                        .value()
                        > 0.0
                );
                assert!(r.area_units > 10_000.0);
            }
        }
    }
}
