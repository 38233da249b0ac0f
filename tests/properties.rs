//! Cross-crate property-style tests on the framework's core invariants,
//! run as seeded Monte-Carlo loops.

use efficsense::core::config::Architecture;
use efficsense::core::pareto::pareto_front;
use efficsense::core::space::DesignPoint;
use efficsense::core::sweep::SweepResult;
use efficsense::cs::charge_sharing::{effective_matrix, eq1_weights, share, Accumulator};
use efficsense::cs::matrix::SensingMatrix;
use efficsense::dsp::approx::total_eq;
use efficsense::power::units::Watts;
use efficsense::power::PowerBreakdown;
use efficsense_rng::Rng64;

const CASES: u64 = 96;

/// Draw a capacitance in 10 fF .. 10 pF.
fn cap(g: &mut Rng64) -> f64 {
    g.uniform(1.0, 1000.0) * 1e-14
}

#[test]
fn share_conserves_charge() {
    for case in 0..CASES {
        let mut g = Rng64::new(0x5AA2 + case);
        let (c1, c2) = (cap(&mut g), cap(&mut g));
        let v1 = g.uniform(-2.0, 2.0);
        let v2 = g.uniform(-2.0, 2.0);
        let v = share(v1, c1, v2, c2);
        let before = c1 * v1 + c2 * v2;
        let after = (c1 + c2) * v;
        assert!(
            (before - after).abs() <= 1e-12 * before.abs().max(1e-15),
            "case {case}"
        );
    }
}

#[test]
fn share_output_between_inputs() {
    for case in 0..CASES {
        let mut g = Rng64::new(0x5AA3 + case);
        let (c1, c2) = (cap(&mut g), cap(&mut g));
        let v1 = g.uniform(-2.0, 2.0);
        let v2 = g.uniform(-2.0, 2.0);
        let v = share(v1, c1, v2, c2);
        let lo = v1.min(v2) - 1e-12;
        let hi = v1.max(v2) + 1e-12;
        assert!(
            v >= lo && v <= hi,
            "case {case}: share must interpolate, got {v} outside [{lo}, {hi}]"
        );
    }
}

#[test]
fn eq1_weights_match_behavioural_accumulator() {
    for case in 0..CASES {
        let mut g = Rng64::new(0xE910 + case);
        let (c1, c2) = (cap(&mut g), cap(&mut g));
        let n = g.range(1, 40);
        let inputs: Vec<f64> = (0..n).map(|_| g.uniform(-1.0, 1.0)).collect();
        let mut acc = Accumulator::new(c1, c2);
        for &v in &inputs {
            acc.accumulate(v);
        }
        let w = eq1_weights(inputs.len(), c1, c2);
        let analytic: f64 = inputs.iter().zip(&w).map(|(v, w)| v * w).sum();
        assert!((acc.voltage() - analytic).abs() < 1e-9, "case {case}");
    }
}

#[test]
fn eq1_weights_sum_below_one() {
    for case in 0..CASES {
        let mut g = Rng64::new(0xE911 + case);
        let (c1, c2) = (cap(&mut g), cap(&mut g));
        let n = g.range(1, 100);
        let total: f64 = eq1_weights(n, c1, c2).iter().sum();
        assert!(total > 0.0 && total < 1.0 + 1e-12, "case {case}");
    }
}

#[test]
fn srbm_always_has_s_ones_per_column() {
    for case in 0..CASES {
        let mut g = Rng64::new(0x52B0 + case);
        let m = g.range(4, 40);
        let n = m + g.range(0, 60);
        let s = g.range(1, 4).min(m);
        let seed = g.next_u64();
        let phi = SensingMatrix::srbm(m, n, s, seed);
        let dense = phi.to_dense();
        for c in 0..n {
            let ones = (0..m).filter(|&r| total_eq(dense[(r, c)], 1.0)).count();
            assert_eq!(ones, s, "case {case}");
        }
        assert_eq!(phi.nnz(), n * s, "case {case}");
    }
}

#[test]
fn srbm_apply_equals_dense_matvec() {
    for case in 0..CASES {
        let mut g = Rng64::new(0x52B1 + case);
        let m = g.range(4, 24);
        let n = m + g.range(0, 40);
        let seed = g.next_u64();
        let scale = g.uniform(0.1, 10.0);
        let phi = SensingMatrix::srbm(m, n, 2.min(m), seed);
        let x: Vec<f64> = (0..n)
            .map(|i| scale * ((i * 37 + 11) % 17) as f64 / 17.0 - 0.5)
            .collect();
        let fast = phi.apply(&x);
        let dense = phi.to_dense().matvec(&x);
        for (a, b) in fast.iter().zip(&dense) {
            assert!((a - b).abs() < 1e-10, "case {case}");
        }
    }
}

#[test]
fn effective_matrix_behavioural_equivalence() {
    for case in 0..CASES {
        let mut g = Rng64::new(0xEFF0 + case);
        let m = g.range(2, 12);
        let n = g.range(16, 64);
        let seed = g.next_u64();
        let s = 2.min(m);
        let phi = SensingMatrix::srbm(m, n, s, seed);
        let (c_s, c_h) = (0.1e-12, 0.5e-12);
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 7 + 3) % 13) as f64 / 13.0 - 0.5)
            .collect();
        let mut accs = vec![Accumulator::new(c_s, c_h); m];
        for (j, &v) in x.iter().enumerate() {
            for &r in phi.column_rows(j) {
                accs[r].accumulate(v);
            }
        }
        let eff = effective_matrix(&phi, c_s, c_h);
        let algebraic = eff.matvec(&x);
        for (acc, alg) in accs.iter().zip(&algebraic) {
            assert!((acc.voltage() - alg).abs() < 1e-12, "case {case}");
        }
    }
}

fn fake_result(power_uw: f64, metric: f64) -> SweepResult {
    SweepResult {
        point: DesignPoint {
            architecture: Architecture::Baseline,
            lna_noise_vrms: 1e-6,
            n_bits: 8,
            m: None,
            s: None,
            c_hold_f: None,
        },
        metric,
        power_w: power_uw * 1e-6,
        breakdown: PowerBreakdown::new(),
        area_units: 0.0,
    }
}

#[test]
fn pareto_front_is_sound_and_complete() {
    for case in 0..CASES {
        let mut g = Rng64::new(0x9A2E + case);
        let n_pts = g.range(1, 40);
        let results: Vec<SweepResult> = (0..n_pts)
            .map(|_| fake_result(g.uniform(0.1, 100.0), g.f64()))
            .collect();
        let front = pareto_front(&results);
        assert!(!front.is_empty(), "case {case}");
        // Soundness: no front member is dominated by any result.
        for f in &front {
            for r in &results {
                let dominates = r.power_w <= f.power_w
                    && r.metric >= f.metric
                    && (r.power_w < f.power_w || r.metric > f.metric);
                assert!(!dominates, "case {case}: front member dominated");
            }
        }
        // Completeness: every non-dominated point appears (up to duplicates).
        for r in &results {
            let dominated = results.iter().any(|o| {
                o.power_w <= r.power_w
                    && o.metric >= r.metric
                    && (o.power_w < r.power_w || o.metric > r.metric)
            });
            if !dominated {
                assert!(
                    front
                        .iter()
                        .any(|f| total_eq(f.power_w, r.power_w) && total_eq(f.metric, r.metric)),
                    "case {case}: non-dominated point missing from front"
                );
            }
        }
        // Front sorted by power and metric simultaneously.
        for w in front.windows(2) {
            assert!(w[0].power_w <= w[1].power_w, "case {case}");
            assert!(w[0].metric <= w[1].metric, "case {case}");
        }
    }
}

#[test]
fn power_breakdown_total_is_sum() {
    use efficsense::power::BlockKind;
    for case in 0..CASES {
        let mut g = Rng64::new(0x70AD + case);
        let n_entries = g.range(0, 20);
        let mut b = PowerBreakdown::new();
        let mut expect = 0.0;
        for _ in 0..n_entries {
            let k = g.index(8);
            let w = g.uniform(0.0, 1e-3);
            b.add(BlockKind::ALL[k], Watts(w));
            expect += w;
        }
        assert!((b.total().value() - expect).abs() < 1e-15, "case {case}");
        let share: f64 = BlockKind::ALL.iter().map(|&k| b.fraction(k)).sum();
        if expect > 0.0 {
            assert!((share - 1.0).abs() < 1e-9, "case {case}");
        }
    }
}
