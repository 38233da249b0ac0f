//! Property-style tests for the ML substrate, run as seeded Monte-Carlo
//! loops.

use efficsense_ml::metrics::{accuracy, Confusion};
use efficsense_ml::mlp::MlpClassifier;
use efficsense_ml::{Scaler, TrainConfig};
use efficsense_rng::Rng64;

const CASES: u64 = 48;

#[test]
fn scaler_output_always_zero_mean_unit_var() {
    for case in 0..CASES {
        let mut g = Rng64::new(0x5CA1 + case);
        let n_rows = g.range(2, 30);
        let rows: Vec<Vec<f64>> = (0..n_rows)
            .map(|_| (0..3).map(|_| g.uniform(-100.0, 100.0)).collect())
            .collect();
        let sc = Scaler::fit(&rows);
        let t = sc.transform_batch(&rows);
        for d in 0..3 {
            let m: f64 = t.iter().map(|r| r[d]).sum::<f64>() / t.len() as f64;
            let v: f64 = t.iter().map(|r| (r[d] - m) * (r[d] - m)).sum::<f64>() / t.len() as f64;
            assert!(m.abs() < 1e-8, "case {case}: mean {m}");
            assert!(v < 1.0 + 1e-6, "case {case}: var {v}");
        }
    }
}

#[test]
fn mlp_probabilities_form_distribution() {
    for case in 0..CASES {
        let mut g = Rng64::new(0x3170 + case);
        let x: Vec<f64> = (0..5).map(|_| g.uniform(-10.0, 10.0)).collect();
        let seed = g.next_u64();
        let mlp = MlpClassifier::new(5, &[8], 3, seed);
        let p = mlp.predict_proba(&x);
        assert_eq!(p.len(), 3, "case {case}");
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9, "case {case}");
        assert!(p.iter().all(|v| (0.0..=1.0).contains(v)), "case {case}");
        // predict() is the argmax of predict_proba().
        let arg = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i);
        assert_eq!(Some(mlp.predict(&x)), arg, "case {case}");
    }
}

#[test]
fn accuracy_bounded_and_exact_for_identical() {
    for case in 0..CASES {
        let mut g = Rng64::new(0xACC0 + case);
        let n = g.range(1, 50);
        let labels: Vec<usize> = (0..n).map(|_| g.index(2)).collect();
        assert_eq!(accuracy(&labels, &labels), 1.0, "case {case}");
        let flipped: Vec<usize> = labels.iter().map(|l| 1 - l).collect();
        assert_eq!(accuracy(&labels, &flipped), 0.0, "case {case}");
    }
}

#[test]
fn confusion_counts_partition_total() {
    for case in 0..CASES {
        let mut g = Rng64::new(0xC0F0 + case);
        let truth: Vec<usize> = (0..g.range(1, 60)).map(|_| g.index(2)).collect();
        let pred: Vec<usize> = (0..g.range(1, 60)).map(|_| g.index(2)).collect();
        let n = truth.len().min(pred.len());
        let c = Confusion::from_labels(&truth[..n], &pred[..n]);
        assert_eq!(c.tp + c.tn + c.fp + c.fn_, n, "case {case}");
        assert!(c.accuracy() >= 0.0 && c.accuracy() <= 1.0, "case {case}");
        assert!(c.f1() >= 0.0 && c.f1() <= 1.0, "case {case}");
    }
}

#[test]
fn mlp_training_never_produces_nan() {
    for case in 0..CASES {
        let mut g = Rng64::new(0x9A90 + case);
        let seed = g.next_u64();
        let lr = g.uniform(1e-4, 0.5);
        let x = vec![vec![0.0, 1.0], vec![1.0, 0.0], vec![0.5, 0.5]];
        let y = vec![0, 1, 0];
        let mut mlp = MlpClassifier::new(2, &[4], 2, seed);
        mlp.fit(
            &x,
            &y,
            &TrainConfig {
                epochs: 30,
                learning_rate: lr,
                ..Default::default()
            },
        );
        for xi in &x {
            let p = mlp.predict_proba(xi);
            assert!(p.iter().all(|v| v.is_finite()), "case {case}");
        }
    }
}
