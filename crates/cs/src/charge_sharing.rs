//! Passive charge-sharing multiply-accumulate mathematics (paper Eq. (1)).
//!
//! Charging `C₁` to an input voltage and then sharing its charge with `C₂`
//! realises `v₂' = a·v₁ + b·v₂` with `a = C₁/(C₁+C₂)`, `b = C₂/(C₁+C₂)`.
//! Repeating the sample/share cycle builds the geometrically weighted sum of
//! Eq. (1):
//!
//! `V_sum = Σ_{j=1..N} V_j · C₁/(C₁+C₂) · (C₂/(C₁+C₂))^(N−j)`
//!
//! The passive encoder therefore does *not* compute an exact binary
//! matrix-vector product; the decaying weights are known, so reconstruction
//! folds them into an *effective* sensing matrix ([`effective_matrix`]).

use crate::linalg::Matrix;
use crate::matrix::SensingMatrix;

/// Voltage on both capacitors after sharing charge between `C₁` (at `v1`)
/// and `C₂` (at `v2`).
///
/// # Panics
///
/// Panics unless both capacitances are positive.
#[inline]
pub fn share(v1: f64, c1: f64, v2: f64, c2: f64) -> f64 {
    assert!(c1 > 0.0 && c2 > 0.0, "capacitances must be positive");
    (c1 * v1 + c2 * v2) / (c1 + c2)
}

/// The per-step gains of a sample/share cycle:
/// `a = C₁/(C₁+C₂)` applied to the new sample and `b = C₂/(C₁+C₂)` applied to
/// the held value.
#[inline]
pub fn share_gains(c1: f64, c2: f64) -> (f64, f64) {
    assert!(c1 > 0.0 && c2 > 0.0, "capacitances must be positive");
    let t = c1 + c2;
    (c1 / t, c2 / t)
}

/// The Eq. (1) weight of sample `j` (1-based) out of `n` accumulated samples:
/// `C₁/(C₁+C₂) · (C₂/(C₁+C₂))^(n−j)`.
pub fn eq1_weight(j: usize, n: usize, c1: f64, c2: f64) -> f64 {
    assert!(j >= 1 && j <= n, "sample index {j} out of 1..={n}");
    let (a, b) = share_gains(c1, c2);
    a * b.powi((n - j) as i32)
}

/// All `n` Eq. (1) weights in sample order.
pub fn eq1_weights(n: usize, c1: f64, c2: f64) -> Vec<f64> {
    (1..=n).map(|j| eq1_weight(j, n, c1, c2)).collect()
}

/// A single hold capacitor accumulating charge-shared samples.
///
/// ```
/// use efficsense_cs::charge_sharing::{Accumulator, eq1_weights};
/// let mut acc = Accumulator::new(0.2e-12, 1.0e-12);
/// let inputs = [1.0, -0.5, 0.25];
/// for v in inputs {
///     acc.accumulate(v);
/// }
/// let w = eq1_weights(3, 0.2e-12, 1.0e-12);
/// let expect: f64 = inputs.iter().zip(&w).map(|(v, w)| v * w).sum();
/// assert!((acc.voltage() - expect).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accumulator {
    c_sample: f64,
    c_hold: f64,
    v: f64,
}

impl Accumulator {
    /// Creates a discharged accumulator with sample capacitor `c_sample` and
    /// hold capacitor `c_hold` (farads).
    pub fn new(c_sample: f64, c_hold: f64) -> Self {
        assert!(
            c_sample > 0.0 && c_hold > 0.0,
            "capacitances must be positive"
        );
        Self {
            c_sample,
            c_hold,
            v: 0.0,
        }
    }

    /// One sample/share cycle with input voltage `v_in`.
    pub fn accumulate(&mut self, v_in: f64) {
        self.v = share(v_in, self.c_sample, self.v, self.c_hold);
    }

    /// Current hold voltage.
    #[inline]
    pub fn voltage(&self) -> f64 {
        self.v
    }

    /// Discharges the hold capacitor.
    pub fn reset(&mut self) {
        self.v = 0.0;
    }

    /// The sample capacitor value (F).
    pub fn c_sample(&self) -> f64 {
        self.c_sample
    }

    /// The hold capacitor value (F).
    pub fn c_hold(&self) -> f64 {
        self.c_hold
    }
}

/// Folds the charge-sharing weights into an s-SRBM, producing the *effective*
/// dense sensing matrix the decoder must invert.
///
/// Each row of Φ receives its marked samples in temporal order; a sample that
/// is the `l`-th of `k` contributions to a row carries weight
/// `a·b^(k−l)` (Eq. (1)).
///
/// # Panics
///
/// Panics if `phi` is not sparse-binary or capacitances are not positive.
pub fn effective_matrix(phi: &SensingMatrix, c_sample: f64, c_hold: f64) -> Matrix {
    effective_matrix_decayed(phi, c_sample, c_hold, 1.0)
}

/// Like [`effective_matrix`] but additionally folds a deterministic held-
/// charge decay of `decay_per_step` (≤ 1) per sample period — the
/// leakage-aware decoder model. A contribution made at sample `j` of an
/// `N`-sample frame is read out after `N−1−j` further periods, so its weight
/// gains a factor `decay^(N−1−j)`.
///
/// Switch leakage is set by design constants (`τ = C·V_ref/I_leak`), so a
/// designer folds it into the decode matrix just like the Eq. (1) weights;
/// only the *random* imperfections (mismatch, kT/C noise) remain unmodelled.
///
/// # Panics
///
/// Panics if `phi` is not sparse-binary, capacitances are not positive, or
/// `decay_per_step` is outside `(0, 1]`.
pub fn effective_matrix_decayed(
    phi: &SensingMatrix,
    c_sample: f64,
    c_hold: f64,
    decay_per_step: f64,
) -> Matrix {
    assert!(
        decay_per_step > 0.0 && decay_per_step <= 1.0,
        "decay per step must be in (0, 1], got {decay_per_step}"
    );
    let (a, b) = share_gains(c_sample, c_hold);
    let (m, n) = (phi.m(), phi.n());
    let mut counts = vec![0usize; m]; // contributions per row, in order
    let mut order: Vec<Vec<(usize, usize)>> = vec![Vec::new(); m]; // (col, index)
    for j in 0..n {
        for &r in phi.column_rows(j) {
            order[r].push((j, counts[r]));
            counts[r] += 1;
        }
    }
    let mut eff = Matrix::zeros(m, n);
    for (r, contribs) in order.iter().enumerate() {
        let k = contribs.len();
        for &(j, l) in contribs {
            // l is 0-based: the (l+1)-th of k contributions.
            eff[(r, j)] = a * b.powi((k - 1 - l) as i32) * decay_per_step.powi((n - 1 - j) as i32);
        }
    }
    eff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_conserves_charge() {
        let c1 = 0.3e-12;
        let c2 = 0.9e-12;
        let (v1, v2) = (1.2, -0.4);
        let v = share(v1, c1, v2, c2);
        let q_before = c1 * v1 + c2 * v2;
        let q_after = (c1 + c2) * v;
        assert!((q_before - q_after).abs() < 1e-24);
    }

    #[test]
    fn share_equal_caps_averages() {
        assert!((share(1.0, 1e-12, 0.0, 1e-12) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn gains_sum_to_one() {
        let (a, b) = share_gains(0.2e-12, 1.0e-12);
        assert!((a + b - 1.0).abs() < 1e-15);
        assert!((a - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn eq1_weights_match_iterated_sharing() {
        let c1 = 0.15e-12;
        let c2 = 0.85e-12;
        let inputs = [0.9, -0.3, 0.5, 0.1, -0.7];
        let mut acc = Accumulator::new(c1, c2);
        for v in inputs {
            acc.accumulate(v);
        }
        let w = eq1_weights(inputs.len(), c1, c2);
        let expect: f64 = inputs.iter().zip(&w).map(|(v, w)| v * w).sum();
        assert!((acc.voltage() - expect).abs() < 1e-15);
    }

    #[test]
    fn weights_decay_geometrically_backwards() {
        let w = eq1_weights(6, 0.2e-12, 1.0e-12);
        // Later samples (higher j) carry more weight.
        for k in 1..w.len() {
            assert!(w[k] > w[k - 1]);
            assert!((w[k - 1] / w[k] - 1.0 / 1.2).abs() < 1e-12); // ratio b
        }
    }

    #[test]
    fn weights_sum_bounded_by_one() {
        // Total weight = a·(1+b+…+b^{n−1}) = 1 − bⁿ < 1.
        let w = eq1_weights(50, 0.2e-12, 1.0e-12);
        let total: f64 = w.iter().sum();
        let b: f64 = 1.0 / 1.2;
        assert!((total - (1.0 - b.powi(50))).abs() < 1e-12);
        assert!(total < 1.0);
    }

    #[test]
    fn dc_input_converges_to_input() {
        // Accumulating a constant converges to that constant (unity DC gain).
        let mut acc = Accumulator::new(0.5e-12, 1.0e-12);
        for _ in 0..200 {
            acc.accumulate(0.7);
        }
        assert!((acc.voltage() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn reset_discharges_the_hold() {
        let mut acc = Accumulator::new(1e-12, 1e-12);
        acc.accumulate(1.0);
        assert!(!efficsense_dsp::approx::is_zero(acc.voltage()));
        acc.reset();
        assert_eq!(acc.voltage(), 0.0);
    }

    #[test]
    fn effective_matrix_reproduces_behavioural_sums() {
        let phi = SensingMatrix::srbm(8, 32, 2, 3);
        let c_s = 0.2e-12;
        let c_h = 1.0e-12;
        let x: Vec<f64> = (0..32).map(|i| ((i * 7 % 13) as f64 - 6.0) / 6.0).collect();
        // Behavioural: m accumulators, samples pushed in temporal order.
        let mut accs = [Accumulator::new(c_s, c_h); 8];
        for (j, &v) in x.iter().enumerate() {
            for &r in phi.column_rows(j) {
                accs[r].accumulate(v);
            }
        }
        let behavioural: Vec<f64> = accs.iter().map(|a| a.voltage()).collect();
        let eff = effective_matrix(&phi, c_s, c_h);
        let algebraic = eff.matvec(&x);
        for (b, a) in behavioural.iter().zip(&algebraic) {
            assert!((b - a).abs() < 1e-12, "{b} vs {a}");
        }
    }

    #[test]
    fn effective_matrix_support_matches_phi() {
        let phi = SensingMatrix::srbm(10, 40, 3, 5);
        let eff = effective_matrix(&phi, 0.2e-12, 1e-12);
        let dense = phi.to_dense();
        for r in 0..10 {
            for c in 0..40 {
                let (e, d) = (eff[(r, c)], dense[(r, c)]);
                assert_eq!(
                    !efficsense_dsp::approx::is_zero(e),
                    !efficsense_dsp::approx::is_zero(d),
                    "support mismatch at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn large_hold_cap_approaches_uniform_weights() {
        // C_hold >> C_sample: b → 1, weights nearly equal.
        let w = eq1_weights(10, 1e-15, 1e-9);
        let ratio = w[0] / w[9];
        assert!((ratio - 1.0).abs() < 1e-4, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_cap() {
        let _ = share(1.0, 0.0, 0.0, 1e-12);
    }
}
