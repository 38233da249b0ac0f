//! Active (OTA-integrator) CS encoder — the power-hungry alternative the
//! paper's passive charge-sharing design replaces.
//!
//! An active switched-capacitor integrator bank computes the *exact* binary
//! matrix product `y = Φx` (no Eq. (1) geometric decay), at the cost of one
//! OTA per measurement channel. Non-idealities modelled: per-transfer kT/C
//! noise and finite-DC-gain integrator leak.

use efficsense_cs::linalg::Matrix;
use efficsense_cs::matrix::SensingMatrix;
use efficsense_power::models::{CsEncoderLogicModel, PowerModel};
use efficsense_power::ota::OtaIntegratorModel;
use efficsense_power::{kt, DesignParams, PowerBreakdown, TechnologyParams};
use efficsense_rng::Rng64;

/// Behavioural active CS encoder (integrator bank).
#[derive(Debug, Clone)]
pub struct ActiveCsEncoder {
    phi: SensingMatrix,
    /// Integration capacitor per channel (F).
    pub c_int_f: f64,
    /// OTA DC gain (finite gain causes integrator leak `1 − 1/(A·β)`).
    pub dc_gain: f64,
    /// Enable kT/C noise per charge transfer.
    pub ktc_noise: bool,
    noise: Rng64,
    acc: Vec<f64>,
}

impl ActiveCsEncoder {
    /// Creates an active encoder for schedule `phi`.
    ///
    /// # Panics
    ///
    /// Panics if `phi` is not an s-SRBM, or parameters are non-physical.
    pub fn new(phi: SensingMatrix, c_int_f: f64, dc_gain: f64, ktc_noise: bool, seed: u64) -> Self {
        assert!(
            phi.sparsity().is_some(),
            "active encoder requires an s-SRBM schedule"
        );
        assert!(c_int_f > 0.0, "integration cap must be positive");
        assert!(dc_gain > 1.0, "OTA gain must exceed unity");
        let m = phi.m();
        Self {
            phi,
            c_int_f,
            dc_gain,
            ktc_noise,
            noise: Rng64::new(seed ^ 0xAC71),
            acc: vec![0.0; m],
        }
    }

    /// Number of measurements per frame.
    pub fn m(&self) -> usize {
        self.phi.m()
    }

    /// Frame length.
    pub fn n_phi(&self) -> usize {
        self.phi.n()
    }

    /// Encodes one frame into `M` measurements.
    ///
    /// # Panics
    ///
    /// Panics if `frame.len() != n_phi()`.
    pub fn encode_frame(&mut self, frame: &[f64]) -> Vec<f64> {
        assert_eq!(frame.len(), self.n_phi(), "frame length must equal N_Φ");
        for v in &mut self.acc {
            *v = 0.0;
        }
        let leak = 1.0 - 1.0 / self.dc_gain;
        let sigma = if self.ktc_noise {
            (kt() / self.c_int_f).sqrt()
        } else {
            0.0
        };
        for (j, &x) in frame.iter().enumerate() {
            for &r in self.phi.column_rows(j) {
                let sampled = if sigma > 0.0 {
                    x + self.noise.normal() * sigma
                } else {
                    x
                };
                // Integrator: previous value leaks by the finite-gain factor.
                self.acc[r] = self.acc[r] * leak + sampled;
            }
        }
        self.acc.clone()
    }

    /// The matrix the decoder inverts: binary Φ with the finite-gain leak
    /// folded in per contribution (analogous to the passive effective
    /// matrix, but without the charge-sharing attenuation).
    pub fn effective_matrix(&self) -> Matrix {
        let (m, n) = (self.phi.m(), self.phi.n());
        let leak = 1.0 - 1.0 / self.dc_gain;
        let mut counts = vec![0usize; m];
        let mut order: Vec<Vec<(usize, usize)>> = vec![Vec::new(); m];
        for j in 0..n {
            for &r in self.phi.column_rows(j) {
                order[r].push((j, counts[r]));
                counts[r] += 1;
            }
        }
        let mut eff = Matrix::zeros(m, n);
        for (r, contribs) in order.iter().enumerate() {
            let k = contribs.len();
            for &(j, l) in contribs {
                eff[(r, j)] = leak.powi((k - 1 - l) as i32);
            }
        }
        eff
    }

    /// Power breakdown: OTA integrators plus the sensing-matrix logic.
    pub fn power_breakdown(
        &self,
        tech: &TechnologyParams,
        design: &DesignParams,
    ) -> PowerBreakdown {
        let mut b = PowerBreakdown::new();
        let ota = OtaIntegratorModel {
            count: self.m(),
            c_int_f: self.c_int_f,
            settle_bits: design.n_bits,
            v_swing: design.v_fs / 2.0,
        };
        b.add(ota.kind(), ota.power(tech, design));
        let logic = CsEncoderLogicModel::new(self.n_phi());
        b.add(logic.kind(), logic.power(tech, design));
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phi() -> SensingMatrix {
        SensingMatrix::srbm(16, 64, 2, 11)
    }

    #[test]
    fn ideal_active_encoder_computes_exact_phi_x() {
        let mut enc = ActiveCsEncoder::new(phi(), 1e-12, 1e9, false, 1);
        let x: Vec<f64> = (0..64).map(|i| ((i * 5 % 17) as f64 - 8.0) / 8.0).collect();
        let y = enc.encode_frame(&x);
        let expect = phi().apply(&x);
        for (a, b) in y.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn finite_gain_attenuates_early_samples() {
        let mut ideal = ActiveCsEncoder::new(phi(), 1e-12, 1e9, false, 1);
        let mut leaky = ActiveCsEncoder::new(phi(), 1e-12, 100.0, false, 1);
        let x = vec![1.0; 64];
        let yi: f64 = ideal.encode_frame(&x).iter().sum();
        let yl: f64 = leaky.encode_frame(&x).iter().sum();
        assert!(yl < yi);
        assert!(yl > 0.8 * yi, "A=100 leak should be mild: {yl} vs {yi}");
    }

    #[test]
    fn effective_matrix_matches_behaviour() {
        let mut enc = ActiveCsEncoder::new(phi(), 1e-12, 200.0, false, 1);
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin()).collect();
        let y = enc.encode_frame(&x);
        let eff = enc.effective_matrix();
        let expect = eff.matvec(&x);
        for (a, b) in y.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn measurement_amplitude_larger_than_passive() {
        // The active integrator sums without attenuation: measurements are
        // (much) larger than the charge-sharing encoder's, relaxing the ADC.
        use crate::cs_frontend::{ChargeSharingEncoder, EncoderImperfections};
        let tech = TechnologyParams::gpdk045();
        let design = DesignParams::paper_defaults(8);
        let x = vec![0.5; 64];
        let mut passive_enc = ChargeSharingEncoder::new(
            phi(),
            0.1e-12,
            0.5e-12,
            1.0 / design.f_sample_hz(),
            EncoderImperfections::ideal(),
            &tech,
            &design,
            0,
        );
        let passive = passive_enc.encode_frame(&x);
        let mut active = ActiveCsEncoder::new(phi(), 1e-12, 1e9, false, 1);
        let ya = active.encode_frame(&x);
        let sum_p: f64 = passive.iter().map(|v| v.abs()).sum();
        let sum_a: f64 = ya.iter().map(|v| v.abs()).sum();
        assert!(sum_a > 2.0 * sum_p);
    }

    #[test]
    fn active_power_exceeds_passive_logic() {
        let tech = TechnologyParams::gpdk045();
        let design = DesignParams::paper_defaults(8);
        let enc = ActiveCsEncoder::new(phi(), 1e-12, 1e4, false, 1);
        let b = enc.power_breakdown(&tech, &design);
        let passive_logic = CsEncoderLogicModel::new(64).power(&tech, &design);
        assert!(b.total() > passive_logic);
    }

    #[test]
    fn ktc_noise_perturbs_output() {
        let x = vec![0.0; 64];
        let mut noisy = ActiveCsEncoder::new(phi(), 1e-13, 1e9, true, 5);
        let y = noisy.encode_frame(&x);
        assert!(y.iter().any(|v| !efficsense_dsp::approx::is_zero(*v)));
        let mut quiet = ActiveCsEncoder::new(phi(), 1e-13, 1e9, false, 5);
        assert!(quiet
            .encode_frame(&x)
            .iter()
            .all(|v| efficsense_dsp::approx::is_zero(*v)));
    }

    #[test]
    #[should_panic(expected = "gain must exceed")]
    fn rejects_unity_gain() {
        let _ = ActiveCsEncoder::new(phi(), 1e-12, 1.0, false, 0);
    }
}
