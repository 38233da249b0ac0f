//! Behavioural passive charge-sharing CS encoder (paper Fig. 5).
//!
//! An array of `M` hold capacitors accumulates charge-shared samples
//! according to an s-SRBM schedule. Non-idealities modelled:
//!
//! * **capacitor mismatch** — every hold and sample capacitor deviates from
//!   nominal with σ from the technology matching coefficient;
//! * **kT/C noise** — every sampling event adds `sqrt(kT/C_sample)` noise;
//! * **leakage droop** — between shares, hold voltages decay exponentially
//!   with `τ = C_hold · V_ref / I_leak` (off-switch leakage modelled as a
//!   conductance at the nominal reference).
//!
//! The decoder does not know the mismatch or noise realisations; it inverts
//! the *nominal* effective matrix
//! ([`efficsense_cs::charge_sharing::effective_matrix_decayed`], with the
//! droop of [`ChargeSharingEncoder::nominal_decay_per_step`] when it is
//! leak-aware), so these imperfections show up as reconstruction error —
//! the behaviour the paper's framework is built to quantify.

use efficsense_cs::charge_sharing::share;
use efficsense_cs::matrix::SensingMatrix;
use efficsense_faults::CapLeakageFault;
use efficsense_power::models::{CsEncoderLogicModel, LeakageModel};
use efficsense_power::{kt, DesignParams, PowerBreakdown, PowerModel, TechnologyParams};
use efficsense_rng::Rng64;

use crate::NOISE_BLOCK;

/// Non-ideality switches for the encoder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncoderImperfections {
    /// Enable capacitor mismatch draws.
    pub mismatch: bool,
    /// Enable per-share kT/C sampling noise.
    pub ktc_noise: bool,
    /// Enable leakage droop of held charge.
    pub leakage: bool,
}

impl EncoderImperfections {
    /// All imperfections enabled (the realistic default).
    pub fn realistic() -> Self {
        Self {
            mismatch: true,
            ktc_noise: true,
            leakage: true,
        }
    }

    /// All imperfections disabled (ideal charge-sharing math).
    pub fn ideal() -> Self {
        Self {
            mismatch: false,
            ktc_noise: false,
            leakage: false,
        }
    }
}

impl Default for EncoderImperfections {
    fn default() -> Self {
        Self::realistic()
    }
}

/// Behavioural passive charge-sharing CS encoder.
#[derive(Debug, Clone)]
pub struct ChargeSharingEncoder {
    phi: SensingMatrix,
    /// Nominal sample capacitor (F).
    pub c_sample_f: f64,
    /// Nominal hold capacitor (F).
    pub c_hold_f: f64,
    /// Sample period driving the leakage droop (s).
    pub sample_period_s: f64,
    imperfections: EncoderImperfections,
    /// Actual (mismatched) hold caps, one per measurement row.
    hold_caps: Vec<f64>,
    /// Actual (mismatched) sample caps, one per parallel branch (s of them).
    sample_caps: Vec<f64>,
    /// Leakage time constant (s); infinity when leakage is disabled.
    tau_s: f64,
    noise: Rng64,
}

impl ChargeSharingEncoder {
    /// Creates an encoder for sensing matrix `phi` with nominal capacitor
    /// values, drawing mismatch deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `phi` is not an s-SRBM with at most 512 ones per column,
    /// capacitances are not positive, or `sample_period_s` is not positive.
    #[allow(clippy::too_many_arguments)] // one argument per physical design variable
    pub fn new(
        phi: SensingMatrix,
        c_sample_f: f64,
        c_hold_f: f64,
        sample_period_s: f64,
        imperfections: EncoderImperfections,
        tech: &TechnologyParams,
        design: &DesignParams,
        seed: u64,
    ) -> Self {
        let s = phi
            .sparsity()
            .expect("charge-sharing encoder requires an s-SRBM schedule");
        assert!(
            s <= NOISE_BLOCK,
            "at most {NOISE_BLOCK} branches per sample"
        );
        assert!(
            c_sample_f > 0.0 && c_hold_f > 0.0,
            "capacitances must be positive"
        );
        assert!(sample_period_s > 0.0, "sample period must be positive");
        let m = phi.m();
        let mut rng = Rng64::new(seed ^ 0xC5C5_C5C5);
        let draw = |nominal: f64, rng: &mut Rng64, enabled: bool| {
            if enabled {
                let sigma = tech.cap_mismatch_sigma(nominal);
                nominal * (1.0 + rng.normal() * sigma)
            } else {
                nominal
            }
        };
        let hold_caps: Vec<f64> = (0..m)
            .map(|_| draw(c_hold_f, &mut rng, imperfections.mismatch))
            .collect();
        let sample_caps: Vec<f64> = (0..s)
            .map(|_| draw(c_sample_f, &mut rng, imperfections.mismatch))
            .collect();
        let tau_s = if imperfections.leakage {
            c_hold_f * design.v_ref / tech.i_leak_a
        } else {
            f64::INFINITY
        };
        Self {
            phi,
            c_sample_f,
            c_hold_f,
            sample_period_s,
            imperfections,
            hold_caps,
            sample_caps,
            tau_s,
            noise: Rng64::new(seed ^ 0x5EED),
        }
    }

    /// Injects (or clears) a capacitor-leakage fault: a leaking hold switch
    /// multiplies the technology off-current, shrinking the droop time
    /// constant to `τ = C_hold·V_ref/(I_leak·mult)`. The fault forces droop
    /// on even when the clean model runs with leakage disabled; passing
    /// `None` (or a no-op fault) restores the nominal behaviour.
    pub fn inject_leakage_fault(
        &mut self,
        fault: Option<CapLeakageFault>,
        tech: &TechnologyParams,
        design: &DesignParams,
    ) {
        self.tau_s = match fault.filter(|f| !f.is_noop()) {
            Some(f) => self.c_hold_f * design.v_ref / (tech.i_leak_a * f.leak_multiplier),
            None if self.imperfections.leakage => self.c_hold_f * design.v_ref / tech.i_leak_a,
            None => f64::INFINITY,
        };
    }

    /// The s-SRBM schedule.
    pub fn phi(&self) -> &SensingMatrix {
        &self.phi
    }

    /// Number of measurements per frame.
    pub fn m(&self) -> usize {
        self.phi.m()
    }

    /// Frame length in samples.
    pub fn n_phi(&self) -> usize {
        self.phi.n()
    }

    /// kT/C noise σ of one sampling event (V).
    pub fn ktc_sigma(&self) -> f64 {
        (kt() / self.c_sample_f).sqrt()
    }

    /// Encodes one frame of exactly `N_Φ` samples into `M` measurements,
    /// drawing the kT/C noise of the frame's `N_Φ·s` sampling events a
    /// block at a time.
    ///
    /// # Panics
    ///
    /// Panics if `frame.len() != n_phi()`.
    pub fn encode_frame(&mut self, frame: &[f64]) -> Vec<f64> {
        assert_eq!(frame.len(), self.n_phi(), "frame length must equal N_Φ");
        let mut hold = vec![0.0; self.m()];
        let droop = self.decay_per_step();
        let leaky = !efficsense_dsp::approx::total_eq(droop, 1.0);
        let ktc = self.imperfections.ktc_noise.then(|| self.ktc_sigma());
        // Column j's s branches take draws j·s .. (j+1)·s of the frame.
        let s = self.sample_caps.len();
        let per_block = NOISE_BLOCK / s;
        let mut draws = [0.0; NOISE_BLOCK];
        for (b, block) in frame.chunks(per_block).enumerate() {
            let draws = &mut draws[..block.len() * s];
            if ktc.is_some() {
                self.noise.fill_normal(draws);
            }
            for (k, (&x, w)) in block.iter().zip(draws.chunks_exact(s)).enumerate() {
                // Leakage droop of all held charge over one sample period.
                if leaky {
                    for v in hold.iter_mut() {
                        *v *= droop;
                    }
                }
                // Each of the s parallel sample caps grabs the input and
                // shares with its scheduled destination row.
                let rows = self.phi.column_rows(b * per_block + k);
                for ((&r, &c_s), &w) in rows.iter().zip(&self.sample_caps).zip(w) {
                    let sampled = match ktc {
                        Some(sigma) => x + w * sigma,
                        None => x,
                    };
                    hold[r] = share(sampled, c_s, hold[r], self.hold_caps[r]);
                }
            }
        }
        hold
    }

    /// The deterministic held-charge decay per sample period,
    /// `exp(−T_s/τ)` with `τ = C_hold·V_ref/I_leak`; 1.0 when leakage is
    /// disabled.
    pub fn decay_per_step(&self) -> f64 {
        if self.tau_s.is_finite() {
            (-self.sample_period_s / self.tau_s).exp()
        } else {
            1.0
        }
    }

    /// The nominal held-charge decay per sample period,
    /// `exp(−T_s/τ)` with `τ = C_hold·V_ref/I_leak`: the droop set by
    /// design constants alone, which a leak-aware decoder folds into its
    /// effective matrix.
    pub fn nominal_decay_per_step(
        c_hold_f: f64,
        tech: &TechnologyParams,
        design: &DesignParams,
    ) -> f64 {
        (-(1.0 / design.f_sample_hz()) / (c_hold_f * design.v_ref / tech.i_leak_a)).exp()
    }

    /// Number of switches in the charge-sharing network for schedule `phi`:
    /// `s` series switches per destination row plus a sampling switch per
    /// branch.
    pub fn switch_count(phi: &SensingMatrix) -> usize {
        phi.nnz() / phi.n() * (phi.m() + 1)
    }

    /// Power breakdown of an encoder running schedule `phi`: CS
    /// shift-register/switch logic plus static leakage of the switch
    /// network (Table II row 7 + leakage row). The models read the
    /// schedule's shape only, so no encoder is built.
    pub fn power_breakdown(
        phi: &SensingMatrix,
        tech: &TechnologyParams,
        design: &DesignParams,
    ) -> PowerBreakdown {
        let mut b = PowerBreakdown::new();
        let logic = CsEncoderLogicModel::new(phi.n());
        b.add(logic.kind(), logic.power(tech, design));
        let leak = LeakageModel {
            n_switches: Self::switch_count(phi),
        };
        b.add(leak.kind(), leak.power(tech, design));
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efficsense_cs::charge_sharing::effective_matrix;
    use efficsense_cs::linalg::norm2;

    fn setup(imp: EncoderImperfections, seed: u64) -> ChargeSharingEncoder {
        let tech = TechnologyParams::gpdk045();
        let design = DesignParams::paper_defaults(8);
        let phi = SensingMatrix::srbm(16, 64, 2, 11);
        ChargeSharingEncoder::new(
            phi,
            0.2e-12,
            1.0e-12,
            1.0 / design.f_sample_hz(),
            imp,
            &tech,
            &design,
            seed,
        )
    }

    fn test_frame(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 13 % 29) as f64 - 14.0) / 28.0)
            .collect()
    }

    #[test]
    fn ideal_encoder_matches_effective_matrix() {
        let mut enc = setup(EncoderImperfections::ideal(), 1);
        let x = test_frame(64);
        let y = enc.encode_frame(&x);
        let eff = effective_matrix(enc.phi(), enc.c_sample_f, enc.c_hold_f);
        let expect = eff.matvec(&x);
        for (a, b) in y.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn frames_are_independent() {
        let mut enc = setup(EncoderImperfections::ideal(), 2);
        let x = test_frame(64);
        let y1 = enc.encode_frame(&x);
        let y2 = enc.encode_frame(&x); // hold caps reset between frames
        assert_eq!(y1, y2);
    }

    #[test]
    fn mismatch_perturbs_measurements_slightly() {
        let mut ideal = setup(EncoderImperfections::ideal(), 3);
        let mut real = setup(
            EncoderImperfections {
                mismatch: true,
                ktc_noise: false,
                leakage: false,
            },
            3,
        );
        let x = test_frame(64);
        let yi = ideal.encode_frame(&x);
        let yr = real.encode_frame(&x);
        let diff: Vec<f64> = yi.iter().zip(&yr).map(|(a, b)| a - b).collect();
        let rel = norm2(&diff) / norm2(&yi);
        assert!(rel > 0.0, "mismatch must change the output");
        assert!(rel < 0.05, "mismatch error {rel} should be small");
    }

    #[test]
    fn ktc_noise_matches_analytic_prediction() {
        // Single-destination schedule: output noise variance is
        // σ_ktc² · Σ_k w_k² with w_k the Eq. (1) weights of that row.
        let tech = TechnologyParams::gpdk045();
        let design = DesignParams::paper_defaults(8);
        let c_s = 0.2e-12;
        let c_h = 1.0e-12;
        let phi = SensingMatrix::srbm(1, 16, 1, 11); // every sample to row 0
        let mut enc = ChargeSharingEncoder::new(
            phi,
            c_s,
            c_h,
            1.0 / design.f_sample_hz(),
            EncoderImperfections {
                mismatch: false,
                ktc_noise: true,
                leakage: false,
            },
            &tech,
            &design,
            5,
        );
        let x = vec![0.0; 16];
        let trials = 4000;
        let mut e = 0.0;
        for _ in 0..trials {
            e += norm2(&enc.encode_frame(&x)).powi(2);
        }
        let measured_var = e / trials as f64;
        let w = efficsense_cs::charge_sharing::eq1_weights(16, c_s, c_h);
        let predict = enc.ktc_sigma().powi(2) * w.iter().map(|v| v * v).sum::<f64>();
        assert!(
            (measured_var / predict - 1.0).abs() < 0.1,
            "measured {measured_var} vs predicted {predict}"
        );
    }

    #[test]
    fn ktc_noise_disabled_means_silent_zero_input() {
        let mut enc = setup(EncoderImperfections::ideal(), 5);
        let y = enc.encode_frame(&vec![0.0; 64]);
        assert!(y.iter().all(|v| efficsense_dsp::approx::is_zero(*v)));
    }

    #[test]
    fn leakage_attenuates_older_contributions() {
        let tech = TechnologyParams::gpdk045();
        let design = DesignParams::paper_defaults(8);
        // One row, contributions early in the frame, long frame → visible droop.
        let phi = SensingMatrix::srbm(4, 256, 1, 21);
        let period = 1.0 / design.f_sample_hz();
        let mk = |leak: bool, seed| {
            ChargeSharingEncoder::new(
                phi.clone(),
                0.2e-12,
                1.0e-12,
                period,
                EncoderImperfections {
                    mismatch: false,
                    ktc_noise: false,
                    leakage: leak,
                },
                &tech,
                &design,
                seed,
            )
        };
        let x = vec![1.0; 256];
        let y_ideal = mk(false, 1).encode_frame(&x);
        let y_leak = mk(true, 1).encode_frame(&x);
        for (i, (a, b)) in y_ideal.iter().zip(&y_leak).enumerate() {
            assert!(b.abs() <= a.abs() + 1e-15, "row {i}: leak increased charge");
        }
        let total_ideal: f64 = y_ideal.iter().sum();
        let total_leak: f64 = y_leak.iter().sum();
        assert!(total_leak < total_ideal * 0.999, "droop not visible");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = setup(EncoderImperfections::realistic(), 13);
        let mut b = setup(EncoderImperfections::realistic(), 13);
        let x = test_frame(64);
        assert_eq!(a.encode_frame(&x), b.encode_frame(&x));
    }

    #[test]
    fn power_includes_logic_and_leakage() {
        let enc = setup(EncoderImperfections::realistic(), 1);
        let tech = TechnologyParams::gpdk045();
        let design = DesignParams::paper_defaults(8);
        let b = ChargeSharingEncoder::power_breakdown(enc.phi(), &tech, &design);
        assert!(b.get(efficsense_power::BlockKind::CsEncoderLogic).value() > 0.0);
        assert!(b.get(efficsense_power::BlockKind::Leakage).value() > 0.0);
        // Logic dominates leakage by orders of magnitude.
        assert!(
            b.get(efficsense_power::BlockKind::CsEncoderLogic)
                > 100.0 * b.get(efficsense_power::BlockKind::Leakage)
        );
    }

    #[test]
    fn noop_leakage_fault_is_bit_identical_to_clean() {
        let tech = TechnologyParams::gpdk045();
        let design = DesignParams::paper_defaults(8);
        let x = test_frame(64);
        let mut clean = setup(EncoderImperfections::realistic(), 13);
        let mut faulted = setup(EncoderImperfections::realistic(), 13);
        faulted.inject_leakage_fault(
            Some(CapLeakageFault {
                leak_multiplier: 1.0,
            }),
            &tech,
            &design,
        );
        assert_eq!(clean.encode_frame(&x), faulted.encode_frame(&x));
    }

    #[test]
    fn leakage_fault_forces_droop_even_when_disabled() {
        let tech = TechnologyParams::gpdk045();
        let design = DesignParams::paper_defaults(8);
        let x = vec![1.0; 64];
        let mut ideal = setup(EncoderImperfections::ideal(), 1);
        let mut faulted = setup(EncoderImperfections::ideal(), 1);
        faulted.inject_leakage_fault(
            Some(CapLeakageFault {
                leak_multiplier: 100.0,
            }),
            &tech,
            &design,
        );
        let total = |y: &[f64]| y.iter().sum::<f64>();
        let t_ideal = total(&ideal.encode_frame(&x));
        let t_fault = total(&faulted.encode_frame(&x));
        assert!(t_fault < t_ideal * 0.999, "{t_fault} vs {t_ideal}");
        // Clearing the fault restores the imperfection setting (no leakage).
        faulted.inject_leakage_fault(None, &tech, &design);
        let t_restored = total(&faulted.encode_frame(&x));
        assert!((t_restored - t_ideal).abs() < 1e-15);
    }

    #[test]
    fn leakage_fault_severity_is_monotone() {
        let tech = TechnologyParams::gpdk045();
        let design = DesignParams::paper_defaults(8);
        let x = vec![1.0; 64];
        let mut last = f64::INFINITY;
        for mult in [10.0, 30.0, 100.0] {
            let mut enc = setup(EncoderImperfections::ideal(), 1);
            enc.inject_leakage_fault(
                Some(CapLeakageFault {
                    leak_multiplier: mult,
                }),
                &tech,
                &design,
            );
            let total = enc.encode_frame(&x).iter().sum::<f64>();
            assert!(total < last, "mult {mult}: {total} !< {last}");
            last = total;
        }
    }

    #[test]
    #[should_panic(expected = "frame length")]
    fn rejects_wrong_frame_length() {
        let mut enc = setup(EncoderImperfections::ideal(), 1);
        let _ = enc.encode_frame(&[0.0; 63]);
    }

    #[test]
    #[should_panic(expected = "s-SRBM")]
    fn rejects_dense_matrix() {
        let tech = TechnologyParams::gpdk045();
        let design = DesignParams::paper_defaults(8);
        let _ = ChargeSharingEncoder::new(
            SensingMatrix::gaussian(8, 32, 0),
            1e-12,
            1e-12,
            1e-3,
            EncoderImperfections::ideal(),
            &tech,
            &design,
            0,
        );
    }
}
