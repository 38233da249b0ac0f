//! Figures of merit.
//!
//! The paper's Section II positions EffiCSense against FOM-based power
//! estimation (\[2\], \[12\]): FOMs compress a converter or amplifier into one
//! scalar, which is exactly why they cannot drive mixed-signal co-design —
//! but they remain the standard way to sanity-check a design point against
//! survey data. This module computes the classic FOMs from the framework's
//! own quantities so sweeps can report them alongside the analytical models.

use crate::units::{Joules, Watts};

/// Walden ADC figure of merit: `P / (2^ENOB · f_s)` in joules per
/// conversion-step. Lower is better; state-of-the-art SAR ADCs reach a few
/// fJ/step.
///
/// # Panics
///
/// Panics unless power and sample rate are positive.
pub fn walden_fom(power: Watts, enob_bits: f64, f_sample_hz: f64) -> Joules {
    assert!(power.value() > 0.0, "power must be positive");
    assert!(f_sample_hz > 0.0, "sample rate must be positive");
    Joules(power.value() / (2f64.powf(enob_bits) * f_sample_hz))
}

/// Schreier ADC figure of merit: `SNDR_dB + 10·log10(BW / P)` in dB.
/// Higher is better; thermal-noise-limited designs reach ~180 dB.
///
/// # Panics
///
/// Panics unless power and bandwidth are positive.
#[must_use]
pub fn schreier_fom_db(sndr_db: f64, bandwidth_hz: f64, power: Watts) -> f64 {
    assert!(power.value() > 0.0, "power must be positive");
    assert!(bandwidth_hz > 0.0, "bandwidth must be positive");
    sndr_db + 10.0 * (bandwidth_hz / power.value()).log10()
}

/// Noise efficiency factor of an amplifier: the ratio of its input noise to
/// that of a single ideal bipolar transistor at the same current,
/// `NEF = v_n,rms · sqrt(2·I_tot / (π·V_T·4kT·BW))`.
///
/// # Panics
///
/// Panics unless all arguments are positive.
#[must_use]
pub fn nef(input_noise_vrms: f64, total_current_a: f64, bandwidth_hz: f64, v_t: f64) -> f64 {
    assert!(input_noise_vrms > 0.0, "noise must be positive");
    assert!(total_current_a > 0.0, "current must be positive");
    assert!(
        bandwidth_hz > 0.0 && v_t > 0.0,
        "bandwidth and V_T must be positive"
    );
    let kt4 = 4.0 * crate::kt();
    input_noise_vrms
        * (2.0 * total_current_a / (std::f64::consts::PI * v_t * kt4 * bandwidth_hz)).sqrt()
}

/// Power efficiency factor of a full sensing system (energy per effective
/// conversion, including the transmitter): `P_total / (f_s · 2^ENOB)` —
/// the Walden form applied at system level, as surveys of biomedical
/// front-ends do.
pub fn system_fom(total_power: Watts, enob_bits: f64, f_sample_hz: f64) -> Joules {
    walden_fom(total_power, enob_bits, f_sample_hz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{LnaModel, PowerModel};
    use crate::{DesignParams, TechnologyParams};

    #[test]
    fn walden_known_value() {
        // 1 µW, 8 effective bits, 1 MS/s → ~3.9 fJ/step.
        let f = walden_fom(Watts::micro(1.0), 8.0, 1e6);
        assert!((f.value() - 3.90625e-15).abs() < 1e-20);
    }

    #[test]
    fn walden_improves_with_enob_at_fixed_power() {
        let a = walden_fom(Watts::micro(1.0), 6.0, 537.6);
        let b = walden_fom(Watts::micro(1.0), 8.0, 537.6);
        assert!(b < a);
    }

    #[test]
    fn schreier_known_value() {
        // 70 dB SNDR, 256 Hz BW, 1 µW → 70 + 10·log10(2.56e8) ≈ 154.1 dB.
        let f = schreier_fom_db(70.0, 256.0, Watts::micro(1.0));
        assert!((f - 154.08).abs() < 0.05, "got {f}");
    }

    #[test]
    fn nef_of_ideal_bipolar_is_one() {
        // By definition: a device whose noise equals sqrt(π·V_T·4kT·BW/(2·I)).
        let v_t = 25.27e-3;
        let bw = 768.0;
        let i = 1e-6;
        let vn = (std::f64::consts::PI * v_t * 4.0 * crate::kt() * bw / (2.0 * i)).sqrt();
        let n = nef(vn, i, bw, v_t);
        assert!((n - 1.0).abs() < 1e-9, "NEF {n}");
    }

    #[test]
    fn lna_model_is_consistent_with_its_nef() {
        // The Table II noise bound should give back approximately the
        // technology NEF when inverted through the NEF formula.
        let tech = TechnologyParams::gpdk045();
        let design = DesignParams::paper_defaults(8);
        let vn = 2e-6;
        let p = LnaModel {
            noise_floor_vrms: vn,
            c_load_f: 1e-15,
            gain: 4000.0,
        }
        .power(&tech, &design);
        let i = p.value() / design.v_dd;
        let measured_nef = nef(vn, i, design.bw_lna_hz(), tech.v_t);
        // The Table II bound uses 2π rather than π/2 inside the square —
        // a factor-2 convention difference; accept the band around NEF=2.
        assert!(
            (1.0..8.0).contains(&measured_nef),
            "NEF {measured_nef} inconsistent with the model"
        );
    }

    #[test]
    fn system_fom_matches_walden_form() {
        assert_eq!(
            system_fom(Watts(8.8e-6), 7.5, 537.6),
            walden_fom(Watts(8.8e-6), 7.5, 537.6)
        );
    }

    #[test]
    #[should_panic(expected = "power must be positive")]
    fn rejects_zero_power() {
        let _ = walden_fom(Watts(0.0), 8.0, 100.0);
    }
}
