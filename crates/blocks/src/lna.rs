//! Behavioural LNA model (paper Fig. 3).
//!
//! Signal path: add input-referred white noise → amplify → single-pole
//! low-pass at `BW_LNA` → 3rd-order soft nonlinearity → hard clipping at the
//! supply rails.

use efficsense_dsp::filter::OnePole;
use efficsense_faults::LnaRailFault;
use efficsense_power::DesignParams;
use efficsense_rng::Rng64;

use crate::NOISE_BLOCK;

/// Runtime state of an injected railing fault.
#[derive(Debug, Clone)]
struct RailState {
    fault: LnaRailFault,
    /// Private fault stream (decoupled from the noise stream so injecting a
    /// fault never perturbs the underlying noise realisation).
    rng: Rng64,
    /// Samples left in the current rail episode.
    remaining: usize,
}

impl RailState {
    /// Advances the fault by one sample: `true` while the output is
    /// latched to the rail. Outside an episode it draws once to start one.
    fn latched(&mut self) -> bool {
        if self.remaining == 0 && self.rng.chance(self.fault.rail_prob) {
            self.remaining = self.fault.episode_len;
        }
        if self.remaining > 0 {
            self.remaining -= 1;
            return true;
        }
        false
    }
}

/// Behavioural low-noise amplifier.
///
/// `noise_floor_vrms` is the input-referred noise integrated over the LNA
/// bandwidth; the per-sample white-noise variance injected at the input is
/// derived from it using the one-pole equivalent noise bandwidth, so the
/// *output* integrated noise matches the specification irrespective of the
/// simulation rate.
#[derive(Debug, Clone)]
pub struct Lna {
    /// Closed-loop voltage gain.
    pub gain: f64,
    /// Input-referred integrated noise (V rms over `BW_LNA`).
    pub noise_floor_vrms: f64,
    /// −3 dB bandwidth (Hz).
    pub bandwidth_hz: f64,
    /// Third-order coefficient of the input nonlinearity
    /// `v → v·(1 − k₃·(v/v_clip)²)` at the output; 0 disables it.
    pub k3: f64,
    /// Output clipping level (±V, typically `V_dd/2`).
    pub v_clip: f64,
    filter: OnePole,
    noise: Rng64,
    sigma_per_sample: f64,
    rail: Option<RailState>,
}

impl Lna {
    /// Creates an LNA running at continuous-time proxy rate `f_ct` Hz.
    ///
    /// # Panics
    ///
    /// Panics unless gain, noise floor, bandwidth, `f_ct` and `v_clip` are
    /// positive.
    pub fn new(
        gain: f64,
        noise_floor_vrms: f64,
        bandwidth_hz: f64,
        k3: f64,
        v_clip: f64,
        f_ct: f64,
        seed: u64,
    ) -> Self {
        assert!(gain > 0.0, "gain must be positive");
        assert!(noise_floor_vrms > 0.0, "noise floor must be positive");
        assert!(
            bandwidth_hz > 0.0 && f_ct > 0.0,
            "bandwidth and rate must be positive"
        );
        assert!(v_clip > 0.0, "clip level must be positive");
        // One-pole equivalent noise bandwidth is (π/2)·f_c. White noise of
        // density D over [0, f_ct/2] filtered by the pole integrates to
        // D·(π/2)·f_c, so per-sample σ² = vn²/( (π/2)·f_c ) · (f_ct/2)
        // yields exactly vn² integrated at the output (input-referred).
        let enbw = std::f64::consts::FRAC_PI_2 * bandwidth_hz;
        let density = noise_floor_vrms * noise_floor_vrms / enbw;
        let sigma_per_sample = (density * f_ct / 2.0).sqrt();
        Self {
            gain,
            noise_floor_vrms,
            bandwidth_hz,
            k3,
            v_clip,
            filter: OnePole::lowpass(bandwidth_hz, f_ct),
            noise: Rng64::new(seed),
            sigma_per_sample,
            rail: None,
        }
    }

    /// Injects (or clears) a railing fault. The fault draws from its own
    /// seeded stream, so the noise realisation is identical with and
    /// without the fault; a no-op fault leaves the output bit-identical.
    pub fn inject_rail_fault(&mut self, fault: Option<LnaRailFault>, fault_seed: u64) {
        self.rail = None;
        if let Some(fault) = fault.filter(|f| !f.is_noop()) {
            self.install_rail_fault(fault, fault_seed);
        }
    }

    /// Installs a railing fault unconditionally — even a currently-noop
    /// parameterisation — creating its private stream at `fault_seed`.
    ///
    /// Unlike [`Lna::inject_rail_fault`], a noop fault still consumes one
    /// draw from its private stream per sample, so a time-varying plan that
    /// starts at severity 0 keeps a chunk-invariant stream position: the
    /// fault realisation after severity ramps up depends only on how many
    /// samples have passed, never on how the input was chunked. A
    /// zero-severity installed fault is still bit-identical to the clean
    /// path (`chance(0)` never fires and the rails stay at nominal).
    pub fn install_rail_fault(&mut self, fault: LnaRailFault, fault_seed: u64) {
        self.rail = Some(RailState {
            fault,
            rng: Rng64::new(fault_seed),
            remaining: 0,
        });
    }

    /// Updates an installed railing fault's parameters in place, preserving
    /// the private stream position and any in-progress episode. Does
    /// nothing when no fault is installed — severity profiles must
    /// [`Lna::install_rail_fault`] first.
    pub fn set_rail_fault_params(&mut self, fault: LnaRailFault) {
        if let Some(rail) = &mut self.rail {
            rail.fault = fault;
        }
    }

    /// Builds the LNA from the paper's design parameters:
    /// bandwidth `3·BW_in`, clipping at `V_dd/2`.
    pub fn from_design(
        design: &DesignParams,
        gain: f64,
        noise_floor_vrms: f64,
        k3: f64,
        f_ct: f64,
        seed: u64,
    ) -> Self {
        Self::new(
            gain,
            noise_floor_vrms,
            design.bw_lna_hz(),
            k3,
            design.v_dd / 2.0,
            f_ct,
            seed,
        )
    }

    /// Amplifies continuous-time-proxy samples in place (volts in, volts
    /// out), one input-noise draw per sample, drawn a block at a time.
    pub fn process_in_place(&mut self, buf: &mut [f64]) {
        let Self {
            gain,
            k3,
            v_clip,
            filter,
            noise,
            sigma_per_sample,
            rail,
            ..
        } = self;
        let (gain, k3, v_clip, sigma) = (*gain, *k3, *v_clip, *sigma_per_sample);
        let cubic = !efficsense_dsp::approx::is_zero(k3);
        // The fault derates the rails permanently and occasionally latches
        // the output to the (sagging) positive rail.
        let rail_v = rail
            .as_ref()
            .map_or(v_clip, |r| v_clip * r.fault.v_clip_factor);
        let mut draws = [0.0; NOISE_BLOCK];
        for chunk in buf.chunks_mut(NOISE_BLOCK) {
            let draws = &mut draws[..chunk.len()];
            noise.fill_normal(draws);
            for (v, &w) in chunk.iter_mut().zip(draws.iter()) {
                let amplified = filter.process(*v + w * sigma) * gain;
                let shaped = if cubic {
                    let u = amplified / v_clip;
                    amplified * (1.0 - k3 * u * u)
                } else {
                    amplified
                };
                *v = if rail.as_mut().is_some_and(RailState::latched) {
                    rail_v
                } else {
                    shaped.clamp(-rail_v, rail_v)
                };
            }
        }
    }

    /// Processes a whole buffer.
    pub fn process_buffer(&mut self, x: &[f64]) -> Vec<f64> {
        let mut y = x.to_vec();
        self.process_in_place(&mut y);
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efficsense_dsp::spectrum::sine;
    use efficsense_dsp::stats::{peak, rms, std_dev};

    const F_CT: f64 = 8192.0;

    fn quiet_lna(gain: f64) -> Lna {
        Lna::new(gain, 1e-9, 768.0, 0.0, 1.0, F_CT, 1)
    }

    #[test]
    fn amplifies_in_band_tone() {
        let mut lna = quiet_lna(100.0);
        let x = sine(16384, F_CT, 50.0, 1e-3, 0.0);
        let y = lna.process_buffer(&x);
        let g = rms(&y[4096..]) / rms(&x[4096..]);
        assert!((g / 100.0 - 1.0).abs() < 0.02, "gain {g}");
    }

    #[test]
    fn bandwidth_attenuates_out_of_band() {
        let mut lna = quiet_lna(10.0);
        // ~4x the 768 Hz pole (the discrete one-pole's attenuation saturates
        // near Nyquist, so stay well inside the proxy band).
        let x = sine(16384, F_CT, 3000.0, 1e-3, 0.0);
        let y = lna.process_buffer(&x);
        let g_out = rms(&y[4096..]) / rms(&x[4096..]);
        // In-band reference for comparison.
        let mut lna2 = quiet_lna(10.0);
        let xin = sine(16384, F_CT, 50.0, 1e-3, 0.0);
        let yin = lna2.process_buffer(&xin);
        let g_in = rms(&yin[4096..]) / rms(&xin[4096..]);
        assert!(g_out < 0.5 * g_in, "out-of-band {g_out} vs in-band {g_in}");
    }

    #[test]
    fn output_noise_matches_specification() {
        // 5 µV input-referred noise, gain 100 → 500 µV rms at the output.
        let mut lna = Lna::new(100.0, 5e-6, 768.0, 0.0, 1.0, F_CT, 7);
        let y = lna.process_buffer(&vec![0.0; 200_000]);
        let measured = std_dev(&y[10_000..]);
        assert!(
            (measured / 500e-6 - 1.0).abs() < 0.1,
            "output noise {measured} vs expected 500e-6"
        );
    }

    #[test]
    fn noise_spec_independent_of_sim_rate() {
        for f_ct in [4096.0, 16384.0] {
            let mut lna = Lna::new(100.0, 5e-6, 768.0, 0.0, 1.0, f_ct, 7);
            let n = (f_ct * 20.0) as usize;
            let y = lna.process_buffer(&vec![0.0; n]);
            let measured = std_dev(&y[n / 10..]);
            assert!(
                (measured / 500e-6 - 1.0).abs() < 0.15,
                "f_ct={f_ct}: noise {measured}"
            );
        }
    }

    #[test]
    fn clipping_limits_output() {
        let mut lna = quiet_lna(1000.0);
        let x = sine(8192, F_CT, 50.0, 0.1, 0.0); // would be 100 V unclipped
        let y = lna.process_buffer(&x);
        assert!(peak(&y) <= 1.0 + 1e-12);
        // Clipped sine spends time at the rails.
        let railed = y.iter().filter(|v| v.abs() > 0.999).count();
        assert!(railed > 100, "railed {railed}");
    }

    #[test]
    fn nonlinearity_compresses_large_signals() {
        let mut linear = Lna::new(10.0, 1e-9, 768.0, 0.0, 10.0, F_CT, 3);
        let mut nonlin = Lna::new(10.0, 1e-9, 768.0, 0.3, 10.0, F_CT, 3);
        let x = sine(16384, F_CT, 50.0, 0.5, 0.0);
        let yl = linear.process_buffer(&x);
        let yn = nonlin.process_buffer(&x);
        assert!(rms(&yn[4096..]) < rms(&yl[4096..]));
    }

    #[test]
    fn nonlinearity_generates_third_harmonic() {
        use efficsense_dsp::metrics::thd_db;
        let mut nonlin = Lna::new(1.0, 1e-12, 3000.0, 0.1, 10.0, F_CT, 3);
        let f0 = 128.0;
        let x = sine(32768, F_CT, f0, 1.0, 0.0);
        let y = nonlin.process_buffer(&x);
        // k₃·A³/(4·v_clip²) = 0.1/400 → 3rd harmonic ≈ −72 dB.
        let thd = thd_db(&y[8192..], F_CT, f0, 5);
        assert!(thd > -80.0 && thd < -60.0, "THD {thd} dB");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Lna::new(100.0, 2e-6, 768.0, 0.0, 1.0, F_CT, 9);
        let mut b = Lna::new(100.0, 2e-6, 768.0, 0.0, 1.0, F_CT, 9);
        let x = sine(512, F_CT, 50.0, 1e-3, 0.0);
        assert_eq!(a.process_buffer(&x), b.process_buffer(&x));
    }

    #[test]
    fn from_design_uses_table_iii_relations() {
        let design = DesignParams::paper_defaults(8);
        let lna = Lna::from_design(&design, 500.0, 3e-6, 0.0, F_CT, 1);
        assert_eq!(lna.bandwidth_hz, 768.0);
        assert_eq!(lna.v_clip, 1.0);
    }

    #[test]
    #[should_panic(expected = "noise floor")]
    fn rejects_zero_noise() {
        let _ = Lna::new(100.0, 0.0, 768.0, 0.0, 1.0, F_CT, 0);
    }

    #[test]
    fn noop_rail_fault_is_bit_identical_to_clean() {
        use efficsense_faults::LnaRailFault;
        let x = sine(4096, F_CT, 50.0, 1e-3, 0.0);
        let mut clean = Lna::new(100.0, 2e-6, 768.0, 0.01, 1.0, F_CT, 5);
        let mut faulted = Lna::new(100.0, 2e-6, 768.0, 0.01, 1.0, F_CT, 5);
        faulted.inject_rail_fault(
            Some(LnaRailFault {
                rail_prob: 0.0,
                episode_len: 64,
                v_clip_factor: 1.0,
            }),
            99,
        );
        assert_eq!(clean.process_buffer(&x), faulted.process_buffer(&x));
    }

    #[test]
    fn rail_fault_latches_output_to_derated_rail() {
        use efficsense_faults::LnaRailFault;
        let x = sine(16384, F_CT, 50.0, 1e-3, 0.0);
        let mut lna = Lna::new(100.0, 1e-9, 768.0, 0.0, 1.0, F_CT, 5);
        lna.inject_rail_fault(
            Some(LnaRailFault {
                rail_prob: 0.01,
                episode_len: 64,
                v_clip_factor: 0.5,
            }),
            99,
        );
        let y = lna.process_buffer(&x);
        let railed = y.iter().filter(|&&v| (v - 0.5).abs() < 1e-12).count();
        assert!(railed > 1000, "railed {railed} of {}", y.len());
        assert!(peak(&y) <= 0.5 + 1e-12, "rails must sag to 0.5");
    }

    #[test]
    fn installed_zero_severity_fault_is_bit_identical_to_clean() {
        use efficsense_faults::LnaRailFault;
        let x = sine(4096, F_CT, 50.0, 1e-3, 0.0);
        let mut clean = Lna::new(100.0, 2e-6, 768.0, 0.01, 1.0, F_CT, 5);
        let mut armed = Lna::new(100.0, 2e-6, 768.0, 0.01, 1.0, F_CT, 5);
        armed.install_rail_fault(
            LnaRailFault {
                rail_prob: 0.0,
                episode_len: 64,
                v_clip_factor: 1.0,
            },
            99,
        );
        assert_eq!(clean.process_buffer(&x), armed.process_buffer(&x));
    }

    #[test]
    fn set_rail_fault_params_preserves_stream_position() {
        use efficsense_faults::LnaRailFault;
        let noop = LnaRailFault {
            rail_prob: 0.0,
            episode_len: 64,
            v_clip_factor: 1.0,
        };
        let hot = LnaRailFault {
            rail_prob: 0.05,
            episode_len: 16,
            v_clip_factor: 0.5,
        };
        let x = sine(8192, F_CT, 50.0, 1e-3, 0.0);
        // Two amplifiers take the same path — armed noop, params flipped at
        // the same sample index — in different chunkings; outputs match.
        let mut whole = Lna::new(100.0, 2e-6, 768.0, 0.0, 1.0, F_CT, 5);
        whole.install_rail_fault(noop, 7);
        let mut y_whole = whole.process_buffer(&x[..4096]);
        whole.set_rail_fault_params(hot);
        y_whole.extend(whole.process_buffer(&x[4096..]));

        let mut chunked = Lna::new(100.0, 2e-6, 768.0, 0.0, 1.0, F_CT, 5);
        chunked.install_rail_fault(noop, 7);
        let mut y_chunked = Vec::new();
        for c in x[..4096].chunks(100) {
            y_chunked.extend(chunked.process_buffer(c));
        }
        chunked.set_rail_fault_params(hot);
        for c in x[4096..].chunks(333) {
            y_chunked.extend(chunked.process_buffer(c));
        }
        assert_eq!(y_whole, y_chunked);
        // And the hot phase actually rails.
        let railed = y_whole[4096..]
            .iter()
            .filter(|&&v| (v - 0.5).abs() < 1e-12)
            .count();
        assert!(railed > 100, "railed {railed}");
    }

    #[test]
    fn rail_fault_is_deterministic_per_seed() {
        use efficsense_faults::LnaRailFault;
        let x = sine(4096, F_CT, 50.0, 1e-3, 0.0);
        let fault = Some(LnaRailFault {
            rail_prob: 0.02,
            episode_len: 16,
            v_clip_factor: 0.8,
        });
        let mut a = Lna::new(100.0, 2e-6, 768.0, 0.0, 1.0, F_CT, 5);
        let mut b = Lna::new(100.0, 2e-6, 768.0, 0.0, 1.0, F_CT, 5);
        a.inject_rail_fault(fault, 7);
        b.inject_rail_fault(fault, 7);
        assert_eq!(a.process_buffer(&x), b.process_buffer(&x));
    }
}
