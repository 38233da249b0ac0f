//! Synthetic EEG waveform generator.
//!
//! Models three record classes mirroring the Bonn dataset's clinically
//! relevant split: healthy background, interictal (spikes between seizures)
//! and ictal (seizure) activity.

use crate::artifact;
use crate::noise::PinkNoise;
use efficsense_rng::{Rng64, GOLDEN_GAMMA};

/// Diagnostic class of a synthetic EEG record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EegClass {
    /// Healthy background activity (Bonn sets A/B).
    Normal,
    /// Epileptiform spikes without seizure (Bonn sets C/D).
    Interictal,
    /// Ictal (seizure) activity (Bonn set E).
    Seizure,
}

impl EegClass {
    /// All classes in canonical order.
    pub const ALL: [EegClass; 3] = [EegClass::Normal, EegClass::Interictal, EegClass::Seizure];

    /// `true` for the seizure class — the binary detection target.
    pub fn is_seizure(self) -> bool {
        matches!(self, EegClass::Seizure)
    }

    /// Binary label used by the detector: 1 for seizure, 0 otherwise.
    pub fn label(self) -> usize {
        usize::from(self.is_seizure())
    }
}

impl std::fmt::Display for EegClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EegClass::Normal => "normal",
            EegClass::Interictal => "interictal",
            EegClass::Seizure => "seizure",
        };
        f.write_str(s)
    }
}

/// Amplitude/morphology parameters of the generator (all voltages in volts).
#[derive(Debug, Clone, PartialEq)]
pub struct EegParams {
    /// RMS of the pink background activity. Default 10 µV.
    pub background_rms: f64,
    /// Peak amplitude of the alpha rhythm bursts. Default 12 µV.
    pub alpha_amplitude: f64,
    /// Alpha rhythm centre frequency in Hz. Default 10 Hz.
    pub alpha_frequency: f64,
    /// Peak amplitude of interictal spikes. Default 25 µV.
    pub spike_amplitude: f64,
    /// Mean interictal spike rate in events/s. Default 0.5.
    pub spike_rate: f64,
    /// Peak amplitude of ictal spike-wave complexes. Default 35 µV.
    ///
    /// Deliberately only moderately above the background: the detection
    /// margin must be noise-sensitive in the 1–20 µV front-end sweep range
    /// for the Fig. 7b trade-off to be observable.
    pub seizure_amplitude: f64,
    /// Spike-wave repetition frequency in Hz. Default 3.5 Hz.
    pub seizure_frequency: f64,
    /// Probability that a record carries a powerline artifact. Default 0.3.
    pub powerline_probability: f64,
    /// Powerline amplitude when present. Default 2 µV.
    pub powerline_amplitude: f64,
    /// Mains frequency in Hz. Default 50 Hz.
    pub powerline_frequency: f64,
    /// Probability of an EMG burst per record. Default 0.2.
    pub emg_probability: f64,
    /// Probability of an eye blink per record. Default 0.3.
    pub blink_probability: f64,
}

impl Default for EegParams {
    fn default() -> Self {
        Self {
            background_rms: 10e-6,
            alpha_amplitude: 12e-6,
            alpha_frequency: 10.0,
            spike_amplitude: 25e-6,
            spike_rate: 0.5,
            seizure_amplitude: 35e-6,
            seizure_frequency: 3.5,
            powerline_probability: 0.3,
            powerline_amplitude: 2e-6,
            powerline_frequency: 50.0,
            emg_probability: 0.2,
            blink_probability: 0.3,
        }
    }
}

/// Seeded synthetic EEG generator.
///
/// ```
/// use efficsense_signals::{EegClass, EegGenerator, EegParams};
/// let mut gen = EegGenerator::new(EegParams::default(), 7);
/// let x = gen.record(EegClass::Seizure, 173.61, 4.0);
/// assert_eq!(x.len(), (173.61f64 * 4.0) as usize);
/// ```
#[derive(Debug, Clone)]
pub struct EegGenerator {
    params: EegParams,
    rng: Rng64,
    pink_seed: u64,
    next_pink: u64,
}

impl EegGenerator {
    /// Creates a generator with the given morphology parameters and seed.
    pub fn new(params: EegParams, seed: u64) -> Self {
        Self {
            params,
            rng: Rng64::new(seed.wrapping_mul(GOLDEN_GAMMA)),
            pink_seed: seed,
            next_pink: 0,
        }
    }

    /// The generator's parameters.
    pub fn params(&self) -> &EegParams {
        &self.params
    }

    /// Generates one record of `duration_s` seconds at `fs` Hz.
    ///
    /// # Panics
    ///
    /// Panics if `fs <= 0` or `duration_s <= 0`.
    pub fn record(&mut self, class: EegClass, fs: f64, duration_s: f64) -> Vec<f64> {
        assert!(
            fs > 0.0 && duration_s > 0.0,
            "fs and duration must be positive"
        );
        let n = (fs * duration_s) as usize;
        let mut x = self.background(n, fs);
        match class {
            EegClass::Normal => self.add_alpha(&mut x, fs),
            EegClass::Interictal => {
                self.add_alpha(&mut x, fs);
                self.add_isolated_spikes(&mut x, fs, duration_s);
            }
            EegClass::Seizure => self.add_seizure(&mut x, fs, duration_s),
        }
        self.add_artifacts(&mut x, fs, duration_s);
        x
    }

    fn background(&mut self, n: usize, _fs: f64) -> Vec<f64> {
        self.next_pink += 1;
        let seed = self.pink_seed ^ self.next_pink.wrapping_mul(0xD134_2543_DE82_EF95);
        let mut pink = PinkNoise::new(seed);
        pink.vector(n, self.params.background_rms)
    }

    fn add_alpha(&mut self, x: &mut [f64], fs: f64) {
        // Alpha rhythm: amplitude-modulated sinusoid with slow random envelope.
        let f = self.params.alpha_frequency * self.rng.uniform(0.9, 1.1);
        let phase = self.rng.uniform(0.0, std::f64::consts::TAU);
        let env_f = self.rng.uniform(0.1, 0.4); // waxing/waning at ~0.25 Hz
        let env_phase = self.rng.uniform(0.0, std::f64::consts::TAU);
        for (i, v) in x.iter_mut().enumerate() {
            let t = i as f64 / fs;
            let env = 0.5 + 0.5 * (std::f64::consts::TAU * env_f * t + env_phase).sin();
            *v += self.params.alpha_amplitude * env * (std::f64::consts::TAU * f * t + phase).sin();
        }
    }

    /// A single epileptiform spike: sharp Gaussian transient (~70 ms base).
    fn add_spike(&mut self, x: &mut [f64], fs: f64, centre_s: f64, amplitude: f64) {
        let width_s = self.rng.uniform(0.02, 0.04); // Gaussian sigma
        let c = centre_s * fs;
        let half = (4.0 * width_s * fs) as isize;
        let ci = c as isize;
        for di in -half..=half {
            let i = ci + di;
            if i < 0 || i as usize >= x.len() {
                continue;
            }
            let t = (i as f64 - c) / fs;
            x[i as usize] += amplitude * (-(t * t) / (2.0 * width_s * width_s)).exp();
        }
    }

    /// A slow wave following a spike: half-sine of ~250 ms, opposite polarity.
    fn add_slow_wave(&mut self, x: &mut [f64], fs: f64, start_s: f64, amplitude: f64) {
        let dur = self.rng.uniform(0.2, 0.3);
        let i0 = (start_s * fs) as usize;
        let n = (dur * fs) as usize;
        for k in 0..n {
            let i = i0 + k;
            if i >= x.len() {
                break;
            }
            let u = k as f64 / n as f64;
            x[i] -= amplitude * 0.6 * (std::f64::consts::PI * u).sin();
        }
    }

    fn add_isolated_spikes(&mut self, x: &mut [f64], fs: f64, duration_s: f64) {
        let expected = self.params.spike_rate * duration_s;
        let count = expected.round().max(1.0) as usize;
        for _ in 0..count {
            let t = self.rng.uniform(0.5, duration_s - 0.5);
            let a = self.params.spike_amplitude * self.rng.uniform(0.7, 1.3);
            let sign = if self.rng.chance(0.8) { 1.0 } else { -1.0 };
            self.add_spike(x, fs, t, sign * a);
            if self.rng.chance(0.5) {
                self.add_slow_wave(x, fs, t + 0.05, sign * a);
            }
        }
    }

    fn add_seizure(&mut self, x: &mut [f64], fs: f64, duration_s: f64) {
        // Rhythmic spike-and-wave covering most of the record, with a ramp-in.
        let f = self.params.seizure_frequency * self.rng.uniform(0.85, 1.15);
        let period = 1.0 / f;
        let onset = self.rng.uniform(0.0, 0.05 * duration_s);
        let mut t = onset;
        while t < duration_s - 0.1 {
            // Amplitude evolves: builds up, stays, and wanes slightly.
            let progress = (t - onset) / (duration_s - onset);
            let ramp = (progress * 8.0).min(1.0) * (1.0 - 0.3 * progress);
            let a = self.params.seizure_amplitude * ramp * self.rng.uniform(0.85, 1.15);
            self.add_spike(x, fs, t, a);
            self.add_slow_wave(x, fs, t + 0.04, a);
            t += period * self.rng.uniform(0.95, 1.05);
        }
    }

    fn add_artifacts(&mut self, x: &mut [f64], fs: f64, duration_s: f64) {
        if self.rng.chance(self.params.powerline_probability) {
            let phase = self.rng.uniform(0.0, std::f64::consts::TAU);
            artifact::add_powerline(
                x,
                fs,
                self.params.powerline_frequency,
                self.params.powerline_amplitude,
                phase,
            );
        }
        if self.rng.chance(self.params.emg_probability) && duration_s > 2.0 {
            let start = self.rng.uniform(0.0, duration_s - 1.5);
            let dur = self.rng.uniform(0.3, 1.2);
            let amp = self.rng.uniform(5e-6, 15e-6);
            let mut rng = Rng64::new(self.pink_seed ^ 0xE7);
            artifact::add_emg_burst(x, fs, start, dur, amp, &mut rng);
        }
        if self.rng.chance(self.params.blink_probability) && duration_s > 1.0 {
            let start = self.rng.uniform(0.0, duration_s - 0.6);
            let amp = self.rng.uniform(40e-6, 100e-6);
            artifact::add_eye_blink(x, fs, start, 0.4, amp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efficsense_dsp::spectrum::WelchPlan;
    use efficsense_dsp::stats::{peak, rms};
    use efficsense_dsp::window::Window;

    fn gen() -> EegGenerator {
        EegGenerator::new(EegParams::default(), 123)
    }

    #[test]
    fn record_lengths() {
        let mut g = gen();
        let x = g.record(EegClass::Normal, 173.61, 23.6);
        assert_eq!(x.len(), (173.61f64 * 23.6) as usize);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = EegGenerator::new(EegParams::default(), 5);
        let mut b = EegGenerator::new(EegParams::default(), 5);
        assert_eq!(
            a.record(EegClass::Seizure, 173.61, 4.0),
            b.record(EegClass::Seizure, 173.61, 4.0)
        );
    }

    #[test]
    fn seizure_has_much_larger_amplitude() {
        let mut g = gen();
        let fs = 173.61;
        let normal_rms: f64 = (0..8)
            .map(|_| rms(&g.record(EegClass::Normal, fs, 8.0)))
            .sum::<f64>()
            / 8.0;
        let seiz_rms: f64 = (0..8)
            .map(|_| rms(&g.record(EegClass::Seizure, fs, 8.0)))
            .sum::<f64>()
            / 8.0;
        assert!(
            seiz_rms > 1.5 * normal_rms,
            "seizure rms {seiz_rms} vs normal {normal_rms}"
        );
    }

    #[test]
    fn amplitudes_in_physiological_range() {
        let mut g = gen();
        let x = g.record(EegClass::Normal, 173.61, 10.0);
        let pk = peak(&x);
        assert!(pk > 5e-6 && pk < 300e-6, "normal peak {pk}");
        let y = g.record(EegClass::Seizure, 173.61, 10.0);
        let pk = peak(&y);
        assert!(pk > 35e-6 && pk < 1.5e-3, "seizure peak {pk}");
    }

    #[test]
    fn seizure_spectrum_concentrated_low() {
        let mut g = gen();
        let fs = 173.61;
        let x = g.record(EegClass::Seizure, fs, 20.0);
        let psd = WelchPlan::new(1024, Window::Hann).estimate(&x, fs);
        let low = psd.band_power(1.0, 12.0);
        let high = psd.band_power(20.0, 60.0);
        assert!(low > 10.0 * high, "low {low} vs high {high}");
    }

    #[test]
    fn normal_has_alpha_peak() {
        // Average many records to beat the pink background.
        let mut g = EegGenerator::new(
            EegParams {
                powerline_probability: 0.0,
                emg_probability: 0.0,
                blink_probability: 0.0,
                ..Default::default()
            },
            77,
        );
        let fs = 173.61;
        let mut alpha = 0.0;
        let mut beta = 0.0;
        let welch = WelchPlan::new(1024, Window::Hann);
        for _ in 0..12 {
            let x = g.record(EegClass::Normal, fs, 20.0);
            let psd = welch.estimate(&x, fs);
            alpha += psd.band_power(8.0, 12.0);
            beta += psd.band_power(18.0, 30.0);
        }
        assert!(alpha > 3.0 * beta, "alpha {alpha} vs beta {beta}");
    }

    #[test]
    fn interictal_has_spikes_above_background() {
        let mut g = EegGenerator::new(
            EegParams {
                powerline_probability: 0.0,
                emg_probability: 0.0,
                blink_probability: 0.0,
                ..Default::default()
            },
            31,
        );
        let x = g.record(EegClass::Interictal, 173.61, 23.6);
        // Kurtosis flags sparse spikes on Gaussian-ish background. Compare
        // against the spike-free normal class rather than a fixed threshold
        // (spike amplitudes are deliberately subtle — see EegParams docs).
        let k_inter = efficsense_dsp::stats::kurtosis(&x);
        let y = g.record(EegClass::Normal, 173.61, 23.6);
        let k_norm = efficsense_dsp::stats::kurtosis(&y);
        assert!(
            k_inter > k_norm + 0.3,
            "interictal kurtosis {k_inter} vs normal {k_norm}"
        );
    }

    #[test]
    fn all_classes_finite() {
        let mut g = gen();
        for class in EegClass::ALL {
            let x = g.record(class, 173.61, 23.6);
            assert!(
                x.iter().all(|v| v.is_finite()),
                "{class} produced non-finite values"
            );
        }
    }

    #[test]
    fn class_labels() {
        assert_eq!(EegClass::Normal.label(), 0);
        assert_eq!(EegClass::Interictal.label(), 0);
        assert_eq!(EegClass::Seizure.label(), 1);
        assert_eq!(EegClass::Seizure.to_string(), "seizure");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_duration() {
        let mut g = gen();
        let _ = g.record(EegClass::Normal, 173.61, 0.0);
    }
}
