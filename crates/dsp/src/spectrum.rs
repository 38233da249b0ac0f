//! Spectral estimation: a planned Welch PSD estimator and its periodogram
//! wrapper, band power, test tones.

use crate::complex::Complex;
use crate::fft::{next_pow2, Fft};
use crate::window::Window;

/// A one-sided power spectral density estimate.
///
/// `psd[k]` is the power density in V²/Hz at frequency `k * freq_resolution`.
#[derive(Debug, Clone, PartialEq)]
pub struct Psd {
    /// One-sided PSD values, `nfft/2 + 1` bins.
    pub values: Vec<f64>,
    /// Bin spacing in Hz.
    pub freq_resolution: f64,
}

impl Psd {
    /// Frequency (Hz) of bin `k`.
    #[inline]
    pub fn frequency(&self, k: usize) -> f64 {
        k as f64 * self.freq_resolution
    }

    /// Index of the bin closest to frequency `f` (Hz), clamped to range.
    pub fn bin_of(&self, f: f64) -> usize {
        let k = (f / self.freq_resolution).round();
        (k.max(0.0) as usize).min(self.values.len() - 1)
    }

    /// Integrated power (V²) in the inclusive frequency band `[lo, hi]` Hz.
    ///
    /// Rectangle-rule integration of the density over the covered bins.
    pub fn band_power(&self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "band limits out of order: {lo} > {hi}");
        let (a, b) = (self.bin_of(lo), self.bin_of(hi));
        self.values[a..=b].iter().sum::<f64>() * self.freq_resolution
    }

    /// Total power (V²) over the whole estimate.
    pub fn total_power(&self) -> f64 {
        self.values.iter().sum::<f64>() * self.freq_resolution
    }

    /// Frequency of the largest bin, ignoring DC.
    pub fn peak_frequency(&self) -> f64 {
        let (k, _) = self
            .values
            .iter()
            .enumerate()
            .skip(1)
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap_or((0, &0.0));
        self.frequency(k)
    }
}

/// A Welch PSD estimator planned once for one segment length and window:
/// it holds the window coefficients, their power gain and the FFT plan, so
/// repeated estimates (the detector runs one per decision window) pay for
/// none of them again.
///
/// Segments are `segment_len` samples with 50 % overlap, each windowed,
/// zero-padded to the next power of two and transformed; their one-sided
/// periodograms are averaged. The estimate is scaled so that integrating
/// it over frequency recovers the windowed signal power.
#[derive(Debug, Clone, PartialEq)]
pub struct WelchPlan {
    window: Window,
    /// Window coefficients, one per segment sample.
    coeffs: Vec<f64>,
    power_gain: f64,
    fft: Fft,
}

impl WelchPlan {
    /// Plans estimates over `segment_len`-sample segments under `window`.
    ///
    /// # Panics
    ///
    /// Panics if `segment_len == 0`.
    pub fn new(segment_len: usize, window: Window) -> Self {
        assert!(segment_len > 0, "segment length must be positive");
        Self {
            window,
            coeffs: window.coefficients(segment_len),
            power_gain: window.power_gain(segment_len),
            fft: Fft::new(next_pow2(segment_len)),
        }
    }

    /// Welch-averaged PSD of `x` sampled at `fs` Hz, over every whole
    /// segment that starts on a multiple of the hop `segment_len / 2`.
    ///
    /// A signal shorter than one segment is estimated as one segment
    /// spanning the whole signal (its periodogram), planned for that call.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or `fs` is not positive.
    pub fn estimate(&self, x: &[f64], fs: f64) -> Psd {
        assert!(!x.is_empty(), "cannot estimate the PSD of an empty signal");
        let n = self.coeffs.len();
        if x.len() < n {
            return WelchPlan::new(x.len(), self.window).estimate(x, fs);
        }
        assert!(fs > 0.0, "sample rate must be positive");
        let nfft = self.fft.len();
        let half = nfft / 2;
        let hop = (n / 2).max(1);
        // U compensates window power loss; n (not nfft) is the data length.
        let scale = 1.0 / (fs * n as f64 * self.power_gain);
        let mut values = vec![0.0; half + 1];
        let mut buf = vec![Complex::ZERO; nfft];
        let mut count = 0usize;
        let mut start = 0;
        while start + n <= x.len() {
            for ((z, &v), &w) in buf.iter_mut().zip(&x[start..start + n]).zip(&self.coeffs) {
                *z = Complex::from_real(v * w);
            }
            buf[n..].fill(Complex::ZERO);
            self.fft.forward(&mut buf);
            for (k, (acc, z)) in values.iter_mut().zip(&buf).enumerate() {
                let mut p = z.norm_sqr() * scale;
                if k != 0 && k != half {
                    p *= 2.0; // fold negative frequencies
                }
                *acc += p;
            }
            count += 1;
            start += hop;
        }
        for v in &mut values {
            *v /= count as f64;
        }
        Psd {
            values,
            freq_resolution: fs / nfft as f64,
        }
    }
}

/// Windowed periodogram PSD of `x` sampled at `fs` Hz: one Welch segment
/// spanning the whole signal.
///
/// The signal is zero-padded to the next power of two. The estimate is scaled
/// so that integrating it over frequency recovers the windowed signal power
/// (one-sided convention).
///
/// # Panics
///
/// Panics if `x` is empty or `fs` is not positive.
pub fn periodogram(x: &[f64], fs: f64, window: Window) -> Psd {
    assert!(!x.is_empty(), "cannot estimate the PSD of an empty signal");
    WelchPlan::new(x.len(), window).estimate(x, fs)
}

/// Generates `n` samples of `amplitude * sin(2π f t + phase)` at rate `fs`.
pub fn sine(n: usize, fs: f64, f: f64, amplitude: f64, phase: f64) -> Vec<f64> {
    (0..n)
        .map(|i| amplitude * (2.0 * std::f64::consts::PI * f * i as f64 / fs + phase).sin())
        .collect()
}

/// Picks a coherent test frequency near `target` Hz for an `n`-point record at
/// rate `fs`, i.e. one that lands exactly on an FFT bin (integer number of
/// cycles), avoiding spectral leakage in SNDR tests.
pub fn coherent_frequency(target: f64, fs: f64, n: usize) -> f64 {
    let nfft = next_pow2(n) as f64;
    let k = (target * nfft / fs).round().max(1.0);
    k * fs / nfft
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodogram_total_power_matches_variance() {
        // White-ish deterministic signal; Parseval should hold within scaling.
        let n = 4096;
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 2654435761usize) as f64 * 1e-9).sin())
            .collect();
        let fs = 1000.0;
        let psd = periodogram(&x, fs, Window::Rect);
        let pwr: f64 = x.iter().map(|v| v * v).sum::<f64>() / n as f64;
        let est = psd.total_power();
        assert!((est - pwr).abs() < 0.02 * pwr, "est {est} vs {pwr}");
    }

    #[test]
    fn sine_power_is_half_amplitude_squared() {
        let fs = 2048.0;
        let n = 2048;
        let f = coherent_frequency(100.0, fs, n);
        let x = sine(n, fs, f, 2.0, 0.3);
        let psd = periodogram(&x, fs, Window::Hann);
        let p = psd.band_power(f - 10.0, f + 10.0);
        assert!(
            (p - 2.0).abs() < 0.05,
            "sine power should be A^2/2 = 2, got {p}"
        );
    }

    #[test]
    fn peak_frequency_finds_tone() {
        let fs = 1024.0;
        let f = coherent_frequency(60.0, fs, 1024);
        let x = sine(1024, fs, f, 1.0, 0.0);
        let psd = periodogram(&x, fs, Window::Hann);
        assert!((psd.peak_frequency() - f).abs() <= psd.freq_resolution);
    }

    #[test]
    fn welch_reduces_to_periodogram_for_short_input() {
        let x = sine(100, 1000.0, 50.0, 1.0, 0.0);
        let a = WelchPlan::new(256, Window::Hann).estimate(&x, 1000.0);
        let b = periodogram(&x, 1000.0, Window::Hann);
        assert_eq!(a, b);
    }

    #[test]
    fn welch_total_power_consistent() {
        let fs = 512.0;
        let x = sine(4096, fs, 32.0, 1.0, 0.0);
        let psd = WelchPlan::new(512, Window::Hann).estimate(&x, fs);
        assert!((psd.total_power() - 0.5).abs() < 0.05);
    }

    #[test]
    fn band_power_partition_sums_to_total() {
        let fs = 1000.0;
        let x: Vec<f64> = (0..2048)
            .map(|i| (i as f64 * 0.7).sin() + (i as f64 * 0.11).cos())
            .collect();
        let psd = periodogram(&x, fs, Window::Rect);
        let whole = psd.total_power();
        // Split exactly between adjacent bins to avoid rounding overlap.
        let df = psd.freq_resolution;
        let split = 512;
        let lo = psd.band_power(0.0, (split - 1) as f64 * df);
        let hi = psd.band_power(split as f64 * df, fs / 2.0);
        assert!((lo + hi - whole).abs() < 1e-9 * whole.max(1.0));
    }

    #[test]
    fn coherent_frequency_is_on_bin() {
        let fs = 537.6;
        let n = 1000;
        let f = coherent_frequency(64.0, fs, n);
        let nfft = next_pow2(n) as f64;
        let cycles = f * nfft / fs;
        assert!((cycles - cycles.round()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn periodogram_rejects_empty() {
        let _ = periodogram(&[], 1.0, Window::Rect);
    }
}
