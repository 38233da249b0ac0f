//! Signal-quality metrics: SNR, SNDR, THD, ENOB, reconstruction error.
//!
//! Two families are provided:
//!
//! * **Tone-based** metrics ([`sndr_db`], [`thd_db`], [`enob`]) operate on a
//!   single-sine test record, the classic mixed-signal characterisation used
//!   for Fig. 4 of the paper.
//! * **Reference-based** metrics ([`snr_ref_db`], [`prd_percent`])
//!   compare a processed/reconstructed signal against the known clean input,
//!   which is how the paper's Fig. 7a scores arbitrary EEG waveforms.

use crate::fft::next_pow2;
use crate::spectrum::periodogram;
use crate::window::Window;

/// Number of bins to each side of a peak that are attributed to the tone when
/// using the Blackman-Harris window (its main lobe spans ±4 bins of the
/// *data-length* resolution).
const TONE_HALF_WIDTH: usize = 4;

/// Tone half-width in *padded-FFT* bins: zero-padding to `nfft` spreads the
/// main lobe by `nfft / n`, so the integration window must scale with it.
fn tone_half_width_bins(n: usize, nfft: usize) -> usize {
    (TONE_HALF_WIDTH * nfft).div_ceil(n)
}

/// Signal-to-noise-and-distortion ratio (dB) of a record containing a test
/// tone near `f0` Hz.
///
/// The record is windowed (Blackman-Harris), the fundamental is located near
/// `f0`, its main lobe is integrated as signal, DC is discarded, and all
/// remaining power is counted as noise + distortion.
///
/// # Panics
///
/// Panics if `x` is empty or `fs <= 0`.
#[must_use]
pub fn sndr_db(x: &[f64], fs: f64, f0: f64) -> f64 {
    let psd = periodogram(x, fs, Window::BlackmanHarris);
    let n = x.len();
    let nfft = next_pow2(n);
    let half_width = tone_half_width_bins(n, nfft);
    let dc_bins = half_width; // skirt of the DC lobe
    let guess = psd.bin_of(f0);
    // Search around the nominal frequency for the actual peak.
    let lo = guess.saturating_sub(half_width).max(dc_bins + 1);
    let hi = (guess + half_width).min(psd.values.len() - 1);
    let k0 = (lo..=hi)
        .max_by(|&a, &b| psd.values[a].total_cmp(&psd.values[b]))
        .unwrap_or(guess);
    let sig_lo = k0.saturating_sub(half_width);
    let sig_hi = (k0 + half_width).min(psd.values.len() - 1);
    let mut signal = 0.0;
    let mut noise = 0.0;
    for (k, &p) in psd.values.iter().enumerate() {
        if k <= dc_bins {
            continue;
        }
        if (sig_lo..=sig_hi).contains(&k) {
            signal += p;
        } else {
            noise += p;
        }
    }
    let _ = nfft;
    if noise <= 0.0 {
        return f64::INFINITY;
    }
    10.0 * (signal / noise).log10()
}

/// Total harmonic distortion (dB, negative is better) of a tone record:
/// ratio of the power in harmonics 2..=`n_harmonics` to the fundamental.
///
/// # Panics
///
/// Panics if `x` is empty, `fs <= 0` or `n_harmonics == 0`.
#[must_use]
pub fn thd_db(x: &[f64], fs: f64, f0: f64, n_harmonics: usize) -> f64 {
    assert!(n_harmonics > 0, "need at least one harmonic");
    let psd = periodogram(x, fs, Window::BlackmanHarris);
    let half_width = tone_half_width_bins(x.len(), next_pow2(x.len()));
    let tone_power = |f: f64| -> f64 {
        let k = psd.bin_of(f);
        let lo = k.saturating_sub(half_width);
        let hi = (k + half_width).min(psd.values.len() - 1);
        psd.values[lo..=hi].iter().sum()
    };
    let fund = tone_power(f0);
    let mut harm = 0.0;
    for h in 2..=(n_harmonics + 1) {
        let fh = f0 * h as f64;
        if fh >= fs / 2.0 {
            break;
        }
        harm += tone_power(fh);
    }
    if fund <= 0.0 {
        return f64::INFINITY;
    }
    10.0 * (harm / fund).log10()
}

/// Effective number of bits from an SNDR value: `(SNDR − 1.76) / 6.02`.
#[must_use]
pub fn enob_from_sndr(sndr_db: f64) -> f64 {
    (sndr_db - 1.76) / 6.02
}

/// Effective number of bits measured directly from a tone record.
#[must_use]
pub fn enob(x: &[f64], fs: f64, f0: f64) -> f64 {
    enob_from_sndr(sndr_db(x, fs, f0))
}

/// Reference-based SNR (dB): `10·log10(Σ ref² / Σ (ref − test)²)`.
///
/// Both slices are truncated to the shorter length. Returns `+∞` for a
/// perfect match.
///
/// # Panics
///
/// Panics if either slice is empty.
#[must_use]
pub fn snr_ref_db(reference: &[f64], test: &[f64]) -> f64 {
    assert!(
        !reference.is_empty() && !test.is_empty(),
        "signals must be non-empty"
    );
    let n = reference.len().min(test.len());
    let mut sig = 0.0;
    let mut err = 0.0;
    for i in 0..n {
        sig += reference[i] * reference[i];
        let e = reference[i] - test[i];
        err += e * e;
    }
    if err <= 0.0 {
        return f64::INFINITY;
    }
    10.0 * (sig / err).log10()
}

/// Reference-based SNR after removing the best scalar gain + offset fit.
///
/// Analog chains scale and shift the signal; a designer compares shape, not
/// absolute level, so the test signal is first fitted as `a·test + b` to the
/// reference by least squares.
#[must_use]
pub fn snr_fit_db(reference: &[f64], test: &[f64]) -> f64 {
    assert!(
        !reference.is_empty() && !test.is_empty(),
        "signals must be non-empty"
    );
    let n = reference.len().min(test.len());
    let r = &reference[..n];
    let t = &test[..n];
    let nm = n as f64;
    let st: f64 = t.iter().sum();
    let sr: f64 = r.iter().sum();
    let stt: f64 = t.iter().map(|v| v * v).sum();
    let str_: f64 = t.iter().zip(r).map(|(a, b)| a * b).sum();
    let denom = nm * stt - st * st;
    let (a, b) = if denom.abs() < 1e-300 {
        (0.0, sr / nm)
    } else {
        let a = (nm * str_ - st * sr) / denom;
        let b = (sr - a * st) / nm;
        (a, b)
    };
    let fitted: Vec<f64> = t.iter().map(|&v| a * v + b).collect();
    snr_ref_db(r, &fitted)
}

/// Percentage root-mean-square difference, the standard compressed-EEG
/// reconstruction quality metric: `100 · ‖ref − test‖ / ‖ref‖`.
#[must_use]
pub fn prd_percent(reference: &[f64], test: &[f64]) -> f64 {
    assert!(
        !reference.is_empty() && !test.is_empty(),
        "signals must be non-empty"
    );
    let n = reference.len().min(test.len());
    let mut sig = 0.0;
    let mut err = 0.0;
    for i in 0..n {
        sig += reference[i] * reference[i];
        let e = reference[i] - test[i];
        err += e * e;
    }
    if crate::approx::is_zero(sig) {
        return if crate::approx::is_zero(err) {
            0.0
        } else {
            f64::INFINITY
        };
    }
    100.0 * (err / sig).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectrum::{coherent_frequency, sine};

    fn seeded_noise(n: usize, sigma: f64) -> Vec<f64> {
        // Deterministic pseudo-noise (sum of incommensurate sines ≈ gaussian-ish).
        (0..n)
            .map(|i| {
                let t = i as f64;
                sigma * 1.29 * ((t * 0.7311).sin() + (t * 1.9173).sin() + (t * 0.1931).cos())
                    / 3f64.sqrt()
            })
            .collect()
    }

    #[test]
    fn clean_sine_has_huge_sndr() {
        let fs = 4096.0;
        let f = coherent_frequency(100.0, fs, 4096);
        let x = sine(4096, fs, f, 1.0, 0.0);
        assert!(sndr_db(&x, fs, f) > 100.0);
    }

    #[test]
    fn sndr_tracks_added_noise() {
        let fs = 4096.0;
        let n = 8192;
        let f = coherent_frequency(100.0, fs, n);
        let sig = sine(n, fs, f, 1.0, 0.0);
        let noise = seeded_noise(n, 0.01);
        let x: Vec<f64> = sig.iter().zip(&noise).map(|(a, b)| a + b).collect();
        let s = sndr_db(&x, fs, f);
        // P_sig/P_noise = 0.5 / 1e-4 => ~37 dB.
        assert!((s - 37.0).abs() < 3.0, "got {s} dB");
    }

    #[test]
    fn quantized_sine_matches_ideal_enob() {
        let fs = 8192.0;
        let n = 8192;
        let f = coherent_frequency(441.0, fs, n);
        let bits = 8u32;
        let x = sine(n, fs, f, 1.0, 0.0);
        let q = 2.0 / (1u64 << bits) as f64;
        let xq: Vec<f64> = x.iter().map(|v| (v / q).round() * q).collect();
        let e = enob(&xq, fs, f);
        assert!((e - bits as f64).abs() < 0.35, "ENOB {e} for {bits} bits");
    }

    #[test]
    fn thd_detects_cubic_distortion() {
        let fs = 8192.0;
        let n = 8192;
        let f = coherent_frequency(200.0, fs, n);
        let x: Vec<f64> = sine(n, fs, f, 1.0, 0.0)
            .into_iter()
            .map(|v| v + 0.01 * v * v * v)
            .collect();
        let t = thd_db(&x, fs, f, 5);
        // 3rd harmonic at ~(0.01*1/4) amplitude → about -52 dB.
        assert!((-56.0..=-46.0).contains(&t), "THD {t} dB");
    }

    #[test]
    fn snr_ref_for_known_noise() {
        let sig = sine(10000, 1000.0, 10.0, 1.0, 0.0);
        let noise = seeded_noise(10000, 0.1);
        let test: Vec<f64> = sig.iter().zip(&noise).map(|(a, b)| a + b).collect();
        let s = snr_ref_db(&sig, &test);
        // 0.5 / 0.01 → ~17 dB.
        assert!((s - 17.0).abs() < 2.0, "got {s}");
    }

    #[test]
    fn snr_fit_removes_gain_and_offset() {
        let sig = sine(5000, 1000.0, 10.0, 1.0, 0.0);
        let test: Vec<f64> = sig.iter().map(|v| 37.0 * v + 5.0).collect();
        assert!(snr_ref_db(&sig, &test) < 0.0); // raw comparison is terrible
        assert!(snr_fit_db(&sig, &test) > 100.0); // fit restores it
    }

    #[test]
    fn prd_zero_for_identical() {
        let x = sine(100, 100.0, 5.0, 1.0, 0.0);
        assert_eq!(prd_percent(&x, &x), 0.0);
    }

    #[test]
    fn prd_scales_with_error() {
        let x = vec![1.0; 100];
        let y = vec![0.9; 100];
        assert!((prd_percent(&x, &y) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn sndr_correct_for_non_power_of_two_length() {
        // Regression: zero-padding spreads the tone's main lobe by nfft/n;
        // the integration window must widen accordingly or signal power is
        // misattributed to noise.
        let fs = 537.6;
        let n = 4300; // pads to 8192
        let f = coherent_frequency(64.0, fs, n);
        let sig = sine(n, fs, f, 1.0, 0.0);
        let noise = seeded_noise(n, 0.01);
        let x: Vec<f64> = sig.iter().zip(&noise).map(|(a, b)| a + b).collect();
        let s = sndr_db(&x, fs, f);
        assert!((s - 37.0).abs() < 3.0, "non-pow2 SNDR {s} dB, expected ~37");
    }

    #[test]
    fn enob_from_sndr_known_points() {
        assert!((enob_from_sndr(49.92) - 8.0).abs() < 1e-9);
        assert!((enob_from_sndr(74.0) - 12.0).abs() < 0.01);
    }

    #[test]
    fn perfect_match_gives_infinite_snr() {
        let x = vec![1.0, -1.0, 0.5];
        assert!(snr_ref_db(&x, &x).is_infinite());
    }
}
