//! Sample-rate conversion.
//!
//! EffiCSense represents the sensor input on a dense "continuous-time proxy"
//! grid and lets samplers pick values off it at arbitrary instants; this
//! module provides the conversions between the dataset rate, the proxy rate
//! and block sample rates.

/// Linearly interpolates `x` (sampled at `fs_in`) at time `t` seconds.
///
/// Values outside the record are clamped to the edge samples.
pub fn sample_at(x: &[f64], fs_in: f64, t: f64) -> f64 {
    assert!(!x.is_empty(), "cannot sample an empty signal");
    let pos = t * fs_in;
    if pos <= 0.0 {
        return x[0];
    }
    let i = pos.floor() as usize;
    if i + 1 >= x.len() {
        return x[x.len() - 1];
    }
    let frac = pos - i as f64;
    x[i] * (1.0 - frac) + x[i + 1] * frac
}

/// Linear-interpolation resampling from `fs_in` to `fs_out`, covering the
/// same time span as the input record.
///
/// # Panics
///
/// Panics if `x` is empty or a rate is not positive.
pub fn resample_linear(x: &[f64], fs_in: f64, fs_out: f64) -> Vec<f64> {
    assert!(!x.is_empty(), "cannot resample an empty signal");
    assert!(fs_in > 0.0 && fs_out > 0.0, "sample rates must be positive");
    let duration = x.len() as f64 / fs_in;
    let n_out = (duration * fs_out).round() as usize;
    (0..n_out)
        .map(|i| sample_at(x, fs_in, i as f64 / fs_out))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectrum::sine;

    #[test]
    fn sample_at_hits_grid_points() {
        let x = vec![0.0, 1.0, 4.0, 9.0];
        for (i, &v) in x.iter().enumerate() {
            assert_eq!(sample_at(&x, 10.0, i as f64 / 10.0), v);
        }
    }

    #[test]
    fn sample_at_interpolates_midpoints() {
        let x = vec![0.0, 2.0];
        assert!((sample_at(&x, 1.0, 0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sample_at_clamps_out_of_range() {
        let x = vec![3.0, 5.0];
        assert_eq!(sample_at(&x, 1.0, -1.0), 3.0);
        assert_eq!(sample_at(&x, 1.0, 100.0), 5.0);
    }

    #[test]
    fn resample_preserves_duration() {
        let x = vec![1.0; 1000];
        let y = resample_linear(&x, 100.0, 250.0);
        assert_eq!(y.len(), 2500);
    }

    #[test]
    fn resample_preserves_tone() {
        let fs_in = 500.0;
        let x = sine(5000, fs_in, 20.0, 1.0, 0.0);
        let y = resample_linear(&x, fs_in, 2000.0);
        let expect = sine(y.len(), 2000.0, 20.0, 1.0, 0.0);
        let err: f64 = y
            .iter()
            .zip(&expect)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / y.len() as f64;
        assert!(err.sqrt() < 0.02, "rms error {}", err.sqrt());
    }
}
