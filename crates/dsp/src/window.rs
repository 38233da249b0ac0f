//! Window functions for spectral estimation.

/// Supported window shapes.
///
/// Windows trade main-lobe width against side-lobe level; the EffiCSense
/// spectral metrics default to [`Window::Hann`], while SNDR estimation uses
/// [`Window::BlackmanHarris`] for its very low side lobes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Window {
    /// Rectangular (no) window.
    Rect,
    /// Hann (raised-cosine) window.
    #[default]
    Hann,
    /// 4-term Blackman-Harris window (−92 dB side lobes).
    BlackmanHarris,
}

impl Window {
    /// Evaluates the window at sample `i` of an `n`-point window.
    ///
    /// Uses the periodic (DFT-even) convention, which is the appropriate one
    /// for spectral analysis with the FFT.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `i >= n`.
    pub fn value(self, i: usize, n: usize) -> f64 {
        assert!(n > 0, "window length must be positive");
        assert!(i < n, "window index {i} out of range for length {n}");
        let x = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
        match self {
            Window::Rect => 1.0,
            Window::Hann => 0.5 - 0.5 * x.cos(),
            Window::BlackmanHarris => {
                0.35875 - 0.48829 * x.cos() + 0.14128 * (2.0 * x).cos() - 0.01168 * (3.0 * x).cos()
            }
        }
    }

    /// Generates the full `n`-point window.
    pub fn coefficients(self, n: usize) -> Vec<f64> {
        (0..n).map(|i| self.value(i, n)).collect()
    }

    /// Coherent gain: mean of the window coefficients.
    ///
    /// Amplitude estimates from windowed spectra must be divided by this.
    pub fn coherent_gain(self, n: usize) -> f64 {
        self.coefficients(n).iter().sum::<f64>() / n as f64
    }

    /// Noise-equivalent power gain: mean of the squared coefficients.
    ///
    /// Power-spectral-density estimates must be divided by this.
    pub fn power_gain(self, n: usize) -> f64 {
        self.coefficients(n).iter().map(|w| w * w).sum::<f64>() / n as f64
    }

    /// Equivalent noise bandwidth in bins.
    ///
    /// The number of bins over which a spectral peak spreads its power; used
    /// when integrating signal power out of a windowed periodogram.
    pub fn enbw_bins(self, n: usize) -> f64 {
        let cg = self.coherent_gain(n);
        self.power_gain(n) / (cg * cg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_is_all_ones() {
        let w = Window::Rect.coefficients(16);
        assert!(w.iter().all(|&v| crate::approx::total_eq(v, 1.0)));
        assert!((Window::Rect.enbw_bins(16) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hann_endpoints_and_peak() {
        let n = 64;
        let w = Window::Hann.coefficients(n);
        assert!(w[0].abs() < 1e-12);
        // Periodic Hann peaks at n/2 with value 1.
        assert!((w[n / 2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn windows_bounded_zero_one() {
        for win in [Window::Rect, Window::Hann, Window::BlackmanHarris] {
            for (i, v) in win.coefficients(101).into_iter().enumerate() {
                assert!((-1e-6..=1.0 + 1e-12).contains(&v), "{win:?}[{i}]={v}");
            }
        }
    }

    #[test]
    fn hann_enbw_is_1_5_bins() {
        // Textbook value for the Hann window.
        let enbw = Window::Hann.enbw_bins(4096);
        assert!((enbw - 1.5).abs() < 1e-3, "got {enbw}");
    }

    #[test]
    fn coherent_gain_hann_is_half() {
        let cg = Window::Hann.coherent_gain(4096);
        assert!((cg - 0.5).abs() < 1e-6);
    }
}
