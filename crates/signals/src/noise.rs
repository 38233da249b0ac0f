//! Seeded pink (1/f) noise. White draws come straight from [`Rng64`].

use efficsense_rng::Rng64;

/// Pink (1/f) noise generator using the Paul Kellet economy filter, which
/// shapes white Gaussian noise with three cascaded leaky integrators.
///
/// The output is approximately unit-variance; scale as needed.
#[derive(Debug, Clone)]
pub struct PinkNoise {
    white: Rng64,
    b: [f64; 3],
}

impl PinkNoise {
    /// Creates a pink-noise source from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            white: Rng64::new(seed),
            b: [0.0; 3],
        }
    }

    /// Draws the next pink-noise sample (≈ unit variance).
    pub fn sample(&mut self) -> f64 {
        let w = self.white.normal();
        self.shape(w)
    }

    /// Fills a vector with `n` samples scaled by `sigma`, drawing the white
    /// noise into it a block at a time before shaping each block in place.
    pub fn vector(&mut self, n: usize, sigma: f64) -> Vec<f64> {
        let mut out = vec![0.0; n];
        for block in out.chunks_mut(512) {
            self.white.fill_normal(block);
            for v in block {
                *v = self.shape(*v) * sigma;
            }
        }
        out
    }

    /// Passes white draw `w` through the filter: the next pink sample.
    fn shape(&mut self, w: f64) -> f64 {
        self.b[0] = 0.99765 * self.b[0] + w * 0.0990460;
        self.b[1] = 0.96300 * self.b[1] + w * 0.2965164;
        self.b[2] = 0.57000 * self.b[2] + w * 1.0526913;
        let out = self.b[0] + self.b[1] + self.b[2] + w * 0.1848;
        out * 0.25 // normalise to roughly unit variance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efficsense_dsp::spectrum::{Psd, WelchPlan};
    use efficsense_dsp::stats::std_dev;
    use efficsense_dsp::window::Window;

    fn slope_db_per_decade(psd: &Psd, f_lo: f64, f_hi: f64) -> f64 {
        // Power *density* in equal-relative-width bands (divide by bandwidth).
        let d_lo = psd.band_power(f_lo, f_lo * 1.2) / (0.2 * f_lo);
        let d_hi = psd.band_power(f_hi, f_hi * 1.2) / (0.2 * f_hi);
        // dB per decade between the two band centres.
        10.0 * (d_hi / d_lo).log10() / (f_hi / f_lo).log10()
    }

    #[test]
    fn pink_noise_spectrum_falls_off() {
        let mut p = PinkNoise::new(3);
        let x = p.vector(1 << 16, 1.0);
        let psd = WelchPlan::new(4096, Window::Hann).estimate(&x, 1000.0);
        let slope = slope_db_per_decade(&psd, 2.0, 200.0);
        // 1/f noise: -10 dB/decade of *power density*; allow generous slack.
        assert!((-14.0..=-6.0).contains(&slope), "slope {slope} dB/dec");
    }

    #[test]
    fn pink_noise_roughly_unit_variance() {
        let mut p = PinkNoise::new(11);
        let x = p.vector(100_000, 1.0);
        let s = std_dev(&x);
        assert!((0.5..2.0).contains(&s), "pink sigma {s}");
    }

    #[test]
    fn pink_noise_deterministic() {
        let a = PinkNoise::new(1).vector(64, 1.0);
        let b = PinkNoise::new(1).vector(64, 1.0);
        assert_eq!(a, b);
    }
}
