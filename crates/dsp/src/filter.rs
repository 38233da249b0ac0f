//! IIR filtering.
//!
//! Provides transposed direct-form-II biquad sections, Butterworth low/high
//! pass design of arbitrary even/odd order (as biquad cascades), a one-pole
//! low-pass (the LNA bandwidth model uses this) and zero-phase
//! (forward-backward) filtering.

/// A single second-order IIR section (normalised so `a0 == 1`).
///
/// Implemented in transposed direct form II for good numerical behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Biquad {
    /// Feed-forward coefficients.
    pub b: [f64; 3],
    /// Feedback coefficients `a1, a2` (with `a0 == 1` implied).
    pub a: [f64; 2],
    s1: f64,
    s2: f64,
}

impl Biquad {
    /// Creates a section from coefficients `b0..b2`, `a1..a2` (with `a0 = 1`).
    pub fn new(b: [f64; 3], a: [f64; 2]) -> Self {
        Self {
            b,
            a,
            s1: 0.0,
            s2: 0.0,
        }
    }

    /// The identity (pass-through) section.
    pub fn identity() -> Self {
        Self::new([1.0, 0.0, 0.0], [0.0, 0.0])
    }

    /// Processes one sample.
    #[inline]
    pub fn process(&mut self, x: f64) -> f64 {
        let y = self.b[0] * x + self.s1;
        self.s1 = self.b[1] * x - self.a[0] * y + self.s2;
        self.s2 = self.b[2] * x - self.a[1] * y;
        y
    }

    /// Clears the internal state.
    pub fn reset(&mut self) {
        self.s1 = 0.0;
        self.s2 = 0.0;
    }

    /// Magnitude response at normalised frequency `w` (radians/sample).
    pub fn magnitude_at(&self, w: f64) -> f64 {
        use crate::complex::Complex;
        let z1 = Complex::cis(-w);
        let z2 = Complex::cis(-2.0 * w);
        let num = Complex::from_real(self.b[0]) + z1 * self.b[1] + z2 * self.b[2];
        let den = Complex::ONE + z1 * self.a[0] + z2 * self.a[1];
        (num / den).abs()
    }
}

/// A cascade of biquad sections forming a higher-order IIR filter.
#[derive(Debug, Clone, PartialEq)]
pub struct IirFilter {
    sections: Vec<Biquad>,
}

impl IirFilter {
    /// Builds a filter from explicit sections.
    pub fn from_sections(sections: Vec<Biquad>) -> Self {
        Self { sections }
    }

    /// Designs an order-`order` Butterworth low-pass with cutoff `fc` Hz at
    /// sample rate `fs` Hz, using the bilinear transform.
    ///
    /// ```
    /// use efficsense_dsp::filter::IirFilter;
    /// let f = IirFilter::butterworth_lowpass(4, 100.0, 1000.0);
    /// // Unity DC gain, −3 dB at the cutoff.
    /// assert!((f.magnitude_at(0.0, 1000.0) - 1.0).abs() < 1e-9);
    /// let db = 20.0 * f.magnitude_at(100.0, 1000.0).log10();
    /// assert!((db + 3.0).abs() < 0.1);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fc < fs/2` and `order >= 1`.
    pub fn butterworth_lowpass(order: usize, fc: f64, fs: f64) -> Self {
        Self::butterworth(order, fc, fs, false)
    }

    /// Designs an order-`order` Butterworth high-pass with cutoff `fc` Hz.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fc < fs/2` and `order >= 1`.
    pub fn butterworth_highpass(order: usize, fc: f64, fs: f64) -> Self {
        Self::butterworth(order, fc, fs, true)
    }

    fn butterworth(order: usize, fc: f64, fs: f64, highpass: bool) -> Self {
        assert!(order >= 1, "filter order must be at least 1");
        assert!(
            fc > 0.0 && fc < fs / 2.0,
            "cutoff {fc} must lie in (0, fs/2)"
        );
        // Pre-warped analog cutoff for the bilinear transform.
        let wc = (std::f64::consts::PI * fc / fs).tan();
        let mut sections = Vec::new();
        let pairs = order / 2;
        for k in 0..pairs {
            // Analog Butterworth pole-pair quality factor.
            let theta = std::f64::consts::PI * (2.0 * k as f64 + 1.0) / (2.0 * order as f64);
            let q = 1.0 / (2.0 * theta.sin());
            sections.push(second_order_section(wc, q, highpass));
        }
        if order % 2 == 1 {
            sections.push(first_order_section(wc, highpass));
        }
        Self { sections }
    }

    /// Processes one sample through the cascade.
    #[inline]
    pub fn process(&mut self, x: f64) -> f64 {
        self.sections.iter_mut().fold(x, |acc, s| s.process(acc))
    }

    /// Filters a whole buffer, returning a new vector.
    pub fn filter(&mut self, x: &[f64]) -> Vec<f64> {
        x.iter().map(|&v| self.process(v)).collect()
    }

    /// Zero-phase filtering: forward pass, then backward pass.
    ///
    /// Doubles the effective order and removes group delay; used when
    /// preparing reference signals for SNR comparisons.
    pub fn filtfilt(&self, x: &[f64]) -> Vec<f64> {
        let mut fwd = self.clone();
        fwd.reset();
        let mut y = fwd.filter(x);
        y.reverse();
        let mut bwd = self.clone();
        bwd.reset();
        let mut z = bwd.filter(&y);
        z.reverse();
        z
    }

    /// Clears all section states.
    pub fn reset(&mut self) {
        for s in &mut self.sections {
            s.reset();
        }
    }

    /// Magnitude response at frequency `f` Hz given sample rate `fs`.
    pub fn magnitude_at(&self, f: f64, fs: f64) -> f64 {
        let w = 2.0 * std::f64::consts::PI * f / fs;
        self.sections.iter().map(|s| s.magnitude_at(w)).product()
    }

    /// Number of biquad sections.
    pub fn section_count(&self) -> usize {
        self.sections.len()
    }
}

fn second_order_section(wc: f64, q: f64, highpass: bool) -> Biquad {
    // Bilinear transform of H(s) = 1/(s^2 + s/q + 1) (LP) with s -> s/wc.
    let k = wc;
    let norm = 1.0 / (1.0 + k / q + k * k);
    if highpass {
        Biquad::new(
            [norm, -2.0 * norm, norm],
            [2.0 * (k * k - 1.0) * norm, (1.0 - k / q + k * k) * norm],
        )
    } else {
        let b0 = k * k * norm;
        Biquad::new(
            [b0, 2.0 * b0, b0],
            [2.0 * (k * k - 1.0) * norm, (1.0 - k / q + k * k) * norm],
        )
    }
}

fn first_order_section(wc: f64, highpass: bool) -> Biquad {
    let k = wc;
    let norm = 1.0 / (1.0 + k);
    if highpass {
        Biquad::new([norm, -norm, 0.0], [(k - 1.0) * norm, 0.0])
    } else {
        Biquad::new([k * norm, k * norm, 0.0], [(k - 1.0) * norm, 0.0])
    }
}

/// A one-pole low-pass filter `y[n] = y[n-1] + α (x[n] − y[n-1])`.
///
/// This is the behavioural bandwidth model of the LNA: a single dominant pole
/// at `fc`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnePole {
    alpha: f64,
    state: f64,
}

impl OnePole {
    /// Creates a one-pole low-pass with −3 dB frequency `fc` Hz at rate `fs`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fc` and `fs > 0`. `fc >= fs/2` saturates to an
    /// all-pass (α = 1).
    pub fn lowpass(fc: f64, fs: f64) -> Self {
        assert!(fc > 0.0 && fs > 0.0, "fc and fs must be positive");
        // Exact impulse-invariant mapping of a single pole.
        let alpha = 1.0 - (-2.0 * std::f64::consts::PI * fc / fs).exp();
        Self {
            alpha: alpha.min(1.0),
            state: 0.0,
        }
    }

    /// Processes one sample.
    #[inline]
    pub fn process(&mut self, x: f64) -> f64 {
        self.state += self.alpha * (x - self.state);
        self.state
    }

    /// Clears the state.
    pub fn reset(&mut self) {
        self.state = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectrum::sine;
    use crate::stats::rms;

    #[test]
    fn butterworth_lowpass_dc_gain_unity() {
        for order in 1..=6 {
            let f = IirFilter::butterworth_lowpass(order, 100.0, 1000.0);
            let g = f.magnitude_at(0.0, 1000.0);
            assert!((g - 1.0).abs() < 1e-9, "order {order}: DC gain {g}");
        }
    }

    #[test]
    fn butterworth_cutoff_is_minus_3db() {
        for order in [1usize, 2, 3, 4, 5] {
            let f = IirFilter::butterworth_lowpass(order, 100.0, 1000.0);
            let g = f.magnitude_at(100.0, 1000.0);
            let db = 20.0 * g.log10();
            assert!(
                (db + 3.0103).abs() < 0.1,
                "order {order}: cutoff gain {db} dB"
            );
        }
    }

    #[test]
    fn highpass_blocks_dc_passes_high() {
        let f = IirFilter::butterworth_highpass(4, 50.0, 1000.0);
        assert!(f.magnitude_at(0.001, 1000.0) < 1e-6);
        assert!((f.magnitude_at(400.0, 1000.0) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn lowpass_attenuates_high_tone() {
        let fs = 2000.0;
        let mut f = IirFilter::butterworth_lowpass(4, 100.0, fs);
        let hi = sine(4000, fs, 800.0, 1.0, 0.0);
        let y = f.filter(&hi);
        // Skip the transient.
        assert!(rms(&y[1000..]) < 0.01);
    }

    #[test]
    fn one_pole_3db_point() {
        let fs = 10000.0;
        let fc = 100.0;
        let mut lp = OnePole::lowpass(fc, fs);
        let x = sine(50000, fs, fc, 1.0, 0.0);
        let y: Vec<f64> = x.iter().map(|&v| lp.process(v)).collect();
        let gain = rms(&y[10000..]) / rms(&x[10000..]);
        let db = 20.0 * gain.log10();
        assert!((db + 3.0).abs() < 0.3, "one-pole gain at fc: {db} dB");
    }

    #[test]
    fn one_pole_dc_passthrough() {
        let mut lp = OnePole::lowpass(10.0, 1000.0);
        let mut y = 0.0;
        for _ in 0..10000 {
            y = lp.process(1.0);
        }
        assert!((y - 1.0).abs() < 1e-9);
    }

    #[test]
    fn filtfilt_has_zero_phase() {
        let fs = 1000.0;
        let f = IirFilter::butterworth_lowpass(2, 200.0, fs);
        let x = sine(2048, fs, 20.0, 1.0, 0.0);
        let y = f.filtfilt(&x);
        // In-band tone passes with no delay: max cross-correlation at lag 0.
        let dot: f64 = x[100..1900]
            .iter()
            .zip(&y[100..1900])
            .map(|(a, b)| a * b)
            .sum();
        let e: f64 = x[100..1900].iter().map(|v| v * v).sum();
        assert!((dot / e - 1.0).abs() < 0.01);
    }

    #[test]
    fn biquad_identity_passthrough() {
        let mut b = Biquad::identity();
        for i in 0..10 {
            let v = i as f64 * 0.3 - 1.0;
            assert_eq!(b.process(v), v);
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut f = IirFilter::butterworth_lowpass(4, 100.0, 1000.0);
        f.filter(&vec![1.0; 100]);
        f.reset();
        let y0 = f.process(0.0);
        assert_eq!(y0, 0.0);
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn rejects_cutoff_above_nyquist() {
        let _ = IirFilter::butterworth_lowpass(2, 600.0, 1000.0);
    }
}
