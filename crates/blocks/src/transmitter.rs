//! Transmitter/storage model: word rate and transmission power.
//!
//! The radio itself is abstracted to an energy-per-bit figure (Table III:
//! 1 nJ/bit); what matters architecturally is *how many bits* the front-end
//! produces, which is where compressive sensing earns its headline saving.

use efficsense_power::models::TransmitterModel;
use efficsense_power::Watts;
use efficsense_power::{DesignParams, PowerModel, TechnologyParams};

/// Transmitter of a front-end's data words.
#[derive(Debug, Clone, PartialEq)]
pub struct Transmitter {
    /// Bits per transmitted word (the ADC resolution).
    pub bits_per_word: u32,
    /// Words produced per second of signal (ADC sample rate for the
    /// baseline; measurement rate `f_sample·M/N_Φ` for CS).
    pub words_per_second: f64,
}

impl Transmitter {
    /// Creates a transmitter for `bits_per_word`-bit words at
    /// `words_per_second`.
    ///
    /// # Panics
    ///
    /// Panics unless both arguments are positive.
    pub fn new(bits_per_word: u32, words_per_second: f64) -> Self {
        assert!(bits_per_word > 0, "word size must be positive");
        assert!(words_per_second > 0.0, "word rate must be positive");
        Self {
            bits_per_word,
            words_per_second,
        }
    }

    /// Baseline configuration: every ADC sample is transmitted.
    pub fn baseline(design: &DesignParams) -> Self {
        Self::new(design.n_bits, design.f_sample_hz())
    }

    /// Compressive-sensing configuration: `m` words per `n_phi`-sample frame.
    pub fn compressive(design: &DesignParams, m: usize, n_phi: usize) -> Self {
        assert!(m > 0 && n_phi >= m, "need 0 < m <= n_phi");
        Self::new(
            design.n_bits,
            design.f_sample_hz() * m as f64 / n_phi as f64,
        )
    }

    /// Compression ratio relative to a Nyquist-rate baseline with the same
    /// resolution.
    pub fn compression_ratio(&self, design: &DesignParams) -> f64 {
        (self.words_per_second / design.f_sample_hz()).min(1.0)
    }

    /// The Table II power model for this transmitter.
    pub fn power_model(&self, design: &DesignParams) -> TransmitterModel {
        TransmitterModel {
            compression_ratio: self.compression_ratio(design),
        }
    }

    /// Convenience: the average transmit power.
    pub fn power(&self, tech: &TechnologyParams, design: &DesignParams) -> Watts {
        self.power_model(design).power(tech, design)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (TechnologyParams, DesignParams) {
        (TechnologyParams::gpdk045(), DesignParams::paper_defaults(8))
    }

    #[test]
    fn baseline_rate_is_sample_rate() {
        let (_, d) = setup();
        let tx = Transmitter::baseline(&d);
        assert_eq!(tx.bits_per_word, 8);
        assert!((tx.words_per_second - 537.6).abs() < 1e-9);
        assert!((tx.compression_ratio(&d) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compressive_rate_scales_by_m_over_n() {
        let (_, d) = setup();
        let tx = Transmitter::compressive(&d, 75, 384);
        assert!((tx.compression_ratio(&d) - 75.0 / 384.0).abs() < 1e-12);
    }

    #[test]
    fn cs_power_matches_ratio() {
        let (t, d) = setup();
        let base = Transmitter::baseline(&d).power(&t, &d).value();
        let cs = Transmitter::compressive(&d, 96, 384).power(&t, &d).value();
        assert!((cs / base - 0.25).abs() < 1e-12);
    }

    #[test]
    fn paper_headline_baseline_tx_power() {
        // 537.6 Hz · 8 bit · 1 nJ ≈ 4.3 µW.
        let (t, d) = setup();
        let p = Transmitter::baseline(&d).power(&t, &d).value();
        assert!((p - 4.3008e-6).abs() < 1e-9, "{p}");
    }

    #[test]
    #[should_panic(expected = "m <= n_phi")]
    fn rejects_m_above_frame() {
        let (_, d) = setup();
        let _ = Transmitter::compressive(&d, 400, 384);
    }
}
