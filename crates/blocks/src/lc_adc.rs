//! Event-driven (level-crossing) ADC — the fixed-rate alternative explored
//! by the authors' own power-comparison study (Van Assche & Gielen, TBioCAS
//! 2020, reference 15 of the paper).
//!
//! A level-crossing converter emits an event whenever the input crosses one
//! of a ladder of levels spaced `LSB` apart: sparse signals produce few
//! events, so data rate (and transmitter power) tracks signal *activity*
//! instead of bandwidth. EffiCSense's library includes it so architectural
//! sweeps can pit event-driven sampling against both the Nyquist baseline
//! and the CS front-end.

use efficsense_power::breakdown::BlockKind;
use efficsense_power::models::PowerModel;
use efficsense_power::Watts;
use efficsense_power::{DesignParams, PowerBreakdown, TechnologyParams};

/// One level-crossing event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LcEvent {
    /// Continuous-time proxy sample index at which the crossing happened.
    pub index: usize,
    /// Level index after the crossing (signed ladder position).
    pub level: i64,
}

/// Behavioural level-crossing ADC.
#[derive(Debug, Clone, PartialEq)]
pub struct LcAdc {
    /// Resolution: level spacing is `v_fs / 2^n_bits`.
    pub n_bits: u32,
    /// Full-scale range (V), bipolar.
    pub v_fs: f64,
    /// Hysteresis as a fraction of one LSB (suppresses noise chatter).
    pub hysteresis_lsb: f64,
    level: i64,
    initialised: bool,
}

impl LcAdc {
    /// Creates a level-crossing converter.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n_bits <= 16`, `v_fs > 0`, `hysteresis_lsb >= 0`.
    pub fn new(n_bits: u32, v_fs: f64, hysteresis_lsb: f64) -> Self {
        assert!(
            (1..=16).contains(&n_bits),
            "resolution {n_bits} out of range"
        );
        assert!(v_fs > 0.0, "full scale must be positive");
        assert!(hysteresis_lsb >= 0.0, "hysteresis must be non-negative");
        Self {
            n_bits,
            v_fs,
            hysteresis_lsb,
            level: 0,
            initialised: false,
        }
    }

    /// Level spacing (V).
    pub fn lsb(&self) -> f64 {
        self.v_fs / (1u64 << self.n_bits) as f64
    }

    /// Converts a record into level-crossing events.
    pub fn convert(&mut self, x: &[f64]) -> Vec<LcEvent> {
        let lsb = self.lsb();
        let hyst = self.hysteresis_lsb * lsb;
        let mut events = Vec::new();
        for (i, &v) in x.iter().enumerate() {
            if !self.initialised {
                self.level = (v / lsb).round() as i64;
                self.initialised = true;
                events.push(LcEvent {
                    index: i,
                    level: self.level,
                });
                continue;
            }
            loop {
                let current = self.level as f64 * lsb;
                if v > current + lsb + hyst {
                    self.level += 1;
                } else if v < current - lsb - hyst {
                    self.level -= 1;
                } else {
                    break;
                }
                events.push(LcEvent {
                    index: i,
                    level: self.level,
                });
            }
        }
        events
    }

    /// Reconstructs a uniformly sampled signal from events by zero-order
    /// hold (the standard LC-ADC decoder before interpolation).
    pub fn reconstruct(&self, events: &[LcEvent], len: usize) -> Vec<f64> {
        let lsb = self.lsb();
        let mut out = vec![0.0; len];
        if events.is_empty() {
            return out;
        }
        let mut e = 0usize;
        let mut current = events[0].level as f64 * lsb;
        for (i, o) in out.iter_mut().enumerate() {
            while e < events.len() && events[e].index <= i {
                current = events[e].level as f64 * lsb;
                e += 1;
            }
            *o = current;
        }
        out
    }

    /// Resets the converter state.
    pub fn reset(&mut self) {
        self.level = 0;
        self.initialised = false;
    }

    /// Power breakdown for a measured `event_rate` (events/s): two
    /// continuously-running comparators (the ladder window) plus per-event
    /// logic and event transmission.
    pub fn power_breakdown(
        &self,
        event_rate_hz: f64,
        tech: &TechnologyParams,
        design: &DesignParams,
    ) -> PowerBreakdown {
        assert!(event_rate_hz >= 0.0, "event rate must be non-negative");
        let mut b = PowerBreakdown::new();
        let comp = LcComparatorModel {
            n_bits: self.n_bits,
        };
        b.add(comp.kind(), comp.power(tech, design));
        // Per-event logic: level counter update (~2N gates).
        let logic = 0.4
            * (2.0 * self.n_bits as f64)
            * tech.c_logic_f
            * design.v_dd
            * design.v_dd
            * event_rate_hz;
        b.add(BlockKind::SarLogic, Watts(logic));
        // Each event ships a timestamp+direction word of ~N bits.
        b.add(
            BlockKind::Transmitter,
            Watts(event_rate_hz * self.n_bits as f64 * tech.e_bit_j),
        );
        b
    }
}

/// Continuous-time window comparators of an LC-ADC: two comparators biased
/// to track the input with bandwidth `BW_LNA`, noise below half a level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LcComparatorModel {
    /// Converter resolution (sets the comparator noise requirement).
    pub n_bits: u32,
}

impl PowerModel for LcComparatorModel {
    fn kind(&self) -> BlockKind {
        BlockKind::Comparator
    }

    fn power(&self, tech: &TechnologyParams, design: &DesignParams) -> Watts {
        // Noise requirement: vn <= LSB/4 over the signal bandwidth; use the
        // same NEF current bound as the LNA, times two comparators.
        let lsb = design.v_fs / (1u64 << self.n_bits) as f64;
        let vn = lsb / 4.0;
        let i = (tech.nef / vn).powi(2)
            * 2.0
            * std::f64::consts::PI
            * 4.0
            * efficsense_power::kt()
            * design.bw_lna_hz()
            * tech.v_t;
        Watts(2.0 * design.v_dd * i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efficsense_dsp::metrics::snr_fit_db;
    use efficsense_dsp::spectrum::sine;

    #[test]
    fn quiet_signal_produces_few_events() {
        let mut adc = LcAdc::new(8, 2.0, 0.1);
        let flat = vec![0.001; 10_000];
        let events = adc.convert(&flat);
        assert!(
            events.len() <= 2,
            "flat input must be nearly silent, got {}",
            events.len()
        );
    }

    #[test]
    fn event_count_tracks_signal_activity() {
        let fs = 8192.0;
        let mut adc = LcAdc::new(8, 2.0, 0.1);
        let slow = sine(8192, fs, 2.0, 0.5, 0.0);
        let n_slow = adc.convert(&slow).len();
        adc.reset();
        let fast = sine(8192, fs, 64.0, 0.5, 0.0);
        let n_fast = adc.convert(&fast).len();
        // 32x the frequency → ~32x the slope → ~32x the crossings.
        let ratio = n_fast as f64 / n_slow as f64;
        assert!((20.0..45.0).contains(&ratio), "event ratio {ratio}");
    }

    #[test]
    fn reconstruction_tracks_input_within_lsb() {
        let fs = 8192.0;
        let mut adc = LcAdc::new(8, 2.0, 0.0);
        let x = sine(8192, fs, 10.0, 0.8, 0.0);
        let events = adc.convert(&x);
        let y = adc.reconstruct(&events, x.len());
        let max_err = x
            .iter()
            .zip(&y)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err <= 2.0 * adc.lsb() + 1e-12, "max error {max_err}");
        assert!(snr_fit_db(&x, &y) > 30.0);
    }

    #[test]
    fn hysteresis_suppresses_noise_chatter() {
        use efficsense_rng::Rng64;
        let mut rng = Rng64::new(3);
        let lsb = 2.0 / 256.0;
        // Noise straddling a level boundary.
        let x: Vec<f64> = (0..20_000)
            .map(|_| lsb / 2.0 + rng.normal() * (lsb * 0.2))
            .collect();
        let mut crisp = LcAdc::new(8, 2.0, 0.0);
        let mut damped = LcAdc::new(8, 2.0, 1.0);
        let n_crisp = crisp.convert(&x).len();
        let n_damped = damped.convert(&x).len();
        assert!(
            n_damped * 2 < n_crisp,
            "hysteresis must cut chatter: {n_crisp} vs {n_damped}"
        );
    }

    #[test]
    fn event_rate_drives_transmitter_power() {
        let tech = TechnologyParams::gpdk045();
        let design = DesignParams::paper_defaults(8);
        let adc = LcAdc::new(8, 2.0, 0.1);
        let quiet = adc.power_breakdown(10.0, &tech, &design);
        let busy = adc.power_breakdown(1000.0, &tech, &design);
        assert!(busy.get(BlockKind::Transmitter) > 50.0 * quiet.get(BlockKind::Transmitter));
        // Comparators burn static power regardless of activity.
        assert_eq!(
            quiet.get(BlockKind::Comparator),
            busy.get(BlockKind::Comparator)
        );
    }

    #[test]
    fn sparse_biosignals_favour_event_driven_transmission() {
        // The reference-[15] trade-off: for bursty signals the LC-ADC ships
        // fewer bits than Nyquist sampling.
        let design = DesignParams::paper_defaults(8);
        let fs = 4300.8; // CT proxy rate
                         // Mostly-flat signal with one small, slow burst (a bursty biosignal).
        let mut x = vec![0.0; (fs * 4.0) as usize];
        for (i, v) in x.iter_mut().enumerate().skip(2000).take(2000) {
            *v = 0.05 * ((i as f64) * 0.01).sin();
        }
        let mut adc = LcAdc::new(8, 2.0, 0.1);
        let events = adc.convert(&x);
        let event_rate = events.len() as f64 / 4.0;
        let nyquist_word_rate = design.f_sample_hz();
        assert!(
            event_rate < 0.5 * nyquist_word_rate,
            "event rate {event_rate} should undercut Nyquist {nyquist_word_rate}"
        );
    }

    #[test]
    fn comparator_power_grows_with_resolution() {
        let tech = TechnologyParams::gpdk045();
        let design8 = DesignParams::paper_defaults(8);
        let p8 = LcComparatorModel { n_bits: 8 }
            .power(&tech, &design8)
            .value();
        let p10 = LcComparatorModel { n_bits: 10 }
            .power(&tech, &design8)
            .value();
        // Two fewer LSBs → 4x tighter noise → 16x the current.
        assert!((p10 / p8 - 16.0).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "resolution")]
    fn rejects_zero_bits() {
        let _ = LcAdc::new(0, 2.0, 0.1);
    }
}
