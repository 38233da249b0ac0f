//! Sample-and-hold model: samples the continuous-time proxy at `f_sample`
//! with kT/C thermal noise and optional aperture jitter.

use efficsense_dsp::resample::sample_at;
use efficsense_faults::ClockFault;
use efficsense_power::kt;
use efficsense_rng::Rng64;

use crate::NOISE_BLOCK;

/// Injected sample-clock fault with its own random streams, so the clean
/// noise realisation is untouched by injection.
#[derive(Debug, Clone)]
struct ClockState {
    fault: ClockFault,
    jitter_rng: Rng64,
    drop_rng: Rng64,
}

/// Where a clocked acquisition stands between calls of
/// [`Sampler::acquire_run`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HoldState {
    /// The value on the hold capacitor: the last acquisition (0 before
    /// any), repeated while conversions drop.
    pub held: f64,
    /// An instant already decided (its clock draws consumed) whose input
    /// had not arrived yet; the next call acquires it first.
    pub pending: Option<f64>,
}

/// Behavioural sample-and-hold.
#[derive(Debug, Clone)]
pub struct Sampler {
    /// Output sample rate (Hz).
    pub fs: f64,
    /// Sampling capacitor (F) — sets the kT/C noise floor.
    pub c_sample_f: f64,
    /// RMS aperture jitter (s); 0 disables it.
    pub jitter_s: f64,
    noise: Rng64,
    clock: Option<ClockState>,
}

impl Sampler {
    /// Creates a sampler at `fs` Hz with sampling capacitor `c_sample_f`.
    ///
    /// # Panics
    ///
    /// Panics unless `fs` and `c_sample_f` are positive and `jitter_s >= 0`.
    pub fn new(fs: f64, c_sample_f: f64, jitter_s: f64, seed: u64) -> Self {
        assert!(fs > 0.0, "sample rate must be positive");
        assert!(c_sample_f > 0.0, "sampling capacitor must be positive");
        assert!(jitter_s >= 0.0, "jitter must be non-negative");
        Self {
            fs,
            c_sample_f,
            jitter_s,
            noise: Rng64::new(seed),
            clock: None,
        }
    }

    /// Injects (or clears) a sample-clock fault. Excess jitter is
    /// `fault.jitter_periods` of the sample period, RMS; dropped samples are
    /// concealed by holding the last acquired value (the hold cap keeps its
    /// charge when the track switch fails to close).
    pub fn inject_clock_fault(&mut self, fault: Option<ClockFault>, fault_seed: u64) {
        self.clock = None;
        if let Some(fault) = fault.filter(|f| !f.is_noop()) {
            self.install_clock_fault(fault, fault_seed);
        }
    }

    /// Installs a sample-clock fault unconditionally — even a currently-noop
    /// parameterisation — creating its private streams at `fault_seed`.
    ///
    /// Unlike [`Sampler::inject_clock_fault`], an installed noop fault still
    /// consumes one drop-decision draw per conversion, so a time-varying
    /// plan that starts at severity 0 keeps chunk-invariant stream
    /// positions. A zero-severity installed fault is bit-identical to the
    /// clean path (`chance(0)` never fires, zero jitter draws nothing).
    pub fn install_clock_fault(&mut self, fault: ClockFault, fault_seed: u64) {
        self.clock = Some(ClockState {
            fault,
            jitter_rng: Rng64::new(fault_seed ^ 0x0C10_CC00),
            drop_rng: Rng64::new(fault_seed ^ 0x0D20_9ED5),
        });
    }

    /// Updates an installed clock fault's parameters in place, preserving
    /// both private stream positions. Does nothing when no fault is
    /// installed — severity profiles must [`Sampler::install_clock_fault`]
    /// first.
    pub fn set_clock_fault_params(&mut self, fault: ClockFault) {
        if let Some(clock) = &mut self.clock {
            clock.fault = fault;
        }
    }

    /// kT/C noise standard deviation (V) of one sample.
    pub fn ktc_sigma(&self) -> f64 {
        (kt() / self.c_sample_f).sqrt()
    }

    /// Decides the acquisition instant for output sample `i`: the
    /// intrinsic aperture-jitter draw, the fault jitter draw and the drop
    /// decision, in that order. Returns `None` when the conversion is
    /// dropped — the S&H then keeps holding its last value. The returned
    /// instant is *not* clamped to the record start.
    fn acquisition_instant(&mut self, i: u64) -> Option<f64> {
        // `i < 2^53`: the signed cast is exact, and cheaper than the
        // unsigned one on baseline x86-64.
        let mut t = i as i64 as f64 / self.fs;
        if self.jitter_s > 0.0 {
            t += self.noise.normal() * self.jitter_s;
        }
        if let Some(clock) = &mut self.clock {
            if clock.fault.jitter_periods > 0.0 {
                let sigma_t = clock.fault.jitter_periods / self.fs;
                t += clock.jitter_rng.normal() * sigma_t;
            }
            if clock.drop_rng.chance(clock.fault.drop_prob) {
                return None;
            }
        }
        Some(t)
    }

    /// Adds one kT/C thermal-noise draw to each acquired value in place,
    /// drawn a block at a time.
    ///
    /// The draws come from the stream that aperture jitter also reads, so
    /// a caller with `jitter_s > 0` must interleave: one value per call,
    /// after that sample's instant (as [`Sampler::acquire_run`] does).
    pub fn acquire_in_place(&mut self, values: &mut [f64]) {
        let sigma = self.ktc_sigma();
        let mut draws = [0.0; NOISE_BLOCK];
        for chunk in values.chunks_mut(NOISE_BLOCK) {
            let draws = &mut draws[..chunk.len()];
            self.noise.fill_normal(draws);
            for (v, &w) in chunk.iter_mut().zip(draws.iter()) {
                *v += w * sigma;
            }
        }
    }

    /// Acquires output samples `i..end` and appends them to `out`; returns
    /// the index after the last one acquired. Each sample's instant comes
    /// from the clock (jitter, drop-outs), `interp` reads the input at
    /// that instant (clamped to `t >= 0`), and `ktc` adds the S&H's kT/C
    /// noise. When `interp` returns `None` (input not there yet) the run
    /// stops early and `hold.pending` keeps the decided instant.
    ///
    /// Instants are decided a block at a time, then the block's kT/C
    /// noise is drawn in one go: the clock and kT/C streams are separate,
    /// so each is still read in sample order. With aperture jitter the
    /// kT/C stream is shared, and blocks shrink to one sample.
    pub fn acquire_run(
        &mut self,
        mut i: u64,
        end: u64,
        hold: &mut HoldState,
        ktc: bool,
        mut interp: impl FnMut(f64) -> Option<f64>,
        out: &mut Vec<f64>,
    ) -> u64 {
        const BLOCK: usize = 256;
        let block = if self.jitter_s > 0.0 { 1 } else { BLOCK };
        // The block's acquired values, and per sample whether it acquired
        // (`true`) or dropped.
        let mut values = [0.0; BLOCK];
        let mut acquired = [false; BLOCK];
        while i < end {
            let n = (end - i).min(block as u64) as usize;
            let (mut decided, mut m) = (0, 0);
            let mut stalled = false;
            while decided < n {
                let t = match hold.pending.take() {
                    Some(t) => t,
                    None => match self.acquisition_instant(i + decided as u64) {
                        Some(t) => t,
                        None => {
                            acquired[decided] = false;
                            decided += 1;
                            continue;
                        }
                    },
                };
                let Some(v) = interp(t.max(0.0)) else {
                    hold.pending = Some(t);
                    stalled = true;
                    break;
                };
                values[m] = v;
                m += 1;
                acquired[decided] = true;
                decided += 1;
            }
            if ktc {
                self.acquire_in_place(&mut values[..m]);
            }
            let mut k = 0;
            for &got in &acquired[..decided] {
                if got {
                    hold.held = values[k];
                    k += 1;
                }
                out.push(hold.held);
            }
            i += decided as u64;
            if stalled {
                break;
            }
        }
        i
    }

    /// Samples a continuous-time proxy record (`x` at rate `f_ct`) at this
    /// sampler's rate, returning the discrete-time samples.
    pub fn sample(&mut self, x: &[f64], f_ct: f64) -> Vec<f64> {
        assert!(f_ct > 0.0, "proxy rate must be positive");
        let duration = x.len() as f64 / f_ct;
        let n_out = (duration * self.fs).floor() as usize;
        let mut out = Vec::with_capacity(n_out);
        let interp = |t: f64| Some(sample_at(x, f_ct, t));
        self.acquire_run(
            0,
            n_out as u64,
            &mut HoldState::default(),
            true,
            interp,
            &mut out,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efficsense_dsp::spectrum::sine;
    use efficsense_dsp::stats::std_dev;

    #[test]
    fn output_length_matches_duration() {
        let mut s = Sampler::new(537.6, 1e-12, 0.0, 1);
        let x = vec![0.0; 8192];
        let y = s.sample(&x, 8192.0); // 1 second
        assert_eq!(y.len(), 537);
    }

    #[test]
    fn ktc_sigma_value() {
        let s = Sampler::new(537.6, 1e-12, 0.0, 1);
        // kT/C at 1 pF, 300 K → ~64 µV.
        let sigma = s.ktc_sigma();
        assert!((sigma - 64e-6).abs() < 2e-6, "kT/C sigma {sigma}");
    }

    #[test]
    fn samples_track_slow_signal() {
        let f_ct = 8192.0;
        let mut s = Sampler::new(537.6, 1e-9, 0.0, 2); // big cap → tiny noise
        let x = sine(16384, f_ct, 10.0, 1.0, 0.0);
        let y = s.sample(&x, f_ct);
        let expect = sine(y.len(), 537.6, 10.0, 1.0, 0.0);
        let err: f64 = y
            .iter()
            .zip(&expect)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / y.len() as f64;
        assert!(err.sqrt() < 0.01, "tracking error {}", err.sqrt());
    }

    #[test]
    fn noise_floor_follows_cap_size() {
        let f_ct = 4096.0;
        let x = vec![0.0; 40960];
        let mut small = Sampler::new(537.6, 0.1e-12, 0.0, 3);
        let mut large = Sampler::new(537.6, 10e-12, 0.0, 3);
        let ys = small.sample(&x, f_ct);
        let yl = large.sample(&x, f_ct);
        let ratio = std_dev(&ys) / std_dev(&yl);
        assert!(
            (ratio - 10.0).abs() < 1.5,
            "noise ratio {ratio} (expect 10)"
        );
    }

    #[test]
    fn jitter_degrades_fast_signals_only() {
        let f_ct = 65536.0;
        let x_fast = sine(65536, f_ct, 200.0, 1.0, 0.0);
        let jitter = 100e-6; // deliberately huge for visibility
        let mut jittered = Sampler::new(537.6, 1e-9, jitter, 5);
        let y = jittered.sample(&x_fast, f_ct);
        let clean = sine(y.len(), 537.6, 200.0, 1.0, 0.0);
        let err: Vec<f64> = y.iter().zip(&clean).map(|(a, b)| a - b).collect();
        // Predicted jitter error rms ≈ 2π·f·σ_t·A/√2.
        let predicted = std::f64::consts::TAU * 200.0 * jitter / 2f64.sqrt();
        let measured = std_dev(&err);
        assert!(
            (measured / predicted - 1.0).abs() < 0.4,
            "{measured} vs {predicted}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let x = sine(8192, 8192.0, 20.0, 1.0, 0.0);
        let mut a = Sampler::new(537.6, 1e-12, 1e-6, 11);
        let mut b = Sampler::new(537.6, 1e-12, 1e-6, 11);
        assert_eq!(a.sample(&x, 8192.0), b.sample(&x, 8192.0));
    }

    #[test]
    #[should_panic(expected = "capacitor")]
    fn rejects_zero_cap() {
        let _ = Sampler::new(537.6, 0.0, 0.0, 0);
    }

    #[test]
    fn noop_clock_fault_is_bit_identical_to_clean() {
        let x = sine(8192, 8192.0, 20.0, 1.0, 0.0);
        let mut clean = Sampler::new(537.6, 1e-12, 1e-6, 11);
        let mut faulted = Sampler::new(537.6, 1e-12, 1e-6, 11);
        faulted.inject_clock_fault(
            Some(ClockFault {
                jitter_periods: 0.0,
                drop_prob: 0.0,
            }),
            99,
        );
        assert_eq!(clean.sample(&x, 8192.0), faulted.sample(&x, 8192.0));
    }

    #[test]
    fn certain_drops_hold_the_initial_value() {
        let x = sine(8192, 8192.0, 20.0, 1.0, 0.0);
        let mut s = Sampler::new(537.6, 1e-12, 0.0, 11);
        s.inject_clock_fault(
            Some(ClockFault {
                jitter_periods: 0.0,
                drop_prob: 1.0,
            }),
            7,
        );
        let y = s.sample(&x, 8192.0);
        // lint:allow(float-eq) — the held value is bit-exactly the initial 0.0
        assert!(y.iter().all(|&v| v == 0.0), "every sample dropped → held 0");
    }

    #[test]
    fn drops_conceal_without_changing_length() {
        let x = sine(8192, 8192.0, 20.0, 1.0, 0.0);
        let mut clean = Sampler::new(537.6, 1e-9, 0.0, 11);
        let mut lossy = Sampler::new(537.6, 1e-9, 0.0, 11);
        lossy.inject_clock_fault(
            Some(ClockFault {
                jitter_periods: 0.0,
                drop_prob: 0.3,
            }),
            7,
        );
        let yc = clean.sample(&x, 8192.0);
        let yl = lossy.sample(&x, 8192.0);
        assert_eq!(yc.len(), yl.len());
        let repeats = yl.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(repeats > yl.len() / 10, "held samples visible: {repeats}");
    }

    #[test]
    fn fault_jitter_degrades_like_intrinsic_jitter() {
        let f_ct = 65536.0;
        let x_fast = sine(65536, f_ct, 200.0, 1.0, 0.0);
        let mut s = Sampler::new(537.6, 1e-9, 0.0, 5);
        // 0.05 sample periods at 537.6 Hz ≈ 93 µs RMS.
        s.inject_clock_fault(
            Some(ClockFault {
                jitter_periods: 0.05,
                drop_prob: 0.0,
            }),
            5,
        );
        let y = s.sample(&x_fast, f_ct);
        let clean = sine(y.len(), 537.6, 200.0, 1.0, 0.0);
        let err: Vec<f64> = y.iter().zip(&clean).map(|(a, b)| a - b).collect();
        let sigma_t = 0.05 / 537.6;
        let predicted = std::f64::consts::TAU * 200.0 * sigma_t / 2f64.sqrt();
        let measured = std_dev(&err);
        assert!(
            (measured / predicted - 1.0).abs() < 0.4,
            "{measured} vs {predicted}"
        );
    }

    #[test]
    fn installed_zero_severity_clock_fault_is_bit_identical_to_clean() {
        let x = sine(8192, 8192.0, 20.0, 1.0, 0.0);
        let mut clean = Sampler::new(537.6, 1e-12, 1e-6, 11);
        let mut armed = Sampler::new(537.6, 1e-12, 1e-6, 11);
        armed.install_clock_fault(
            ClockFault {
                jitter_periods: 0.0,
                drop_prob: 0.0,
            },
            99,
        );
        assert_eq!(clean.sample(&x, 8192.0), armed.sample(&x, 8192.0));
    }

    #[test]
    fn set_clock_fault_params_preserves_stream_positions() {
        let noop = ClockFault {
            jitter_periods: 0.0,
            drop_prob: 0.0,
        };
        let hot = ClockFault {
            jitter_periods: 0.1,
            drop_prob: 0.3,
        };
        let x = sine(16384, 8192.0, 20.0, 1.0, 0.0);
        // Whole-buffer and split paths flip params at the same output
        // sample; outputs must match bit-exactly.
        let mut whole = Sampler::new(537.6, 1e-12, 0.0, 11);
        whole.install_clock_fault(noop, 42);
        let mut y_whole = whole.sample(&x[..8192], 8192.0);
        whole.set_clock_fault_params(hot);
        y_whole.extend(whole.sample(&x[8192..], 8192.0));

        let mut split = Sampler::new(537.6, 1e-12, 0.0, 11);
        split.install_clock_fault(noop, 42);
        let mut y_split = split.sample(&x[..8192], 8192.0);
        split.set_clock_fault_params(hot);
        y_split.extend(split.sample(&x[8192..], 8192.0));
        assert_eq!(y_whole, y_split);
        // The hot phase actually drops conversions (held repeats appear).
        let repeats = y_whole[537..].windows(2).filter(|w| w[0] == w[1]).count();
        assert!(repeats > 50, "held samples visible: {repeats}");
    }

    #[test]
    fn stalled_runs_resume_where_they_stopped() {
        // A stream's input arrives in pieces: a run stops at the first
        // instant whose input is missing and resumes there. With and
        // without aperture jitter (one-sample blocks), the pieces match
        // one whole-record call.
        let x = sine(16384, 8192.0, 20.0, 1.0, 0.0);
        let fault = Some(ClockFault {
            jitter_periods: 0.1,
            drop_prob: 0.2,
        });
        for jitter_s in [0.0, 1e-6] {
            let mut whole = Sampler::new(537.6, 1e-12, jitter_s, 11);
            whole.inject_clock_fault(fault, 42);
            let y_whole = whole.sample(&x, 8192.0);

            let mut pieces = Sampler::new(537.6, 1e-12, jitter_s, 11);
            pieces.inject_clock_fault(fault, 42);
            let mut hold = HoldState::default();
            let (mut i, mut y) = (0, Vec::new());
            for avail in (1000..x.len()).step_by(1000).chain([x.len()]) {
                let seen = &x[..avail];
                let interp = |t: f64| {
                    (avail == x.len() || t * 8192.0 < (avail - 1) as f64)
                        .then(|| sample_at(seen, 8192.0, t))
                };
                i = pieces.acquire_run(i, y_whole.len() as u64, &mut hold, true, interp, &mut y);
            }
            assert_eq!(y, y_whole, "jitter {jitter_s}");
        }
    }

    #[test]
    fn clock_fault_deterministic_per_seed() {
        let x = sine(8192, 8192.0, 20.0, 1.0, 0.0);
        let fault = ClockFault {
            jitter_periods: 0.1,
            drop_prob: 0.2,
        };
        let mut a = Sampler::new(537.6, 1e-12, 0.0, 11);
        let mut b = Sampler::new(537.6, 1e-12, 0.0, 11);
        a.inject_clock_fault(Some(fault), 42);
        b.inject_clock_fault(Some(fault), 42);
        assert_eq!(a.sample(&x, 8192.0), b.sample(&x, 8192.0));
    }
}
