//! Sample-rate conversion.
//!
//! EffiCSense represents the sensor input on a dense "continuous-time proxy"
//! grid and lets samplers pick values off it at arbitrary instants; this
//! module provides the conversions between the dataset rate, the proxy rate
//! and block sample rates.
//!
//! [`Track`] is the workspace's one linear-interpolation kernel: the
//! streaming simulator reads its growing, pruned buffers through it, and
//! [`sample_at`] and [`resample_linear`] are thin wrappers over a
//! [`Track::whole`] view. Per-sample positions and indices go through
//! signed casts (`i64`), which are exact here (indices stay below 2^53)
//! and, unlike the unsigned ones, need no fix-up sequence on baseline
//! x86-64.

/// A read view of a signal addressed by *absolute* sample index: `buf[0]`
/// is sample `base`, and `first` is sample 0, kept so the `t <= 0` edge
/// clamp survives pruning. Instants before the record read its first
/// sample and instants at or past its last sample read the last one; on a
/// growing signal that end clamp resolves only once the signal is
/// `finished`.
#[derive(Debug, Clone, Copy)]
pub struct Track<'a> {
    /// Absolute index of `buf[0]`.
    pub base: u64,
    /// The samples held, from absolute index `base` on.
    pub buf: &'a [f64],
    /// Sample 0, the value of every instant `t <= 0`.
    pub first: f64,
}

impl<'a> Track<'a> {
    /// A whole signal held in memory.
    pub fn whole(buf: &'a [f64]) -> Self {
        Self {
            base: 0,
            buf,
            first: buf.first().copied().unwrap_or(0.0),
        }
    }

    /// Samples in the signal so far, pruned ones included.
    pub fn len(&self) -> u64 {
        self.base + self.buf.len() as u64
    }

    /// Whether the signal has no samples yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether position `pos > 0` (in samples) lies before the last sample.
    /// It is decided on the truncated index, which for every non-NaN
    /// position equals `pos < len − 1`; the cast saturates, so `+∞` lands
    /// on the end clamp.
    fn before_last(&self, pos: f64) -> bool {
        (pos as i64) < self.len() as i64 - 1
    }

    /// Interpolation at `pos` samples for `0 < pos < len − 1`. Readers of
    /// a pruned view keep `pos >= base`; the saturating clamp only keeps
    /// the accessor total.
    fn interior(&self, pos: f64) -> f64 {
        // `pos > 0`, so truncation is a floor without a libm call.
        let i = pos as i64;
        let frac = pos - i as f64;
        let j = (i as u64).saturating_sub(self.base) as usize;
        self.buf[j] * (1.0 - frac) + self.buf[j + 1] * frac
    }

    /// The signal (rate `fs`) at `t` seconds, or `None` while the
    /// interpolation neighbourhood could still change.
    pub fn interp_at(&self, fs: f64, t: f64, finished: bool) -> Option<f64> {
        let pos = t * fs;
        if self.is_empty() {
            None
        } else if pos <= 0.0 {
            Some(self.first)
        } else if self.before_last(pos) {
            Some(self.interior(pos))
        } else {
            finished.then(|| self.buf[self.buf.len() - 1])
        }
    }

    /// Resamples the signal (rate `fs`) onto an `f_out` grid, output `k` at
    /// `k / f_out` seconds: the final values of outputs `next..end` — the
    /// interior ones, then, once `finished`, the end-clamped tail — and the
    /// index after the last. The fixed-grid form of [`Track::interp_at`],
    /// as one exact-length iterator.
    pub fn resample(
        self,
        fs: f64,
        f_out: f64,
        next: u64,
        end: u64,
        finished: bool,
    ) -> (u64, impl Iterator<Item = f64> + 'a) {
        let total = self.len();
        let pos = move |k: u64| k as i64 as f64 / f_out * fs;
        let interior = |k: u64| total > 0 && (k == 0 || self.before_last(pos(k)));
        let estimate = (total.saturating_sub(1) as f64 / fs * f_out).ceil() as u64;
        let mut stop = estimate.clamp(next, end.max(next));
        while stop > next && !interior(stop - 1) {
            stop -= 1;
        }
        while stop < end && interior(stop) {
            stop += 1;
        }
        let tail_end = if finished && total > 0 { end } else { stop };
        let last = self.buf.last().copied().unwrap_or(self.first);
        let values = (next..stop)
            .map(move |k| {
                let p = pos(k);
                if p <= 0.0 {
                    self.first
                } else {
                    self.interior(p)
                }
            })
            .chain((stop..tail_end).map(move |_| last));
        (tail_end.max(next), values)
    }
}

/// Linearly interpolates `x` (sampled at `fs_in`) at time `t` seconds.
///
/// Values outside the record are clamped to the edge samples.
///
/// # Panics
///
/// Panics if `x` is empty.
pub fn sample_at(x: &[f64], fs_in: f64, t: f64) -> f64 {
    assert!(!x.is_empty(), "cannot sample an empty signal");
    // A whole non-empty record resolves every instant.
    Track::whole(x)
        .interp_at(fs_in, t, true)
        .unwrap_or_default()
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
    let n_out = (duration * fs_out).round() as u64;
    Track::whole(x)
        .resample(fs_in, fs_out, 0, n_out, true)
        .1
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
    fn sample_at_clamps_instants_past_any_index() {
        // `t · fs` beyond every integer index, infinity included.
        let x = vec![3.0, 5.0, 7.0];
        assert_eq!(sample_at(&x, 100.0, f64::INFINITY), 7.0);
        assert_eq!(sample_at(&x, 100.0, 1e30), 7.0);
        assert_eq!(sample_at(&x, 100.0, f64::NEG_INFINITY), 3.0);
    }

    #[test]
    fn track_reads_a_pruned_signal_like_the_whole_one() {
        let x: Vec<f64> = (0..64).map(|i| f64::from(i).sin()).collect();
        let pruned = Track {
            base: 40,
            buf: &x[40..],
            first: x[0],
        };
        let whole = Track::whole(&x);
        // The pruned view serves `t <= 0` and instants from sample 40 on.
        for t in [-1.0, 0.0, 0.63, 0.7, 0.98, 0.99, 2.0] {
            assert_eq!(
                pruned.interp_at(64.0, t, true),
                whole.interp_at(64.0, t, true),
                "t = {t}"
            );
        }
        let (next, tail) = pruned.resample(64.0, 100.0, 70, 110, true);
        let (_, all) = whole.resample(64.0, 100.0, 0, 110, true);
        assert_eq!(next, 110);
        assert_eq!(tail.collect::<Vec<_>>(), all.skip(70).collect::<Vec<_>>());
    }

    #[test]
    fn track_defers_the_end_clamp_until_finished() {
        let x = [1.0, 2.0, 3.0];
        let track = Track::whole(&x);
        assert_eq!(track.interp_at(1.0, 2.5, false), None);
        assert_eq!(track.interp_at(1.0, 2.5, true), Some(3.0));
        let (next, values) = track.resample(1.0, 2.0, 0, 8, false);
        assert_eq!(values.collect::<Vec<_>>(), [1.0, 1.5, 2.0, 2.5]);
        assert_eq!(next, 4);
        assert_eq!(Track::whole(&[]).interp_at(1.0, 0.0, true), None);
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
