//! # efficsense-rng
//!
//! Seeded, reproducible pseudo-random numbers for the EffiCSense workspace.
//!
//! Every stochastic component of the framework — sensing matrices, synthetic
//! EEG records, classifier initialisation, Monte-Carlo property tests —
//! must be reproducible from an explicit `u64` seed so that sweeps, paper
//! figures and CI runs are bit-identical across machines. This crate is the
//! single source of randomness: a std-only xoshiro256++ generator seeded
//! through SplitMix64, plus the handful of derived draws the workspace needs
//! (uniform ranges, ziggurat normals, Fisher–Yates shuffles).
//!
//! By construction there is **no** `thread_rng`/`from_entropy`-style
//! OS-entropy constructor: the only way to obtain a [`Rng64`] is from a seed.
//! `cargo xtask lint` rule `seeded-rng` enforces the same property at the
//! source level for any future dependency.
//!
//! ## Example
//!
//! ```
//! use efficsense_rng::Rng64;
//! let mut a = Rng64::new(42);
//! let mut b = Rng64::new(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! let u = a.uniform(-1.0, 1.0);
//! assert!((-1.0..1.0).contains(&u));
//! ```
#![deny(missing_docs)]
#![deny(unsafe_code)]

/// The SplitMix64 increment, `2^64 / φ` rounded to odd. Stepping a counter
/// by it and finalising each step with [`mix64`] is SplitMix64; multiplying
/// a small index by it spreads neighbouring indices across the word.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finaliser (Stafford's variant 13): a bijective avalanche
/// of one word, so neighbouring inputs give unrelated outputs. Derived
/// seeds are built from it so that nearby salts decorrelate.
#[must_use]
pub fn mix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded xoshiro256++ pseudo-random number generator.
///
/// xoshiro256++ (Blackman & Vigna, 2019) passes BigCrush, has a 2^256 − 1
/// period and needs only a few xor/rotate/add operations per draw. The
/// 256-bit state is expanded from the `u64` seed with SplitMix64, the
/// initialisation recommended by the authors (it guarantees a non-zero state
/// for every seed, including 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Creates a generator deterministically from `seed`.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 stream to fill the 256-bit state.
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(GOLDEN_GAMMA);
            mix64(x)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        step(&mut self.s)
    }

    /// A uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        // Top 53 bits scaled by 2^-53 — the standard double construction.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw in the *open* interval `(0, 1)` — safe under `ln()`.
    pub fn open01(&mut self) -> f64 {
        // Offset by half an ulp of the 2^-53 grid so 0 is unreachable.
        ((self.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not finite or `lo > hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "bad uniform bounds [{lo}, {hi})"
        );
        lo + (hi - lo) * self.f64()
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot draw an index from an empty range");
        // Lemire-style widening multiply keeps the bias below 2^-64.
        let r = self.next_u64() as u128;
        ((r * n as u128) >> 64) as usize
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty integer range [{lo}, {hi})");
        lo + self.index(hi - lo)
    }

    /// A fair coin flip.
    pub fn flip(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// Bernoulli draw: `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// A standard-normal draw via the Marsaglia–Tsang ziggurat (128 layers).
    ///
    /// The common case (≈98.9% of draws) consumes one raw `u64` and performs
    /// a table lookup, a multiply and a compare — roughly an order of
    /// magnitude cheaper than Box–Muller's `ln`/`sqrt`/`cos` per sample,
    /// which dominated the simulator's analog front end. Edge layers fall
    /// back to an exact rejection test and the `|x| > r` tail uses
    /// Marsaglia's exponential-rejection scheme, so the distribution is
    /// exact, not truncated. Draws stay bit-reproducible per seed, but the
    /// number of raw `u64`s consumed per call varies (rejection sampling).
    pub fn normal(&mut self) -> f64 {
        let t = zig_tables();
        loop {
            let (i, u, x) = zig_candidate(step(&mut self.s), t);
            if x.abs() < t.x[i + 1] {
                return x; // strictly inside the layer: accept immediately
            }
            if let Some(x) = self.zig_edge(i, u, x) {
                return x;
            }
        }
    }

    /// Fills `out` with standard-normal draws: exactly the values, in
    /// order, that `out.len()` calls of [`Rng64::normal`] return, leaving
    /// the generator in the same state.
    ///
    /// Per-sample block models draw their noise through this in blocks: the
    /// generator state and the ziggurat tables stay in registers across
    /// the loop instead of crossing a call per draw, and only the rare edge
    /// layers and the tail leave it.
    pub fn fill_normal(&mut self, out: &mut [f64]) {
        let t = zig_tables();
        let mut s = self.s;
        for o in out {
            *o = loop {
                let (i, u, x) = zig_candidate(step(&mut s), t);
                if x.abs() < t.x[i + 1] {
                    break x;
                }
                self.s = s;
                let edge = self.zig_edge(i, u, x);
                s = self.s;
                if let Some(x) = edge {
                    break x;
                }
            };
        }
        self.s = s;
    }

    /// The rare paths of the ziggurat, after candidate `x` (layer `i`,
    /// uniform `u`) fell outside its layer's rectangle: the analytic tail
    /// beyond `r` for the base layer, the exact wedge test for the others.
    /// `None` rejects the candidate; the caller draws a fresh one.
    #[cold]
    #[inline(never)]
    fn zig_edge(&mut self, i: usize, u: f64, x: f64) -> Option<f64> {
        if i == 0 {
            // Base layer overflow: sample the analytic tail beyond r.
            loop {
                let xt = -self.open01().ln() * (1.0 / ZIG_R);
                let yt = -self.open01().ln();
                if yt + yt >= xt * xt {
                    return Some(if u < 0.0 { -(ZIG_R + xt) } else { ZIG_R + xt });
                }
            }
        }
        // Wedge between the layer boundary and the density curve.
        let t = zig_tables();
        (t.y[i + 1] + (t.y[i] - t.y[i + 1]) * self.f64() < (-0.5 * x * x).exp()).then_some(x)
    }

    /// Fisher–Yates shuffle of `xs` in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

/// One xoshiro256++ step of state `s`: the output word, then the state
/// advance.
#[inline(always)]
fn step(s: &mut [u64; 4]) -> u64 {
    let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
    result
}

/// The ziggurat candidate of raw draw `z`: layer `i` from the low 7 bits,
/// a uniform `u` in `[-1, 1)` from the top 53 (so the two are independent),
/// and `x = u · x[i]`.
#[inline(always)]
fn zig_candidate(z: u64, t: &ZigTables) -> (usize, f64, f64) {
    let i = (z & 0x7F) as usize;
    let u = 2.0 * ((z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) - 1.0;
    (i, u, u * t.x[i])
}

/// Number of ziggurat layers; the layer index consumes the low 7 bits of a
/// raw draw.
const ZIG_N: usize = 128;
/// Rightmost layer edge `r` for the 128-layer standard-normal ziggurat.
const ZIG_R: f64 = 3.442_619_855_899;
/// Common layer area `v` for the 128-layer standard-normal ziggurat.
const ZIG_V: f64 = 9.912_563_035_262_17e-3;

/// Precomputed layer edges `x[i]` (decreasing) and densities `y[i] =
/// exp(-x[i]²/2)` for [`Rng64::normal`]. `x[0]` is the *virtual* width of the
/// base layer (area `v` includes the tail), `x[ZIG_N] = 0` caps the top.
struct ZigTables {
    x: [f64; ZIG_N + 1],
    y: [f64; ZIG_N + 1],
}

fn zig_tables() -> &'static ZigTables {
    static TABLES: std::sync::OnceLock<ZigTables> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let f = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; ZIG_N + 1];
        let mut y = [0.0; ZIG_N + 1];
        x[0] = ZIG_V / f(ZIG_R);
        y[0] = 1.0; // layer 0 never runs the wedge test (tail instead)
        x[1] = ZIG_R;
        y[1] = f(ZIG_R);
        // Each layer has area v: f(x[i]) = f(x[i-1]) + v/x[i-1].
        for i in 2..ZIG_N {
            let fy = y[i - 1] + ZIG_V / x[i - 1];
            x[i] = (-2.0 * fy.ln()).sqrt();
            y[i] = fy;
        }
        x[ZIG_N] = 0.0;
        y[ZIG_N] = 1.0;
        ZigTables { x, y }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng64::new(7);
        let mut b = Rng64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng64::new(8);
        assert_ne!(Rng64::new(7).next_u64(), c.next_u64());
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut g = Rng64::new(0);
        let draws: Vec<u64> = (0..8).map(|_| g.next_u64()).collect();
        assert!(
            draws.iter().any(|&d| d != 0),
            "state must not collapse for seed 0"
        );
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut g = Rng64::new(1);
        for _ in 0..10_000 {
            let v = g.f64();
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn open01_never_zero() {
        let mut g = Rng64::new(2);
        for _ in 0..10_000 {
            let v = g.open01();
            assert!(v > 0.0 && v < 1.0, "{v}");
        }
    }

    #[test]
    fn uniform_respects_bounds_and_mean() {
        let mut g = Rng64::new(3);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = g.uniform(-2.0, 6.0);
            assert!((-2.0..6.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn index_is_roughly_uniform() {
        let mut g = Rng64::new(4);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[g.index(10)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((8_000..12_000).contains(&c), "bucket {i}: {c}");
        }
    }

    #[test]
    fn range_stays_in_bounds() {
        let mut g = Rng64::new(5);
        for _ in 0..10_000 {
            let v = g.range(3, 17);
            assert!((3..17).contains(&v));
        }
    }

    #[test]
    fn normal_moments() {
        let mut g = Rng64::new(6);
        let n = 200_000;
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for _ in 0..n {
            let v = g.normal();
            sum += v;
            sumsq += v * v;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn normal_reaches_the_tail_both_sides() {
        // The ziggurat tail path (|x| > r ≈ 3.44) must be reachable and
        // signed; ~5.8e-4 of draws land there, so 100k draws see ~60.
        let mut g = Rng64::new(12);
        let (mut lo, mut hi) = (0.0f64, 0.0f64);
        for _ in 0..100_000 {
            let v = g.normal();
            lo = lo.min(v);
            hi = hi.max(v);
        }
        assert!(hi > ZIG_R, "max draw {hi} never escaped the layers");
        assert!(lo < -ZIG_R, "min draw {lo} never escaped the layers");
    }

    #[test]
    fn normal_tail_mass_matches_the_gaussian() {
        // P(|X| > 2) = 2Φ(-2) ≈ 0.0455 — a wedge/tail bookkeeping error
        // (e.g. a mis-built table) would skew this immediately.
        let mut g = Rng64::new(13);
        let n = 200_000;
        let beyond = (0..n).filter(|_| g.normal().abs() > 2.0).count();
        let frac = beyond as f64 / n as f64;
        assert!((frac - 0.0455).abs() < 0.004, "P(|X|>2) ≈ {frac}");
    }

    #[test]
    fn fill_normal_equals_repeated_normal() {
        // 4000 draws at this seed take both rare paths: the tail (|x| > r)
        // and the wedge test (a draw inside the layers that consumed more
        // than one raw word).
        let n = 4000;
        let mut one = Rng64::new(3);
        let mut block = one.clone();
        let mut filled = vec![0.0; n];
        let mut at = 0;
        for len in [0, 1, 7, 256, 0, 1000, 3] {
            block.fill_normal(&mut filled[at..at + len]);
            at += len;
        }
        block.fill_normal(&mut filled[at..]);
        let (mut tails, mut wedges) = (0, 0);
        for (k, &f) in filled.iter().enumerate() {
            let before = one.clone();
            let x = one.normal();
            assert_eq!(x.to_bits(), f.to_bits(), "draw {k}");
            let mut probe = before;
            let mut words = 0;
            while probe != one {
                probe.next_u64();
                words += 1;
            }
            if x.abs() > ZIG_R {
                tails += 1;
            } else if words > 1 {
                wedges += 1;
            }
        }
        assert_eq!(one, block, "both generators end in the same state");
        assert!(tails > 0 && wedges > 0, "tails {tails}, wedges {wedges}");
    }

    #[test]
    fn flip_is_fair() {
        let mut g = Rng64::new(9);
        let heads = (0..100_000).filter(|_| g.flip()).count();
        assert!((48_000..52_000).contains(&heads), "{heads}");
    }

    #[test]
    fn chance_frequency() {
        let mut g = Rng64::new(10);
        let hits = (0..100_000).filter(|_| g.chance(0.25)).count();
        assert!((hits as f64 / 100_000.0 - 0.25).abs() < 0.01);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut g = Rng64::new(11);
        let mut xs: Vec<usize> = (0..100).collect();
        g.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..100).collect::<Vec<_>>(),
            "100 elements should not shuffle to identity"
        );
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn index_rejects_zero() {
        let _ = Rng64::new(0).index(0);
    }
}
