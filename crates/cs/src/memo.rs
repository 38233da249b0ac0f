//! Process-wide memoization of sensing matrices and decoder precomputations.
//!
//! A design-space product sweep instantiates thousands of simulators, but
//! only a handful of *distinct* sensing configurations: every point sharing
//! `(M, N_Φ, s, seed)` uses the same Φ, the same effective dictionary
//! `A = Φ_eff·Ψ` and the same OMP column norms. Rebuilding them per point
//! dominated cold-sweep time (the amortization lever of the fast BSBL /
//! CS-telemonitoring literature), so this module caches them once per key in
//! unbounded global [`Store`]s (counting under `memo.{srbm,dict}.*`) and
//! hands out `Arc`s. The sparsifying basis Ψ is not cached: it is built once
//! per dictionary build, which the dictionary store already amortizes.
//!
//! Everything here is *derived deterministically from its key*, so memoized
//! artifacts are bit-identical to freshly built ones — callers may switch
//! between [`DictionaryArtifacts::build`] and [`dictionary`] freely without
//! perturbing results. Floating-point key components are compared by their
//! IEEE-754 bit patterns (no epsilon): two keys are "the same configuration"
//! only when they would produce bit-identical artifacts.

use crate::basis::Basis;
use crate::linalg::Matrix;
use crate::matrix::SensingMatrix;
use efficsense_obs::Store;
use std::sync::{Arc, OnceLock};

/// Hit/miss/occupancy counters of one memoization store.
pub use efficsense_obs::StoreStats;

/// Counters of every store in this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Sensing-matrix store.
    pub srbm: StoreStats,
    /// Decoder-dictionary store.
    pub dictionary: StoreStats,
}

type SrbmKey = (usize, usize, usize, u64);
/// `(m, n_phi, s, seed, c_sample bits, c_hold bits, decay bits, basis)`.
type DictKey = (usize, usize, usize, u64, u64, u64, u64, Basis);

fn srbm_store() -> &'static Store<SrbmKey, SensingMatrix> {
    static STORE: OnceLock<Store<SrbmKey, SensingMatrix>> = OnceLock::new();
    STORE.get_or_init(|| Store::unbounded("memo.srbm"))
}

fn dict_store() -> &'static Store<DictKey, DictionaryArtifacts> {
    static STORE: OnceLock<Store<DictKey, DictionaryArtifacts>> = OnceLock::new();
    STORE.get_or_init(|| Store::unbounded("memo.dict"))
}

/// Memoized [`SensingMatrix::srbm`]: one shared instance per
/// `(m, n, s, seed)`.
///
/// # Panics
///
/// Panics on the same invalid-schedule conditions as
/// [`SensingMatrix::srbm`].
pub fn srbm(m: usize, n: usize, s: usize, seed: u64) -> Arc<SensingMatrix> {
    srbm_store().get_or_insert_with((m, n, s, seed), || SensingMatrix::srbm(m, n, s, seed))
}

/// Everything the charge-sharing decoder precomputes per design point:
/// the effective dictionary, its OMP column norms, and the mean row energy
/// of the effective matrix (the discrepancy-rule noise gain). Built by
/// [`DictionaryArtifacts::new`] from the sensing matrix and the basis.
#[derive(Debug, Clone, PartialEq)]
pub struct DictionaryArtifacts {
    /// Decoder dictionary `A = Φ_eff·Ψ`.
    pub dictionary: Matrix,
    /// `‖A·,j‖₂.max(1e-300)` per column — the normalised-correlation
    /// denominators OMP would otherwise recompute per frame.
    pub col_norms: Vec<f64>,
    /// Gram matrix `G = AᵀA`, built once per design point so the fast OMP
    /// path can update correlations as `Aᵀr = Aᵀy − G[:,S]·x_S` and grow a
    /// support Cholesky factor without ever rebuilding `A_S`.
    pub gram: Matrix,
    /// Ridge added to the support Gram diagonal by the fast decoder, fixed
    /// per dictionary with the same scale rule as
    /// [`least_squares`](crate::linalg::least_squares):
    /// `1e-12·(‖G‖_F / n).max(1e-300)`.
    pub ridge: f64,
    /// Transposed dictionary `Aᵀ` — row `j` is atom `j`, contiguous, so the
    /// fast decoder's `Aᵀy` dots and residual axpys stream cache lines
    /// instead of walking `A` with an `n`-element stride.
    pub dict_t: Matrix,
    /// Transposed synthesis operator `Ψᵀ` — row `k` is basis atom `k`. The
    /// fast decoder synthesizes `x̂ = Σ_k ŝ_k·Ψ[:,k]` over the ≤`k` nonzero
    /// coefficients (O(k·n)) instead of running the dense O(n²) transform
    /// (which for the DCT also pays a `cos()` per matrix element, per frame).
    pub synth_t: Matrix,
    /// Mean over rows of `Σ_j w_rj²` of the sensing matrix the dictionary
    /// was built from.
    pub mean_row_w2: f64,
}

/// Identifies one decoder-dictionary configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DictionaryParams {
    /// Measurements per frame.
    pub m: usize,
    /// Frame length `N_Φ`.
    pub n_phi: usize,
    /// Sensing-matrix column sparsity.
    pub s: usize,
    /// Sensing-matrix seed (already mixed by the caller).
    pub seed: u64,
    /// Sampling capacitor (F).
    pub c_sample_f: f64,
    /// Hold capacitor (F).
    pub c_hold_f: f64,
    /// Per-step hold-droop factor folded into the effective matrix.
    pub decay: f64,
    /// Sparsifying basis Ψ.
    pub basis: Basis,
}

impl DictionaryParams {
    fn key(&self) -> DictKey {
        (
            self.m,
            self.n_phi,
            self.s,
            self.seed,
            self.c_sample_f.to_bits(),
            self.c_hold_f.to_bits(),
            self.decay.to_bits(),
            self.basis,
        )
    }
}

impl DictionaryArtifacts {
    /// Builds every decoder precomputation for the sensing matrix `sensing`
    /// (the effective `Φ_eff` the decoder inverts, `m × n`) in `basis`:
    /// the dictionary `A = Φ_eff·Ψ` with `Ψ = basis.matrix(n)`, the mean
    /// row energy of `sensing`, the column norms, the Gram matrix and its
    /// ridge, and the transposed operators `Aᵀ` and `Ψᵀ`. Every decoder
    /// dictionary is multiplied out here, so `A` always comes from the Ψ
    /// the decoder synthesizes with, and the noise gain is always that of
    /// `sensing`.
    #[must_use]
    pub fn new(sensing: &Matrix, basis: Basis) -> Self {
        let psi = basis.matrix(sensing.cols());
        let dictionary = sensing.matmul(&psi);
        let mean_row_w2 = (0..sensing.rows())
            .map(|r| sensing.row(r).iter().map(|w| w * w).sum::<f64>())
            .sum::<f64>()
            / sensing.rows() as f64;
        let col_norms: Vec<f64> = dictionary
            .col_norms()
            .into_iter()
            .map(|n| n.max(1e-300))
            .collect();
        let _gram_span = efficsense_obs::span!("recon.gram");
        let gram = dictionary.gram();
        let ridge = 1e-12 * (gram.frobenius_norm() / gram.rows() as f64).max(1e-300);
        let dict_t = dictionary.transpose();
        let synth_t = psi.transpose();
        Self {
            dictionary,
            col_norms,
            gram,
            ridge,
            dict_t,
            synth_t,
            mean_row_w2,
        }
    }

    /// Builds the artifacts of one keyed configuration from scratch (no
    /// memoization) — the reference computation that [`dictionary`]
    /// caches. Exposed so benchmarks can measure the per-build cost the
    /// memo store amortizes away.
    ///
    /// # Panics
    ///
    /// Panics on invalid sensing-schedule or capacitor parameters, exactly
    /// as the underlying constructors do.
    #[must_use]
    pub fn build(p: &DictionaryParams) -> Self {
        Self::new(
            &crate::charge_sharing::effective_matrix_decayed(
                &srbm(p.m, p.n_phi, p.s, p.seed),
                p.c_sample_f,
                p.c_hold_f,
                p.decay,
            ),
            p.basis,
        )
    }
}

/// Memoized decoder-dictionary artifacts: one shared instance per
/// [`DictionaryParams`] (keyed by exact float bit patterns).
///
/// # Panics
///
/// Panics on the same invalid parameters as [`DictionaryArtifacts::build`].
pub fn dictionary(p: &DictionaryParams) -> Arc<DictionaryArtifacts> {
    dict_store().get_or_insert_with(p.key(), || DictionaryArtifacts::build(p))
}

/// Current counters of every store.
#[must_use]
pub fn stats() -> MemoStats {
    MemoStats {
        srbm: srbm_store().stats(),
        dictionary: dict_store().stats(),
    }
}

/// Zeroes the hit/miss counters (entries stay cached).
pub fn reset_stats() {
    srbm_store().reset_stats();
    dict_store().reset_stats();
}

/// Drops every cached artifact and zeroes the counters. Benchmarks call
/// this to measure genuinely cold builds; correctness never depends on it.
pub fn clear() {
    srbm_store().clear();
    dict_store().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(seed: u64) -> DictionaryParams {
        DictionaryParams {
            m: 12,
            n_phi: 32,
            s: 2,
            seed,
            c_sample_f: 0.1e-12,
            c_hold_f: 1e-12,
            decay: 0.999,
            basis: Basis::Dct,
        }
    }

    #[test]
    fn srbm_memo_matches_fresh_and_shares_storage() {
        let seed = 0xA110_C8ED_0001;
        let a = srbm(8, 24, 2, seed);
        let b = srbm(8, 24, 2, seed);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one instance");
        assert_eq!(*a, SensingMatrix::srbm(8, 24, 2, seed));
        let c = srbm(8, 24, 2, seed ^ 1);
        assert_ne!(*a, *c, "different seeds must not collide");
    }

    #[test]
    fn dictionary_memo_is_bit_identical_to_fresh_build() {
        let p = params(0xA110_C8ED_0002);
        let memoized = dictionary(&p);
        let fresh = DictionaryArtifacts::build(&p);
        assert_eq!(*memoized, fresh);
        assert_eq!(memoized.dictionary.cols(), memoized.col_norms.len());
        assert!(memoized.mean_row_w2 > 0.0);
        assert!(Arc::ptr_eq(&memoized, &dictionary(&p)));
    }

    #[test]
    fn dictionary_keys_separate_float_parameters() {
        let p = params(0xA110_C8ED_0003);
        let a = dictionary(&p);
        let b = dictionary(&DictionaryParams { decay: 0.998, ..p });
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.dictionary, b.dictionary);
        let c = dictionary(&DictionaryParams {
            c_hold_f: 2e-12,
            ..p
        });
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn stats_count_hits_and_misses() {
        // Unique key so parallel tests cannot have inserted it already.
        let p = params(0xA110_C8ED_0004);
        let before = stats().dictionary;
        let _ = dictionary(&p);
        let _ = dictionary(&p);
        let after = stats().dictionary;
        assert!(after.misses > before.misses, "first call must miss");
        assert!(after.hits > before.hits, "second call must hit");
        assert!(after.entries >= 1);
        assert!(after.hit_rate() > 0.0);
    }

    #[test]
    fn hit_rate_of_idle_store_is_zero() {
        assert_eq!(StoreStats::default().hit_rate(), 0.0);
    }
}
