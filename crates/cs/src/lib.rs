//! # efficsense-cs
//!
//! Compressive sensing substrate for EffiCSense: sensing matrices (including
//! the paper's s-sparse random binary matrices), the passive charge-sharing
//! multiply-accumulate mathematics of Eq. (1), sparsifying bases (DCT,
//! Haar/Daubechies wavelets), and sparse reconstruction on a small
//! from-scratch dense linear algebra kernel: one OMP decode path
//! ([`decode::reconstruct_batch`]) over decoder artifacts that one
//! constructor builds from a sensing matrix and a basis
//! ([`memo::DictionaryArtifacts::new`]), plus the dense reference solvers
//! it is checked against ([`recon`]).
//!
//! ```
//! use efficsense_cs::{basis::Basis, decode::reconstruct_batch, matrix::SensingMatrix};
//! use efficsense_cs::{memo::DictionaryArtifacts, recon::OmpConfig};
//!
//! let n = 64;
//! let phi = SensingMatrix::srbm(24, n, 2, 42);
//! // A signal that is sparse in the DCT domain.
//! let x: Vec<f64> = (0..n).map(|i| (2.0 * std::f64::consts::PI * 4.0 * i as f64 / n as f64).cos()).collect();
//! let y = phi.apply(&x);
//! // The decoder's precomputations for the dictionary `A = Φ·Ψ`.
//! let art = DictionaryArtifacts::new(&phi.to_dense(), Basis::Dct);
//! let xh = &reconstruct_batch(&art, &[y], &[OmpConfig::with_sparsity(8)], 1)[0];
//! let err: f64 = x.iter().zip(xh).map(|(a, b)| (a - b).powi(2)).sum::<f64>()
//!     / x.iter().map(|a| a * a).sum::<f64>();
//! // A pure cosine is only approximately sparse in the DCT-II basis, so a
//! // few-percent NMSE is the expected recovery quality here.
//! assert!(err < 0.05, "NMSE {err}");
//! ```
#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod basis;
pub mod charge_sharing;
pub mod decode;
pub mod linalg;
pub mod matrix;
pub mod memo;
pub mod recon;

pub use basis::Basis;
pub use linalg::Matrix;
pub use matrix::SensingMatrix;
