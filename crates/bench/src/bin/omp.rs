//! OMP decoder microbench: the dense reference (`recon::omp_with_col_norms`
//! plus dense synthesis, the "naive" path) vs the decode path every CS
//! reconstruction runs (`decode::reconstruct_batch`, the "fast" path), at the
//! sweep's default dictionary scale.
//!
//! Decodes a fixed population of synthetic sparse-plus-noise frames through
//! both, checks the fast path tracks the reference to 1e-6 per sample, and
//! emits `BENCH_omp.json` (decodes/sec per path) for CI trend tracking.
//!
//! Those 8-sparse frames stop early on their residual tolerance. In the
//! product sweep most decode time goes to frames whose discrepancy
//! tolerance cannot be reached, which run to the sparsity cap, so a second
//! population of dense-coefficient frames under 1% noise times both paths
//! in that regime (`naive_capped_`/`fast_capped_decodes_per_s`). The bench
//! asserts that each population stays in its regime, that the fast path
//! tracks the reference on both, and that it is ≥5× the reference on both.
//!
//! Run: `cargo run --release -p efficsense-bench --bin omp`

use efficsense_cs::basis::Basis;
use efficsense_cs::decode::reconstruct_batch;
use efficsense_cs::linalg::norm2;
use efficsense_cs::memo::DictionaryArtifacts;
use efficsense_cs::recon::{omp_with_col_norms, OmpConfig};
use efficsense_cs::SensingMatrix;
use efficsense_dsp::approx::is_zero;
use efficsense_obs::json::Json;
use efficsense_rng::{mix64, GOLDEN_GAMMA};
use std::time::Instant;

/// SplitMix64 avalanche for deterministic frame synthesis.
fn mix(z: u64) -> u64 {
    mix64(z.wrapping_add(GOLDEN_GAMMA))
}

fn unit(seed: u64) -> f64 {
    (mix(seed) >> 11) as f64 / (1u64 << 53) as f64
}

fn main() {
    // The sweep's default CS design point: M=150 measurements over N_Φ=384
    // sample frames, s=2 SRBM, DCT dictionary, OMP sparsity budget 48.
    let m = 150;
    let n = 384;
    let phi = SensingMatrix::srbm(m, n, 2, 0x0B_E7C4).to_dense();
    let art = DictionaryArtifacts::new(&phi, Basis::Dct);
    let cfg = OmpConfig {
        sparsity: 48,
        residual_tol: 1e-3,
    };

    let n_frames = 24usize;
    let frames: Vec<Vec<f64>> = (0..n_frames as u64)
        .map(|f| {
            let mut s = vec![0.0; n];
            for i in 0..8u64 {
                let j = (mix(f ^ (i << 9)) as usize) % n;
                s[j] = 2.0 * unit(f ^ i) - 1.0 + 0.05;
            }
            let mut y = art.dictionary.matvec(&s);
            for (i, v) in y.iter_mut().enumerate() {
                *v += 1e-4 * (2.0 * unit(f ^ 0xA015E ^ ((i as u64) << 20)) - 1.0);
            }
            y
        })
        .collect();
    let cfgs = vec![cfg.clone(); n_frames];

    // Dense coefficients under 1% noise: a tolerance of 1e-4 is out of reach
    // within 48 atoms, so every frame runs to the cap.
    let capped_cfg = OmpConfig {
        sparsity: 48,
        residual_tol: 1e-4,
    };
    let capped: Vec<Vec<f64>> = (0..n_frames as u64)
        .map(|f| {
            let s: Vec<f64> = (0..n as u64)
                .map(|j| (2.0 * unit(f ^ 0xCA9 ^ (j << 12)) - 1.0) / (1.0 + j as f64 / 16.0))
                .collect();
            let mut y = art.dictionary.matvec(&s);
            let scale = 1e-2 * norm2(&y) / (m as f64).sqrt();
            for (i, v) in y.iter_mut().enumerate() {
                *v += scale * (2.0 * unit(f ^ 0x5EED ^ ((i as u64) << 20)) - 1.0);
            }
            y
        })
        .collect();
    let capped_cfgs = vec![capped_cfg.clone(); n_frames];

    // Each population is in its regime: identity-Ψ artifacts over the same
    // dictionary decode to the coefficients, whose count is the number of
    // atoms selected.
    let coeffs = DictionaryArtifacts::new(&art.dictionary, Basis::Identity);
    let atoms = |frames: &[Vec<f64>], cfgs: &[OmpConfig]| -> Vec<usize> {
        reconstruct_batch(&coeffs, frames, cfgs, 1)
            .iter()
            .map(|s| s.iter().filter(|v| !is_zero(**v)).count())
            .collect()
    };
    assert!(
        atoms(&frames, &cfgs).iter().all(|&k| k < cfg.sparsity),
        "sparse frames must stop on their tolerance"
    );
    assert!(
        atoms(&capped, &capped_cfgs)
            .iter()
            .all(|&k| k == capped_cfg.sparsity),
        "capped frames must reach the cap"
    );

    // The reference keeps its precomputed column norms, so the naive path
    // pays only for its dense refits, not for an extra O(m·n) pass.
    let naive = |frame: &[f64], cfg: &OmpConfig| {
        Basis::Dct.synthesize(&omp_with_col_norms(
            &art.dictionary,
            &art.col_norms,
            frame,
            cfg,
        ))
    };

    // Correctness first: on both populations the fast path tracks the
    // reference.
    for (frames, cfgs) in [(&frames, &cfgs), (&capped, &capped_cfgs)] {
        let fast_once = reconstruct_batch(&art, frames, cfgs, 1);
        for ((frame, cfg), fast) in frames.iter().zip(cfgs).zip(&fast_once) {
            for (a, b) in naive(frame, cfg).iter().zip(fast) {
                assert!(
                    (a - b).abs() < 1e-6,
                    "fast decode must track the reference (got {a} vs {b})"
                );
            }
        }
    }

    // Timed passes: decode the population `reps` times per path.
    let time_path = |label: &str, reps: usize, f: &mut dyn FnMut()| -> f64 {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        let dt = t0.elapsed().as_secs_f64();
        let rate = (reps * n_frames) as f64 / dt.max(1e-9);
        println!(
            "  {label:<8} {:>8.1} decodes/s  ({:.3} ms/decode)",
            rate,
            1e3 * dt / (reps * n_frames) as f64
        );
        rate
    };

    println!(
        "OMP decode microbench: M={m}, N={n}, sparsity={}",
        cfg.sparsity
    );
    let naive_rate = time_path("naive", 2, &mut || {
        for frame in &frames {
            std::hint::black_box(naive(frame, &cfg));
        }
    });
    let fast_rate = time_path("fast", 200, &mut || {
        std::hint::black_box(reconstruct_batch(&art, &frames, &cfgs, 1));
    });
    println!("  capped at {} atoms:", capped_cfg.sparsity);
    let naive_capped_rate = time_path("naive", 2, &mut || {
        for frame in &capped {
            std::hint::black_box(naive(frame, &capped_cfg));
        }
    });
    let capped_rate = time_path("fast", 20, &mut || {
        std::hint::black_box(reconstruct_batch(&art, &capped, &capped_cfgs, 1));
    });

    let speedup = fast_rate / naive_rate.max(1e-9);
    let capped_speedup = capped_rate / naive_capped_rate.max(1e-9);
    let summary = Json::obj([
        ("host", efficsense_bench::host_json()),
        ("m", m.into()),
        ("n", n.into()),
        ("sparsity", cfg.sparsity.into()),
        ("frames", n_frames.into()),
        ("naive_decodes_per_s", naive_rate.into()),
        ("fast_decodes_per_s", fast_rate.into()),
        ("fast_over_naive", speedup.into()),
        ("naive_capped_decodes_per_s", naive_capped_rate.into()),
        ("fast_capped_decodes_per_s", capped_rate.into()),
        ("fast_capped_over_naive", capped_speedup.into()),
    ]);
    efficsense_bench::write_bench_json("BENCH_omp.json", &summary);
    println!("  fast/naive = {speedup:.1}× (sparse), {capped_speedup:.1}× (capped)");

    for (label, ratio) in [("sparse", speedup), ("capped", capped_speedup)] {
        assert!(
            ratio >= 5.0,
            "fast OMP path must be ≥5× the naive reference on {label} frames (got {ratio:.2}×)"
        );
    }
}
