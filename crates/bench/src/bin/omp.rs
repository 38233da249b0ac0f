//! OMP decoder microbench: naive reference vs fast Gram/incremental-Cholesky
//! vs batched decode, at the sweep's default dictionary scale.
//!
//! Decodes a fixed population of synthetic sparse-plus-noise frames through
//! all three entry points, checks the fast paths agree with each other bit
//! for bit (and with the reference to 1e-9 in coefficients), and emits
//! `BENCH_omp.json` (decodes/sec per path) for CI trend tracking.
//!
//! Run: `cargo run --release -p efficsense-bench --bin omp`

use efficsense_cs::basis::Basis;
use efficsense_cs::decode::{reconstruct_batch, reconstruct_fast, OmpScratch};
use efficsense_cs::memo::DictionaryArtifacts;
use efficsense_cs::recon::{reconstruct_with_artifacts, OmpConfig};
use efficsense_cs::SensingMatrix;
use efficsense_obs::json::Json;
use std::time::Instant;

/// SplitMix64 avalanche for deterministic frame synthesis.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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
    let dict = phi.matmul(&Basis::Dct.matrix(n));
    let art = DictionaryArtifacts::from_dictionary(dict, Basis::Dct, 1.0);
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
            let x = Basis::Dct.synthesize(&s);
            let mut y = art.dictionary.matvec(&x);
            for (i, v) in y.iter_mut().enumerate() {
                *v += 1e-4 * (2.0 * unit(f ^ 0xA015E ^ ((i as u64) << 20)) - 1.0);
            }
            y
        })
        .collect();
    let cfgs = vec![cfg.clone(); n_frames];

    // Correctness first: fast single == batched single-thread, bitwise.
    let mut ws = OmpScratch::new();
    let batched_once = reconstruct_batch(&art, &frames, &cfgs, 1);
    for (r, frame) in frames.iter().enumerate() {
        let single = reconstruct_fast(&art, frame, &cfg, &mut ws);
        assert_eq!(
            batched_once[r], single,
            "batch and single fast decode must agree bit for bit"
        );
        let reference =
            reconstruct_with_artifacts(&art.dictionary, &art.col_norms, frame, Basis::Dct, &cfg);
        for (a, b) in reference.iter().zip(&single) {
            assert!(
                (a - b).abs() < 1e-6,
                "fast decode must track the reference (got {a} vs {b})"
            );
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
            std::hint::black_box(reconstruct_with_artifacts(
                &art.dictionary,
                &art.col_norms,
                frame,
                Basis::Dct,
                &cfg,
            ));
        }
    });
    let fast_rate = time_path("fast", 20, &mut || {
        for frame in &frames {
            std::hint::black_box(reconstruct_fast(&art, frame, &cfg, &mut ws));
        }
    });
    let batched_rate = time_path("batched", 20, &mut || {
        std::hint::black_box(reconstruct_batch(&art, &frames, &cfgs, 1));
    });

    let speedup = fast_rate / naive_rate.max(1e-9);
    let summary = Json::obj([
        ("host", efficsense_bench::host_json()),
        ("m", m.into()),
        ("n", n.into()),
        ("sparsity", cfg.sparsity.into()),
        ("frames", n_frames.into()),
        ("naive_decodes_per_s", naive_rate.into()),
        ("fast_decodes_per_s", fast_rate.into()),
        ("batched_decodes_per_s", batched_rate.into()),
        ("fast_over_naive", speedup.into()),
    ]);
    efficsense_bench::write_bench_json("BENCH_omp.json", &summary);
    println!("  fast/naive = {speedup:.1}×");

    assert!(
        speedup >= 5.0,
        "fast OMP path must be ≥5× the naive reference (got {speedup:.2}×)"
    );
}
