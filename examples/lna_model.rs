//! The paper's Fig. 3 walk-through: a behavioural LNA model showing gain,
//! noise, bandwidth, nonlinearity and clipping — and how the same design
//! variables drive its analytical power model.
//!
//! Run: `cargo run --release --example lna_model`

use efficsense::blocks::Lna;
use efficsense::dsp::metrics::{sndr_db, thd_db};
use efficsense::dsp::spectrum::{coherent_frequency, sine};
use efficsense::dsp::stats::{peak, rms};
use efficsense::power::models::LnaModel;
use efficsense::power::{DesignParams, PowerModel, TechnologyParams};

fn main() {
    let tech = TechnologyParams::gpdk045();
    let design = DesignParams::paper_defaults(8);
    let f_ct = 16384.0;
    let f0 = coherent_frequency(64.0, f_ct, 65536);

    println!("=== behavioural model: gain / noise / bandwidth / clipping ===");
    for (label, amp, noise, k3) in [
        ("small signal, quiet", 100e-6, 1e-6, 0.01),
        ("small signal, noisy LNA", 100e-6, 10e-6, 0.01),
        ("large signal (compression)", 400e-6, 1e-6, 0.05),
        ("overdrive (clipping)", 2000e-6, 1e-6, 0.05),
    ] {
        let mut lna = Lna::from_design(&design, 2000.0, noise, k3, f_ct, 42);
        let x = sine(65536, f_ct, f0, amp, 0.0);
        let y = lna.process_buffer(&x);
        let settled = &y[16384..];
        println!(
            "{label:<28} in {:>7.0} µV  out rms {:>7.1} mV  peak {:>7.1} mV  SNDR {:>6.1} dB  THD {:>6.1} dB",
            amp * 1e6,
            rms(settled) * 1e3,
            peak(settled) * 1e3,
            sndr_db(settled, f_ct, f0),
            thd_db(settled, f_ct, f0, 5)
        );
    }

    println!("\n=== the same variables drive the Table II power bound ===");
    for noise_uv in [1.0, 2.0, 5.0, 10.0, 20.0] {
        let lna = Lna::from_design(&design, 2000.0, noise_uv * 1e-6, 0.01, f_ct, 0);
        let model = LnaModel {
            noise_floor_vrms: lna.noise_floor_vrms,
            c_load_f: 1e-12,
            gain: lna.gain,
        };
        let p = model.power(&tech, &design).value();
        println!(
            "  noise floor {noise_uv:>5.1} µV → LNA power {:>10.3} µW",
            p * 1e6
        );
    }
    println!("\nNoise-limited power falls with the square of the tolerated noise floor,");
    println!("until the load-charging bound takes over — the core trade-off that the");
    println!("compressive-sensing front-end exploits (paper Section IV).");
}
