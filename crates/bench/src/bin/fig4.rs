//! Regenerates **Fig. 4**: sweeping the LNA input-referred noise of the
//! baseline acquisition system (sine input) and reporting system SNDR, total
//! power and the per-block power distribution.
//!
//! Run: `cargo run --release -p efficsense-bench --bin fig4`

use efficsense_bench::{save_figure, scale, uw, Scale};
use efficsense_core::prelude::*;
use efficsense_dsp::metrics::sndr_db;
use efficsense_dsp::spectrum::{coherent_frequency, sine};
use efficsense_power::BlockKind;

fn main() {
    let sc = scale();
    println!("=== Fig. 4: LNA noise sweep, baseline system, sine input ===");
    let noise_grid =
        efficsense_core::space::log_grid(1e-6, 20e-6, if sc == Scale::Full { 16 } else { 8 });
    // Test tone: 64 Hz (mid-band), 200 µV amplitude — a strong biosignal.
    let fs_in = 4096.0;
    let seconds = 8.0;
    let f0 = coherent_frequency(64.0, 537.6, (537.6 * seconds) as usize);
    let x = sine((fs_in * seconds) as usize, fs_in, f0, 200e-6, 0.0);

    let mut csv = String::from(
        "lna_noise_uvrms,sndr_db,total_uw,lna_uw,sh_uw,comparator_uw,sar_logic_uw,dac_uw,tx_uw\n",
    );
    println!(
        "{:>12} {:>10} {:>12} {:>10} {:>10} {:>10}",
        "noise (µV)", "SNDR (dB)", "total (µW)", "LNA (µW)", "TX (µW)", "ADC (µW)"
    );
    for &vn in &noise_grid {
        let mut cfg = SystemConfig::baseline(8);
        cfg.lna.noise_floor_vrms = vn;
        let sim = Simulator::new(cfg).expect("valid config");
        let out = sim.run(&x, fs_in, 1);
        let sndr = sndr_db(&out.input_referred, out.fs_out, f0);
        let b = &out.power;
        let adc_total =
            b.get(BlockKind::Comparator) + b.get(BlockKind::SarLogic) + b.get(BlockKind::Dac);
        println!(
            "{:>12.2} {:>10.2} {:>12.3} {:>10.3} {:>10.3} {:>10.4}",
            vn * 1e6,
            sndr,
            b.total().value() * 1e6,
            b.get(BlockKind::Lna).value() * 1e6,
            b.get(BlockKind::Transmitter).value() * 1e6,
            adc_total.value() * 1e6
        );
        csv.push_str(&format!(
            "{:.3},{:.3},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}\n",
            vn * 1e6,
            sndr,
            b.total().value() * 1e6,
            b.get(BlockKind::Lna).value() * 1e6,
            b.get(BlockKind::SampleHold).value() * 1e6,
            b.get(BlockKind::Comparator).value() * 1e6,
            b.get(BlockKind::SarLogic).value() * 1e6,
            b.get(BlockKind::Dac).value() * 1e6,
            b.get(BlockKind::Transmitter).value() * 1e6
        ));
    }
    save_figure("fig4_lna_noise_sweep.csv", &csv);
    println!();
    println!("Expected shape (paper): SNDR falls and LNA power collapses as the tolerated");
    println!(
        "noise floor rises; the transmitter ({}) becomes the power floor.",
        uw(4.3008e-6)
    );
}
