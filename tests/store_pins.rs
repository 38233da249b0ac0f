//! Golden pins on the Level-3 prefix store over a small CS grid: two 2 s
//! records at one LNA noise level and M = 75, run at 6 and 8 ADC bits
//! under no fault, an ADC stuck bit and a capacitor-leakage fault. Every
//! run must give the same bits with a shared store as without one, and
//! each grid cell's outputs are pinned by digest, so a store that served
//! one cell another's artifact, or a back end that digitised differently
//! with a store attached, fails here. The ADC bits and the stuck bit act
//! after the encoder, so the grid encodes each record twice (clean and
//! leaky encoder) and serves the other eight runs from the `encoded`
//! class.

use efficsense::core::config::{CsConfig, SystemConfig};
use efficsense::core::prefix::{record_fingerprint, PrefixStore};
use efficsense::core::simulate::{SimOutput, Simulator};
use efficsense::signals::{DatasetConfig, EegDataset};
use efficsense_faults::{FaultKind, FaultPlan};
use std::sync::Arc;

/// Master seed of the injected fault streams.
const FAULT_SEED: u64 = 0x5703;

/// One word over every output bit of a run: both signals, the total power
/// and the word count.
fn digest(out: &SimOutput) -> u64 {
    let mut bits = out.input_referred.clone();
    bits.extend(&out.reference);
    bits.push(out.total_power_w());
    bits.push(out.words as f64);
    record_fingerprint(&bits)
}

fn simulator(n_bits: u32, plan: Option<FaultPlan>) -> Simulator {
    let mut cfg = SystemConfig::compressive(
        n_bits,
        CsConfig {
            m: 75,
            ..Default::default()
        },
    );
    cfg.lna.noise_floor_vrms = 2e-6;
    let mut sim = Simulator::new(cfg).expect("valid CS config");
    sim.set_fault_plan(plan);
    sim
}

#[test]
fn store_on_equals_store_off_across_adc_bits_and_faults() {
    let ds = EegDataset::generate(&DatasetConfig {
        records_per_class: 1,
        duration_s: 2.0,
        ..Default::default()
    });
    let records = &ds.records[..2];
    let store = Arc::new(PrefixStore::new());
    let cells: [(u32, Option<FaultKind>, u64); 6] = [
        (6, None, 0x0198_3e9a_e626_45b9),
        (6, Some(FaultKind::AdcStuckBit), 0x1f4b_e660_9f99_bd43),
        (6, Some(FaultKind::CapLeakage), 0xfece_4aa3_1bdb_d620),
        (8, None, 0xa558_f020_e9c8_4bc8),
        (8, Some(FaultKind::AdcStuckBit), 0x879f_9a08_cb3b_1e9c),
        (8, Some(FaultKind::CapLeakage), 0xd966_9aa8_8b77_e0fc),
    ];
    for (n_bits, fault, pinned) in cells {
        let plan = fault.map(|kind| FaultPlan::single(kind, 1.0, FAULT_SEED));
        let mut sim = simulator(n_bits, plan);
        let mut bits = Vec::new();
        for (i, rec) in records.iter().enumerate() {
            sim.set_prefix_store(None);
            let off = sim.run(&rec.samples, rec.fs, i as u64 + 1);
            sim.set_prefix_store(Some(Arc::clone(&store)));
            let on = sim.run(&rec.samples, rec.fs, i as u64 + 1);
            assert_eq!(off, on, "{n_bits} bits, {fault:?}, record {i}");
            bits.push(f64::from_bits(digest(&on)));
        }
        assert_eq!(
            record_fingerprint(&bits),
            pinned,
            "{n_bits} bits, {fault:?}"
        );
    }
    let encoded = store.stats().encoded;
    assert_eq!((encoded.misses, encoded.hits), (4, 8), "{encoded:?}");
}
