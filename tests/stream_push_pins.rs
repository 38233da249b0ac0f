//! Golden pins on what each `StreamSimulator::push` returns. The chunking
//! pins elsewhere hash only the concatenated output, so a push that handed
//! back a different number of pairs (emitting a value one push early or
//! late) would still pass them. Here every push's pair count and bits,
//! the final chunk and the summary fold into one digest per architecture
//! and push size.

use efficsense::core::config::{CsConfig, SystemConfig};
use efficsense::core::prefix::record_fingerprint;
use efficsense::core::simulate::Simulator;
use efficsense::core::stream::{StreamChunk, StreamSimulator};
use efficsense::signals::{DatasetConfig, EegDataset};
use efficsense_faults::{CompoundPlan, FaultKind, SeverityProfile};

/// A compound plan that arms every fault kind, each with its own shape.
fn every_kind_plan() -> CompoundPlan {
    let ramp = |end: f64| SeverityProfile::Linear {
        start: 0.0,
        end,
        ramp_s: 30.0,
    };
    CompoundPlan::new(0x5EED, 2.5)
        .with(FaultKind::LnaRail, ramp(0.9))
        .with(
            FaultKind::AdcStuckBit,
            SeverityProfile::Step {
                before: 0.2,
                after: 0.8,
                at_s: 11.0,
            },
        )
        .with(FaultKind::CapLeakage, ramp(0.7))
        .with(FaultKind::ClockJitter, ramp(0.6))
        .with(
            FaultKind::DroppedSamples,
            SeverityProfile::Sinusoid {
                base: 0.25,
                amplitude: 0.2,
                period_s: 9.0,
            },
        )
        .with(FaultKind::PacketLoss, ramp(0.8))
}

/// Appends one chunk's pair count and every bit of both its vectors.
fn fold(bits: &mut Vec<f64>, chunk: &StreamChunk) {
    bits.push(chunk.len() as f64);
    bits.extend(&chunk.input_referred);
    bits.extend(&chunk.reference);
}

#[test]
fn compound_streams_push_by_push_on_both_architectures() {
    // 32 s at 173.61 Hz: a 4096-sample push and a 1459-sample one.
    let ds = EegDataset::generate(&DatasetConfig {
        records_per_class: 1,
        duration_s: 32.0,
        ..Default::default()
    });
    let rec = &ds.records[2];
    let plan = every_kind_plan();
    for (name, cfg, pinned) in [
        (
            "baseline",
            SystemConfig::baseline(8),
            [
                0xca9f_dca1_2376_472d,
                0xdb21_c97a_5864_82d8,
                0xf23d_ac1c_4d5a_4f98,
            ],
        ),
        (
            "cs",
            SystemConfig::compressive(8, CsConfig::default()),
            [
                0x470c_a6ab_fe5f_4290,
                0x963b_4b7e_e7ed_1df5,
                0xd765_3711_c646_e6c9,
            ],
        ),
    ] {
        let sim = Simulator::new(cfg).expect("valid config");
        for (push, pinned) in [1, 7, 4096].into_iter().zip(pinned) {
            let mut stream = StreamSimulator::with_compound(&sim, rec.fs, 5, &plan);
            let mut bits = Vec::new();
            for c in rec.samples.chunks(push) {
                fold(&mut bits, &stream.push(c));
            }
            let (last, summary) = stream.finish();
            fold(&mut bits, &last);
            let link = summary.link.expect("packet loss is armed");
            bits.extend([
                summary.power.total().value(),
                summary.words as f64,
                summary.out_samples as f64,
                link.packets as f64,
                link.lost_packets as f64,
                link.tx_words as f64,
            ]);
            assert_eq!(
                record_fingerprint(&bits),
                pinned,
                "{name}, {push}-sample pushes"
            );
        }
    }
}
