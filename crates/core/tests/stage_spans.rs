//! Stage attribution of a whole-record run: the Nyquist back end
//! (acquisition + SAR) and the lossy link each report one span per record,
//! so their time leaves `stage.simulate`'s self time. The test drives the
//! process-global registry, so it lives alone in its own binary.

use efficsense_core::prelude::*;

fn count(snap: &efficsense_obs::Snapshot, name: &str) -> u64 {
    snap.span(name).map_or(0, |s| s.count)
}

#[test]
fn whole_record_runs_open_one_nyquist_and_link_span_each() {
    let obs = efficsense_obs::global();
    let ds = EegDataset::generate(&DatasetConfig {
        records_per_class: 1,
        duration_s: 2.0,
        ..Default::default()
    });
    let rec = &ds.records[0];
    let lossy = FaultPlan::single(FaultKind::PacketLoss, 0.5, 3);
    let clean = Simulator::new(SystemConfig::baseline(8)).expect("valid config");
    let baseline =
        Simulator::with_fault_plan(SystemConfig::baseline(8), lossy.clone()).expect("valid config");
    let cs = CsConfig {
        m: 96,
        ..Default::default()
    };
    let cs =
        Simulator::with_fault_plan(SystemConfig::compressive(8, cs), lossy).expect("valid config");

    obs.reset();
    clean.run(&rec.samples, rec.fs, 1);
    let snap = obs.snapshot();
    assert_eq!(count(&snap, "sim.nyquist"), 1);
    assert_eq!(count(&snap, "sim.link"), 0, "no link fault, no link stage");

    obs.reset();
    baseline.run(&rec.samples, rec.fs, 1);
    cs.run(&rec.samples, rec.fs, 1);
    let snap = obs.snapshot();
    assert_eq!(
        count(&snap, "sim.nyquist"),
        1,
        "the CS path has no Nyquist ADC"
    );
    assert_eq!(count(&snap, "sim.link"), 2);
    assert_eq!(count(&snap, "sim.encode"), 1);

    // A chunked stream opens neither: its per-push spans would make the
    // counts depend on the chunking.
    obs.reset();
    let _ = StreamSimulator::run_chunked(&baseline, &rec.samples, rec.fs, 1, 64);
    let snap = obs.snapshot();
    assert_eq!(count(&snap, "sim.nyquist") + count(&snap, "sim.link"), 0);
}
