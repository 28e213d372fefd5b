//! Hostile-silicon end-to-end guarantees: noisy/quantized testers, aging
//! drift, and adaptive re-tuning through the facade crate.
//!
//! Everything here runs the *real* flow (plan -> aligned test ->
//! prediction -> configuration -> final check) under non-ideal conditions
//! and holds the two load-bearing properties:
//!
//! 1. **No panics** — noisy probes contradict proven bounds routinely;
//!    every contradiction must be absorbed (widened and counted), never
//!    asserted away. In debug builds this suite proves the
//!    `debug_assert`s stay silent on the hostile path.
//! 2. **Bitwise determinism** — noisy and drifted cells serialize
//!    byte-identically at any worker-thread count, because noise streams
//!    are keyed by (seed, chip, path, probe index), never by thread or
//!    global probe order.

use effitest::flow::hostile::{hostile_matrix_to_json, run_hostile_matrix, HostileAxes};
use effitest::prelude::*;

fn tiny_axes() -> HostileAxes {
    let mut axes = HostileAxes::smoke(40);
    axes.scenario.chip_counts = vec![3];
    axes.scenario.flow.hold.samples = 32;
    axes
}

fn noisy_flow_fixture() -> (GeneratedBenchmark, TimingModel, EffiTestFlow) {
    let bench = GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s9234().scaled_down(20), 1);
    let model = TimingModel::build(&bench, &VariationConfig::paper());
    // Noise well above the convergence threshold: epsilon here is
    // max-width/512, so a noise sigma of ~1 delay unit flips probe
    // results near every proven bound.
    let config = FlowConfig {
        tester: TesterModel { noise_sigma: 1.0, quantization_lsb: 0.125, noise_seed: 77 },
        ..FlowConfig::default()
    };
    (bench, model, EffiTestFlow::new(config))
}

#[test]
fn hostile_matrix_json_is_bitwise_thread_invariant() {
    let axes = tiny_axes();
    let serial = hostile_matrix_to_json("smoke", &run_hostile_matrix(&axes, 1).reports);
    for threads in [2, 4] {
        let parallel = hostile_matrix_to_json("smoke", &run_hostile_matrix(&axes, threads).reports);
        assert_eq!(serial, parallel, "hostile matrix drifted at {threads} threads");
    }
}

#[test]
fn noisy_flow_widens_instead_of_panicking_end_to_end() {
    let (bench, model, flow) = noisy_flow_fixture();
    let plan = flow.plan(&bench, &model).expect("plan");
    let td = model.nominal_period();
    let mut widenings = 0_u64;
    for seed in 0..6_u64 {
        let chip = model.sample_chip(300 + seed);
        let outcome = flow.run_chip(&plan, &chip, td).expect("run");
        widenings += outcome.widenings;
        for (p, b) in outcome.ranges.iter().enumerate() {
            assert!(
                b.lower.is_finite() && b.upper.is_finite() && b.lower <= b.upper,
                "seed {seed}: invalid range on path {p}"
            );
        }
    }
    assert!(widenings > 0, "noise this large must contradict proven bounds somewhere");
}

#[test]
fn drifted_chips_run_the_full_flow_without_panics() {
    let (bench, model, flow) = noisy_flow_fixture();
    let plan = flow.plan(&bench, &model).expect("plan");
    let td = model.nominal_period();
    let drift = DriftModel { rate: 0.05, variability: 1.0, seed: 5 };
    for seed in 0..4_u64 {
        let chip = model.sample_chip(700 + seed);
        let aged = drift.aged(&chip, 2.0);
        // Aged delays moved up to ~10% past the plan's assumed windows:
        // the flow must absorb the resulting contradictions, not panic.
        let outcome = flow.run_chip(&plan, &aged, td).expect("run aged");
        assert!(outcome.iterations > 0);
        // Aging only slows paths, so the aged chip's pass can never beat
        // the fresh chip's at the same configuration.
        let fresh = flow.run_chip(&plan, &chip, td).expect("run fresh");
        if outcome.passes {
            assert!(
                fresh.configured.is_some() || !fresh.passes,
                "seed {seed}: inconsistent outcomes"
            );
        }
        let _ = fresh;
    }
}

#[test]
fn ideal_tester_config_is_bit_identical_to_historical_flow() {
    // Adding the tester model must not perturb the noise-free path: a
    // default FlowConfig (ideal tester, strict policy) produces the same
    // outcomes as ever, widening nothing.
    let bench = GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s9234().scaled_down(20), 1);
    let model = TimingModel::build(&bench, &VariationConfig::paper());
    let flow = EffiTestFlow::new(FlowConfig::default());
    let plan = flow.plan(&bench, &model).expect("plan");
    let td = model.nominal_period();
    for seed in 0..4_u64 {
        let chip = model.sample_chip(40 + seed);
        let outcome = flow.run_chip(&plan, &chip, td).expect("run");
        assert_eq!(outcome.widenings, 0, "ideal tester must never widen");
    }
}
