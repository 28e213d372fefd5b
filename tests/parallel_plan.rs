//! Golden plan fingerprints: the plan pipeline's output, pinned bit for
//! bit at every thread count.
//!
//! Every offline stage runs on the deterministic parallel-execution
//! utility (`effitest::flow::parallel`): circuit generation on the large
//! tier, the SSTA model build, per-path criticality scoring, the conflict
//! oracle, predicted sigmas, hold-bound sampling, and the prediction
//! engine's per-group factorization. At one thread that utility runs each
//! closure inline, so a serial copy of the same closure would only check
//! itself. Instead this suite pins
//! [`plan_fingerprint`](effitest::flow::cache::plan_fingerprint) — groups,
//! batches, slot fills, hold bounds, the conflict-oracle CSR, predicted
//! sigmas, the predictor's factored conditioners, and epsilon — to
//! constants captured from the original serial pipeline, at threads 1, 4
//! and 8, across all six paper topologies and a reduced large-tier
//! circuit, and at one thread on two full-size paper circuits whose large
//! correlation groups exercise the PCA eigensolver. The large tier also
//! pins its generated netlist's content fingerprint and checks that the
//! timing model does not depend on the thread count.

use effitest::circuit::{BenchmarkSpec, GeneratedBenchmark, Topology};
use effitest::flow::cache::encode_plan;
use effitest::flow::select::SelectConfig;
use effitest::prelude::*;
use effitest::ssta::TimingModel;

const THREAD_COUNTS: [usize; 3] = [1, 4, 8];

/// `plan_fingerprint` per paper topology of
/// `iscas89_s9234().scaled_down(10)` (seed 1, default flow config).
const GOLDEN_PAPER_PLANS: [(&str, u64); 6] = [
    ("paper", 0x6417_cc1b_bfed_f20f),
    ("htree", 0xf5c2_877a_1343_8919),
    ("unbalanced", 0xced7_c823_976b_b9eb),
    ("pipeline", 0x2600_086f_89fd_50af),
    ("mesh", 0xcdc6_2530_7de5_35d0),
    ("sparse", 0xb40c_2578_f50e_8cd8),
];

/// `plan_fingerprint` of full-size paper circuits at one thread (seed 1,
/// paper variation, default flow config). These run PCA on large groups
/// (470 members in s13207; 35 groups of up to 108 in ac97_ctrl), so they
/// catch an eigensolver change that flips a representative.
const GOLDEN_FULL_SIZE_PLANS: [(&str, u64); 2] =
    [("s13207", 0x965e_4e62_1192_abd1), ("ac97_ctrl", 0x604d_c277_9a52_0296)];

/// Encoded size caps of the same plans, in bytes. A conditioner that
/// stored its full conditional covariance would break both: that matrix
/// alone takes 1.63 MB for s13207 and 0.31 MB for ac97_ctrl.
const FULL_SIZE_MAX_BYTES: [usize; 2] = [850_000, 550_000];

/// `content_fingerprint` of `GeneratedBenchmark::generate(&large(256), 1)`.
const GOLDEN_LARGE_CONTENT: u64 = 0x8f57_e6b5_f400_eab4;

/// `plan_fingerprint` of the large-tier plan: criticality cut 0.93, 4x4
/// variation grid, buffer range 0.07 of the period over 8 steps.
const GOLDEN_LARGE_PLAN: u64 = 0x7f7b_c5fc_d00e_d96f;

#[test]
fn plan_is_bitwise_thread_count_independent_on_every_paper_topology() {
    let flow = EffiTestFlow::new(FlowConfig::default());
    assert_eq!(Topology::all().len(), GOLDEN_PAPER_PLANS.len());
    for (&topology, &(name, golden)) in Topology::all().iter().zip(&GOLDEN_PAPER_PLANS) {
        assert_eq!(topology.name(), name);
        let spec = BenchmarkSpec::iscas89_s9234().scaled_down(10).with_topology(topology);
        let bench = GeneratedBenchmark::generate(&spec, 1);
        let model = TimingModel::build(&bench, &VariationConfig::paper());
        for threads in THREAD_COUNTS {
            let plan = flow.plan_threaded(&bench, &model, threads).expect("plan");
            assert_eq!(
                plan_fingerprint(&plan),
                golden,
                "plan diverged from its golden fingerprint on {name} at {threads} threads"
            );
        }
    }
}

#[test]
fn full_size_plans_match_their_golden_fingerprints() {
    let flow = EffiTestFlow::new(FlowConfig::default());
    let specs = [BenchmarkSpec::iscas89_s13207(), BenchmarkSpec::tau13_ac97_ctrl()];
    for ((spec, &(name, golden)), &max_bytes) in
        specs.iter().zip(&GOLDEN_FULL_SIZE_PLANS).zip(&FULL_SIZE_MAX_BYTES)
    {
        assert_eq!(spec.name, name);
        let bench = GeneratedBenchmark::generate(spec, 1);
        let model = TimingModel::build(&bench, &VariationConfig::paper());
        let plan = flow.plan_threaded(&bench, &model, 1).expect("plan");
        assert_eq!(plan_fingerprint(&plan), golden, "{name} plan diverged from its golden value");
        let bytes = encode_plan(&plan).len();
        assert!(bytes <= max_bytes, "{name} plan encodes to {bytes} bytes, over {max_bytes}");
    }
}

#[test]
fn plan_is_bitwise_thread_count_independent_on_the_large_tier() {
    let spec = BenchmarkSpec::large(256);
    let flow = EffiTestFlow::new(FlowConfig {
        select: SelectConfig { criticality_fraction: Some(0.93), ..SelectConfig::default() },
        ..FlowConfig::default()
    });
    // The upstream stages first: the generated netlist against its golden
    // content fingerprint, the timing model across thread counts.
    let bench = GeneratedBenchmark::generate(&spec, 1);
    assert_eq!(bench.content_fingerprint(), GOLDEN_LARGE_CONTENT);
    for threads in THREAD_COUNTS {
        let threaded = GeneratedBenchmark::generate_threaded(&spec, 1, threads);
        assert_eq!(
            threaded.content_fingerprint(),
            GOLDEN_LARGE_CONTENT,
            "generation diverged at {threads} threads"
        );
    }
    let variation = VariationConfig { grid_dim: 4, ..VariationConfig::paper() };
    let model = TimingModel::build_with_buffer_range_threaded(&bench, &variation, 0.07, 8, 1);
    for threads in THREAD_COUNTS {
        let threaded =
            TimingModel::build_with_buffer_range_threaded(&bench, &variation, 0.07, 8, threads);
        assert_eq!(threaded, model, "timing model diverged at {threads} threads");
    }
    for threads in THREAD_COUNTS {
        let plan = flow.plan_threaded(&bench, &model, threads).expect("plan");
        assert_eq!(
            plan_fingerprint(&plan),
            GOLDEN_LARGE_PLAN,
            "large-tier plan diverged from its golden fingerprint at {threads} threads"
        );
    }
}

#[test]
fn threaded_plan_drives_identical_chip_outcomes() {
    // The plan feeds silicon: identical fingerprints must also mean
    // identical per-chip behavior through the full flow.
    let bench = GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s9234().scaled_down(10), 1);
    let model = TimingModel::build(&bench, &VariationConfig::paper());
    let flow = EffiTestFlow::new(FlowConfig::default());
    let reference = flow.plan_threaded(&bench, &model, 1).expect("plan");
    let td = model.nominal_period();
    let key = |o: &ChipOutcome| {
        (
            o.iterations,
            o.passes,
            o.configured.as_ref().map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()),
            o.ranges.iter().map(|b| (b.lower.to_bits(), b.upper.to_bits())).collect::<Vec<_>>(),
        )
    };
    for threads in THREAD_COUNTS {
        let plan = flow.plan_threaded(&bench, &model, threads).expect("plan");
        for seed in 0..3 {
            let chip = model.sample_chip(800 + seed);
            let a = flow.run_chip(&plan, &chip, td).expect("chip");
            let b = flow.run_chip(&reference, &chip, td).expect("chip");
            assert_eq!(key(&a), key(&b), "chip {seed} diverged at {threads} threads");
        }
    }
}
