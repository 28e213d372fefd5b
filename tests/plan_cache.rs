//! Persistent plan-cache conformance: the cached plan must be **bitwise
//! identical** to a fresh build on every paper topology and on the large
//! tier, and every corrupt-blob shape must fall back to a counted rebuild
//! rather than a panic.

use effitest::flow::cache::{
    decode_plan, encode_plan, plan_cache_key, plan_fingerprint, CacheOutcome, PlanCache,
};
use effitest::flow::hold::HoldConfig;
use effitest::flow::select::SelectConfig;
use effitest::prelude::*;
use proptest::prelude::*;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("effitest-plan-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Asserts the full bitwise round-trip contract on one (bench, model,
/// flow) triple and returns the plan fingerprint.
fn assert_round_trip(bench: &GeneratedBenchmark, model: &TimingModel, flow: &EffiTestFlow) -> u64 {
    let plan = flow.plan(bench, model).expect("plan");
    let bytes = encode_plan(&plan);
    let decoded = decode_plan(&bytes, model).expect("decode");
    assert_eq!(bytes, encode_plan(&decoded), "canonical encoding must round-trip byte-for-byte");
    let fp = plan_fingerprint(&plan);
    assert_eq!(fp, plan_fingerprint(&decoded), "plan fingerprints must match");
    // The decoded plan must also *behave* identically: run a chip
    // through both and compare every output bit.
    let chip = model.sample_chip(0xC0FFEE);
    let td = model.nominal_period();
    let fresh = flow.run_chip(&plan, &chip, td).expect("fresh chip");
    let cached = flow.run_chip(&decoded, &chip, td).expect("cached chip");
    assert_eq!(fresh.iterations, cached.iterations);
    assert_eq!(fresh.passes, cached.passes);
    assert_eq!(fresh.configured, cached.configured);
    for (a, b) in fresh.ranges.iter().zip(&cached.ranges) {
        assert_eq!(a.lower.to_bits(), b.lower.to_bits());
        assert_eq!(a.upper.to_bits(), b.upper.to_bits());
    }
    fp
}

#[test]
fn cached_plans_are_bitwise_identical_on_every_paper_topology() {
    let flow = EffiTestFlow::new(FlowConfig::default());
    let mut fingerprints = std::collections::HashSet::new();
    for topology in Topology::all() {
        let spec = BenchmarkSpec::iscas89_s13207().scaled_down(16).with_topology(topology);
        let bench = GeneratedBenchmark::generate(&spec, 5);
        let model = TimingModel::build(&bench, &VariationConfig::paper());
        let fp = assert_round_trip(&bench, &model, &flow);
        assert!(fingerprints.insert(fp), "{}: fingerprint collided across topologies", spec.name);
    }
}

#[test]
fn cached_plan_is_bitwise_identical_on_the_large_tier() {
    // The scale tier's configuration: coarse 4x4 variation grid and the
    // criticality cut, as in the scale/plan benches.
    let bench = GeneratedBenchmark::generate(&BenchmarkSpec::large(256), 7);
    let model =
        TimingModel::build(&bench, &VariationConfig { grid_dim: 4, ..VariationConfig::paper() });
    let flow = EffiTestFlow::new(FlowConfig {
        select: SelectConfig { criticality_fraction: Some(0.93), ..SelectConfig::default() },
        ..FlowConfig::default()
    });
    assert_round_trip(&bench, &model, &flow);
}

#[test]
fn disk_cache_hit_reproduces_the_fresh_fingerprint() {
    let spec = BenchmarkSpec::iscas89_s9234().scaled_down(16);
    let bench = GeneratedBenchmark::generate(&spec, 11);
    let model = TimingModel::build(&bench, &VariationConfig::paper());
    let flow = EffiTestFlow::new(FlowConfig::default());
    let dir = temp_dir("hit");

    let mut cold = PlanCache::new(&dir);
    let (fresh, outcome) = cold.load_or_build(&flow, &bench, &model).expect("build");
    assert_eq!(outcome, CacheOutcome::Miss);

    // A second cache instance models a process restart.
    let mut warm = PlanCache::new(&dir);
    let (cached, outcome) = warm.load_or_build(&flow, &bench, &model).expect("load");
    assert_eq!(outcome, CacheOutcome::Hit);
    assert_eq!(warm.stats().hits, 1);
    assert_eq!(plan_fingerprint(&fresh), plan_fingerprint(&cached));
    assert_eq!(encode_plan(&fresh), encode_plan(&cached));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_corruption_shape_rebuilds_with_a_counted_incident() {
    let spec = BenchmarkSpec::iscas89_s9234().scaled_down(16);
    let bench = GeneratedBenchmark::generate(&spec, 2);
    let model = TimingModel::build(&bench, &VariationConfig::paper());
    let flow = EffiTestFlow::new(FlowConfig::default());
    let dir = temp_dir("corrupt");
    let mut cache = PlanCache::new(&dir);
    let key = plan_cache_key(&bench, &model, flow.config());
    let (fresh, _) = cache.load_or_build(&flow, &bench, &model).expect("seed");
    let fp = plan_fingerprint(&fresh);
    let path = cache.path_for(key);
    let good = std::fs::read(&path).expect("stored blob");

    // Truncation at several cut points, a flipped payload byte, a wrong
    // version tag, and garbage: all must rebuild, count, and re-store.
    let mut mutants: Vec<Vec<u8>> = vec![
        good[..8].to_vec(),
        good[..good.len() / 3].to_vec(),
        good[..good.len() - 1].to_vec(),
        b"NOTAPLAN".to_vec(),
        vec![],
    ];
    let mut flipped = good.clone();
    let mid = 24 + (flipped.len() - 32) / 2;
    flipped[mid] ^= 0x01;
    mutants.push(flipped);
    let mut skewed = good.clone();
    skewed[4] = skewed[4].wrapping_add(3);
    mutants.push(skewed);

    for (i, mutant) in mutants.iter().enumerate() {
        std::fs::write(&path, mutant).expect("write mutant");
        let (plan, outcome) = cache.load_or_build(&flow, &bench, &model).expect("rebuild");
        assert!(
            matches!(outcome, CacheOutcome::Rebuilt(_)),
            "mutant {i}: expected a counted rebuild, got {outcome:?}"
        );
        assert_eq!(plan_fingerprint(&plan), fp, "mutant {i}: rebuilt plan diverged");
        // The rebuild re-stored a good blob: the next load is a hit.
        let (_, outcome) = cache.load_or_build(&flow, &bench, &model).expect("hit");
        assert_eq!(outcome, CacheOutcome::Hit, "mutant {i}: re-store failed");
    }
    let stats = cache.stats();
    assert_eq!(
        stats.corrupt + stats.version_skew + stats.key_mismatch,
        mutants.len() as u64,
        "every mutant must be counted exactly once: {stats:?}"
    );
    assert_eq!(stats.version_skew, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_keys_change_with_any_plan_input() {
    let spec = BenchmarkSpec::iscas89_s9234().scaled_down(16);
    let bench = GeneratedBenchmark::generate(&spec, 1);
    let model = TimingModel::build(&bench, &VariationConfig::paper());
    let config = FlowConfig::default();
    let key = plan_cache_key(&bench, &model, &config);

    // Netlist content (different seed).
    let bench2 = GeneratedBenchmark::generate(&spec, 2);
    let model2 = TimingModel::build(&bench2, &VariationConfig::paper());
    assert_ne!(key, plan_cache_key(&bench2, &model2, &config));

    // Model parameters (different variation structure).
    let model3 = TimingModel::build(
        &bench,
        &VariationConfig { local_sigma: 0.123, ..VariationConfig::paper() },
    );
    assert_ne!(key, plan_cache_key(&bench, &model3, &config));

    // Flow configuration (a sample count, an Option toggle, a float).
    for other in [
        FlowConfig { hold: HoldConfig { samples: 256, ..config.hold.clone() }, ..config.clone() },
        FlowConfig {
            select: SelectConfig { criticality_fraction: Some(0.0), ..SelectConfig::default() },
            ..config.clone()
        },
        FlowConfig { bound_sigma: config.bound_sigma + 0.5, ..config.clone() },
    ] {
        assert_ne!(key, plan_cache_key(&bench, &model, &other));
    }

    // Per-chip knobs shape no plan, so they leave the key alone: a flow
    // that differs only there reuses the cached plan.
    for per_chip in [
        FlowConfig { k0: config.k0 * 2.0, ..config.clone() },
        FlowConfig { kd: config.kd + 1.0, ..config.clone() },
        FlowConfig { use_alignment: !config.use_alignment, ..config.clone() },
        FlowConfig { exact_alignment: !config.exact_alignment, ..config.clone() },
        FlowConfig { incremental: !config.incremental, ..config.clone() },
        FlowConfig {
            tester: TesterModel { noise_sigma: 0.1, quantization_lsb: 0.0, noise_seed: 1 },
            ..config.clone()
        },
        FlowConfig { tolerate_contradictions: !config.tolerate_contradictions, ..config.clone() },
    ] {
        assert_eq!(key, plan_cache_key(&bench, &model, &per_chip), "{per_chip:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random spec/seed: encode -> decode -> encode is the identity on
    /// bytes and decisions (the integration-level mirror of the
    /// per-module codec unit tests).
    #[test]
    fn plan_codec_round_trips_on_random_specs(
        (which, scale, seed) in (0..4_usize, 12..25_usize, 0..1000_u64)
    ) {
        let base = match which {
            0 => BenchmarkSpec::iscas89_s9234(),
            1 => BenchmarkSpec::iscas89_s13207(),
            2 => BenchmarkSpec::iscas89_s15850(),
            _ => BenchmarkSpec::tau13_usb_funct(),
        };
        let bench = GeneratedBenchmark::generate(&base.scaled_down(scale), seed);
        let model = TimingModel::build(&bench, &VariationConfig::paper());
        let flow = EffiTestFlow::new(FlowConfig::default());
        let plan = flow.plan(&bench, &model).expect("plan");
        let bytes = encode_plan(&plan);
        let decoded = decode_plan(&bytes, &model).expect("decode");
        prop_assert_eq!(&bytes, &encode_plan(&decoded));
        prop_assert_eq!(plan_fingerprint(&plan), plan_fingerprint(&decoded));
    }
}
