//! Cross-crate property tests: generator validity, tester bracketing,
//! batching conflict-freedom, and configuration soundness under random
//! seeds and scales.

use effitest::flow::aligned_test::{run_aligned_test, AlignedTestConfig};
use effitest::flow::batch::{build_batches, ConflictOracle};
use effitest::flow::hold::HoldBounds;
use effitest::prelude::*;
use effitest::tester::chip_passes;
use proptest::prelude::*;

fn spec_strategy() -> impl Strategy<Value = (BenchmarkSpec, u64)> {
    (0..4_usize, 8..25_usize, 0..1000_u64).prop_map(|(which, scale, seed)| {
        let base = match which {
            0 => BenchmarkSpec::iscas89_s9234(),
            1 => BenchmarkSpec::iscas89_s13207(),
            2 => BenchmarkSpec::iscas89_s15850(),
            _ => BenchmarkSpec::tau13_usb_funct(),
        };
        (base.scaled_down(scale), seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn generated_benchmarks_are_always_valid((spec, seed) in spec_strategy()) {
        let bench = GeneratedBenchmark::generate(&spec, seed);
        prop_assert!(bench.netlist.validate().is_ok());
        prop_assert!(bench.paths.validate(&bench.netlist).is_ok());
        let (ns, ng, nb, np) = bench.stats();
        prop_assert_eq!(ns, spec.ns);
        prop_assert_eq!(ng, spec.ng);
        prop_assert_eq!(nb, spec.nb);
        prop_assert_eq!(np, spec.np);
        // Every required path touches a buffered flip-flop.
        let hubs: std::collections::HashSet<_> =
            bench.netlist.buffered_flip_flops().into_iter().collect();
        for p in bench.paths.iter() {
            prop_assert!(hubs.contains(&p.source) || hubs.contains(&p.sink));
        }
        // Short paths share endpoints with their max paths and are shorter.
        for (idx, sp) in bench.short_paths.iter().enumerate() {
            if let Some(sp) = sp {
                let mp = bench.paths.path(PathId::new(idx as u32));
                prop_assert_eq!(sp.source, mp.source);
                prop_assert_eq!(sp.sink, mp.sink);
                prop_assert!(sp.len() < mp.len());
            }
        }
    }

    #[test]
    fn aligned_test_brackets_in_window_delays((spec, seed) in spec_strategy()) {
        let bench = GeneratedBenchmark::generate(&spec, seed);
        let model = TimingModel::build(&bench, &VariationConfig::paper());
        let flow = EffiTestFlow::new(FlowConfig::default());
        let prepared = flow.plan(&bench, &model).expect("prepare");
        let chip = model.sample_chip(seed ^ 0xA5A5);
        let mut tester = VirtualTester::new(&chip);
        let result = run_aligned_test(
            &model,
            &mut tester,
            &prepared.batches.batches,
            &HoldBounds::default(),
            &AlignedTestConfig { epsilon: prepared.epsilon, ..AlignedTestConfig::default() },
        );
        for (&p, b) in &result.bounds {
            prop_assert!(b.lower <= b.upper + 1e-12);
            prop_assert!(b.converged(prepared.epsilon + 1e-9));
            let truth = chip.setup_delay(p);
            let init = DelayBounds::from_gaussian(model.path_mean(p), model.path_sigma(p), 3.0);
            if truth >= init.lower && truth <= init.upper {
                prop_assert!(
                    b.lower - 1e-9 <= truth && truth <= b.upper + 1e-9,
                    "bounds [{}, {}] miss {}", b.lower, b.upper, truth
                );
            }
        }
    }

    #[test]
    fn batches_never_contain_conflicts((spec, seed) in spec_strategy()) {
        let bench = GeneratedBenchmark::generate(&spec, seed);
        let model = TimingModel::build(&bench, &VariationConfig::paper());
        let all: Vec<usize> = (0..model.path_count()).collect();
        let oracle = ConflictOracle::new(&bench, 1);
        let widths: Vec<f64> = all.iter().map(|&p| model.path_sigma(p)).collect();
        let batches = build_batches(&oracle, &all, &widths);
        let mut seen = vec![false; all.len()];
        for batch in &batches {
            for (i, &a) in batch.iter().enumerate() {
                prop_assert!(!seen[a], "path {a} in two batches");
                seen[a] = true;
                for &b in &batch[i + 1..] {
                    prop_assert!(!oracle.conflicts(a, b));
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exact_knowledge_configuration_is_sound((spec, seed) in spec_strategy()) {
        // With exact delay knowledge, a successful configuration must make
        // the chip pass; a refusal must mean even ideal knowledge fails.
        let bench = GeneratedBenchmark::generate(&spec, seed);
        let model = TimingModel::build(&bench, &VariationConfig::paper());
        let buffers = effitest::flow::configure::BufferIndex::new(&model);
        let chip = model.sample_chip(seed ^ 0x1234);
        // A moderately tight period: between median-ish and the chip's own
        // untuned requirement.
        let td = chip.min_period_untuned() * 0.99;
        let ok = effitest::flow::configure::ideal_configure_and_check(
            &model, &buffers, &chip, td,
        );
        if ok {
            // ideal_configure_and_check already verified chip_passes; also
            // confirm the untuned chip genuinely failed at this period, so
            // the buffers did real work.
            let zeros = vec![0.0; chip.path_count()];
            prop_assert!(!chip_passes(&chip, td, &zeros));
        }
    }

    #[test]
    fn chip_sampling_matches_model_sigma((spec, seed) in spec_strategy()) {
        let bench = GeneratedBenchmark::generate(&spec, seed);
        let model = TimingModel::build(&bench, &VariationConfig::paper());
        let n = 300;
        let samples: Vec<f64> =
            (0..n).map(|k| model.sample_chip(seed + k).setup_delay(0)).collect();
        let mean = effitest::linalg::stats::mean(&samples);
        let sd = effitest::linalg::stats::std_dev(&samples);
        let se = model.path_sigma(0) / (n as f64).sqrt();
        prop_assert!((mean - model.path_mean(0)).abs() < 5.0 * se + 1e-9);
        prop_assert!((sd / model.path_sigma(0) - 1.0).abs() < 0.25);
    }
}
