//! Property-based tests for the circuit substrate: generator invariants,
//! format round trips, and sensitization consistency under random seeds.

use effitest_circuit::sensitize::{MutualExclusions, PathRequirements};
use effitest_circuit::{format, BenchmarkSpec, GeneratedBenchmark, PathId, Signal, Topology};
use proptest::prelude::*;

fn spec_strategy() -> impl Strategy<Value = (BenchmarkSpec, u64)> {
    (0..3_usize, 8..30_usize, 0..500_u64).prop_map(|(which, scale, seed)| {
        let base = match which {
            0 => BenchmarkSpec::iscas89_s9234(),
            1 => BenchmarkSpec::iscas89_s38584(),
            _ => BenchmarkSpec::tau13_ac97_ctrl(),
        };
        (base.scaled_down(scale), seed)
    })
}

/// Like [`spec_strategy`], additionally sweeping the topology axis.
fn topo_spec_strategy() -> impl Strategy<Value = (BenchmarkSpec, u64)> {
    (spec_strategy(), 0..Topology::all().len())
        .prop_map(|((spec, seed), t)| (spec.with_topology(Topology::all()[t]), seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn text_format_round_trips_exactly((spec, seed) in spec_strategy()) {
        let bench = GeneratedBenchmark::generate(&spec, seed);
        let text = format::to_text(&bench.netlist, Some(&bench.paths));
        let (netlist, paths) = format::from_text(&text).expect("parse back");
        prop_assert!(netlist.validate().is_ok());
        prop_assert!(paths.validate(&netlist).is_ok());
        prop_assert_eq!(netlist.flip_flop_count(), bench.netlist.flip_flop_count());
        prop_assert_eq!(netlist.gate_count(), bench.netlist.gate_count());
        prop_assert_eq!(netlist.buffer_count(), bench.netlist.buffer_count());
        prop_assert_eq!(paths.len(), bench.paths.len());
        for (a, b) in netlist.flip_flops().zip(bench.netlist.flip_flops()) {
            prop_assert_eq!(&a.1.name, &b.1.name);
            prop_assert_eq!(a.1.buffer, b.1.buffer);
            prop_assert_eq!(a.1.data_input, b.1.data_input);
        }
        for (a, b) in paths.iter().zip(bench.paths.iter()) {
            prop_assert_eq!(a.endpoints(), b.endpoints());
            prop_assert_eq!(&a.gates, &b.gates);
            prop_assert_eq!(a.kind, b.kind);
        }
    }

    #[test]
    fn text_round_trip_is_the_identity_across_topologies((spec, seed) in topo_spec_strategy()) {
        // Metamorphic identity, not just statistics agreement:
        // `from_text(to_text(n))` must reproduce the netlist and path set
        // *exactly* — names, placements, setup/hold, buffer specs, data
        // inputs, gate inputs, path ids and order — for every topology in
        // the scenario matrix.
        let bench = GeneratedBenchmark::generate(&spec, seed);
        let text = format::to_text(&bench.netlist, Some(&bench.paths));
        let (netlist, paths) = format::from_text(&text).expect("parse back");
        prop_assert_eq!(&netlist, &bench.netlist);
        prop_assert_eq!(&paths, &bench.paths);
        // And the round trip is a fixed point: serializing the parse
        // yields the same bytes.
        prop_assert_eq!(format::to_text(&netlist, Some(&paths)), text);
    }

    #[test]
    fn requirements_are_internally_consistent((spec, seed) in spec_strategy()) {
        let bench = GeneratedBenchmark::generate(&spec, seed);
        for p in bench.paths.iter().take(24) {
            let r = PathRequirements::compute(&bench.netlist, p).expect("valid path");
            // Through gates are exactly the path's gates.
            let mut sorted = p.gates.to_vec();
            sorted.sort_unstable();
            prop_assert_eq!(r.through(), &sorted[..]);
            // A path never requires its own gates or source stable.
            for &(sig, _) in r.stable() {
                if let Signal::Gate(g) = sig {
                    prop_assert!(!p.gates.contains(&g));
                }
                prop_assert!(sig != Signal::Ff(p.source));
            }
            // Compatibility is reflexive-negative (a path conflicts with
            // itself through its own through set).
            prop_assert!(!r.compatible(&r));
        }
    }

    #[test]
    fn mutual_exclusions_are_symmetric((spec, seed) in spec_strategy()) {
        let bench = GeneratedBenchmark::generate(&spec, seed);
        let take = bench.paths.len().min(20);
        let refs: Vec<_> = (0..take)
            .map(|i| bench.paths.path(PathId::new(i as u32)))
            .collect();
        let mx = MutualExclusions::build(&bench.netlist, &refs, 1).expect("valid paths");
        for i in 0..take {
            for j in 0..take {
                prop_assert_eq!(mx.excludes(i, j), mx.excludes(j, i));
            }
            prop_assert!(!mx.excludes(i, i));
        }
    }

    #[test]
    fn buffer_spec_snapping_is_idempotent(
        min in -20.0_f64..0.0,
        width in 0.1_f64..40.0,
        steps in 2..40_u32,
        probe in -50.0_f64..50.0,
    ) {
        let spec = effitest_circuit::TuningBufferSpec::new(min, width, steps);
        let snapped = spec.snap(probe);
        prop_assert!(spec.admits(snapped));
        prop_assert_eq!(spec.snap(snapped), snapped);
        // The snapped value is the nearest representable one.
        let clamped = probe.clamp(spec.min(), spec.max());
        for v in spec.values() {
            prop_assert!(
                (snapped - clamped).abs() <= (v - clamped).abs() + 1e-9,
                "{snapped} is not nearest to {probe}"
            );
        }
    }

    #[test]
    fn generation_is_pure((spec, seed) in spec_strategy()) {
        let a = GeneratedBenchmark::generate(&spec, seed);
        let b = GeneratedBenchmark::generate(&spec, seed);
        prop_assert_eq!(a.netlist, b.netlist);
        prop_assert_eq!(a.paths, b.paths);
        prop_assert_eq!(a.short_paths.len(), b.short_paths.len());
    }
}
