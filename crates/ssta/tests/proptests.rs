//! Property-based tests for the SSTA substrate: canonical-form statistics
//! against Monte-Carlo ground truth under random benchmarks, and the sparse
//! forms and masked draws against their dense oracle.

use effitest_circuit::{BenchmarkSpec, GeneratedBenchmark, Topology};
use effitest_linalg::stats;
use effitest_ssta::{CanonicalDelay, ChipInstance, TimingModel, VariationConfig};
use proptest::prelude::*;

#[path = "support/dense.rs"]
mod dense;
use dense::check_against_dense;

fn model_strategy() -> impl Strategy<Value = (TimingModel, u64)> {
    (10..28_usize, 0..200_u64).prop_map(|(scale, seed)| {
        let spec = BenchmarkSpec::iscas89_s13207().scaled_down(scale);
        let bench = GeneratedBenchmark::generate(&spec, seed);
        (TimingModel::build(&bench, &VariationConfig::paper()), seed)
    })
}

/// Strategy: a variation configuration with a grid of 1 to 16 cells per
/// edge, a die-wide correlation that is sometimes exactly 0 or 1, a local
/// sigma that is sometimes exactly 0, and the paper's parameter sigmas
/// scaled by 0 to 2.
fn variation_strategy() -> impl Strategy<Value = VariationConfig> {
    (1..=16_usize, 0_u8..4, 0.0..=1.0_f64, 0_u8..3, 0.0..0.4_f64, 0.0..=2.0_f64).prop_map(
        |(grid_dim, rho_kind, rho, local_kind, local, scale)| {
            let paper = VariationConfig::paper();
            VariationConfig {
                sigma_length: paper.sigma_length * scale,
                sigma_oxide: paper.sigma_oxide * scale,
                sigma_vth: paper.sigma_vth * scale,
                global_correlation: match rho_kind {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rho,
                },
                grid_dim,
                local_sigma: if local_kind == 0 { 0.0 } else { local },
            }
        },
    )
}

/// Strategy: a scaled-down paper circuit in one of the generator's
/// topologies, and its generator seed.
fn circuit_strategy() -> impl Strategy<Value = (BenchmarkSpec, u64)> {
    (0..3_usize, 0..Topology::all().len(), 10..40_usize, 0..100_u64).prop_map(
        |(circuit, topology, scale, seed)| {
            let spec = [
                BenchmarkSpec::iscas89_s9234(),
                BenchmarkSpec::iscas89_s13207(),
                BenchmarkSpec::tau13_ac97_ctrl(),
            ][circuit]
                .scaled_down(scale)
                .with_topology(Topology::all()[topology]);
            (spec, seed)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sparse_forms_and_masked_draws_match_the_dense_oracle(
        config in variation_strategy(),
        (spec, seed) in circuit_strategy(),
        inflation in proptest::option::of(1.0..1.5_f64),
    ) {
        let bench = GeneratedBenchmark::generate(&spec, seed);
        let mut model = TimingModel::build(&bench, &config);
        if let Some(factor) = inflation {
            model = model.with_inflated_sigma(factor);
        }
        let chips = (0..6).map(|k| seed.wrapping_mul(0x9E37).wrapping_add(k));
        prop_assert_eq!(check_against_dense(&model, bench.netlist.gate_count(), chips), Ok(()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn covariance_matrices_are_psd((model, _seed) in model_strategy()) {
        let n = model.path_count().min(12);
        let idx: Vec<usize> = (0..n).collect();
        let cov = model.covariance_matrix(&idx);
        prop_assert!(cov.is_symmetric(1e-9));
        // PSD check via regularized Cholesky (tiny jitter tolerated).
        let chol = effitest_linalg::CholeskyDecomposition::new_regularized(&cov);
        prop_assert!(chol.is_ok(), "covariance not PSD: {:?}", chol.err());
    }

    #[test]
    fn empirical_correlations_match_model((model, seed) in model_strategy()) {
        prop_assume!(model.path_count() >= 2);
        let n = 400;
        let chips: Vec<_> = (0..n).map(|k| model.sample_chip(seed * 7919 + k)).collect();
        {
            let (i, j) = (0_usize, 1_usize);
            let a: Vec<f64> = chips.iter().map(|c| c.setup_delay(i)).collect();
            let b: Vec<f64> = chips.iter().map(|c| c.setup_delay(j)).collect();
            let emp = stats::correlation(&a, &b);
            let exact = model.correlation(i, j);
            prop_assert!(
                (emp - exact).abs() < 0.15,
                "path ({i},{j}): empirical {emp:.3} vs model {exact:.3}"
            );
        }
    }

    #[test]
    fn hold_bounds_always_below_setup_delays((model, seed) in model_strategy()) {
        let chip = model.sample_chip(seed ^ 0xFEED);
        for p in 0..model.path_count() {
            if let Some(h) = chip.hold_bound(p) {
                // underline(d) = hold - d_min must sit far under D = d + s.
                prop_assert!(h < chip.setup_delay(p));
            }
        }
    }

    #[test]
    fn inflation_is_exact_on_sigmas_and_covariances((model, _seed) in model_strategy()) {
        let inflated = model.with_inflated_sigma(1.1);
        let n = model.path_count().min(6);
        for i in 0..n {
            prop_assert!((inflated.path_sigma(i) / model.path_sigma(i) - 1.1).abs() < 1e-9);
            for j in 0..n {
                if i != j {
                    prop_assert!(
                        (inflated.covariance(i, j) - model.covariance(i, j)).abs() < 1e-9
                    );
                } else {
                    // The diagonal is the inflated variance: sigma grows
                    // 10%, so the variance grows by 1.21.
                    let variance = inflated.path_sigma(i).powi(2);
                    prop_assert!((inflated.covariance(i, i) / variance - 1.0).abs() < 1e-9);
                    prop_assert!(
                        (inflated.covariance(i, i) / model.covariance(i, i) - 1.21).abs() < 1e-9
                    );
                    prop_assert_eq!(inflated.correlation(i, i), 1.0);
                }
            }
        }
    }

    #[test]
    fn buffer_spec_follows_nominal_period((model, _seed) in model_strategy()) {
        let spec = model.buffer_spec();
        prop_assert!((spec.width() - model.nominal_period() / 8.0).abs() < 1e-9);
        prop_assert_eq!(spec.steps(), 20);
        prop_assert!((spec.min() + spec.max()).abs() < 1e-9, "range must be centered");
    }
}
