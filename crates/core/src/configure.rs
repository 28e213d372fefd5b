//! Buffer configuration and yield evaluation (paper §3.4).
//!
//! Translates the per-path delay ranges (measured + predicted) into the
//! solver's configuration problem, solves for the discrete buffer values,
//! and evaluates chips against the designated clock period — including the
//! two reference policies used by the paper's yield tables: *ideal*
//! configuration from perfect delay knowledge (`y_i`) and the no-buffer
//! baseline.

use std::collections::HashMap;

use effitest_circuit::FlipFlopId;
use effitest_solver::align::BufferVar;
use effitest_solver::config::{ConfigPath, ConfigProblem, ConfigSolution};
use effitest_ssta::{ChipInstance, TimingModel};
use effitest_tester::{chip_passes, DelayBounds};

use crate::hold::HoldBounds;

/// Dense indexing of a model's buffered flip-flops.
#[derive(Debug, Clone)]
pub struct BufferIndex {
    index: HashMap<FlipFlopId, usize>,
    ffs: Vec<FlipFlopId>,
}

impl BufferIndex {
    /// Builds the index from the model's buffered flip-flops.
    pub fn new(model: &TimingModel) -> Self {
        let ffs: Vec<FlipFlopId> = model.buffered_ffs().to_vec();
        let index = ffs.iter().enumerate().map(|(i, &ff)| (ff, i)).collect();
        BufferIndex { index, ffs }
    }

    /// Number of buffers.
    pub fn len(&self) -> usize {
        self.ffs.len()
    }

    /// `true` if the design has no buffers.
    pub fn is_empty(&self) -> bool {
        self.ffs.is_empty()
    }

    /// Dense index of a flip-flop's buffer, if it has one.
    pub fn of(&self, ff: FlipFlopId) -> Option<usize> {
        self.index.get(&ff).copied()
    }

    /// The flip-flop at a dense index.
    pub fn ff(&self, idx: usize) -> FlipFlopId {
        self.ffs[idx]
    }
}

/// Builds the configuration problem from delay ranges.
///
/// `lambda` attaches the statistical hold bounds (eq. 21); pass
/// [`HoldBounds::default`] to omit them.
pub fn build_config_problem(
    model: &TimingModel,
    buffers: &BufferIndex,
    ranges: &[DelayBounds],
    lambda: &HoldBounds,
    clock_period: f64,
) -> ConfigProblem {
    let spec = model.buffer_spec();
    let buffer_vars: Vec<BufferVar> = (0..buffers.len())
        .map(|_| BufferVar { min: spec.min(), max: spec.max(), steps: spec.steps() })
        .collect();
    let paths: Vec<ConfigPath> = (0..model.path_count())
        .map(|p| {
            let (src, snk) = model.endpoints(p);
            ConfigPath {
                lower: ranges[p].lower,
                upper: ranges[p].upper,
                source_buffer: buffers.of(src),
                sink_buffer: buffers.of(snk),
                hold_lower_bound: lambda.lambda(p),
            }
        })
        .collect();
    ConfigProblem { clock_period, paths, buffers: buffer_vars }
}

/// Solves the configuration problem; `None` means the chip cannot be
/// configured to run at the period (rejected).
pub fn configure(problem: &ConfigProblem) -> Option<ConfigSolution> {
    problem.solve()
}

/// Per-path shifts `x_i - x_j` induced by a buffer assignment.
pub fn shifts_for(model: &TimingModel, buffers: &BufferIndex, buffer_values: &[f64]) -> Vec<f64> {
    (0..model.path_count())
        .map(|p| {
            let (src, snk) = model.endpoints(p);
            let xi = buffers.of(src).map_or(0.0, |b| buffer_values[b]);
            let xj = buffers.of(snk).map_or(0.0, |b| buffer_values[b]);
            xi - xj
        })
        .collect()
}

/// Ideal configuration: perfect knowledge of this chip's delays (ranges
/// collapse to points, hold bounds are the realized ones). Returns whether
/// the chip can be made functional at `clock_period` — the paper's `y_i`.
pub fn ideal_configure_and_check(
    model: &TimingModel,
    buffers: &BufferIndex,
    chip: &ChipInstance,
    clock_period: f64,
) -> bool {
    let spec = model.buffer_spec();
    let buffer_vars: Vec<BufferVar> = (0..buffers.len())
        .map(|_| BufferVar { min: spec.min(), max: spec.max(), steps: spec.steps() })
        .collect();
    let paths: Vec<ConfigPath> = (0..model.path_count())
        .map(|p| {
            let (src, snk) = model.endpoints(p);
            let d = chip.setup_delay(p);
            ConfigPath {
                lower: d,
                upper: d,
                source_buffer: buffers.of(src),
                sink_buffer: buffers.of(snk),
                hold_lower_bound: chip.hold_bound(p),
            }
        })
        .collect();
    let problem = ConfigProblem { clock_period, paths, buffers: buffer_vars };
    match problem.solve() {
        None => false,
        Some(sol) => {
            let shifts = shifts_for(model, buffers, &sol.buffer_values);
            chip_passes(chip, clock_period, &shifts)
        }
    }
}

/// The no-buffer baseline: does the chip work at `clock_period` with all
/// buffers at zero?
pub fn untuned_check(chip: &ChipInstance, clock_period: f64) -> bool {
    let zeros = vec![0.0; chip.path_count()];
    chip_passes(chip, clock_period, &zeros)
}

#[cfg(test)]
mod tests {
    use super::*;
    use effitest_circuit::{BenchmarkSpec, GeneratedBenchmark};
    use effitest_linalg::stats::empirical_quantile;
    use effitest_ssta::VariationConfig;

    fn fixture() -> (GeneratedBenchmark, TimingModel) {
        let bench =
            GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s9234().scaled_down(10), 1);
        let model = TimingModel::build(&bench, &VariationConfig::paper());
        (bench, model)
    }

    #[test]
    fn buffer_index_is_dense_and_consistent() {
        let (_, model) = fixture();
        let idx = BufferIndex::new(&model);
        assert_eq!(idx.len(), model.buffered_ffs().len());
        for (i, &ff) in model.buffered_ffs().iter().enumerate() {
            assert_eq!(idx.of(ff), Some(i));
            assert_eq!(idx.ff(i), ff);
        }
    }

    #[test]
    fn exact_ranges_make_configuration_consistent_with_chip_pass() {
        // With exact per-chip ranges, a successful configuration must make
        // the chip pass its final test.
        let (_, model) = fixture();
        let buffers = BufferIndex::new(&model);
        // Use a stringent period: the median of the untuned population.
        let periods: Vec<f64> =
            (0..100).map(|s| model.sample_chip(s).min_period_untuned()).collect();
        let td = empirical_quantile(&periods, 0.5);

        let mut configured_pass = 0;
        let mut configured_total = 0;
        for seed in 0..40 {
            let chip = model.sample_chip(1000 + seed);
            let ranges: Vec<DelayBounds> = (0..model.path_count())
                .map(|p| {
                    let d = chip.setup_delay(p);
                    DelayBounds::new(d, d)
                })
                .collect();
            // Exact hold bounds as lambda.
            let mut lambda_map = crate::hold::HoldBounds::default();
            let _ = &mut lambda_map; // built via compute path below instead
            let problem = {
                // Hand-build with exact hold bounds.
                let spec = model.buffer_spec();
                let buffer_vars: Vec<BufferVar> = (0..buffers.len())
                    .map(|_| BufferVar { min: spec.min(), max: spec.max(), steps: spec.steps() })
                    .collect();
                let paths: Vec<ConfigPath> = (0..model.path_count())
                    .map(|p| {
                        let (src, snk) = model.endpoints(p);
                        ConfigPath {
                            lower: ranges[p].lower,
                            upper: ranges[p].upper,
                            source_buffer: buffers.of(src),
                            sink_buffer: buffers.of(snk),
                            hold_lower_bound: chip.hold_bound(p),
                        }
                    })
                    .collect();
                ConfigProblem { clock_period: td, paths, buffers: buffer_vars }
            };
            if let Some(sol) = configure(&problem) {
                configured_total += 1;
                let shifts = shifts_for(&model, &buffers, &sol.buffer_values);
                if chip_passes(&chip, td, &shifts) {
                    configured_pass += 1;
                }
            }
        }
        assert!(configured_total > 0, "no chip was configurable");
        assert_eq!(
            configured_pass, configured_total,
            "a configuration from exact delays failed the final test"
        );
    }

    #[test]
    fn tuning_beats_no_tuning() {
        let (_, model) = fixture();
        let buffers = BufferIndex::new(&model);
        let periods: Vec<f64> =
            (0..200).map(|s| model.sample_chip(s).min_period_untuned()).collect();
        let td = empirical_quantile(&periods, 0.5);
        let n = 100;
        let mut untuned = 0;
        let mut ideal = 0;
        for seed in 0..n {
            let chip = model.sample_chip(5000 + seed);
            if untuned_check(&chip, td) {
                untuned += 1;
            }
            if ideal_configure_and_check(&model, &buffers, &chip, td) {
                ideal += 1;
            }
        }
        assert!(ideal >= untuned, "ideal tuning ({ideal}) must not lose to no tuning ({untuned})");
        // At the median period roughly half the chips fail untuned; tuning
        // should rescue a visible fraction.
        assert!(ideal > untuned, "tuning rescued no chip at the median period");
    }

    #[test]
    fn shifts_are_zero_for_unbuffered_paths() {
        let (_, model) = fixture();
        let buffers = BufferIndex::new(&model);
        let values: Vec<f64> = (0..buffers.len()).map(|i| i as f64).collect();
        let shifts = shifts_for(&model, &buffers, &values);
        for (p, &shift) in shifts.iter().enumerate() {
            let (src, snk) = model.endpoints(p);
            if buffers.of(src).is_none() && buffers.of(snk).is_none() {
                assert_eq!(shift, 0.0);
            }
        }
    }

    #[test]
    fn config_problem_mirrors_ranges_and_lambda() {
        let (_, model) = fixture();
        let buffers = BufferIndex::new(&model);
        let ranges: Vec<DelayBounds> = (0..model.path_count())
            .map(|p| DelayBounds::from_gaussian(model.path_mean(p), model.path_sigma(p), 3.0))
            .collect();
        let lambda = crate::hold::compute_hold_bounds(
            &model,
            &crate::hold::HoldConfig { samples: 32, ..Default::default() },
            1,
        );
        let problem =
            build_config_problem(&model, &buffers, &ranges, &lambda, model.nominal_period());
        assert_eq!(problem.paths.len(), model.path_count());
        for (p, cp) in problem.paths.iter().enumerate() {
            assert_eq!(cp.lower, ranges[p].lower);
            assert_eq!(cp.upper, ranges[p].upper);
            assert_eq!(cp.hold_lower_bound, lambda.lambda(p));
        }
        assert_eq!(problem.buffers.len(), buffers.len());
    }
}
