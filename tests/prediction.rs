//! Statistical calibration and differential conformance of the
//! plan-level prediction engine.
//!
//! Three layers of guarantees over `Predictor` (paper eqs. 4–5 with the
//! conditioning gains precomputed per flow plan):
//!
//! 1. **Calibration** — across *every* topology x variation-profile cell
//!    of the scenario axes (PR 4), predicted `mu' +- 3 sigma'` ranges
//!    cover at least 93% of the unmeasured true delays, and upper-bound
//!    conditioning shifts predicted means up relative to center
//!    conditioning (the paper's conservatism argument, §3.4). Seeds are
//!    pinned; per-cell thresholds are the documented constants below.
//! 2. **Differential conformance** — on the full 24-cell scenario matrix,
//!    the precomputed engine's output is bitwise identical to the legacy
//!    per-chip conditioning path (`predict_ranges`, which rebuilds and
//!    refactorizes every group Gaussian per chip), composed with
//!    `EffiTestFlow::test_and_predict` on the same measured bounds.
//! 3. **Thread invariance** — predicted ranges and measured flags are
//!    bitwise identical at 1 and 4 worker threads through the population
//!    engine.

use std::collections::HashMap;

use effitest::flow::population::{run_population_scratch, PopulationConfig};
use effitest::flow::predict::predict_ranges;
use effitest::flow::select::{all_selected, select_paths, SelectConfig};
use effitest::prelude::*;

/// Benchmark-generation seed for every calibration cell.
const GEN_SEED: u64 = 1;
/// Chip-sampling seeds per cell (pinned; chip `k` uses `BASE + k`).
const CHIP_SEED_BASE: u64 = 4_000;
const CHIPS_PER_CELL: u64 = 8;
/// Measured-window width around the true delay (same regime as the
/// aligned test's converged ranges on these circuits). Kept tight: the
/// conservative upper-bound conditioning shifts means up by O(eps), so a
/// wide window trades low-side coverage for conservatism.
const MEASURE_EPS: f64 = 0.25;

/// Aggregate coverage floor over the whole matrix: the paper's 93% bar.
/// (The pinned seeds measure ~98.6%.)
const AGGREGATE_COVERAGE_FLOOR: f64 = 0.93;

/// Optimistic-miss ceiling per cell: the fraction of unmeasured paths
/// whose true delay lands *above* the predicted upper bound — the unsafe
/// direction for setup timing. Conservative (low-side) misses are the
/// method working as specified; optimistic ones must stay rare.
const OPTIMISTIC_MISS_CEILING: f64 = 0.04;

/// Coverage floor per calibration cell: the fraction of unmeasured true
/// delays inside their predicted range.
///
/// Default: the paper's 93% bar, which every cell but three clears
/// outright with the pinned seeds. The documented exceptions are the
/// balanced H-tree cells: that topology generates structurally duplicated
/// paths whose model correlation is exactly 1, so conditioning on a
/// measured peer collapses `sigma'` to ~0 and the conservative
/// *upper-bound* observation (paper §3.4) parks the zero-width prediction
/// `eps/2` above the true delay — a low-side, conservative miss by
/// construction, not an estimation error. Those cells get reduced floors
/// (measured: spatial 0.92, independent 0.80, tail 0.93 at these seeds)
/// and their misses are separately required to be conservative via
/// [`OPTIMISTIC_MISS_CEILING`].
fn coverage_floor(topology: Topology, variation: VariationProfile) -> f64 {
    match (topology, variation) {
        (Topology::BalancedHTree, VariationProfile::Independent) => 0.75,
        (
            Topology::BalancedHTree,
            VariationProfile::SpatiallyCorrelated | VariationProfile::HighSigmaTail,
        ) => 0.88,
        _ => 0.93,
    }
}

/// Conservatism floor per cell: the fraction of unmeasured paths whose
/// upper-bound-conditioned mean is at least the center-conditioned mean.
/// Positive correlations dominate every topology, so (almost) all means
/// must shift up; 0.9 leaves room for near-zero-correlation stragglers.
fn conservatism_floor(_topology: Topology, _variation: VariationProfile) -> f64 {
    0.9
}

/// Measured bounds: a tight window around the chip's true delay.
fn measure(chip: &ChipInstance, paths: &[usize], eps: f64) -> HashMap<usize, DelayBounds> {
    paths
        .iter()
        .map(|&p| {
            let d = chip.setup_delay(p);
            (p, DelayBounds::new(d - eps / 2.0, d + eps / 2.0))
        })
        .collect()
}

fn range_bits(r: &effitest::flow::predict::PredictedRanges) -> Vec<(u64, u64)> {
    r.ranges.iter().map(|b| (b.lower.to_bits(), b.upper.to_bits())).collect()
}

/// One calibration fixture per (topology, variation) cell: generated
/// benchmark, model, groups, and selected representatives.
fn cell_fixture(
    topology: Topology,
    variation: VariationProfile,
) -> (TimingModel, Vec<effitest::flow::select::PathGroup>, Vec<usize>) {
    let spec = BenchmarkSpec::iscas89_s13207().scaled_down(12).with_topology(topology);
    let bench = GeneratedBenchmark::generate(&spec, GEN_SEED);
    let model = TimingModel::build(&bench, &variation.config());
    let groups = select_paths(&model, &SelectConfig::default(), 1);
    let selected = all_selected(&groups);
    (model, groups, selected)
}

/// Predicts the pinned chips of a cell from measured `selected` paths and
/// counts the unmeasured true delays: `(inside their predicted range,
/// above it, all)`.
fn coverage(model: &TimingModel, predictor: &Predictor, selected: &[usize]) -> (u64, u64, u64) {
    let (mut covered, mut optimistic, mut total) = (0_u64, 0_u64, 0_u64);
    for k in 0..CHIPS_PER_CELL {
        let chip = model.sample_chip(CHIP_SEED_BASE + k);
        let tested = measure(&chip, selected, MEASURE_EPS);
        let predicted = predictor.predict(&tested);
        for p in 0..model.path_count() {
            if tested.contains_key(&p) {
                continue;
            }
            total += 1;
            let d = chip.setup_delay(p);
            if predicted.ranges[p].lower <= d && d <= predicted.ranges[p].upper {
                covered += 1;
            } else if d > predicted.ranges[p].upper {
                optimistic += 1;
            }
        }
    }
    (covered, optimistic, total)
}

#[test]
fn predicted_ranges_cover_unmeasured_truth_on_every_topology_and_variation() {
    let mut exercised = 0_usize;
    let mut agg_covered = 0_u64;
    let mut agg_total = 0_u64;
    for topology in Topology::all() {
        for variation in VariationProfile::all() {
            let (model, groups, selected) = cell_fixture(topology, variation);
            let predictor = Predictor::new(&model, &groups, &selected, 3.0, 1);
            assert_eq!(predictor.fallback_count(), 0, "{topology:?}/{variation:?} fell back");

            let (covered, optimistic, total) = coverage(&model, &predictor, &selected);
            if total == 0 {
                // Near-independent regimes can select every path (nothing
                // left to predict); coverage is vacuous there.
                assert_eq!(selected.len(), model.path_count());
                continue;
            }
            exercised += 1;
            agg_covered += covered;
            agg_total += total;
            let rate = covered as f64 / total as f64;
            let floor = coverage_floor(topology, variation);
            assert!(
                rate >= floor,
                "{topology:?}/{variation:?}: coverage {rate:.3} below {floor} \
                 ({covered}/{total})"
            );
            // Misses must err conservative: the chip being *slower* than
            // the predicted upper bound is the unsafe direction.
            assert!(
                optimistic as f64 <= total as f64 * OPTIMISTIC_MISS_CEILING,
                "{topology:?}/{variation:?}: {optimistic}/{total} optimistic misses"
            );
        }
    }
    // The sweep must be a real statistical test, not a wall of vacuous
    // cells: most regimes leave unmeasured paths to predict.
    assert!(exercised >= 12, "only {exercised} cells exercised coverage");
    let aggregate = agg_covered as f64 / agg_total as f64;
    assert!(
        aggregate >= AGGREGATE_COVERAGE_FLOOR,
        "matrix-wide coverage {aggregate:.3} below {AGGREGATE_COVERAGE_FLOOR} \
         ({agg_covered}/{agg_total})"
    );
}

/// Fig. 7's models grow every path sigma by 10% through a per-path
/// independent term while cross-path covariances stay fixed. Chips are
/// drawn from that model, so prediction must condition on its covariance,
/// whose diagonal carries the extra variance. Conditioning on the
/// uninflated diagonal instead left about a sixth of the true delays above
/// their predicted upper bounds.
#[test]
fn predicted_ranges_cover_truth_on_inflated_models() {
    for spec in [
        BenchmarkSpec::iscas89_s9234().scaled_down(10),
        BenchmarkSpec::iscas89_s13207().scaled_down(12),
    ] {
        let bench = GeneratedBenchmark::generate(&spec, GEN_SEED);
        let model = TimingModel::build(&bench, &VariationConfig::paper()).with_inflated_sigma(1.1);
        let groups = select_paths(&model, &SelectConfig::default(), 1);
        let selected = all_selected(&groups);
        let predictor = Predictor::new(&model, &groups, &selected, 3.0, 1);
        let (covered, optimistic, total) = coverage(&model, &predictor, &selected);
        let name = &spec.name;
        assert!(total > 0, "{name}: nothing left to predict");
        let rate = covered as f64 / total as f64;
        assert!(
            rate >= AGGREGATE_COVERAGE_FLOOR,
            "{name} inflated: coverage {rate:.3} below {AGGREGATE_COVERAGE_FLOOR} \
             ({covered}/{total})"
        );
        assert!(
            optimistic as f64 <= total as f64 * OPTIMISTIC_MISS_CEILING,
            "{name} inflated: {optimistic}/{total} optimistic misses"
        );
    }
}

#[test]
fn upper_bound_conditioning_is_conservative_on_every_topology_and_variation() {
    for topology in Topology::all() {
        for variation in VariationProfile::all() {
            let (model, groups, selected) = cell_fixture(topology, variation);
            let predictor = Predictor::new(&model, &groups, &selected, 3.0, 1);
            let chip = model.sample_chip(CHIP_SEED_BASE + 13);
            let eps = 2.0;
            let tested = measure(&chip, &selected, eps);
            let predicted_hi = predictor.predict(&tested);
            // Zero-width windows at the interval centers: the engine then
            // conditions on the centers instead of the upper bounds.
            let tested_center: HashMap<usize, DelayBounds> = tested
                .iter()
                .map(|(&p, b)| {
                    let c = b.center();
                    (p, DelayBounds::new(c, c))
                })
                .collect();
            let predicted_center = predictor.predict(&tested_center);
            let mut higher = 0_u64;
            let mut comparable = 0_u64;
            for p in 0..model.path_count() {
                if tested.contains_key(&p) {
                    continue;
                }
                comparable += 1;
                if predicted_hi.ranges[p].center() >= predicted_center.ranges[p].center() - 1e-9 {
                    higher += 1;
                }
            }
            let floor = conservatism_floor(topology, variation);
            assert!(
                higher as f64 >= comparable as f64 * floor,
                "{topology:?}/{variation:?}: only {higher}/{comparable} means shifted up"
            );
        }
    }
}

#[test]
fn predictor_is_bitwise_identical_to_legacy_on_the_full_scenario_matrix() {
    // Every cell of the (topology x variation) matrix, through the real
    // flow: aligned test, then engine vs from-scratch conditioning on the
    // same measured bounds — bit for bit.
    let mut axes = ScenarioAxes::smoke(40);
    axes.chip_counts = vec![2];
    axes.flow.hold.samples = 32;
    let cells = axes.cells();
    assert_eq!(cells.len(), 24, "scenario matrix shape changed");
    for cell in &cells {
        let bench = GeneratedBenchmark::generate(&cell.spec, cell.seed);
        let model = TimingModel::build_with_buffer_range(
            &bench,
            &cell.variation.config(),
            cell.tuning_fraction,
            TimingModel::BUFFER_STEPS,
        );
        let flow = EffiTestFlow::new(cell.flow.clone());
        let plan = flow.plan(&bench, &model).expect("generated benchmarks have paths");
        for k in 0..2_u64 {
            let chip = model.sample_chip(cell.seed.wrapping_mul(0x1000).wrapping_add(1 + k));
            let (engine, aligned) = flow.test_and_predict(&plan, &chip);
            let legacy =
                predict_ranges(&model, &plan.groups, &aligned.bounds, flow.config().bound_sigma);
            assert_eq!(
                range_bits(&engine),
                range_bits(&legacy),
                "{}: engine diverged from legacy conditioning on chip {k}",
                cell.id()
            );
            assert_eq!(engine.measured, legacy.measured, "{}: measured flags", cell.id());
            assert_eq!(engine.fallbacks, legacy.fallbacks, "{}: fallback count", cell.id());
        }
    }
}

#[test]
fn predicted_ranges_are_bitwise_thread_invariant() {
    // The prediction engine rides the population engine's per-worker
    // workspaces: predicted ranges and measured flags must be bitwise
    // identical at any worker count.
    let bench = GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s9234().scaled_down(10), 1);
    let model = TimingModel::build(&bench, &VariationConfig::paper());
    let flow = EffiTestFlow::new(FlowConfig::default());
    let plan = flow.plan(&bench, &model).expect("plan");
    type ChipKey = (Vec<(u64, u64)>, Vec<bool>);
    let run = |threads: usize| -> Vec<ChipKey> {
        let pop = PopulationConfig { n_chips: 8, base_seed: 5_500, threads };
        run_population_scratch(&model, &pop, FlowWorkspace::new, |ws, _k, chip| {
            let (predicted, _aligned) = flow.test_and_predict_with(ws, &plan, chip);
            (range_bits(&predicted), predicted.measured)
        })
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial, parallel, "predicted ranges drifted with the thread count");
}

/// Measured bounds under injected tester error: the window keeps its
/// width but its center is displaced by a deterministic seeded Gaussian —
/// the windows a noisy, quantized tester actually converges to.
fn measure_noisy(
    chip: &ChipInstance,
    paths: &[usize],
    eps: f64,
    sigma: f64,
    seed: u64,
) -> HashMap<usize, DelayBounds> {
    use effitest::ssta::{hash_normal, mix_stream};
    let per_chip = mix_stream(seed, chip.seed());
    paths
        .iter()
        .map(|&p| {
            let noise = sigma * hash_normal(mix_stream(per_chip, p as u64));
            let d = chip.setup_delay(p) + noise;
            (p, DelayBounds::new(d - eps / 2.0, d + eps / 2.0))
        })
        .collect()
}

/// Calibration under injected tester noise: matrix-wide coverage floors
/// and optimistic-miss ceilings per noise level (sigma in units of
/// `MEASURE_EPS`). Measured at the pinned seeds: 98.7% / 0.6% at 1x,
/// 98.7% / 0.8% at 4x, 98.5% / 0.9% at 8x, 97.0% / 1.9% at 16x — the
/// statistical prediction degrades *gracefully* because the predicted
/// 3 sigma' ranges dwarf the per-window displacement until the noise
/// reaches the path-sigma scale, and misses keep erring conservative
/// (low side) far below the clean-tester OPTIMISTIC_MISS_CEILING even
/// when they do appear. Floors carry slack for cross-platform float
/// differences in the noise stream's tails.
#[test]
fn noisy_measurements_degrade_coverage_gracefully() {
    const NOISE_SEED: u64 = 0xBAD_5EED;
    // (noise sigma / MEASURE_EPS, aggregate coverage floor, optimistic
    // miss ceiling)
    const LEVELS: [(f64, f64, f64); 4] =
        [(1.0, 0.97, 0.02), (4.0, 0.97, 0.02), (8.0, 0.96, 0.02), (16.0, 0.94, 0.04)];
    let mut cov = [0_u64; LEVELS.len()];
    let mut opt = [0_u64; LEVELS.len()];
    let mut tot = [0_u64; LEVELS.len()];
    for topology in Topology::all() {
        for variation in VariationProfile::all() {
            let (model, _groups, selected) = cell_fixture(topology, variation);
            let groups = select_paths(&model, &SelectConfig::default(), 1);
            let predictor = Predictor::new(&model, &groups, &selected, 3.0, 1);
            for (li, &(noise_rel, _, _)) in LEVELS.iter().enumerate() {
                for k in 0..CHIPS_PER_CELL {
                    let chip = model.sample_chip(CHIP_SEED_BASE + k);
                    let tested = measure_noisy(
                        &chip,
                        &selected,
                        MEASURE_EPS,
                        noise_rel * MEASURE_EPS,
                        NOISE_SEED,
                    );
                    let predicted = predictor.predict(&tested);
                    for p in 0..model.path_count() {
                        if tested.contains_key(&p) {
                            continue;
                        }
                        tot[li] += 1;
                        let d = chip.setup_delay(p);
                        if predicted.ranges[p].lower <= d && d <= predicted.ranges[p].upper {
                            cov[li] += 1;
                        } else if d > predicted.ranges[p].upper {
                            opt[li] += 1;
                        }
                    }
                }
            }
        }
    }
    for (li, &(noise_rel, floor, ceiling)) in LEVELS.iter().enumerate() {
        let coverage = cov[li] as f64 / tot[li] as f64;
        let miss = opt[li] as f64 / tot[li] as f64;
        assert!(
            coverage >= floor,
            "noise {noise_rel}x: coverage {coverage:.4} below {floor} ({}/{})",
            cov[li],
            tot[li]
        );
        assert!(
            miss <= ceiling,
            "noise {noise_rel}x: optimistic miss rate {miss:.4} above {ceiling}"
        );
        // Even the noisiest level must clear the paper's aggregate bar.
        assert!(coverage >= AGGREGATE_COVERAGE_FLOOR);
    }
}
