//! Hostile-silicon evaluation: noisy/quantized testers, aging drift, and
//! adaptive re-tuning.
//!
//! The paper's flow (and the [`scenarios`](crate::scenarios) matrix built
//! on it) assumes an *ideal* tester — every frequency-stepping probe
//! compares the chip's true delay against the period exactly — and a chip
//! whose delays are frozen at manufacturing time. Real silicon breaks both
//! assumptions: automated test equipment quantizes its period grid and
//! jitters around it, and deployed chips age (NBTI/HCI drift slows paths
//! over the field lifetime), invalidating the tuning configuration the
//! flow shipped them with.
//!
//! This module sweeps three hostility axes over the existing scenario
//! cells:
//!
//! 1. **Measurement error** — a non-ideal [`TesterModel`] (deterministic
//!    seeded Gaussian noise plus period quantization) on every probe. Noise
//!    makes contradictory observations *routine*, so the flow runs its
//!    bounds updates under the widening contradiction policy and the report
//!    counts both contradictions and proven-bound widenings.
//! 2. **Aging drift** — a [`DriftModel`] ages every chip after tuning;
//!    the report compares the shipped configuration's survival against a
//!    full re-test of the aged chip.
//! 3. **Adaptive re-tuning** — instead of the full re-test, a sparse
//!    subset of the plan's tested paths (every `retune_stride`-th) is
//!    re-measured path-wise on the aged chip, a [`Predictor`] built once
//!    per cell over that subset extrapolates the rest from the *existing*
//!    plan's correlation groups, and the buffers are re-configured. The
//!    report quantifies the yield recovered per tester iteration spent,
//!    against both the kept configuration (floor) and the full re-test
//!    (ceiling).
//!
//! # Determinism
//!
//! Everything inherits the scenario engine's contract: chips and noise
//! streams derive from pure per-index seeds (noise is keyed by
//! `(noise seed, chip seed, path, probe index)`, never by thread or
//! global probe order), per-chip metrics reduce in chip order, and the
//! JSON serialization contains no wall-clock fields, so reports diff
//! byte-for-byte across reruns and `EFFITEST_THREADS` values.
//!
//! # Example
//!
//! ```
//! use effitest_core::hostile::{run_hostile_matrix, HostileAxes};
//!
//! let mut axes = HostileAxes::smoke(40);
//! axes.scenario.topologies.truncate(1);
//! axes.noise_rel.truncate(1);
//! axes.drifts.truncate(1);
//! let run = run_hostile_matrix(&axes, 1);
//! assert_eq!(run.reports.len(), 1);
//! assert!(run.failures.is_empty());
//! assert!(run.reports.iter().all(|r| r.yield_t0 >= 0.0));
//! ```

use std::collections::HashMap;

use effitest_circuit::GeneratedBenchmark;
use effitest_linalg::stats::empirical_quantile;
use effitest_ssta::{ChipInstance, DriftModel, TimingModel};
use effitest_tester::{
    chip_passes, path_wise_binary_search, DelayBounds, TesterModel, VirtualTester,
};

use crate::configure::shifts_for;
use crate::population::{run_population, run_population_scratch, PopulationConfig};
use crate::predict::Predictor;
use crate::scenarios::{json_escape, json_f64, MatrixRun, ScenarioAxes, ScenarioSpec};
use crate::{EffiTestFlow, FlowError, FlowPlan, FlowWorkspace};

/// The axes of a hostile-silicon matrix: scenario cells crossed with
/// tester-noise levels and drift models.
#[derive(Debug, Clone)]
pub struct HostileAxes {
    /// The underlying workload cells (topology, variation, tuning range,
    /// chip count, seed, base flow configuration).
    pub scenario: ScenarioAxes,
    /// Tester noise levels, as multiples of each cell's convergence
    /// threshold `epsilon` (`0.0` = ideal tester; `1.0` = probe noise on
    /// the order of the precision the flow is trying to reach — already
    /// deep in contradiction territory).
    pub noise_rel: Vec<f64>,
    /// Tester period-quantization LSB as a fraction of `epsilon`,
    /// applied whenever the noise level is non-zero.
    pub quant_rel: f64,
    /// Seed of the tester's noise stream.
    pub noise_seed: u64,
    /// Aging models to sweep ([`DriftModel::none`] is the fresh-silicon
    /// baseline leg).
    pub drifts: Vec<DriftModel>,
    /// Field time (in arbitrary deployment units; delay shifts scale as
    /// `rate * time`) at which aged chips are re-evaluated.
    pub drift_time: f64,
    /// Adaptive re-tuning probes every `retune_stride`-th tested path of
    /// the plan (1 = re-measure all tested paths, 2 = half, ...).
    pub retune_stride: usize,
}

impl HostileAxes {
    /// A reduced matrix for tests and CI smoke runs: two topologies, one
    /// variation profile, an ideal and a noisy tester, no-drift and
    /// moderate-drift legs, re-tuning from half the tested paths.
    pub fn smoke(scale: usize) -> Self {
        let mut scenario = ScenarioAxes::smoke(scale);
        scenario.topologies.truncate(2);
        scenario.variations.truncate(1);
        HostileAxes {
            scenario,
            noise_rel: vec![0.0, 1.0],
            quant_rel: 0.25,
            noise_seed: 0xE551_1A57,
            drifts: vec![DriftModel::none(), DriftModel { rate: 0.02, variability: 0.5, seed: 99 }],
            drift_time: 1.0,
            retune_stride: 2,
        }
    }

    /// Enumerates the cells of the matrix, in deterministic axis order
    /// (scenario cell outermost, then noise level, then drift model).
    pub fn cells(&self) -> Vec<HostileSpec> {
        let mut out = Vec::new();
        for cell in self.scenario.cells() {
            for &noise_rel in &self.noise_rel {
                for &drift in &self.drifts {
                    out.push(HostileSpec {
                        cell: cell.clone(),
                        noise_rel,
                        quant_rel: self.quant_rel,
                        noise_seed: self.noise_seed,
                        drift,
                        drift_time: self.drift_time,
                        retune_stride: self.retune_stride,
                    });
                }
            }
        }
        out
    }
}

/// One cell of the hostile matrix: a scenario cell plus its hostility
/// parameters.
#[derive(Debug, Clone)]
pub struct HostileSpec {
    /// The underlying scenario cell; its flow configuration's tester model
    /// is overridden per [`noise_rel`](Self::noise_rel).
    pub cell: ScenarioSpec,
    /// Tester noise sigma in units of the plan's `epsilon`.
    pub noise_rel: f64,
    /// Tester quantization LSB in units of `epsilon` (applied when
    /// `noise_rel > 0`).
    pub quant_rel: f64,
    /// Noise-stream seed.
    pub noise_seed: u64,
    /// The aging model.
    pub drift: DriftModel,
    /// Deployment time at which the aged chip is re-evaluated.
    pub drift_time: f64,
    /// Stride of the sparse re-measurement subset.
    pub retune_stride: usize,
}

impl HostileSpec {
    /// Stable cell identifier, e.g.
    /// `"paper/paper/r0.125/c4/s1/n1/d0.02v0.5t1"`.
    pub fn id(&self) -> String {
        format!(
            "{}/n{}/d{}v{}t{}",
            self.cell.id(),
            self.noise_rel,
            self.drift.rate,
            self.drift.variability,
            self.drift_time
        )
    }
}

/// Per-cell results of a hostile run. Every field is a deterministic
/// (bitwise thread-count-invariant) function of the owning
/// [`HostileSpec`]; wall-clock times are deliberately absent so reports
/// can be diffed byte-for-byte.
#[derive(Debug, Clone)]
pub struct HostileReport {
    /// Cell identifier ([`HostileSpec::id`]).
    pub id: String,
    /// Topology name.
    pub topology: &'static str,
    /// Variation-profile name.
    pub variation: &'static str,
    /// Chips simulated.
    pub n_chips: usize,
    /// Generation seed.
    pub seed: u64,
    /// Absolute tester noise sigma used (`noise_rel * epsilon`).
    pub noise_sigma: f64,
    /// Absolute quantization LSB used.
    pub quantization_lsb: f64,
    /// Drift rate of the cell's aging model.
    pub drift_rate: f64,
    /// Per-path drift-rate variability.
    pub drift_variability: f64,
    /// Deployment time of the aged evaluation.
    pub drift_time: f64,
    /// Stride of the adaptive re-measurement subset.
    pub retune_stride: usize,
    /// Paths re-measured by the adaptive phase.
    pub retuned_paths: usize,
    /// Designated clock period (untuned-yield median, fresh silicon).
    pub designated_period: f64,
    /// Fraction of chips passing right after the tuning flow (t = 0).
    pub yield_t0: f64,
    /// Fraction of *aged* chips still passing with the configuration kept
    /// from t = 0 — the do-nothing floor.
    pub yield_aged_kept: f64,
    /// Fraction of aged chips passing after adaptive re-tuning (sparse
    /// re-measurement + prediction from the existing plan).
    pub yield_aged_adaptive: f64,
    /// Fraction of aged chips passing after a full re-test — the
    /// maximum-effort ceiling.
    pub yield_aged_retest: f64,
    /// `yield_aged_adaptive - yield_aged_kept`: the yield the adaptive
    /// phase recovers over doing nothing.
    pub recovered_yield: f64,
    /// Mean tester iterations of the t = 0 tuning flow per chip.
    pub mean_iterations_t0: f64,
    /// Mean tester iterations of the adaptive re-measurement per chip.
    pub mean_iterations_adaptive: f64,
    /// Mean tester iterations of the full re-test per chip.
    pub mean_iterations_retest: f64,
    /// Contradictory observations across all phases and chips.
    pub contradictions: u64,
    /// Proven-bound widenings across all phases and chips (0 with an
    /// ideal tester on fresh silicon).
    pub widenings: u64,
    /// Plan-time prediction-engine group downgrades.
    pub prediction_fallbacks: u64,
    /// Plan-time slot-filling sigma downgrades.
    pub sigma_fallbacks: u64,
}

/// Per-chip reduction of a hostile cell.
#[derive(Debug, Clone, Copy)]
struct HostileChip {
    pass_t0: bool,
    pass_kept: bool,
    pass_adaptive: bool,
    pass_retest: bool,
    iterations_t0: u64,
    iterations_adaptive: u64,
    iterations_retest: u64,
    contradictions: u64,
    widenings: u64,
}

/// Runs one hostile cell: tune the fresh population under the (possibly
/// noisy) tester, age every chip, then evaluate the kept configuration,
/// the adaptive re-tuning, and the full re-test on the aged silicon.
///
/// # Errors
///
/// A degenerate cell (e.g. a spec with zero required paths) surfaces its
/// [`FlowError`] instead of panicking, so matrix drivers can skip and
/// count it.
pub fn run_hostile_scenario(
    spec: &HostileSpec,
    threads: usize,
) -> Result<HostileReport, FlowError> {
    let cell = &spec.cell;
    let bench = GeneratedBenchmark::generate(&cell.spec, cell.seed);
    let model = TimingModel::build_with_buffer_range(
        &bench,
        &cell.variation.config(),
        cell.tuning_fraction,
        TimingModel::BUFFER_STEPS,
    );

    // Size the tester error off the cell's own convergence threshold so
    // "noise_rel = 1" stresses every cell equally hard regardless of its
    // absolute delay scale.
    let epsilon = EffiTestFlow::new(cell.flow.clone()).epsilon_for(&model);
    let tester = if spec.noise_rel > 0.0 {
        TesterModel {
            noise_sigma: spec.noise_rel * epsilon,
            quantization_lsb: spec.quant_rel * epsilon,
            noise_seed: spec.noise_seed,
        }
    } else {
        TesterModel::ideal()
    };
    let mut flow_config = cell.flow.clone();
    flow_config.tester = tester;
    let flow = EffiTestFlow::new(flow_config);
    let plan = flow.plan(&bench, &model)?;

    let pop = PopulationConfig {
        n_chips: cell.n_chips,
        base_seed: cell.seed.wrapping_mul(0x1000).wrapping_add(1),
        threads,
    };
    let untuned_periods = run_population(&model, &pop, |_k, chip| chip.min_period_untuned());
    let td = if untuned_periods.is_empty() {
        model.nominal_period()
    } else {
        empirical_quantile(&untuned_periods, 0.5)
    };

    // The sparse re-measurement subset is a plan property: every
    // `retune_stride`-th tested path, in tested-path order. Every aged chip
    // re-measures the same subset, so its conditioning gains are factored
    // once per cell, over the plan's own correlation groups.
    let stride = spec.retune_stride.max(1);
    let retune_paths: Vec<usize> =
        plan.batches.tested_paths().into_iter().step_by(stride).collect();
    let retune_predictor =
        Predictor::new(&model, &plan.groups, &retune_paths, flow.config().bound_sigma, threads);

    let per_chip: Vec<HostileChip> = run_population_scratch(
        &model,
        &pop,
        FlowWorkspace::new,
        |ws, _k, chip| -> Result<HostileChip, FlowError> {
            // Phase t0: the ordinary tuning flow on fresh silicon.
            let t0 = flow.run_chip_with(ws, &plan, chip, td)?;
            let mut contradictions = t0.contradictions;
            let mut widenings = t0.widenings;

            let aged = spec.drift.aged(chip, spec.drift_time);

            // Leg A — keep the shipped configuration on the aged chip.
            let pass_kept = t0.configured.as_ref().is_some_and(|cfg| {
                let shifts = shifts_for(&model, &plan.buffers, cfg);
                chip_passes(&aged, td, &shifts)
            });

            // Leg B — adaptive re-tuning: path-wise re-measurement of the
            // sparse subset on the aged chip, prediction of everything else
            // from the existing plan's groups, then re-configuration.
            let (measured, iterations_adaptive) = remeasure(&flow, &plan, &aged, &retune_paths);
            let pred = retune_predictor.predict_with(ws.predict(), &measured);
            let (_, pass_adaptive, _) = flow.configure_and_check(&plan, &aged, &pred.ranges, td);

            // Leg C — the full re-test ceiling: run the whole flow again on
            // the aged chip.
            let retest = flow.run_chip_with(ws, &plan, &aged, td)?;
            contradictions += retest.contradictions;
            widenings += retest.widenings;

            Ok(HostileChip {
                pass_t0: t0.passes,
                pass_kept,
                pass_adaptive,
                pass_retest: retest.passes,
                iterations_t0: t0.iterations,
                iterations_adaptive,
                iterations_retest: retest.iterations,
                contradictions,
                widenings,
            })
        },
    )
    .into_iter()
    .collect::<Result<_, _>>()?;

    let n = cell.n_chips.max(1) as f64;
    let frac =
        |f: &dyn Fn(&HostileChip) -> bool| per_chip.iter().filter(|m| f(m)).count() as f64 / n;
    let mean = |f: &dyn Fn(&HostileChip) -> u64| per_chip.iter().map(f).sum::<u64>() as f64 / n;

    let yield_aged_kept = frac(&|m| m.pass_kept);
    let yield_aged_adaptive = frac(&|m| m.pass_adaptive);
    Ok(HostileReport {
        id: spec.id(),
        topology: cell.topology.name(),
        variation: cell.variation.name(),
        n_chips: cell.n_chips,
        seed: cell.seed,
        noise_sigma: tester.noise_sigma,
        quantization_lsb: tester.quantization_lsb,
        drift_rate: spec.drift.rate,
        drift_variability: spec.drift.variability,
        drift_time: spec.drift_time,
        retune_stride: stride,
        retuned_paths: retune_paths.len(),
        designated_period: td,
        yield_t0: frac(&|m| m.pass_t0),
        yield_aged_kept,
        yield_aged_adaptive,
        yield_aged_retest: frac(&|m| m.pass_retest),
        recovered_yield: yield_aged_adaptive - yield_aged_kept,
        mean_iterations_t0: mean(&|m| m.iterations_t0),
        mean_iterations_adaptive: mean(&|m| m.iterations_adaptive),
        mean_iterations_retest: mean(&|m| m.iterations_retest),
        contradictions: per_chip.iter().map(|m| m.contradictions).sum(),
        widenings: per_chip.iter().map(|m| m.widenings).sum(),
        prediction_fallbacks: plan.predictor.fallback_count(),
        sigma_fallbacks: plan.sigma_fallbacks,
    })
}

/// Leg B's sparse re-measurement: path-wise frequency stepping of each of
/// `paths` on the aged chip through the flow's tester, from its prior
/// window down to the plan's `epsilon`. Returns the measured bounds and the
/// tester iterations spent.
fn remeasure(
    flow: &EffiTestFlow,
    plan: &FlowPlan<'_>,
    aged: &ChipInstance,
    paths: &[usize],
) -> (HashMap<usize, DelayBounds>, u64) {
    let model = plan.model;
    let mut vt = VirtualTester::with_model(aged, flow.config().tester);
    let measured = paths
        .iter()
        .map(|&p| {
            let mut b = DelayBounds::from_gaussian(
                model.path_mean(p),
                model.path_sigma(p),
                flow.config().bound_sigma,
            );
            path_wise_binary_search(&mut vt, p, &mut b, plan.epsilon);
            (p, b)
        })
        .collect();
    (measured, vt.iterations())
}

/// Runs every cell of the hostile matrix (cells sequentially, each cell's
/// population on `threads` workers). Failed cells are skipped and
/// recorded in [`MatrixRun::failures`].
pub fn run_hostile_matrix(axes: &HostileAxes, threads: usize) -> MatrixRun<HostileReport> {
    let mut run = MatrixRun::default();
    for spec in axes.cells() {
        match run_hostile_scenario(&spec, threads) {
            Ok(report) => run.reports.push(report),
            Err(e) => run.failures.push((spec.id(), e)),
        }
    }
    run
}

/// Serializes one hostile report as a JSON object (stable key order, no
/// wall-clock fields; floats use Rust's shortest round-trip formatting so
/// equal bit patterns serialize identically).
pub fn hostile_report_to_json(r: &HostileReport) -> String {
    format!(
        concat!(
            "{{\"id\": \"{id}\", \"topology\": \"{topology}\", ",
            "\"variation\": \"{variation}\", ",
            "\"chips\": {chips}, \"seed\": {seed}, ",
            "\"noise_sigma\": {ns}, \"quantization_lsb\": {ql}, ",
            "\"drift_rate\": {dr}, \"drift_variability\": {dv}, ",
            "\"drift_time\": {dt}, ",
            "\"retune_stride\": {stride}, \"retuned_paths\": {rp}, ",
            "\"designated_period\": {td}, ",
            "\"yield_t0\": {y0}, \"yield_aged_kept\": {yk}, ",
            "\"yield_aged_adaptive\": {ya}, \"yield_aged_retest\": {yr}, ",
            "\"recovered_yield\": {rec}, ",
            "\"mean_iterations_t0\": {i0}, ",
            "\"mean_iterations_adaptive\": {ia}, ",
            "\"mean_iterations_retest\": {ir}, ",
            "\"contradictions\": {contra}, \"widenings\": {widen}, ",
            "\"prediction_fallbacks\": {fallbacks}, ",
            "\"sigma_fallbacks\": {sfall}}}"
        ),
        id = json_escape(&r.id),
        topology = json_escape(r.topology),
        variation = json_escape(r.variation),
        chips = r.n_chips,
        seed = r.seed,
        ns = json_f64(r.noise_sigma),
        ql = json_f64(r.quantization_lsb),
        dr = json_f64(r.drift_rate),
        dv = json_f64(r.drift_variability),
        dt = json_f64(r.drift_time),
        stride = r.retune_stride,
        rp = r.retuned_paths,
        td = json_f64(r.designated_period),
        y0 = json_f64(r.yield_t0),
        yk = json_f64(r.yield_aged_kept),
        ya = json_f64(r.yield_aged_adaptive),
        yr = json_f64(r.yield_aged_retest),
        rec = json_f64(r.recovered_yield),
        i0 = json_f64(r.mean_iterations_t0),
        ia = json_f64(r.mean_iterations_adaptive),
        ir = json_f64(r.mean_iterations_retest),
        contra = r.contradictions,
        widen = r.widenings,
        fallbacks = r.prediction_fallbacks,
        sfall = r.sigma_fallbacks,
    )
}

/// Serializes a whole hostile matrix run as one JSON document (see
/// [`hostile_report_to_json`] for the per-cell schema).
pub fn hostile_matrix_to_json(base_name: &str, reports: &[HostileReport]) -> String {
    let cells: Vec<String> =
        reports.iter().map(|r| format!("    {}", hostile_report_to_json(r))).collect();
    format!(
        concat!(
            "{{\n",
            "  \"report\": \"effitest_hostile_matrix\",\n",
            "  \"base\": \"{}\",\n",
            "  \"cells\": [\n{}\n  ]\n",
            "}}\n"
        ),
        json_escape(base_name),
        cells.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_axes() -> HostileAxes {
        let mut axes = HostileAxes::smoke(40);
        axes.scenario.topologies.truncate(1);
        axes.scenario.chip_counts = vec![3];
        axes.scenario.flow.hold.samples = 32;
        axes
    }

    #[test]
    fn cells_cover_the_cross_product_with_unique_ids() {
        let axes = HostileAxes::smoke(40);
        let cells = axes.cells();
        assert_eq!(
            cells.len(),
            axes.scenario.cells().len() * axes.noise_rel.len() * axes.drifts.len()
        );
        let ids: std::collections::HashSet<String> = cells.iter().map(|c| c.id()).collect();
        assert_eq!(ids.len(), cells.len(), "cell ids must be unique");
    }

    #[test]
    fn fresh_ideal_cell_reduces_to_the_plain_scenario() {
        // noise_rel = 0 and DriftModel::none(): the aged chip IS the fresh
        // chip, so the kept configuration and the re-test must agree with
        // t0 exactly, and nothing hostile may be counted.
        let axes = tiny_axes();
        let spec = axes
            .cells()
            .into_iter()
            .find(|c| c.noise_rel == 0.0 && c.drift.is_none())
            .expect("baseline leg present");
        let r = run_hostile_scenario(&spec, 1).expect("feasible cell");
        assert_eq!(r.noise_sigma, 0.0);
        assert_eq!(r.yield_aged_kept, r.yield_t0);
        assert_eq!(r.yield_aged_retest, r.yield_t0);
        assert_eq!(r.widenings, 0, "ideal tester must never widen");
        assert_eq!(r.recovered_yield, r.yield_aged_adaptive - r.yield_aged_kept);
        assert!(r.mean_iterations_adaptive > 0.0);
        assert!(r.retuned_paths >= 1);
    }

    #[test]
    fn hostile_cells_report_finite_ordered_metrics() {
        let axes = tiny_axes();
        for spec in axes.cells() {
            let r = run_hostile_scenario(&spec, 1).expect("feasible cell");
            for y in [r.yield_t0, r.yield_aged_kept, r.yield_aged_adaptive, r.yield_aged_retest] {
                assert!((0.0..=1.0).contains(&y), "{}: fraction out of range: {y}", r.id);
            }
            for x in [r.mean_iterations_t0, r.mean_iterations_adaptive, r.mean_iterations_retest] {
                assert!(x.is_finite() && x >= 0.0, "{}: bad iteration mean {x}", r.id);
            }
            // The sparse re-measurement must cost less silicon time than
            // the full re-test's aligned phase.
            assert!(
                r.mean_iterations_adaptive < r.mean_iterations_retest,
                "{}: adaptive ({}) not cheaper than re-test ({})",
                r.id,
                r.mean_iterations_adaptive,
                r.mean_iterations_retest
            );
            // Serializes (json_f64 asserts finiteness internally).
            let json = hostile_report_to_json(&r);
            assert!(json.starts_with('{') && json.ends_with('}'));
        }
    }

    #[test]
    fn reports_are_bitwise_deterministic_across_threads() {
        let axes = tiny_axes();
        // The noisiest, most drifted cell is the one worth pinning.
        let spec = axes
            .cells()
            .into_iter()
            .rev()
            .find(|c| c.noise_rel > 0.0 && !c.drift.is_none())
            .expect("hostile leg present");
        let serial = hostile_report_to_json(&run_hostile_scenario(&spec, 1).expect("feasible"));
        for threads in [2, 4] {
            let parallel =
                hostile_report_to_json(&run_hostile_scenario(&spec, threads).expect("feasible"));
            assert_eq!(serial, parallel, "hostile reports drifted at {threads} threads");
        }
    }

    #[test]
    fn retune_predictor_matches_the_oracle_on_aged_chips() {
        // The adaptive leg conditions on `retune_paths`, not on the plan's
        // tested set. On a noisy, drifted cell its per-cell Predictor must
        // still reproduce the from-scratch oracle bit for bit on every
        // aged chip's re-measured bounds.
        use crate::predict::{predict_ranges, PredictWorkspace};
        let spec = tiny_axes()
            .cells()
            .into_iter()
            .rev()
            .find(|c| c.noise_rel > 0.0 && !c.drift.is_none())
            .expect("hostile leg present");
        let cell = &spec.cell;
        let bench = GeneratedBenchmark::generate(&cell.spec, cell.seed);
        let model = TimingModel::build_with_buffer_range(
            &bench,
            &cell.variation.config(),
            cell.tuning_fraction,
            TimingModel::BUFFER_STEPS,
        );
        let epsilon = EffiTestFlow::new(cell.flow.clone()).epsilon_for(&model);
        let mut config = cell.flow.clone();
        config.tester = TesterModel {
            noise_sigma: spec.noise_rel * epsilon,
            quantization_lsb: spec.quant_rel * epsilon,
            noise_seed: spec.noise_seed,
        };
        let flow = EffiTestFlow::new(config);
        let plan = flow.plan(&bench, &model).expect("plan");
        let retune_paths: Vec<usize> =
            plan.batches.tested_paths().into_iter().step_by(spec.retune_stride).collect();
        assert!(retune_paths.len() < plan.tested_path_count(), "subset must differ from the plan");
        let sigma_k = flow.config().bound_sigma;
        let predictor = Predictor::new(&model, &plan.groups, &retune_paths, sigma_k, 1);
        let mut ws = PredictWorkspace::new();
        let bits = |ranges: &[DelayBounds]| -> Vec<(u64, u64)> {
            ranges.iter().map(|b| (b.lower.to_bits(), b.upper.to_bits())).collect()
        };
        for k in 0..cell.n_chips as u64 {
            let aged = spec.drift.aged(&model.sample_chip(700 + k), spec.drift_time);
            let (measured, _) = remeasure(&flow, &plan, &aged, &retune_paths);
            let engine = predictor.predict_with(&mut ws, &measured);
            let oracle = predict_ranges(&model, &plan.groups, &measured, sigma_k);
            assert_eq!(bits(&engine.ranges), bits(&oracle.ranges), "aged chip {k} drifted");
            assert_eq!(engine.measured, oracle.measured, "aged chip {k} measured flags");
        }
    }

    #[test]
    fn brutally_noisy_cells_widen_instead_of_panicking() {
        // Noise far above the convergence threshold (128 epsilon is a
        // sizeable fraction of the path sigmas themselves) makes probe
        // results near any proven bound coin flips: proven-bound
        // contradictions are routine and every one of them must be
        // absorbed as a counted widening. In debug builds this test also
        // proves no debug_assert fires anywhere on the hostile path.
        let mut axes = tiny_axes();
        axes.noise_rel = vec![128.0];
        for spec in axes.cells().into_iter().filter(|c| c.noise_rel > 0.0) {
            let r = run_hostile_scenario(&spec, 1).expect("feasible cell");
            assert!(r.widenings > 0, "{}: brutal noise produced no widenings", r.id);
            assert!(r.mean_iterations_t0 > 0.0);
        }
    }
}
