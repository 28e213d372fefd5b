use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

use effitest_circuit::GeneratedBenchmark;
use effitest_ssta::{ChipInstance, TimingModel};
use effitest_tester::{chip_passes, DelayBounds, TesterModel, VirtualTester};

use crate::aligned_test::{
    run_aligned_test_with, AlignedTestConfig, AlignedTestResult, AlignedTestWorkspace,
};
use crate::batch::{build_batches, fill_slots, predicted_sigmas, Batches, ConflictOracle};
use crate::configure::{build_config_problem, configure, shifts_for, BufferIndex};
use crate::hold::{compute_hold_bounds, HoldBounds, HoldConfig};
use crate::predict::{PredictWorkspace, PredictedRanges, Predictor};
use crate::select::{all_selected, select_paths, PathGroup, SelectConfig};

/// Errors surfaced by the flow API.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// The benchmark has no required paths.
    EmptyPaths,
    /// Benchmark and timing model disagree on the path count.
    ModelMismatch {
        /// Paths in the benchmark.
        bench_paths: usize,
        /// Paths in the model.
        model_paths: usize,
    },
    /// An environment override (`EFFITEST_THREADS`) is set but invalid.
    /// Surfaced instead of silently falling back to a default — the same
    /// hard-error contract every other reader of the variable follows.
    Environment(String),
    /// A configuration value the flow cannot run with (see
    /// [`SelectConfig::validate`]): rejected before any work starts
    /// instead of looping or panicking inside a stage.
    InvalidConfig(String),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::EmptyPaths => write!(f, "benchmark has no required paths"),
            FlowError::ModelMismatch { bench_paths, model_paths } => {
                write!(f, "benchmark has {bench_paths} paths but the model has {model_paths}")
            }
            FlowError::Environment(msg) => write!(f, "invalid environment override: {msg}"),
            FlowError::InvalidConfig(msg) => write!(f, "invalid flow configuration: {msg}"),
        }
    }
}

impl Error for FlowError {}

/// Configuration of the complete EffiTest flow.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowConfig {
    /// Path grouping / representative selection (Procedure 1).
    pub select: SelectConfig,
    /// Hold-bound sampling (§3.5).
    pub hold: HoldConfig,
    /// Range-convergence threshold as a divisor of the widest initial
    /// range: `epsilon = max_p(2 k sigma_p) / epsilon_divisor`. The default
    /// of 512 makes path-wise stepping cost ~9 iterations per path, the
    /// regime of the paper's Table 1.
    pub epsilon_divisor: f64,
    /// Initial bounds half-width in sigmas (paper: 3).
    pub bound_sigma: f64,
    /// Sorted-center alignment weights (paper: `k0 >> kd`).
    pub k0: f64,
    /// Weight decrement.
    pub kd: f64,
    /// Align delay ranges with the tuning buffers (§3.3). `false` is the
    /// multiplexing-only ablation.
    pub use_alignment: bool,
    /// Solve each alignment exactly (MILP) instead of coordinate descent.
    pub exact_alignment: bool,
    /// Fill empty batch slots with high-variance unselected paths (§3.2).
    pub slot_fill: bool,
    /// Run the aligned test with incremental per-step timing updates
    /// (see [`AlignedTestConfig::incremental`]); `false` selects the
    /// full-reanalysis reference loop. Both produce bitwise-identical
    /// outcomes.
    pub incremental: bool,
    /// Measurement-error model of the tester the chips are mounted on.
    /// The default ([`TesterModel::ideal`]) reproduces the historical
    /// noise-free tester bit for bit; any non-ideal model automatically
    /// runs bounds updates under the widening contradiction policy (see
    /// [`AlignedTestConfig::tolerate_contradictions`]).
    pub tester: TesterModel,
    /// Opt the widening contradiction policy in even for an ideal tester
    /// (hostile chips probed through an otherwise clean flow).
    pub tolerate_contradictions: bool,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            select: SelectConfig::default(),
            hold: HoldConfig::default(),
            epsilon_divisor: 512.0,
            bound_sigma: 3.0,
            k0: 1000.0,
            kd: 1.0,
            use_alignment: true,
            exact_alignment: false,
            slot_fill: true,
            incremental: true,
            tester: TesterModel::ideal(),
            tolerate_contradictions: false,
        }
    }
}

/// Wall-clock breakdown of one plan construction, stage by stage — the
/// numbers behind `BENCH_plan.json`'s and `BENCH_scale.json`'s plan
/// sub-stage splits.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanStageTimes {
    /// Procedure 1: correlation grouping + representative selection.
    pub select: Duration,
    /// Conflict-oracle construction (ATPG exclusions + endpoint CSR).
    pub oracle: Duration,
    /// Batch building: Welsh–Powell coloring, predicted sigmas, slot fill.
    pub batch: Duration,
    /// Hold-bound Monte-Carlo sampling + greedy discard.
    pub hold: Duration,
    /// Prediction-engine build (per-group observed-block factorization).
    pub predictor: Duration,
}

/// The chip-independent **flow plan**: everything computed *offline*, once
/// per `(benchmark, model, config)` triple (the paper's `T_p`).
///
/// The plan bundles Procedure 1's correlation groups and representative
/// selection, the Welsh–Powell test batches with their slot fills, the
/// sensitization [`ConflictOracle`], the predicted sigmas driving slot
/// filling, the hold-time tuning bounds, the dense buffer indexing, and
/// the convergence threshold. None of it depends on any individual chip,
/// so one plan is shared — by reference, across threads — over the whole
/// Monte-Carlo population (the paper evaluates 10 000 chips per circuit);
/// see [`crate::population`].
#[derive(Debug)]
pub struct FlowPlan<'a> {
    /// The benchmark under test.
    pub bench: &'a GeneratedBenchmark,
    /// Its timing model.
    pub model: &'a TimingModel,
    /// Correlation groups with selected representatives.
    pub groups: Vec<PathGroup>,
    /// Test batches (tested paths = selected + slot fills).
    pub batches: Batches,
    /// Hold-time tuning bounds `lambda_ij`.
    pub lambda: HoldBounds,
    /// Dense buffer indexing.
    pub buffers: BufferIndex,
    /// Sensitization conflict oracle over **all** required paths (valid
    /// for any path subset).
    pub oracle: ConflictOracle<'a>,
    /// Predicted standard deviation per unselected path (paper eq. 5),
    /// the slot-filling priority.
    pub predicted_sigmas: Vec<(usize, f64)>,
    /// Groups whose predicted-sigma conditioning fell back to the prior
    /// sigmas because the observed covariance block could not be
    /// factorized (counted, never a panic — the same downgrade semantics
    /// as [`Predictor::fallback_count`]).
    pub sigma_fallbacks: u64,
    /// The statistical prediction engine (paper eqs. 4–5): per-group
    /// conditioning gains factored once here at plan time, applied per
    /// chip through a [`PredictWorkspace`]. Degenerate groups are
    /// downgraded to the prior and counted
    /// ([`Predictor::fallback_count`]).
    pub predictor: Predictor,
    /// Convergence threshold for this circuit.
    pub epsilon: f64,
    /// Wall-clock time spent preparing (the paper's `T_p`).
    pub prep_time: Duration,
    /// Per-stage breakdown of `prep_time` (see [`PlanStageTimes`]).
    pub stage_times: PlanStageTimes,
}

impl FlowPlan<'_> {
    /// Number of paths actually tested on silicon (`n_pt` in Table 1).
    pub fn tested_path_count(&self) -> usize {
        self.batches.tested_paths().len()
    }
}

/// Outcome of running the flow on one chip.
#[derive(Debug, Clone)]
pub struct ChipOutcome {
    /// Frequency-stepping iterations consumed (the paper's per-chip `t_a`).
    pub iterations: u64,
    /// Time spent solving alignment problems (`T_t`).
    pub align_time: Duration,
    /// Time spent solving the final configuration (`T_s`).
    pub config_time: Duration,
    /// Configured buffer values, or `None` if the chip was rejected as
    /// unconfigurable at the designated period.
    pub configured: Option<Vec<f64>>,
    /// Result of the final pass/fail test at the designated period.
    pub passes: bool,
    /// Observations during the aligned test that contradicted a path's
    /// assumed initial window (see
    /// [`AlignedTestResult::contradictions`](crate::aligned_test::AlignedTestResult::contradictions)).
    pub contradictions: u64,
    /// Observations that contradicted a *proven* bound and were absorbed
    /// by conservative widening (noisy testers only; see
    /// [`AlignedTestResult::widenings`](crate::aligned_test::AlignedTestResult::widenings)).
    pub widenings: u64,
    /// Final delay ranges for every path (measured or predicted).
    pub ranges: Vec<DelayBounds>,
    /// Which ranges came from silicon measurement.
    pub measured: Vec<bool>,
}

/// Reusable per-worker scratch for the whole per-chip flow.
///
/// Wraps the aligned-test workspace (which itself carries the warm-started
/// alignment engine) so each population worker thread can run thousands of
/// chips without re-allocating the solver stack per chip. A workspace
/// holds **scratch, never results**: every per-chip entry point fully
/// re-initializes the state it reads, so outcomes are bitwise identical
/// whether a workspace is fresh, reused, or shared serially across any
/// number of chips — the invariant the population engine's thread-count
/// determinism rests on.
#[derive(Debug, Default)]
pub struct FlowWorkspace {
    aligned: AlignedTestWorkspace,
    predict: PredictWorkspace,
}

impl FlowWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The aligned-test scratch (for callers driving
    /// [`run_aligned_test_with`] directly).
    pub fn aligned(&mut self) -> &mut AlignedTestWorkspace {
        &mut self.aligned
    }

    /// The prediction scratch (for callers driving
    /// [`Predictor::predict_with`] directly).
    pub fn predict(&mut self) -> &mut PredictWorkspace {
        &mut self.predict
    }
}

/// Result of the path-wise baseline on one chip.
#[derive(Debug, Clone)]
pub struct PathWiseOutcome {
    /// Iterations consumed (`t'_a`).
    pub iterations: u64,
    /// Measured bounds per path.
    pub bounds: Vec<DelayBounds>,
}

/// The EffiTest flow orchestrator.
///
/// See the crate-level example for end-to-end usage.
#[derive(Debug, Clone, Default)]
pub struct EffiTestFlow {
    config: FlowConfig,
}

impl EffiTestFlow {
    /// Creates a flow with the given configuration.
    pub fn new(config: FlowConfig) -> Self {
        EffiTestFlow { config }
    }

    /// The flow configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// Builds the chip-independent [`FlowPlan`] for one circuit:
    /// Procedure 1, multiplexing with slot filling, and hold-bound
    /// computation. Build it **once** per circuit and share it across the
    /// whole chip population — every per-chip entry point borrows the plan
    /// immutably.
    ///
    /// Plan construction runs [`plan_threaded`](Self::plan_threaded) with
    /// the worker count from `EFFITEST_THREADS` (default: the machine's
    /// parallelism); results are bitwise identical at every thread count.
    ///
    /// # Errors
    ///
    /// Same as [`plan_threaded`](Self::plan_threaded), plus
    /// [`FlowError::Environment`] when `EFFITEST_THREADS` is set but
    /// invalid.
    pub fn plan<'a>(
        &self,
        bench: &'a GeneratedBenchmark,
        model: &'a TimingModel,
    ) -> Result<FlowPlan<'a>, FlowError> {
        let threads =
            effitest_parallel::threads::threads_from_env().map_err(FlowError::Environment)?;
        self.plan_threaded(bench, model, threads)
    }

    /// [`plan`](Self::plan) with an explicit worker-thread count: every
    /// stage (per-path criticality scoring, the conflict oracle's
    /// counting-sort gather and CSR assembly, predicted sigmas, hold-bound
    /// sampling, and the per-group conditioning-gain factorization) fans
    /// out over `threads` workers and commits its results in index order,
    /// so the plan is **bitwise independent of the thread count**. At one
    /// thread every stage runs inline on the calling thread.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidConfig`] when the selection config
    /// fails [`SelectConfig::validate`], and [`FlowError::EmptyPaths`] /
    /// [`FlowError::ModelMismatch`] on malformed inputs.
    pub fn plan_threaded<'a>(
        &self,
        bench: &'a GeneratedBenchmark,
        model: &'a TimingModel,
        threads: usize,
    ) -> Result<FlowPlan<'a>, FlowError> {
        self.config.select.validate().map_err(FlowError::InvalidConfig)?;
        if bench.paths.is_empty() {
            return Err(FlowError::EmptyPaths);
        }
        if bench.paths.len() != model.path_count() {
            return Err(FlowError::ModelMismatch {
                bench_paths: bench.paths.len(),
                model_paths: model.path_count(),
            });
        }
        let started = Instant::now();
        let mut stage_times = PlanStageTimes::default();
        let stage = Instant::now();
        let groups = select_paths(model, &self.config.select, threads);
        let selected = all_selected(&groups);
        stage_times.select = stage.elapsed();

        let stage = Instant::now();
        let all_paths: Vec<usize> = (0..model.path_count()).collect();
        let oracle = ConflictOracle::new(bench, &all_paths, threads);
        stage_times.oracle = stage.elapsed();

        let stage = Instant::now();
        let width_of = |p: usize| 2.0 * self.config.bound_sigma * model.path_sigma(p);
        let widths: Vec<f64> = selected.iter().map(|&p| width_of(p)).collect();
        let mut raw_batches = build_batches(&oracle, &selected, Some(&widths));
        let buffers = BufferIndex::new(model);
        let (sigmas, sigma_fallbacks) = predicted_sigmas(model, &groups, threads);
        let slot_filled = if self.config.slot_fill {
            let candidates: Vec<(usize, f64, f64)> =
                sigmas.iter().map(|&(p, sigma)| (p, sigma, width_of(p))).collect();
            // A series batch holds at most one source and one sink per
            // buffered flip-flop, so 2 * nb is the structural slot count
            // for buffer-incident paths (which required paths all are).
            let capacity =
                (2 * buffers.len()).max(raw_batches.iter().map(Vec::len).max().unwrap_or(1));
            fill_slots(&oracle, &mut raw_batches, &candidates, Some(capacity), &width_of)
        } else {
            Vec::new()
        };
        let batches = Batches { batches: raw_batches, slot_filled };
        stage_times.batch = stage.elapsed();

        let stage = Instant::now();
        let lambda = compute_hold_bounds(model, &self.config.hold, threads);
        stage_times.hold = stage.elapsed();
        let epsilon = self.epsilon_for(model);
        let stage = Instant::now();
        let predictor = Predictor::new(
            model,
            &groups,
            &batches.tested_paths(),
            self.config.bound_sigma,
            threads,
        );
        stage_times.predictor = stage.elapsed();

        Ok(FlowPlan {
            bench,
            model,
            groups,
            batches,
            lambda,
            buffers,
            oracle,
            predicted_sigmas: sigmas,
            sigma_fallbacks,
            predictor,
            epsilon,
            prep_time: started.elapsed(),
            stage_times,
        })
    }

    /// The convergence threshold derived from the model.
    pub fn epsilon_for(&self, model: &TimingModel) -> f64 {
        let max_width = (0..model.path_count())
            .map(|p| 2.0 * self.config.bound_sigma * model.path_sigma(p))
            .fold(0.0_f64, f64::max);
        max_width / self.config.epsilon_divisor
    }

    /// Phase 1+2 on a chip: aligned test of all batches, then statistical
    /// prediction. The result is independent of the designated period, so
    /// yield studies can reuse it across periods. The returned
    /// [`AlignedTestResult`] carries the iteration count, alignment solve
    /// time, and contradiction count.
    pub fn test_and_predict(
        &self,
        prepared: &FlowPlan<'_>,
        chip: &ChipInstance,
    ) -> (PredictedRanges, AlignedTestResult) {
        self.test_and_predict_with(&mut FlowWorkspace::new(), prepared, chip)
    }

    /// [`test_and_predict`](Self::test_and_predict) reusing a per-worker
    /// workspace; results are bitwise identical, allocations are not.
    ///
    /// Prediction runs on the plan's precomputed [`Predictor`] (gains
    /// factored once at plan time).
    pub fn test_and_predict_with(
        &self,
        ws: &mut FlowWorkspace,
        prepared: &FlowPlan<'_>,
        chip: &ChipInstance,
    ) -> (PredictedRanges, AlignedTestResult) {
        let mut tester = VirtualTester::with_model(chip, self.config.tester);
        let aligned = run_aligned_test_with(
            &mut ws.aligned,
            prepared.model,
            &mut tester,
            &prepared.batches.batches,
            &prepared.lambda,
            &self.aligned_config(prepared.epsilon),
        );
        let predicted = prepared.predictor.predict_with(&mut ws.predict, &aligned.bounds);
        (predicted, aligned)
    }

    /// Phase 3 on a chip: configure the buffers for `clock_period` from
    /// the given ranges and run the final pass/fail test.
    pub fn configure_and_check(
        &self,
        prepared: &FlowPlan<'_>,
        chip: &ChipInstance,
        ranges: &[DelayBounds],
        clock_period: f64,
    ) -> (Option<Vec<f64>>, bool, Duration) {
        let started = Instant::now();
        let problem = build_config_problem(
            prepared.model,
            &prepared.buffers,
            ranges,
            &prepared.lambda,
            clock_period,
        );
        let solution = configure(&problem);
        let config_time = started.elapsed();
        match solution {
            None => (None, false, config_time),
            Some(sol) => {
                let shifts = shifts_for(prepared.model, &prepared.buffers, &sol.buffer_values);
                let passes = chip_passes(chip, clock_period, &shifts);
                (Some(sol.buffer_values), passes, config_time)
            }
        }
    }

    /// The complete per-chip flow at a designated clock period.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::ModelMismatch`] if the chip's path count does
    /// not match the prepared model.
    pub fn run_chip(
        &self,
        prepared: &FlowPlan<'_>,
        chip: &ChipInstance,
        clock_period: f64,
    ) -> Result<ChipOutcome, FlowError> {
        self.run_chip_with(&mut FlowWorkspace::new(), prepared, chip, clock_period)
    }

    /// [`run_chip`](Self::run_chip) reusing a per-worker workspace;
    /// results are bitwise identical, allocations are not.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::ModelMismatch`] if the chip's path count does
    /// not match the prepared model.
    pub fn run_chip_with(
        &self,
        ws: &mut FlowWorkspace,
        prepared: &FlowPlan<'_>,
        chip: &ChipInstance,
        clock_period: f64,
    ) -> Result<ChipOutcome, FlowError> {
        if chip.path_count() != prepared.model.path_count() {
            return Err(FlowError::ModelMismatch {
                bench_paths: chip.path_count(),
                model_paths: prepared.model.path_count(),
            });
        }
        let (predicted, aligned) = self.test_and_predict_with(ws, prepared, chip);
        let (configured, passes, config_time) =
            self.configure_and_check(prepared, chip, &predicted.ranges, clock_period);
        Ok(ChipOutcome {
            iterations: aligned.iterations,
            align_time: aligned.align_time,
            config_time,
            configured,
            passes,
            contradictions: aligned.contradictions,
            widenings: aligned.widenings,
            ranges: predicted.ranges,
            measured: predicted.measured,
        })
    }

    /// The comparison baseline: measure **every** required path with
    /// path-wise frequency stepping (buffers untouched), as in the
    /// methods the paper compares against.
    pub fn run_chip_path_wise(
        &self,
        prepared: &FlowPlan<'_>,
        chip: &ChipInstance,
    ) -> PathWiseOutcome {
        let model = prepared.model;
        let mut tester = VirtualTester::with_model(chip, self.config.tester);
        let mut bounds = Vec::with_capacity(model.path_count());
        for p in 0..model.path_count() {
            let mut b = DelayBounds::from_gaussian(
                model.path_mean(p),
                model.path_sigma(p),
                self.config.bound_sigma,
            );
            effitest_tester::path_wise_binary_search(&mut tester, p, &mut b, prepared.epsilon);
            bounds.push(b);
        }
        PathWiseOutcome { iterations: tester.iterations(), bounds }
    }

    /// Tests an arbitrary path list with multiplexing (and optionally
    /// alignment) but **no statistical prediction** — the Fig. 8 ablation.
    /// Returns the iterations consumed and the measured bounds.
    pub fn test_paths_multiplexed(
        &self,
        prepared: &FlowPlan<'_>,
        chip: &ChipInstance,
        paths: &[usize],
        use_alignment: bool,
    ) -> (u64, HashMap<usize, DelayBounds>) {
        self.test_paths_multiplexed_with(
            &mut FlowWorkspace::new(),
            prepared,
            chip,
            paths,
            use_alignment,
        )
    }

    /// [`test_paths_multiplexed`](Self::test_paths_multiplexed) reusing a
    /// per-worker workspace; results are bitwise identical, allocations
    /// are not.
    pub fn test_paths_multiplexed_with(
        &self,
        ws: &mut FlowWorkspace,
        prepared: &FlowPlan<'_>,
        chip: &ChipInstance,
        paths: &[usize],
        use_alignment: bool,
    ) -> (u64, HashMap<usize, DelayBounds>) {
        // The plan's oracle covers all required paths, so any subset can be
        // batched against it — no per-call conflict-graph rebuild.
        let widths: Vec<f64> = paths
            .iter()
            .map(|&p| 2.0 * self.config.bound_sigma * prepared.model.path_sigma(p))
            .collect();
        let batches = build_batches(&prepared.oracle, paths, Some(&widths));
        let mut tester = VirtualTester::with_model(chip, self.config.tester);
        let mut config = self.aligned_config(prepared.epsilon);
        config.use_alignment = use_alignment;
        let result = run_aligned_test_with(
            &mut ws.aligned,
            prepared.model,
            &mut tester,
            &batches,
            &prepared.lambda,
            &config,
        );
        (result.iterations, result.bounds)
    }

    fn aligned_config(&self, epsilon: f64) -> AlignedTestConfig {
        AlignedTestConfig {
            epsilon,
            bound_sigma: self.config.bound_sigma,
            k0: self.config.k0,
            kd: self.config.kd,
            use_alignment: self.config.use_alignment,
            exact_alignment: self.config.exact_alignment,
            exact_node_limit: effitest_solver::DEFAULT_NODE_LIMIT,
            max_iterations_per_batch: 10_000,
            incremental: self.config.incremental,
            tolerate_contradictions: self.config.tolerate_contradictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use effitest_circuit::BenchmarkSpec;
    use effitest_linalg::stats::empirical_quantile;
    use effitest_ssta::VariationConfig;

    fn fixture() -> (GeneratedBenchmark, TimingModel) {
        let bench =
            GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s9234().scaled_down(10), 1);
        let model = TimingModel::build(&bench, &VariationConfig::paper());
        (bench, model)
    }

    #[test]
    fn prepare_reports_sane_statistics() {
        let (bench, model) = fixture();
        let flow = EffiTestFlow::new(FlowConfig::default());
        let prepared = flow.plan(&bench, &model).unwrap();
        let npt = prepared.tested_path_count();
        assert!(npt >= 1);
        assert!(npt <= model.path_count());
        assert!(prepared.epsilon > 0.0);
        assert!(!prepared.batches.is_empty());
        // Slot filling never duplicates paths.
        let tested = prepared.batches.tested_paths();
        assert_eq!(tested.len(), prepared.batches.batches.iter().map(Vec::len).sum::<usize>());
    }

    #[test]
    fn plan_exposes_chip_independent_artifacts() {
        let (bench, model) = fixture();
        let flow = EffiTestFlow::new(FlowConfig::default());
        let plan = flow.plan(&bench, &model).unwrap();
        // The oracle spans every required path, so any subset can be
        // re-batched against it without rebuilding the conflict graph.
        assert_eq!(plan.oracle.paths().len(), model.path_count());
        // Predicted sigmas cover exactly the unselected paths.
        let selected = crate::select::all_selected(&plan.groups);
        assert_eq!(plan.predicted_sigmas.len(), model.path_count() - selected.len());
        for &(p, sigma) in &plan.predicted_sigmas {
            assert!(!selected.contains(&p));
            assert!(sigma >= 0.0);
        }
        // Planning is deterministic: a second plan is identical.
        let prepared = flow.plan(&bench, &model).unwrap();
        assert_eq!(prepared.batches.batches, plan.batches.batches);
        assert_eq!(prepared.epsilon, plan.epsilon);
    }

    #[test]
    fn threaded_plan_matches_serial_reference_at_every_thread_count() {
        let (bench, model) = fixture();
        let flow = EffiTestFlow::new(FlowConfig::default());
        // At one thread every stage runs inline: that run is the reference.
        let reference = flow.plan_threaded(&bench, &model, 1).unwrap();
        let lambda_key = |l: &HoldBounds| {
            let mut v: Vec<(usize, u64)> = l.iter().map(|(p, x)| (p, x.to_bits())).collect();
            v.sort_unstable();
            v
        };
        for threads in [4, 8] {
            let threaded = flow.plan_threaded(&bench, &model, threads).unwrap();
            assert_eq!(threaded.groups, reference.groups, "groups diverged ({threads})");
            assert_eq!(
                threaded.batches.batches, reference.batches.batches,
                "batches diverged ({threads})"
            );
            assert_eq!(
                threaded.batches.slot_filled, reference.batches.slot_filled,
                "slot fill diverged ({threads})"
            );
            assert_eq!(
                lambda_key(&threaded.lambda),
                lambda_key(&reference.lambda),
                "hold bounds diverged ({threads})"
            );
            assert_eq!(
                threaded.predicted_sigmas, reference.predicted_sigmas,
                "predicted sigmas diverged ({threads})"
            );
            assert_eq!(threaded.epsilon, reference.epsilon);
            // The predictors must behave identically on silicon.
            let chip = model.sample_chip(123);
            let td = model.nominal_period();
            let key = |o: &ChipOutcome| {
                (
                    o.iterations,
                    o.passes,
                    o.ranges
                        .iter()
                        .map(|b| (b.lower.to_bits(), b.upper.to_bits()))
                        .collect::<Vec<_>>(),
                )
            };
            let a = flow.run_chip(&threaded, &chip, td).unwrap();
            let b = flow.run_chip(&reference, &chip, td).unwrap();
            assert_eq!(key(&a), key(&b), "chip outcome diverged at {threads} threads");
        }
    }

    #[test]
    fn reused_workspace_matches_fresh_workspace_bitwise() {
        // One workspace across chips must give the same outcomes as a
        // fresh workspace per chip: workspaces are scratch, not state.
        let (bench, model) = fixture();
        let flow = EffiTestFlow::new(FlowConfig::default());
        let prepared = flow.plan(&bench, &model).unwrap();
        let td = model.nominal_period();
        let key = |o: &ChipOutcome| {
            (
                o.iterations,
                o.passes,
                o.configured.as_ref().map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()),
                o.ranges.iter().map(|b| (b.lower.to_bits(), b.upper.to_bits())).collect::<Vec<_>>(),
            )
        };
        let mut ws = FlowWorkspace::new();
        for seed in 0..6 {
            let chip = model.sample_chip(500 + seed);
            let reused = flow.run_chip_with(&mut ws, &prepared, &chip, td).unwrap();
            let fresh = flow.run_chip(&prepared, &chip, td).unwrap();
            assert_eq!(key(&reused), key(&fresh), "workspace reuse drifted on chip {seed}");
        }
    }

    #[test]
    fn incremental_flow_matches_reference_on_every_topology() {
        // The full per-chip flow — aligned test, prediction, configuration,
        // final check — must be bitwise identical with and without the
        // incremental aligned-test loop, on every topology in the matrix.
        let key = |o: &ChipOutcome| {
            (
                o.iterations,
                o.passes,
                o.contradictions,
                o.configured.as_ref().map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()),
                o.ranges.iter().map(|b| (b.lower.to_bits(), b.upper.to_bits())).collect::<Vec<_>>(),
            )
        };
        for &topology in effitest_circuit::Topology::all().iter() {
            let spec = BenchmarkSpec::iscas89_s9234().scaled_down(10).with_topology(topology);
            let bench = GeneratedBenchmark::generate(&spec, 1);
            let model = TimingModel::build(&bench, &VariationConfig::paper());
            let inc = EffiTestFlow::new(FlowConfig::default());
            let refr =
                EffiTestFlow::new(FlowConfig { incremental: false, ..FlowConfig::default() });
            let plan_inc = inc.plan(&bench, &model).unwrap();
            let plan_ref = refr.plan(&bench, &model).unwrap();
            let td = model.nominal_period();
            for seed in 0..3 {
                let chip = model.sample_chip(700 + seed);
                let a = inc.run_chip(&plan_inc, &chip, td).unwrap();
                let b = refr.run_chip(&plan_ref, &chip, td).unwrap();
                assert_eq!(
                    key(&a),
                    key(&b),
                    "incremental flow drifted on {} chip {seed}",
                    topology.name()
                );
            }
        }
    }

    #[test]
    fn full_flow_reduces_iterations_massively() {
        // Slightly larger than the shared fixture: with only ~8 paths the
        // multiplexing and prediction savings cannot amortize and the
        // reduction hovers near 45%; from ~10 paths on it stays well
        // above the 50% bar.
        let bench = GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s9234().scaled_down(8), 1);
        let model = TimingModel::build(&bench, &VariationConfig::paper());
        let flow = EffiTestFlow::new(FlowConfig::default());
        let prepared = flow.plan(&bench, &model).unwrap();
        let td = model.nominal_period();

        let mut ours = 0_u64;
        let mut baseline = 0_u64;
        for seed in 0..5 {
            let chip = model.sample_chip(300 + seed);
            let outcome = flow.run_chip(&prepared, &chip, td).unwrap();
            ours += outcome.iterations;
            baseline += flow.run_chip_path_wise(&prepared, &chip).iterations;
        }
        let reduction = 1.0 - ours as f64 / baseline as f64;
        assert!(
            reduction > 0.5,
            "reduction only {:.1}% (ours {ours}, baseline {baseline})",
            reduction * 100.0
        );
    }

    #[test]
    fn yields_ordering_holds() {
        // y_ideal >= y_effitest (inaccuracy can only lose chips), and both
        // >= untuned at a stringent period.
        let (bench, model) = fixture();
        let flow = EffiTestFlow::new(FlowConfig::default());
        let prepared = flow.plan(&bench, &model).unwrap();
        let periods: Vec<f64> =
            (0..200).map(|s| model.sample_chip(s).min_period_untuned()).collect();
        let td = empirical_quantile(&periods, 0.5);

        let n = 60;
        let mut untuned = 0;
        let mut ours = 0;
        let mut ideal = 0;
        for seed in 0..n {
            let chip = model.sample_chip(9_000 + seed);
            if crate::configure::untuned_check(&chip, td) {
                untuned += 1;
            }
            if crate::configure::ideal_configure_and_check(&model, &prepared.buffers, &chip, td) {
                ideal += 1;
            }
            let outcome = flow.run_chip(&prepared, &chip, td).unwrap();
            if outcome.passes {
                ours += 1;
            }
        }
        assert!(ideal >= ours, "ideal {ideal} < ours {ours}");
        assert!(ideal > untuned, "tuning should rescue chips at the median period");
        // EffiTest should stay within a few percent of ideal (paper: 1-2%).
        let drop = (ideal - ours) as f64 / n as f64;
        assert!(drop <= 0.25, "yield drop too large: {drop}");
    }

    #[test]
    fn passes_implies_configured() {
        let (bench, model) = fixture();
        let flow = EffiTestFlow::new(FlowConfig::default());
        let prepared = flow.plan(&bench, &model).unwrap();
        let td = model.nominal_period() * 0.97;
        for seed in 0..10 {
            let chip = model.sample_chip(50 + seed);
            let outcome = flow.run_chip(&prepared, &chip, td).unwrap();
            if outcome.passes {
                assert!(outcome.configured.is_some());
            }
            assert_eq!(outcome.ranges.len(), model.path_count());
        }
    }

    #[test]
    fn mismatched_chip_is_rejected() {
        let (bench, model) = fixture();
        let flow = EffiTestFlow::new(FlowConfig::default());
        let prepared = flow.plan(&bench, &model).unwrap();
        let bogus = ChipInstance::new(0, vec![1.0], vec![None]);
        assert!(matches!(
            flow.run_chip(&prepared, &bogus, 1.0),
            Err(FlowError::ModelMismatch { .. })
        ));
    }

    #[test]
    fn ablation_no_alignment_still_converges() {
        let (bench, model) = fixture();
        let flow = EffiTestFlow::new(FlowConfig::default());
        let prepared = flow.plan(&bench, &model).unwrap();
        let chip = model.sample_chip(77);
        let paths: Vec<usize> = (0..model.path_count()).collect();
        let (iters_plain, bounds_plain) =
            flow.test_paths_multiplexed(&prepared, &chip, &paths, false);
        let (iters_aligned, bounds_aligned) =
            flow.test_paths_multiplexed(&prepared, &chip, &paths, true);
        assert_eq!(bounds_plain.len(), paths.len());
        assert_eq!(bounds_aligned.len(), paths.len());
        for b in bounds_aligned.values() {
            assert!(b.converged(prepared.epsilon));
        }
        assert!(
            iters_aligned <= iters_plain,
            "alignment ({iters_aligned}) worse than none ({iters_plain})"
        );
    }

    #[test]
    fn invalid_select_configs_are_rejected_before_planning() {
        // Regression: the first three used to hang `plan()` (every seed
        // deferred as a singleton while the threshold never moved or was
        // never finite), the next three used to panic inside selection,
        // and the last two were clamped or retained every component.
        // Each runs on its own thread so a hang fails the test instead of
        // stalling the suite (a hung thread cannot be joined; it is left
        // behind when the test fails).
        let base = SelectConfig::default();
        let cases = [
            SelectConfig { threshold_start: f64::NAN, ..base.clone() },
            SelectConfig { threshold_start: f64::INFINITY, ..base.clone() },
            SelectConfig { threshold_step: 1e-300, ..base.clone() },
            SelectConfig { threshold_step: 0.0, ..base.clone() },
            SelectConfig { criticality_fraction: Some(1.5), ..base.clone() },
            SelectConfig { criticality_fraction: Some(f64::NAN), ..base.clone() },
            SelectConfig { pca_energy: f64::NAN, ..base.clone() },
            SelectConfig { pca_energy: 1.5, ..base },
        ];
        for select in cases {
            let label = format!("{select:?}");
            let (tx, rx) = std::sync::mpsc::channel();
            let planner = std::thread::spawn(move || {
                let (bench, model) = fixture();
                let flow = EffiTestFlow::new(FlowConfig { select, ..FlowConfig::default() });
                let _ = tx.send(flow.plan(&bench, &model).map(|_| ()));
            });
            let outcome = rx.recv_timeout(Duration::from_secs(60));
            if outcome.is_ok() {
                planner.join().expect("planning thread panicked after sending");
            }
            match outcome {
                Ok(Err(FlowError::InvalidConfig(msg))) => assert!(!msg.is_empty()),
                Ok(other) => panic!("{label}: expected InvalidConfig, got {other:?}"),
                Err(e) => panic!("{label}: plan() did not return ({e})"),
            }
        }
    }

    #[test]
    fn flow_error_display() {
        assert!(!FlowError::EmptyPaths.to_string().is_empty());
        let e = FlowError::ModelMismatch { bench_paths: 1, model_paths: 2 };
        assert!(e.to_string().contains('1'));
        let e = FlowError::Environment("EFFITEST_THREADS must be a positive integer".into());
        assert!(e.to_string().contains("EFFITEST_THREADS"));
        let e = FlowError::InvalidConfig("threshold_step must be positive".into());
        assert!(e.to_string().contains("threshold_step"));
    }
}
