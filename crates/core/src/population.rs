//! Parallel chip-population engine.
//!
//! The paper's evaluation (§4, Table 1) runs the EffiTest flow over a
//! **10 000-chip Monte-Carlo population per circuit**. Everything the flow
//! needs besides the chip itself — path grouping, Welsh–Powell batches,
//! the sensitization conflict graph, predicted sigmas, hold bounds — is
//! chip-independent and lives in a [`FlowPlan`] built once per circuit.
//! This module supplies the other half: a deterministic engine that fans
//! the *per-chip* step out across worker threads. Each chip runs the whole
//! per-chip flow — aligned test, prediction through the plan's
//! [`Predictor::predict_with`](crate::predict::Predictor::predict_with),
//! configuration — on the worker that claims it; no stage is batched
//! across chips.
//!
//! # Determinism
//!
//! Results are **bitwise identical regardless of thread count or
//! completion order**:
//!
//! * every chip `k` is sampled from the seed
//!   [`PopulationConfig::chip_seed`]`(k)` — derived from the base seed and
//!   `k` alone, never from which worker picks the chip up;
//! * the per-chip closure receives only the shared plan (immutable) and
//!   its own chip, so no cross-chip state can leak;
//! * results are scattered back into position `k`, so the output order is
//!   the chip order, not the completion order.
//!
//! The CI workflow runs the end-to-end suite at `EFFITEST_THREADS=1` and
//! `EFFITEST_THREADS=4` to keep this property load-bearing.
//!
//! # Threads
//!
//! The worker count comes from [`PopulationConfig::threads`]; drivers fill
//! it from the `EFFITEST_THREADS` environment variable via
//! [`threads_from_env`] (default: the machine's available parallelism).
//! An unparseable override is a hard error, not a silent fallback. The
//! same variable governs **both** threaded phases of the pipeline: the
//! chip-independent plan construction (selection, conflict analysis, hold
//! sampling, prediction gains — see [`crate::parallel`]) and this per-chip
//! population engine. The plumbing lives in
//! [`effitest_parallel::threads`] and is re-exported here for
//! compatibility.
//!
//! # Example
//!
//! ```
//! use effitest_circuit::{BenchmarkSpec, GeneratedBenchmark};
//! use effitest_core::population::{run_population, PopulationConfig};
//! use effitest_core::{EffiTestFlow, FlowConfig};
//! use effitest_ssta::{TimingModel, VariationConfig};
//!
//! let bench = GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s9234().scaled_down(20), 1);
//! let model = TimingModel::build(&bench, &VariationConfig::paper());
//! let flow = EffiTestFlow::new(FlowConfig::default());
//! let plan = flow.plan(&bench, &model).unwrap();
//! let td = model.nominal_period();
//!
//! let pop = PopulationConfig { n_chips: 8, base_seed: 1000, threads: 2 };
//! let iterations: Vec<u64> = run_population(&model, &pop, |_k, chip| {
//!     flow.run_chip(&plan, chip, td).unwrap().iterations
//! });
//! assert_eq!(iterations.len(), 8);
//! // Identical to the serial run, element for element:
//! let serial = run_population(&model, &PopulationConfig { threads: 1, ..pop }, |_k, chip| {
//!     flow.run_chip(&plan, chip, td).unwrap().iterations
//! });
//! assert_eq!(iterations, serial);
//! ```

use effitest_ssta::{ChipInstance, TimingModel};

use crate::{ChipOutcome, EffiTestFlow, FlowPlan, FlowWorkspace};

// Thread-count plumbing shared with the plan-construction phase; one env
// read, one validation, one hard-error message for the whole pipeline.
pub use effitest_parallel::threads::{
    default_threads, env_count, parse_env_count, threads_from_env, THREADS_ENV,
};

/// How a population run samples and distributes its chips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopulationConfig {
    /// Number of chips in the Monte-Carlo population (paper: 10 000).
    pub n_chips: usize,
    /// Base sampling seed; chip `k` uses `base_seed.wrapping_add(k)`.
    pub base_seed: u64,
    /// Worker threads. `1` runs inline on the calling thread; results are
    /// identical either way.
    pub threads: usize,
}

impl PopulationConfig {
    /// A config with the default thread count ([`default_threads`]).
    pub fn new(n_chips: usize, base_seed: u64) -> Self {
        PopulationConfig { n_chips, base_seed, threads: default_threads() }
    }

    /// A single-threaded config (the reference serial order).
    pub fn serial(n_chips: usize, base_seed: u64) -> Self {
        PopulationConfig { n_chips, base_seed, threads: 1 }
    }

    /// The sampling seed of chip `k` — a pure function of the base seed
    /// and the chip index, which is what makes the engine deterministic
    /// under any scheduling.
    pub fn chip_seed(&self, k: usize) -> u64 {
        self.base_seed.wrapping_add(k as u64)
    }
}

/// Runs `per_chip` over the whole population, in parallel, returning one
/// result per chip **in chip order**.
///
/// Chip `k` is sampled from [`PopulationConfig::chip_seed`]`(k)` inside
/// whichever worker claims index `k`, so sampling cost parallelizes along
/// with the flow itself. With `threads <= 1` the loop runs inline on the
/// calling thread; the results are bitwise identical either way.
///
/// # Panics
///
/// Propagates a panic from `per_chip` (the first panicking worker's
/// payload is re-raised on the calling thread).
pub fn run_population<R, F>(model: &TimingModel, config: &PopulationConfig, per_chip: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &ChipInstance) -> R + Sync,
{
    run_population_scratch(model, config, || (), |(), k, chip| per_chip(k, chip))
}

/// [`run_population`] with **per-worker scratch state**: every worker
/// thread calls `init` once and threads the resulting value mutably
/// through all the chips it claims.
///
/// This is how the flow's solver workspaces ([`FlowWorkspace`]) get reused
/// across a worker's chips without any cross-thread sharing. Determinism
/// is preserved because workspaces hold scratch, never results: `per_chip`
/// must return the same value whether its workspace is fresh or has been
/// through any number of prior chips (every workspace type in this crate
/// upholds that invariant, and `tests/population.rs` checks it end to
/// end). The chips are spread by
/// [`effitest_parallel::par_map_scratch`], one chip per claim. With
/// `threads <= 1` a single scratch value serves the whole population
/// inline on the calling thread.
///
/// # Panics
///
/// Propagates a panic from `per_chip` (the first panicking worker's
/// payload is re-raised on the calling thread).
pub fn run_population_scratch<R, W, I, F>(
    model: &TimingModel,
    config: &PopulationConfig,
    init: I,
    per_chip: F,
) -> Vec<R>
where
    R: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, usize, &ChipInstance) -> R + Sync,
{
    effitest_parallel::par_map_scratch(config.threads, 1, config.n_chips, init, |ws, k| {
        let chip = model.sample_chip(config.chip_seed(k));
        per_chip(ws, k, &chip)
    })
}

/// Convenience wrapper: the complete per-chip flow
/// ([`EffiTestFlow::run_chip_with`]) over a population at one designated
/// clock period, sharing a single plan, with one long-lived
/// [`FlowWorkspace`] per worker thread (so the whole population runs
/// through warm solver workspaces without per-chip allocation).
///
/// # Panics
///
/// Panics if the plan's model disagrees with its own chip sampling — which
/// cannot happen for a plan built by [`EffiTestFlow::plan`].
pub fn run_flow_population(
    flow: &EffiTestFlow,
    plan: &FlowPlan<'_>,
    clock_period: f64,
    config: &PopulationConfig,
) -> Vec<ChipOutcome> {
    run_population_scratch(plan.model, config, FlowWorkspace::new, |ws, _k, chip| {
        flow.run_chip_with(ws, plan, chip, clock_period).expect("plan-sampled chip always matches")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowConfig;
    use effitest_circuit::{BenchmarkSpec, GeneratedBenchmark};
    use effitest_ssta::VariationConfig;

    fn fixture() -> (GeneratedBenchmark, TimingModel) {
        let bench =
            GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s9234().scaled_down(10), 1);
        let model = TimingModel::build(&bench, &VariationConfig::paper());
        (bench, model)
    }

    #[test]
    fn plan_and_flow_are_shareable_across_threads() {
        fn assert_sync<T: Sync>() {}
        fn assert_send<T: Send>() {}
        assert_sync::<FlowPlan<'static>>();
        assert_send::<FlowPlan<'static>>();
        assert_sync::<EffiTestFlow>();
        assert_send::<ChipOutcome>();
    }

    #[test]
    fn results_are_in_chip_order_and_thread_invariant() {
        let (_, model) = fixture();
        let base = PopulationConfig { n_chips: 13, base_seed: 400, threads: 1 };
        let serial = run_population(&model, &base, |k, chip| (k, chip.seed()));
        for (k, &(rk, seed)) in serial.iter().enumerate() {
            assert_eq!(rk, k);
            assert_eq!(seed, base.chip_seed(k));
        }
        for threads in [2, 3, 8, 64] {
            let par = run_population(&model, &PopulationConfig { threads, ..base }, |k, chip| {
                (k, chip.seed())
            });
            assert_eq!(par, serial, "thread count {threads} reordered results");
        }
    }

    #[test]
    fn full_flow_outcomes_are_bitwise_deterministic_across_threads() {
        let (bench, model) = fixture();
        let flow = EffiTestFlow::new(FlowConfig::default());
        let plan = flow.plan(&bench, &model).unwrap();
        let td = model.nominal_period();
        let key = |o: &ChipOutcome| {
            (
                o.iterations,
                o.passes,
                o.configured.as_ref().map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()),
                o.ranges.iter().map(|b| (b.lower.to_bits(), b.upper.to_bits())).collect::<Vec<_>>(),
            )
        };
        let base = PopulationConfig { n_chips: 6, base_seed: 900, threads: 1 };
        let serial: Vec<_> = run_flow_population(&flow, &plan, td, &base).iter().map(key).collect();
        for threads in [2, 4] {
            let par: Vec<_> =
                run_flow_population(&flow, &plan, td, &PopulationConfig { threads, ..base })
                    .iter()
                    .map(key)
                    .collect();
            assert_eq!(par, serial, "outcomes drifted at {threads} threads");
        }
    }

    #[test]
    fn empty_population_is_fine() {
        let (_, model) = fixture();
        let pop = PopulationConfig { n_chips: 0, base_seed: 1, threads: 4 };
        let out: Vec<u64> = run_population(&model, &pop, |_k, chip| chip.seed());
        assert!(out.is_empty());
    }

    #[test]
    fn env_plumbing_reexports_are_the_shared_helpers() {
        // The implementation (and its unit tests) lives in
        // `effitest_parallel::threads`; this pins the compatibility
        // re-export surface.
        assert_eq!(THREADS_ENV, "EFFITEST_THREADS");
        assert_eq!(parse_env_count("X", "12"), Ok(12));
        assert!(default_threads() >= 1);
    }

    #[test]
    fn worker_panics_propagate() {
        let (_, model) = fixture();
        let pop = PopulationConfig { n_chips: 8, base_seed: 0, threads: 3 };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_population(&model, &pop, |k, _chip| {
                assert!(k != 5, "boom on chip 5");
                k
            })
        }));
        assert!(result.is_err(), "worker panic must reach the caller");
    }
}
