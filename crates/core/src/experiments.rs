//! Experiment drivers regenerating every table and figure of the paper's
//! evaluation (§4).
//!
//! Each driver consumes [`BenchmarkSpec`]s, generates the synthetic
//! circuit, builds the timing model, builds the chip-independent
//! [`crate::FlowPlan`] **once**, and then runs the per-chip step over a
//! Monte-Carlo chip population through the parallel
//! [`population`](crate::population) engine — every counted result is
//! bitwise identical at any thread count (the wall-clock columns are
//! measurement noise by nature; see [`Table1Row::tt_s`]). Chip counts are
//! configurable — the paper
//! used 10 000 chips; the benches default lower and can be raised via the
//! `EFFITEST_CHIPS` environment variable. Worker threads come from
//! `EFFITEST_THREADS` (default: available parallelism). Invalid values of
//! either variable are hard errors, never silent fallbacks.

use effitest_circuit::{BenchmarkSpec, GeneratedBenchmark};
use effitest_linalg::stats::empirical_quantile;
use effitest_ssta::{TimingModel, VariationConfig};

use crate::batch::ConflictOracle;
use crate::configure::{ideal_configure_and_check, untuned_check};
use crate::parallel::threads::{default_threads, env_count, threads_from_env};
use crate::population::{run_population, run_population_scratch, PopulationConfig};
use crate::{EffiTestFlow, FlowConfig, FlowWorkspace};

/// Name of the environment variable overriding the chip count.
pub const CHIPS_ENV: &str = "EFFITEST_CHIPS";

/// Shared experiment parameters.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Simulated chips per circuit (paper: 10 000).
    pub n_chips: usize,
    /// Base seed for chip sampling.
    pub seed: u64,
    /// Worker threads for the population engine (default: available
    /// parallelism). Results are identical at any value.
    pub threads: usize,
    /// Flow configuration.
    pub flow: FlowConfig,
    /// Process-variation configuration.
    pub variation: VariationConfig,
    /// Chips used for the (nearly chip-independent) path-wise baseline
    /// iteration count; capped to keep Table 1 affordable.
    pub baseline_chips: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            n_chips: 300,
            seed: 1,
            threads: default_threads(),
            flow: FlowConfig::default(),
            variation: VariationConfig::paper(),
            baseline_chips: 10,
        }
    }
}

impl ExperimentConfig {
    /// Reads the chip count from `EFFITEST_CHIPS` and the worker-thread
    /// count from `EFFITEST_THREADS`, when set.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message when either variable is set to
    /// anything but a positive integer. A typo'd override must abort the
    /// experiment, not silently run with the default chip count.
    pub fn try_from_env() -> Result<Self, String> {
        let mut config = ExperimentConfig::default();
        if let Some(n) = env_count(CHIPS_ENV)? {
            config.n_chips = n;
        }
        config.threads = threads_from_env()?;
        Ok(config)
    }

    /// Like [`try_from_env`](Self::try_from_env), but panics on invalid
    /// input — the right behavior for bench and example binaries, where an
    /// aborted run beats a silently wrong population size.
    ///
    /// # Panics
    ///
    /// Panics with the parse error when `EFFITEST_CHIPS` or
    /// `EFFITEST_THREADS` is set to anything but a positive integer.
    pub fn from_env() -> Self {
        Self::try_from_env().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The population layout shared by all drivers: `n_chips` chips whose
    /// seeds start at `seed + seed_offset`, on `threads` workers.
    fn population(&self, seed_offset: u64, n_chips: usize) -> PopulationConfig {
        PopulationConfig {
            n_chips,
            base_seed: self.seed.wrapping_add(seed_offset),
            threads: self.threads,
        }
    }
}

/// One row of the paper's Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Circuit name.
    pub name: String,
    /// Flip-flops.
    pub ns: usize,
    /// Gates.
    pub ng: usize,
    /// Tunable buffers.
    pub nb: usize,
    /// Required paths.
    pub np: usize,
    /// Paths actually tested (selected + slot fills).
    pub npt: usize,
    /// Average frequency-stepping iterations per chip (proposed).
    pub ta: f64,
    /// Iterations per tested path (`ta / npt`).
    pub tv: f64,
    /// Average iterations per chip, path-wise baseline (`t'_a`).
    pub ta_prime: f64,
    /// Iterations per path, baseline (`t'_a / np`).
    pub tv_prime: f64,
    /// Reduction of per-chip iterations, percent.
    pub ra: f64,
    /// Reduction of per-path iterations, percent.
    pub rv: f64,
    /// Offline preparation runtime, seconds (`T_p`).
    pub tp_s: f64,
    /// Average per-chip alignment-solving runtime, seconds (`T_t`).
    ///
    /// Wall-clock, measured inside the population workers: with more than
    /// one thread it includes scheduling/cache contention and is *not*
    /// covered by the bitwise thread-count determinism guarantee (which
    /// applies to every counted column). Compare timing columns across
    /// machines or thread counts with care; run at `EFFITEST_THREADS=1`
    /// for contention-free per-chip times.
    pub tt_s: f64,
    /// Average per-chip configuration runtime, seconds (`T_s`); same
    /// wall-clock caveat as [`tt_s`](Self::tt_s).
    pub ts_s: f64,
}

/// Regenerates one Table 1 row.
pub fn table1_row(spec: &BenchmarkSpec, config: &ExperimentConfig) -> Table1Row {
    let bench = GeneratedBenchmark::generate(spec, config.seed);
    let model = TimingModel::build(&bench, &config.variation);
    let flow = EffiTestFlow::new(config.flow.clone());
    let plan = flow.plan(&bench, &model).expect("non-empty benchmark");
    let td = model.nominal_period();

    let per_chip = run_population_scratch(
        &model,
        &config.population(1000, config.n_chips),
        FlowWorkspace::new,
        |ws, _k, chip| {
            let outcome = flow.run_chip_with(ws, &plan, chip, td).expect("matched chip");
            (outcome.iterations, outcome.align_time, outcome.config_time)
        },
    );
    let total_iters: u64 = per_chip.iter().map(|&(i, _, _)| i).sum();
    let total_align: std::time::Duration = per_chip.iter().map(|&(_, a, _)| a).sum();
    let total_config: std::time::Duration = per_chip.iter().map(|&(_, _, c)| c).sum();

    // Path-wise baseline: iteration counts barely vary across chips
    // (binary-search depth is range-driven), so a small sample suffices.
    let baseline_chips = config.baseline_chips.min(config.n_chips).max(1);
    let baseline_iters: u64 =
        run_population(&model, &config.population(1000, baseline_chips), |_k, chip| {
            flow.run_chip_path_wise(&plan, chip).iterations
        })
        .into_iter()
        .sum();

    let npt = plan.tested_path_count();
    let np = model.path_count();
    let ta = total_iters as f64 / config.n_chips as f64;
    let ta_prime = baseline_iters as f64 / baseline_chips as f64;
    let tv = ta / npt as f64;
    let tv_prime = ta_prime / np as f64;

    Table1Row {
        name: spec.name.clone(),
        ns: spec.ns,
        ng: spec.ng,
        nb: spec.nb,
        np,
        npt,
        ta,
        tv,
        ta_prime,
        tv_prime,
        ra: (ta_prime - ta) / ta_prime * 100.0,
        rv: (tv_prime - tv) / tv_prime * 100.0,
        tp_s: plan.prep_time.as_secs_f64(),
        tt_s: total_align.as_secs_f64() / config.n_chips as f64,
        ts_s: total_config.as_secs_f64() / config.n_chips as f64,
    }
}

/// Regenerates Table 1 for a list of circuits.
pub fn table1(specs: &[BenchmarkSpec], config: &ExperimentConfig) -> Vec<Table1Row> {
    specs.iter().map(|s| table1_row(s, config)).collect()
}

/// One row of the paper's Table 2: yields at two designated periods.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Circuit name.
    pub name: String,
    /// Designated period `T1` (50% untuned yield).
    pub t1: f64,
    /// Ideal-measurement yield at `T1` (%).
    pub yi1: f64,
    /// Proposed-flow yield at `T1` (%).
    pub yt1: f64,
    /// Yield drop at `T1` (%).
    pub yr1: f64,
    /// Designated period `T2` (84.13% untuned yield).
    pub t2: f64,
    /// Ideal-measurement yield at `T2` (%).
    pub yi2: f64,
    /// Proposed-flow yield at `T2` (%).
    pub yt2: f64,
    /// Yield drop at `T2` (%).
    pub yr2: f64,
}

/// Regenerates one Table 2 row.
pub fn table2_row(spec: &BenchmarkSpec, config: &ExperimentConfig) -> Table2Row {
    let bench = GeneratedBenchmark::generate(spec, config.seed);
    let model = TimingModel::build(&bench, &config.variation);
    let flow = EffiTestFlow::new(config.flow.clone());
    let plan = flow.plan(&bench, &model).expect("non-empty benchmark");
    let pop = config.population(1000, config.n_chips);

    // Designated periods from the untuned population quantiles, exactly
    // the paper's "original yields without buffers were 50% and 84.13%".
    // Both passes resample their chips from the same seeds rather than
    // holding the population in memory: sampling is microseconds against
    // the milliseconds of the per-chip flow, while materializing 10 000
    // chips of a large circuit costs hundreds of megabytes.
    let untuned_periods = run_population(&model, &pop, |_k, chip| chip.min_period_untuned());
    let t1 = empirical_quantile(&untuned_periods, 0.5);
    let t2 = empirical_quantile(&untuned_periods, 0.8413);

    // Test + predict once per chip; configure per period.
    let per_chip = run_population_scratch(&model, &pop, FlowWorkspace::new, |ws, _k, chip| {
        let (predicted, _aligned) = flow.test_and_predict_with(ws, &plan, chip);
        let mut yi = [false; 2];
        let mut yt = [false; 2];
        for (slot, &td) in [t1, t2].iter().enumerate() {
            yi[slot] = ideal_configure_and_check(&model, &plan.buffers, chip, td);
            let (_, passes, _) = flow.configure_and_check(&plan, chip, &predicted.ranges, td);
            yt[slot] = passes;
        }
        (yi, yt)
    });
    let count = |slot: usize, ideal: bool| {
        per_chip.iter().filter(|(yi, yt)| if ideal { yi[slot] } else { yt[slot] }).count()
    };
    let (yi, yt) = ([count(0, true), count(1, true)], [count(0, false), count(1, false)]);
    let n = config.n_chips as f64;
    let pct = |c: usize| c as f64 / n * 100.0;
    Table2Row {
        name: spec.name.clone(),
        t1,
        yi1: pct(yi[0]),
        yt1: pct(yt[0]),
        yr1: pct(yi[0]) - pct(yt[0]),
        t2,
        yi2: pct(yi[1]),
        yt2: pct(yt[1]),
        yr2: pct(yi[1]) - pct(yt[1]),
    }
}

/// Regenerates Table 2.
pub fn table2(specs: &[BenchmarkSpec], config: &ExperimentConfig) -> Vec<Table2Row> {
    specs.iter().map(|s| table2_row(s, config)).collect()
}

/// One group of bars in the paper's Fig. 7 (yields with sigma inflated by
/// 10%, covariances unchanged).
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Circuit name.
    pub name: String,
    /// Yield without buffers (fraction).
    pub no_buffer: f64,
    /// Yield with the proposed flow (fraction).
    pub proposed: f64,
    /// Yield with ideal delay measurement (fraction).
    pub ideal: f64,
}

/// Regenerates Fig. 7: all three series per circuit under +10% sigma.
pub fn fig7_row(spec: &BenchmarkSpec, config: &ExperimentConfig) -> Fig7Row {
    let bench = GeneratedBenchmark::generate(spec, config.seed);
    let base_model = TimingModel::build(&bench, &config.variation);
    let model = base_model.with_inflated_sigma(1.1);
    let flow = EffiTestFlow::new(config.flow.clone());
    let plan = flow.plan(&bench, &model).expect("non-empty benchmark");
    let pop = config.population(9000, config.n_chips);

    let untuned_periods = run_population(&model, &pop, |_k, chip| chip.min_period_untuned());
    let td = empirical_quantile(&untuned_periods, 0.5);

    let per_chip = run_population_scratch(&model, &pop, FlowWorkspace::new, |ws, _k, chip| {
        let outcome = flow.run_chip_with(ws, &plan, chip, td).expect("matched chip");
        (
            untuned_check(chip, td),
            ideal_configure_and_check(&model, &plan.buffers, chip, td),
            outcome.passes,
        )
    });
    let n = config.n_chips as f64;
    Fig7Row {
        name: spec.name.clone(),
        no_buffer: per_chip.iter().filter(|&&(u, _, _)| u).count() as f64 / n,
        proposed: per_chip.iter().filter(|&&(_, _, p)| p).count() as f64 / n,
        ideal: per_chip.iter().filter(|&&(_, i, _)| i).count() as f64 / n,
    }
}

/// Regenerates Fig. 7.
pub fn fig7(specs: &[BenchmarkSpec], config: &ExperimentConfig) -> Vec<Fig7Row> {
    specs.iter().map(|s| fig7_row(s, config)).collect()
}

/// One group of bars in the paper's Fig. 8 (iterations per path without
/// statistical prediction: every required path is measured).
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Circuit name.
    pub name: String,
    /// Path-wise frequency stepping, iterations per path.
    pub path_wise: f64,
    /// Multiplexing with buffers at zero, iterations per path.
    pub multiplexed: f64,
    /// Multiplexing + delay alignment (proposed), iterations per path.
    pub proposed: f64,
}

/// Regenerates one Fig. 8 group. Every required path is batched once,
/// against a conflict oracle over all of them, and each chip is tested
/// against those batches.
pub fn fig8_row(spec: &BenchmarkSpec, config: &ExperimentConfig) -> Fig8Row {
    let bench = GeneratedBenchmark::generate(spec, config.seed);
    let model = TimingModel::build(&bench, &config.variation);
    let flow = EffiTestFlow::new(config.flow.clone());
    let plan = flow.plan(&bench, &model).expect("non-empty benchmark");
    let paths: Vec<usize> = (0..model.path_count()).collect();
    let oracle = ConflictOracle::new(&bench, config.threads);
    let batches = flow.batch_paths(&oracle, &model, &paths);

    // Iteration counts are tightly concentrated across chips; a small
    // sample gives stable per-path averages.
    let n_chips = config.baseline_chips.min(config.n_chips).max(1);
    let per_chip = run_population_scratch(
        &model,
        &config.population(4000, n_chips),
        FlowWorkspace::new,
        |ws, _k, chip| {
            (
                flow.run_chip_path_wise(&plan, chip).iterations,
                flow.test_paths_multiplexed_with(ws, &plan, chip, &batches, false).0,
                flow.test_paths_multiplexed_with(ws, &plan, chip, &batches, true).0,
            )
        },
    );
    let (pw, mux, aligned) = per_chip
        .iter()
        .fold((0_u64, 0_u64, 0_u64), |(a, b, c), &(p, m, al)| (a + p, b + m, c + al));
    let denom = (n_chips * paths.len()) as f64;
    Fig8Row {
        name: spec.name.clone(),
        path_wise: pw as f64 / denom,
        multiplexed: mux as f64 / denom,
        proposed: aligned as f64 / denom,
    }
}

/// Regenerates Fig. 8.
pub fn fig8(specs: &[BenchmarkSpec], config: &ExperimentConfig) -> Vec<Fig8Row> {
    specs.iter().map(|s| fig8_row(s, config)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> ExperimentConfig {
        let mut c =
            ExperimentConfig { n_chips: 8, baseline_chips: 2, ..ExperimentConfig::default() };
        c.flow.hold.samples = 32;
        c
    }

    fn small_spec() -> BenchmarkSpec {
        // Large enough that batches hold several paths (batch size is
        // capped near 2 * nb by the source/sink conflict rule).
        BenchmarkSpec::iscas89_s13207().scaled_down(8)
    }

    #[test]
    fn table1_row_shows_reduction() {
        let row = table1_row(&small_spec(), &quick_config());
        assert_eq!(row.np, small_spec().np);
        assert!(row.npt <= row.np);
        assert!(row.ta > 0.0);
        assert!(row.ta_prime > row.ta, "baseline must cost more");
        assert!(row.ra > 0.0 && row.ra <= 100.0);
        assert!(row.rv > 0.0 && row.rv <= 100.0);
        assert!(row.tv < row.tv_prime);
    }

    #[test]
    fn table2_row_yields_ordered() {
        let row = table2_row(&small_spec(), &quick_config());
        assert!(row.t2 > row.t1, "84th percentile period above the median");
        for (yi, yt) in [(row.yi1, row.yt1), (row.yi2, row.yt2)] {
            assert!((0.0..=100.0).contains(&yi));
            assert!((0.0..=100.0).contains(&yt));
            assert!(yi + 1e-9 >= yt, "ideal must dominate the proposed flow");
        }
        // Relaxed period => higher yields.
        assert!(row.yi2 >= row.yi1 - 1e-9);
    }

    #[test]
    fn fig7_row_orders_series() {
        let row = fig7_row(&small_spec(), &quick_config());
        assert!((0.0..=1.0).contains(&row.no_buffer));
        assert!(row.ideal + 1e-9 >= row.proposed);
        assert!(row.ideal + 1e-9 >= row.no_buffer);
    }

    #[test]
    fn fig8_row_orders_methods() {
        let row = fig8_row(&small_spec(), &quick_config());
        assert!(row.path_wise > row.multiplexed, "multiplexing must help");
        assert!(
            row.multiplexed + 1e-9 >= row.proposed,
            "alignment must not hurt: mux {} vs aligned {}",
            row.multiplexed,
            row.proposed
        );
    }

    #[test]
    fn from_env_respects_override() {
        // Not setting the variables: defaults stand.
        let c = ExperimentConfig::from_env();
        assert!(c.n_chips >= 1);
        assert!(c.threads >= 1);
    }

    #[test]
    fn drivers_are_thread_count_invariant() {
        // The full Table 2 row exercises two population passes plus the
        // per-chip flow; it must not depend on the worker count.
        let serial = ExperimentConfig { threads: 1, ..quick_config() };
        let parallel = ExperimentConfig { threads: 4, ..quick_config() };
        let a = table2_row(&small_spec(), &serial);
        let b = table2_row(&small_spec(), &parallel);
        assert_eq!(a.t1.to_bits(), b.t1.to_bits());
        assert_eq!(a.t2.to_bits(), b.t2.to_bits());
        assert_eq!(
            [a.yi1.to_bits(), a.yt1.to_bits(), a.yi2.to_bits(), a.yt2.to_bits()],
            [b.yi1.to_bits(), b.yt1.to_bits(), b.yi2.to_bits(), b.yt2.to_bits()]
        );
    }
}
