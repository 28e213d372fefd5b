//! Thread-count determinism of the population engine and the experiment
//! drivers built on it.
//!
//! The CI workflow runs this suite at `EFFITEST_THREADS=1` and
//! `EFFITEST_THREADS=4`: `env_threads_match_the_serial_reference` reads
//! the variable and compares against a pinned serial run, so each matrix
//! leg genuinely exercises a different worker count. The remaining tests
//! pin explicit thread counts so the guarantee also holds regardless of
//! the environment.

use std::collections::HashMap;

use effitest::flow::experiments::{table1_row, ExperimentConfig, Table1Row};
use effitest::flow::population::{
    run_flow_population, run_population, run_population_scratch, PopulationConfig,
};
use effitest::flow::ChipMatrix;
use effitest::prelude::*;

fn quick_config(threads: usize) -> ExperimentConfig {
    let mut c =
        ExperimentConfig { n_chips: 10, baseline_chips: 2, threads, ..ExperimentConfig::default() };
    c.flow.hold.samples = 32;
    c
}

/// Everything in a `Table1Row` except the wall-clock columns, bitwise.
fn deterministic_fields(r: &Table1Row) -> (String, [usize; 5], [u64; 6]) {
    (
        r.name.clone(),
        [r.ns, r.ng, r.nb, r.np, r.npt],
        [
            r.ta.to_bits(),
            r.tv.to_bits(),
            r.ta_prime.to_bits(),
            r.tv_prime.to_bits(),
            r.ra.to_bits(),
            r.rv.to_bits(),
        ],
    )
}

#[test]
fn env_threads_match_the_serial_reference() {
    // Thread count straight from EFFITEST_THREADS (the CI matrix sets 1
    // and 4); chip counts pinned so the reference run stays comparable.
    let threads = ExperimentConfig::from_env().threads;
    let env_driven = quick_config(threads);
    let spec = BenchmarkSpec::iscas89_s9234().scaled_down(10);
    assert_eq!(
        deterministic_fields(&table1_row(&spec, &env_driven)),
        deterministic_fields(&table1_row(&spec, &quick_config(1))),
        "EFFITEST_THREADS={threads} drifted from the serial reference"
    );
}

#[test]
fn parallel_table1_rows_match_serial_for_two_circuits() {
    let specs = [
        BenchmarkSpec::iscas89_s9234().scaled_down(10),
        BenchmarkSpec::iscas89_s13207().scaled_down(8),
    ];
    for spec in &specs {
        let serial = table1_row(spec, &quick_config(1));
        for threads in [2, 4] {
            let parallel = table1_row(spec, &quick_config(threads));
            assert_eq!(
                deterministic_fields(&parallel),
                deterministic_fields(&serial),
                "{}: Table 1 row drifted at {threads} threads",
                spec.name
            );
        }
    }
}

#[test]
fn plan_is_built_once_and_shared_across_chips_and_threads() {
    let bench = GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s9234().scaled_down(10), 1);
    let model = TimingModel::build(&bench, &VariationConfig::paper());
    let flow = EffiTestFlow::new(FlowConfig::default());
    // ONE plan; every run below borrows it immutably — the borrow checker
    // itself guarantees no per-chip rebuild or mutation can happen.
    let plan = flow.plan(&bench, &model).expect("plan");
    let td = model.nominal_period();
    // `ranges`/`measured` are the plan-level `Predictor`'s output (the
    // precomputed-gain prediction engine), covered bitwise on purpose.
    let key = |o: &ChipOutcome| {
        (
            o.iterations,
            o.passes,
            o.ranges.iter().map(|b| (b.lower.to_bits(), b.upper.to_bits())).collect::<Vec<_>>(),
            o.measured.clone(),
        )
    };

    let base = PopulationConfig { n_chips: 16, base_seed: 1000, threads: 1 };
    let serial: Vec<_> = run_flow_population(&flow, &plan, td, &base).iter().map(key).collect();
    for threads in [2, 4] {
        let parallel: Vec<_> =
            run_flow_population(&flow, &plan, td, &PopulationConfig { threads, ..base })
                .iter()
                .map(key)
                .collect();
        assert_eq!(parallel, serial, "shared-plan outcomes drifted at {threads} threads");
    }

    // And the shared plan gives the same answers as a fresh plan per chip
    // (the pre-refactor behavior): the plan really is chip-independent.
    for (k, expected) in serial.iter().enumerate().take(4) {
        let fresh = flow.plan(&bench, &model).expect("plan");
        let chip = model.sample_chip(base.chip_seed(k));
        let outcome = flow.run_chip(&fresh, &chip, td).expect("matched chip");
        assert_eq!(&key(&outcome), expected, "fresh plan disagrees on chip {k}");
    }
}

#[test]
fn per_thread_workspaces_preserve_bitwise_determinism() {
    // The warm-started solver workspaces live one-per-worker-thread and
    // are reused across every chip a worker claims. Results must not
    // depend on which chips shared a workspace: compare a serial run (one
    // workspace for all chips), parallel runs (one per worker), and a
    // fresh-workspace-per-chip run, all bitwise.
    let bench = GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s9234().scaled_down(10), 1);
    let model = TimingModel::build(&bench, &VariationConfig::paper());
    let flow = EffiTestFlow::new(FlowConfig::default());
    let plan = flow.plan(&bench, &model).expect("plan");
    let td = model.nominal_period();
    // The predicted ranges and measured flags come out of the plan-level
    // `Predictor` through the per-worker `PredictWorkspace`: asserting
    // them bitwise is what keeps the prediction engine inside the
    // thread-count-determinism contract.
    let key = |o: &ChipOutcome| {
        (
            o.iterations,
            o.passes,
            o.configured.clone().map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()),
            o.ranges.iter().map(|b| (b.lower.to_bits(), b.upper.to_bits())).collect::<Vec<_>>(),
            o.measured.clone(),
        )
    };
    let run = |threads: usize| -> Vec<_> {
        let pop = PopulationConfig { n_chips: 12, base_seed: 2500, threads };
        run_population_scratch(&model, &pop, FlowWorkspace::new, |ws, _k, chip| {
            key(&flow.run_chip_with(ws, &plan, chip, td).expect("matched chip"))
        })
    };
    let serial = run(1);
    for threads in [2, 4] {
        assert_eq!(run(threads), serial, "per-thread workspaces drifted at {threads} threads");
    }
    // Fresh workspace per chip: the reuse itself must be observationally
    // invisible.
    let pop = PopulationConfig { n_chips: 12, base_seed: 2500, threads: 1 };
    let fresh: Vec<_> = run_population(&model, &pop, |_k, chip| {
        key(&flow.run_chip(&plan, chip, td).expect("matched chip"))
    });
    assert_eq!(fresh, serial, "workspace reuse changed per-chip outcomes");
}

/// Everything observable about a `ChipOutcome`, bitwise (wall-clock
/// fields excluded).
fn outcome_key(o: &ChipOutcome) -> impl PartialEq + std::fmt::Debug {
    (
        o.iterations,
        o.passes,
        o.contradictions,
        o.configured.clone().map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()),
        o.ranges.iter().map(|b| (b.lower.to_bits(), b.upper.to_bits())).collect::<Vec<_>>(),
        o.measured.clone(),
    )
}

/// The batched prediction kernel, fed each outcome's measured bounds
/// (the aligned-test bounds the per-chip engine predicted from), must
/// reproduce every outcome's ranges bit for bit at `threads` workers.
fn assert_batched_kernel_matches(plan: &FlowPlan<'_>, outcomes: &[ChipOutcome], threads: usize) {
    let tested: Vec<HashMap<usize, DelayBounds>> = outcomes
        .iter()
        .map(|o| {
            o.measured
                .iter()
                .enumerate()
                .filter(|(_, &m)| m)
                .map(|(p, _)| (p, o.ranges[p]))
                .collect()
        })
        .collect();
    let matrix = ChipMatrix::gather(&plan.predictor, &tested);
    let batch = plan.predictor.predict_population(&matrix, threads);
    assert_eq!(batch.n_chips(), outcomes.len());
    for (k, o) in outcomes.iter().enumerate() {
        let batched: Vec<(u64, u64)> = batch
            .chip_lower(k)
            .iter()
            .zip(batch.chip_upper(k))
            .map(|(l, u)| (l.to_bits(), u.to_bits()))
            .collect();
        let per_chip: Vec<(u64, u64)> =
            o.ranges.iter().map(|b| (b.lower.to_bits(), b.upper.to_bits())).collect();
        assert_eq!(batched, per_chip, "chip {k} drifted at {threads} threads");
        assert_eq!(batch.measured(), o.measured.as_slice(), "chip {k} measured flags");
    }
}

#[test]
fn both_engines_survive_degenerate_population_shapes() {
    // n_chips == 0, n_chips == 1, and threads far above n_chips must not
    // panic in the per-chip engine or the batched prediction kernel, and
    // the kernel must stay bitwise identical to the per-chip engine.
    let bench = GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s9234().scaled_down(20), 1);
    let model = TimingModel::build(&bench, &VariationConfig::paper());
    let flow = EffiTestFlow::new(FlowConfig::default());
    let plan = flow.plan(&bench, &model).expect("plan");
    let td = model.nominal_period();
    for n_chips in [0, 1, 3] {
        let serial = PopulationConfig { n_chips, base_seed: 4400, threads: 1 };
        let outcomes = run_flow_population(&flow, &plan, td, &serial);
        let reference: Vec<_> = outcomes.iter().map(outcome_key).collect();
        assert_eq!(reference.len(), n_chips);
        for threads in [1, 2, 16] {
            let pop = PopulationConfig { threads, ..serial };
            let per_chip: Vec<_> =
                run_flow_population(&flow, &plan, td, &pop).iter().map(outcome_key).collect();
            assert_eq!(per_chip, reference, "per-chip engine drifted at {threads} threads");
            assert_batched_kernel_matches(&plan, &outcomes, threads);
        }
    }
}

#[test]
fn batched_engine_matches_per_chip_across_the_scenario_matrix() {
    // The full 24-cell smoke matrix (6 topologies x 4 variation profiles):
    // on every cell the batched prediction kernel, fed the cell's aligned
    // bounds, must reproduce the per-chip engine's ranges bitwise, at 1
    // and 4 worker threads.
    let mut axes = ScenarioAxes::smoke(40);
    axes.chip_counts = vec![5];
    axes.flow.hold.samples = 32;
    let cells = axes.cells();
    assert_eq!(cells.len(), 24, "smoke matrix is expected to span 24 cells");
    for cell in &cells {
        let bench = GeneratedBenchmark::generate(&cell.spec, cell.seed);
        let model = TimingModel::build_with_buffer_range(
            &bench,
            &cell.variation.config(),
            cell.tuning_fraction,
            TimingModel::BUFFER_STEPS,
        );
        let flow = EffiTestFlow::new(cell.flow.clone());
        let plan = flow.plan(&bench, &model).expect("plan");
        let td = model.nominal_period();
        let serial = PopulationConfig { n_chips: cell.n_chips, base_seed: cell.seed, threads: 1 };
        let outcomes = run_flow_population(&flow, &plan, td, &serial);
        for threads in [1, 4] {
            assert_batched_kernel_matches(&plan, &outcomes, threads);
        }
    }
}

#[test]
fn engine_respects_chip_order_under_oversubscription() {
    let bench = GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s9234().scaled_down(20), 1);
    let model = TimingModel::build(&bench, &VariationConfig::paper());
    let pop = PopulationConfig { n_chips: 40, base_seed: 7, threads: 16 };
    let seeds: Vec<u64> = run_population(&model, &pop, |_k, chip| chip.seed());
    let expected: Vec<u64> = (0..40).map(|k| pop.chip_seed(k)).collect();
    assert_eq!(seeds, expected);
}
