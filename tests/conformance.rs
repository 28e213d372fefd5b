//! Differential and matrix conformance suite.
//!
//! Two layers of guarantees over the scenario matrix:
//!
//! 1. **Differential solver conformance** — on small generated instances
//!    of *every* topology, the alignment problem each test batch poses is
//!    solved both exactly (branch-and-bound MILP, accepted only when it
//!    proves `MilpStatus::Optimal` by returning a solution) and with the
//!    production coordinate-descent heuristic; the heuristic objective
//!    must stay within a stated bound of the optimum.
//! 2. **Matrix determinism** — a ≥ 12-cell (topology x variation) scenario
//!    matrix produces byte-identical JSON reports across reruns and
//!    worker-thread counts.

use effitest::circuit::{BenchmarkSpec, Topology};
use effitest::flow::aligned_test::{batch_alignment_problem, AlignedTestConfig};
use effitest::flow::scenarios::{matrix_to_json, run_matrix, ScenarioAxes};
use effitest::flow::{EffiTestFlow, FlowConfig, FlowPlan};
use effitest::solver::align::AlignmentProblem;
use effitest::ssta::{TimingModel, VariationProfile};

/// Per-instance bound: the heuristic may lose at most 15% (plus float
/// slack) against the proven optimum on any single batch.
const PER_INSTANCE_BOUND: f64 = 1.15;
/// Aggregate bound: summed over all instances of the matrix the loss must
/// stay within 2%.
const AGGREGATE_BOUND: f64 = 1.02;

fn small_axes() -> ScenarioAxes {
    let mut axes = ScenarioAxes::smoke(40);
    axes.chip_counts = vec![2];
    axes.flow.hold.samples = 32;
    axes
}

/// The alignment problem a test batch poses at the start of the aligned
/// test: production's own construction
/// ([`batch_alignment_problem`], exported from `aligned_test` precisely
/// so this oracle cannot drift from the in-place loop), at the initial
/// range centers (the model means) under the default config.
fn batch_problem(plan: &FlowPlan<'_>, batch: &[usize]) -> AlignmentProblem {
    let centers: Vec<f64> = batch.iter().map(|&p| plan.model.path_mean(p)).collect();
    batch_alignment_problem(
        plan.model,
        &plan.lambda,
        batch,
        &centers,
        &AlignedTestConfig::default(),
    )
}

#[test]
fn heuristic_alignment_stays_within_bound_of_exact_optimum_on_every_topology() {
    let base = BenchmarkSpec::iscas89_s13207().scaled_down(20);
    let flow = EffiTestFlow::new(FlowConfig::default());
    let mut compared = 0_usize;
    let mut sum_fast = 0.0_f64;
    let mut sum_exact = 0.0_f64;

    for topology in Topology::all() {
        for variation in [VariationProfile::SpatiallyCorrelated, VariationProfile::HighSigmaTail] {
            let spec = base.clone().with_topology(topology);
            let bench = effitest::circuit::GeneratedBenchmark::generate(&spec, 1);
            let model = TimingModel::build(&bench, &variation.config());
            let plan = flow.plan(&bench, &model).expect("non-empty benchmark");

            for batch in &plan.batches.batches {
                let problem = batch_problem(&plan, batch);
                // Exact oracle: solve_exact returns a solution only when
                // branch and bound proved MilpStatus::Optimal; anything
                // else (node limit, infeasible) is excluded by
                // construction — and must not happen on these small
                // instances.
                let exact = problem.solve_exact().unwrap_or_else(|| {
                    panic!("{topology}/{variation}: exact MILP failed on a small batch")
                });
                let fast = problem
                    .solve_coordinate_descent(&vec![0.0; problem.buffers.len()])
                    .expect("the flow builds well-formed buffers");
                assert!(
                    problem.is_feasible(&fast.buffer_values, 1e-9),
                    "{topology}/{variation}: heuristic produced an infeasible assignment"
                );
                assert!(
                    fast.objective <= exact.objective * PER_INSTANCE_BOUND + 1e-6,
                    "{topology}/{variation}: heuristic {} vs optimal {} exceeds the \
                     {PER_INSTANCE_BOUND}x bound",
                    fast.objective,
                    exact.objective,
                );
                compared += 1;
                sum_fast += fast.objective;
                sum_exact += exact.objective;
            }
        }
    }

    assert!(compared >= 12, "only {compared} exact-vs-heuristic comparisons ran");
    assert!(
        sum_fast <= sum_exact * AGGREGATE_BOUND + 1e-6,
        "aggregate heuristic cost {sum_fast} vs optimal {sum_exact} exceeds the \
         {AGGREGATE_BOUND}x bound over {compared} instances"
    );
}

#[test]
fn scenario_matrix_covers_cells_and_reports_are_bitwise_stable() {
    let axes = small_axes();
    // Coverage: the matrix spans at least 12 distinct (topology x
    // variation) cells.
    let cells = axes.cells();
    let pairs: std::collections::HashSet<(&str, &str)> =
        cells.iter().map(|c| (c.topology.name(), c.variation.name())).collect();
    assert!(pairs.len() >= 12, "matrix too small: {} (topology x variation) cells", pairs.len());

    // Determinism: byte-identical JSON across a rerun and across worker
    // thread counts.
    let run1 = matrix_to_json(&axes.base.name, &run_matrix(&axes, 1).reports);
    let run2 = matrix_to_json(&axes.base.name, &run_matrix(&axes, 1).reports);
    assert_eq!(run1, run2, "scenario matrix is not deterministic across reruns");
    let run4 = matrix_to_json(&axes.base.name, &run_matrix(&axes, 4).reports);
    assert_eq!(run1, run4, "scenario matrix drifted with the worker-thread count");

    // Every cell made it into the report, in cell order.
    for cell in &cells {
        assert!(run1.contains(&format!("\"id\": \"{}\"", cell.id())), "missing cell {}", cell.id());
    }
}

#[test]
fn scenario_metrics_respect_flow_invariants_on_every_cell() {
    // Sanity bars that must hold on every topology and variation: the
    // ideal measurement dominates the proposed flow, fractions are
    // fractions, and the flow actually tested something.
    let axes = small_axes();
    let run = run_matrix(&axes, 4);
    assert!(run.failures.is_empty(), "feasible cells failed: {:?}", run.failures);
    for report in run.reports {
        assert!(report.npt >= 1 && report.npt <= report.np, "{}: npt out of range", report.id);
        for y in [
            report.yield_fraction,
            report.ideal_yield,
            report.untuned_yield,
            report.prediction_coverage,
        ] {
            assert!((0.0..=1.0).contains(&y), "{}: fraction {y} out of range", report.id);
        }
        assert!(
            report.ideal_yield + 1e-9 >= report.yield_fraction,
            "{}: inaccuracy cannot gain yield",
            report.id
        );
        assert!(report.mean_iterations > 0.0, "{}: no tester iterations", report.id);
        assert!(
            report.prediction_max_abs_err_sigma + 1e-12 >= report.prediction_mean_abs_err_sigma,
            "{}: max error below mean",
            report.id
        );
    }
}
