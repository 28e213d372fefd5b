//! The EffiTest flow (DAC 2016): efficient delay test and statistical
//! prediction for configuring post-silicon tunable buffers.
//!
//! This crate assembles the paper's complete test-and-configuration flow
//! (its Fig. 4) on top of the workspace substrates:
//!
//! 1. **Path selection for prediction** ([`select`]) — Procedure 1: group
//!    paths by delay correlation (threshold 0.95, stepping down by 0.05),
//!    run PCA per group, select one representative path per retained
//!    principal component.
//! 2. **Path test multiplexing** ([`batch`]) — pack the selected paths into
//!    as few parallel test batches as possible (conflict-graph coloring
//!    over shared flip-flops and ATPG mutual exclusions), then fill empty
//!    slots with the unselected paths of largest predicted variance.
//! 3. **Hold-time tuning bounds** ([`hold`]) — §3.5: Monte-Carlo sampling
//!    of short-path hold bounds, yield-constrained lower bounds
//!    `lambda_ij` on `x_i - x_j`.
//! 4. **Scan test with delay alignment** ([`aligned_test`]) — Procedure 2:
//!    per batch, repeatedly solve the alignment problem (via
//!    `effitest_solver::align`), apply one frequency step through the
//!    virtual tester, and narrow every active path's delay range.
//! 5. **Statistical delay prediction** ([`predict`]) — eqs. 4–5: condition
//!    each group's joint Gaussian on the measured upper bounds and derive
//!    `mu' +- 3 sigma'` ranges for the untested paths.
//! 6. **Buffer configuration** ([`configure`]) — eqs. 15–18 via
//!    `effitest_solver::config`, followed by the final pass/fail test.
//!
//! [`EffiTestFlow`] orchestrates all of it. The chip-independent offline
//! artifacts live in a [`FlowPlan`] built once per circuit;
//! [`population`] fans the per-chip step out across worker threads with
//! bitwise-deterministic results; [`experiments`] contains the drivers
//! that regenerate every table and figure of the paper's evaluation on
//! top of the population engine; [`scenarios`] sweeps the flow over a
//! (topology x variation x tuning-range x chip-count) matrix of generated
//! workloads far beyond the paper's eight look-alike circuits; [`hostile`]
//! stresses those cells further with noisy/quantized testers, aging
//! drift, and adaptive re-tuning from sparse in-field re-measurements.
//!
//! # Example
//!
//! ```
//! use effitest_circuit::{BenchmarkSpec, GeneratedBenchmark};
//! use effitest_core::{EffiTestFlow, FlowConfig};
//! use effitest_ssta::{TimingModel, VariationConfig};
//!
//! let bench = GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s9234().scaled_down(20), 1);
//! let model = TimingModel::build(&bench, &VariationConfig::paper());
//! let flow = EffiTestFlow::new(FlowConfig::default());
//! let prepared = flow.plan(&bench, &model).unwrap();
//! let chip = model.sample_chip(42);
//! let td = model.nominal_period();
//! let outcome = flow.run_chip(&prepared, &chip, td).unwrap();
//! assert!(outcome.iterations > 0);
//! // Far fewer tester iterations than path-wise stepping:
//! let baseline = flow.run_chip_path_wise(&prepared, &chip);
//! assert!(outcome.iterations < baseline.iterations);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aligned_test;
pub mod batch;
pub mod cache;
pub mod codec;
pub mod configure;
pub mod experiments;
mod flow;
pub mod hold;
pub mod hostile;
pub mod population;
pub mod predict;
pub mod report;
pub mod scenarios;
pub mod select;
pub mod service;

/// The deterministic parallel-execution utility every threaded plan stage
/// and the population engine run on (re-exported from
/// `effitest-parallel`): an ordered chunked parallel map over scoped
/// threads, plus the shared `EFFITEST_THREADS` plumbing in
/// [`parallel::threads`].
pub use effitest_parallel as parallel;

pub use flow::{
    ChipOutcome, EffiTestFlow, FlowConfig, FlowError, FlowPlan, FlowWorkspace, PlanStageTimes,
};
pub use predict::{BatchPredictedRanges, ChipMatrix, PredictWorkspace, PredictedRanges, Predictor};
