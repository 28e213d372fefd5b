//! # EffiTest — reproduction of the DAC 2016 paper
//!
//! *EffiTest: Efficient Delay Test and Statistical Prediction for
//! Configuring Post-silicon Tunable Buffers* (Zhang, Li, Schlichtmann,
//! DAC 2016, DOI 10.1145/2897937.2898017).
//!
//! This facade crate re-exports the whole workspace so downstream users can
//! depend on a single crate:
//!
//! * [`linalg`] — dense linear algebra (Cholesky, symmetric eigen by
//!   Householder + implicit QL, PCA, conditional Gaussians).
//! * [`circuit`] — netlist model, placement, synthetic benchmark generator
//!   reproducing the paper's Table 1 circuit statistics.
//! * [`ssta`] — spatially correlated process variations, canonical delay
//!   forms, Monte-Carlo chips.
//! * [`solver`] — simplex LP, branch-and-bound MILP, difference
//!   constraints, alignment and buffer-configuration solvers.
//! * [`tester`] — the virtual tester (frequency stepping with tuning-buffer
//!   scan configuration).
//! * [`flow`] — the EffiTest flow itself: the chip-independent
//!   `FlowPlan`, the parallel chip-population engine (`flow::population`),
//!   drivers for every experiment in the paper (`flow::experiments`), and
//!   the scenario-matrix engine sweeping topology, variation structure,
//!   tuning range, and population size (`flow::scenarios`), plus the
//!   test-floor service layer: the persistent content-addressed plan
//!   cache (`flow::cache`) and the streaming out-of-order measurement
//!   ingestion engine (`flow::service`).
//!
//! # Quickstart
//!
//! ```
//! use effitest::prelude::*;
//!
//! // Generate a small benchmark, prepare the flow, run one chip.
//! let spec = BenchmarkSpec::iscas89_s9234().scaled_down(20);
//! let bench = GeneratedBenchmark::generate(&spec, 7);
//! let model = TimingModel::build(&bench, &VariationConfig::paper());
//! let flow = EffiTestFlow::new(FlowConfig::default());
//! let prepared = flow.plan(&bench, &model).unwrap();
//! let chip = model.sample_chip(42);
//! let outcome = flow.run_chip(&prepared, &chip, model.nominal_period()).unwrap();
//! assert!(outcome.iterations > 0);
//! ```

pub mod testkit;

pub use effitest_circuit as circuit;
pub use effitest_core as flow;
pub use effitest_linalg as linalg;
pub use effitest_solver as solver;
pub use effitest_ssta as ssta;
pub use effitest_tester as tester;

/// Convenience re-exports of the types most programs need.
pub mod prelude {
    pub use effitest_circuit::{
        BenchmarkSpec, FlipFlopId, GateId, GeneratedBenchmark, Netlist, PathId, Topology,
        TuningBufferSpec,
    };
    pub use effitest_core::cache::{plan_cache_key, plan_fingerprint, CacheOutcome, PlanCache};
    pub use effitest_core::experiments::ExperimentConfig;
    pub use effitest_core::hostile::{HostileAxes, HostileReport, HostileSpec};
    pub use effitest_core::population::{
        run_flow_population, run_population, run_population_scratch, PopulationConfig,
    };
    pub use effitest_core::scenarios::{MatrixRun, ScenarioAxes, ScenarioReport, ScenarioSpec};
    pub use effitest_core::service::{
        service_log_to_json, MeasurementEvent, ServiceConfig, ServiceEngine, ServiceError,
        ServiceStats, TuningDecision,
    };
    pub use effitest_core::{
        ChipOutcome, EffiTestFlow, FlowConfig, FlowPlan, FlowWorkspace, PredictWorkspace, Predictor,
    };
    pub use effitest_ssta::{
        ChipInstance, DriftModel, TimingModel, VariationConfig, VariationProfile,
    };
    pub use effitest_tester::{
        chip_passes, ContradictionPolicy, DelayBounds, TesterModel, VirtualTester,
    };
}
