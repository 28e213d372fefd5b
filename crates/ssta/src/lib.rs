//! Statistical static timing analysis substrate for the EffiTest
//! reproduction.
//!
//! The paper assumes an SSTA front end (reference \[10\] therein) that
//! delivers, for every required path, a Gaussian delay with known
//! correlations to all other paths, plus the ability to simulate
//! manufactured chips. This crate implements that front end from scratch:
//!
//! * [`VariationConfig`] — the process-variation model: relative sigmas for
//!   transistor length (15.7%), oxide thickness (5.3%) and threshold
//!   voltage (4.4%); perfect correlation for side-by-side devices (same
//!   grid cell) and 0.25 correlation die-wide, exactly the paper's setup.
//! * [`FactorSpace`] — the global + per-grid-cell standard-normal factors
//!   that realize those correlations.
//! * [`CanonicalDelay`] — first-order canonical delay forms
//!   `D = mu + a^T Z + (independent parts)`, with only the nonzero factor
//!   coefficients stored; covariances between paths are exact sparse dot
//!   products (plus shared-gate independent terms).
//! * [`TimingModel`] — builds canonical forms for every max/min path of a
//!   generated benchmark, derives the nominal clock period and the tunable
//!   buffer ranges (1/8 of it, 20 steps, as in the paper), assembles
//!   covariance/correlation matrices, and samples [`ChipInstance`]s. A
//!   chip's normals are drawn in Box–Muller pairs, and only the pairs some
//!   form reads are computed; hold-bound sampling evaluates only the hold
//!   forms and computes only the pairs they read.
//! * [`ChipInstance`] — one manufactured chip: frozen max/min delays for
//!   every path; the virtual tester measures these.
//! * [`NormalSampler`] — Box–Muller standard-normal sampling over `rand`,
//!   computing only the pairs a mask marks;
//!   [`hash_normal`]/[`mix_stream`] are the stateless counterpart used for
//!   order-independent injected randomness.
//! * [`DriftModel`] — deterministic aging: time-indexed multiplicative
//!   delay shifts applied to a [`ChipInstance`] for hostile-silicon
//!   re-evaluation of tuned chips.
//!
//! # Example
//!
//! ```
//! use effitest_circuit::{BenchmarkSpec, GeneratedBenchmark};
//! use effitest_ssta::{TimingModel, VariationConfig};
//!
//! let bench = GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s9234().scaled_down(20), 1);
//! let model = TimingModel::build(&bench, &VariationConfig::paper());
//! let chip = model.sample_chip(42);
//! // Every frozen delay lies within a few sigma of its mean.
//! for (idx, d) in chip.setup_delays().iter().enumerate() {
//!     let mu = model.path_mean(idx);
//!     let sigma = model.path_sigma(idx);
//!     assert!((d - mu).abs() < 6.0 * sigma + 1e-9);
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod canonical;
mod chip;
mod drift;
mod model;
mod sampler;
mod variation;

pub use canonical::CanonicalDelay;
pub use chip::ChipInstance;
pub use drift::DriftModel;
pub use model::TimingModel;
pub use sampler::{hash_normal, mix_stream, NormalSampler};
pub use variation::{FactorSpace, VariationConfig, VariationProfile};
