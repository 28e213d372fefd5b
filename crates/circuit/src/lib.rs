//! Gate-level circuit substrate for the EffiTest reproduction.
//!
//! The paper evaluates on ISCAS89 and TAU13 circuits mapped to an industrial
//! library — neither of which ships with this repository. Each is replaced
//! by a synthetic circuit generated to match the statistics the paper
//! publishes for it, so this crate provides:
//!
//! * a netlist data model ([`Netlist`], [`Gate`], [`FlipFlop`], [`Signal`])
//!   with placement information and post-silicon tunable buffers
//!   ([`TuningBufferSpec`]) on a subset of flip-flops;
//! * [`BenchmarkSpec`] / [`GeneratedBenchmark`] — a deterministic synthetic
//!   benchmark generator reproducing the published statistics of every
//!   circuit in the paper's Table 1 (`ns` flip-flops, `ng` gates, `nb`
//!   buffers, `np` required paths), with *clustered* placement so that path
//!   delays exhibit the strong intra-cluster correlation the paper's
//!   statistical prediction relies on;
//! * [`TimedPath`] / [`PathSet`] — the FF-to-FF combinational paths whose
//!   max delays must be known to configure the buffers, plus the short
//!   (min-delay) paths that drive hold-time constraints;
//! * [`sensitize`] — a lightweight path-sensitization pass that derives
//!   *mutual exclusion* pairs (paths that cannot be activated by one test
//!   vector simultaneously), consumed by the test-multiplexing step;
//! * [`format`](mod@format) — a plain-text netlist format for dump/reload round trips.
//!
//! # Example
//!
//! ```
//! use effitest_circuit::{BenchmarkSpec, GeneratedBenchmark};
//!
//! let spec = BenchmarkSpec::iscas89_s9234().scaled_down(10);
//! let bench = GeneratedBenchmark::generate(&spec, 1);
//! assert_eq!(bench.netlist.flip_flop_count(), spec.ns);
//! assert_eq!(bench.paths.len(), spec.np);
//! bench.netlist.validate().expect("generated netlists are well formed");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod buffer;
mod error;
pub mod fingerprint;
pub mod format;
mod gate;
mod generate;
mod geom;
mod ids;
mod netlist;
mod path;
pub mod sensitize;
mod topology;

pub use buffer::TuningBufferSpec;
pub use error::CircuitError;
pub use gate::{Gate, GateKind, Sensitivity};
pub use generate::{BenchmarkSpec, GeneratedBenchmark};
pub use geom::{Point, Rect};
pub use ids::{FlipFlopId, GateId, PathId};
pub use netlist::{FlipFlop, Netlist, Signal};
pub use path::{PathKind, PathSet, PathTable, PathView, TimedPath};
pub use topology::Topology;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CircuitError>;
