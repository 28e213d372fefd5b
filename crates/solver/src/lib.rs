//! Hand-rolled optimization substrate for the EffiTest reproduction.
//!
//! The paper solves its two per-chip optimization problems — delay-range
//! alignment during test (eqs. 7–14) and final buffer configuration
//! (eqs. 15–18) — with Gurobi. This crate replaces Gurobi with exact,
//! dependency-free solvers sized for those problems:
//!
//! * [`LinearProgram`] — a dense two-phase primal simplex with Bland's
//!   rule, supporting `<=`/`>=`/`=` rows and per-variable bounds.
//! * [`MixedIntegerProgram`] — depth-first branch and bound over the
//!   simplex for the integer buffer-step variables. Every solve starts
//!   cold; it is the exactness oracle of the fast solvers below.
//! * [`DifferenceSystem`] — systems of difference constraints
//!   `x_u - x_v <= w` solved by Bellman–Ford; with integer weights the
//!   solution is integral, which makes discrete buffer configuration exact
//!   without branching.
//! * [`weighted_median`] — the 1-D weighted-L1 minimizer used by the fast
//!   alignment heuristic.
//! * [`align`] — the paper's test-alignment problem: choose a clock period
//!   `T` and temporary buffer values aligning the delay-range centers
//!   (a warm-started weighted-median coordinate descent, which matches
//!   the optimum on practical instances, and the exact MILP formulation,
//!   solved cold as its oracle).
//! * [`config`] — the paper's buffer-configuration problem: binary search
//!   on the slack `xi` over integerized difference constraints.
//!
//! # Example
//!
//! ```
//! use effitest_solver::{ConstraintOp, LinearProgram, LpStatus};
//!
//! // maximize x + y  s.t.  x + 2y <= 4, 3x + y <= 6, x,y >= 0
//! let mut lp = LinearProgram::new(2);
//! lp.set_objective(&[1.0, 1.0]);
//! lp.set_maximize(true);
//! lp.add_constraint(&[(0, 1.0), (1, 2.0)], ConstraintOp::Le, 4.0);
//! lp.add_constraint(&[(0, 3.0), (1, 1.0)], ConstraintOp::Le, 6.0);
//! let sol = lp.solve();
//! assert_eq!(sol.status, LpStatus::Optimal);
//! // Optimal vertex: x = 1.6, y = 1.2.
//! assert!((sol.objective - 2.8).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod align;
pub mod config;
mod diffcon;
mod lp;
mod median;
mod milp;

pub use diffcon::DifferenceSystem;
pub use lp::{ConstraintOp, LinearProgram, LpSolution, LpStatus, SimplexWorkspace};
pub use median::{weighted_l1, weighted_median, weighted_median_in_place};
pub use milp::{MilpSolution, MilpStatus, MixedIntegerProgram};
