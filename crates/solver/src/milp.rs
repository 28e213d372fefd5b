use crate::{LinearProgram, LpStatus, SimplexWorkspace};

#[cfg(test)]
use crate::ConstraintOp;

/// Outcome of a MILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MilpStatus {
    /// Branch and bound terminated with a proven integer optimum.
    Optimal,
    /// The node limit was exhausted before the search tree was closed.
    /// The reported solution is the best incumbent found so far (all
    /// zeros when no incumbent exists); it may be suboptimal and the
    /// problem may even be infeasible.
    NodeLimitReached,
    /// The search tree was closed without finding any integer-feasible
    /// point: proven infeasibility.
    Infeasible,
}

/// Solution of a [`MixedIntegerProgram`].
#[derive(Debug, Clone, PartialEq)]
pub struct MilpSolution {
    /// Solve outcome; see [`MilpStatus`] for the meaning of `values` /
    /// `objective` in each case.
    pub status: MilpStatus,
    /// Variable values (integer variables are exactly integral).
    pub values: Vec<f64>,
    /// Objective value in the user's orientation.
    pub objective: f64,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
}

impl MilpSolution {
    /// `true` if a proven integer optimum was found.
    pub fn is_optimal(&self) -> bool {
        self.status == MilpStatus::Optimal
    }
}

/// One entry of the depth-first delta stack.
#[derive(Debug, Clone, Copy)]
enum NodeOp {
    /// Process the current working LP as a node (the root).
    Root,
    /// Set `var`'s bounds to `[lo, hi]`, then process the node.
    Solve { var: usize, lo: f64, hi: f64 },
    /// Restore `var`'s bounds to `[lo, hi]` after both children finished.
    Restore { var: usize, lo: f64, hi: f64 },
}

/// A mixed-integer linear program: a [`LinearProgram`] plus a set of
/// variables required to take integer values.
///
/// Solved by depth-first branch and bound over the simplex relaxation with
/// best-objective pruning. The paper's alignment problem (eqs. 7–14) has a
/// handful of 20-step buffer variables per test batch, well inside this
/// solver's comfort zone; it also serves as the exactness oracle for the
/// fast heuristics in [`crate::align`] and [`crate::config`].
///
/// # Example
///
/// ```
/// use effitest_solver::{ConstraintOp, LinearProgram, MixedIntegerProgram};
///
/// // max x + y, x,y integer, 2x + 3y <= 8, x,y >= 0 -> (4, 0) = 4... with
/// // x <= 3: best integer point is (1, 2) or (3, 0); objective 3.
/// let mut lp = LinearProgram::new(2);
/// lp.set_objective(&[1.0, 1.0]);
/// lp.set_maximize(true);
/// lp.set_bounds(0, 0.0, 3.0);
/// lp.add_constraint(&[(0, 2.0), (1, 3.0)], ConstraintOp::Le, 8.0);
/// let milp = MixedIntegerProgram::new(lp, vec![0, 1]);
/// let sol = milp.solve();
/// assert!(sol.is_optimal());
/// assert!((sol.objective - 3.0).abs() < 1e-7);
/// ```
#[derive(Debug, Clone)]
pub struct MixedIntegerProgram {
    lp: LinearProgram,
    integer_vars: Vec<usize>,
    node_limit: usize,
}

const INT_TOL: f64 = 1e-6;

impl MixedIntegerProgram {
    /// Wraps an LP with integrality requirements on `integer_vars`.
    ///
    /// # Panics
    ///
    /// Panics if any integer variable index is out of range.
    pub fn new(lp: LinearProgram, integer_vars: Vec<usize>) -> Self {
        for &v in &integer_vars {
            assert!(v < lp.num_vars(), "integer variable {v} out of range");
        }
        MixedIntegerProgram { lp, integer_vars, node_limit: 200_000 }
    }

    /// Caps the number of branch-and-bound nodes (default 200 000). A
    /// solve that exhausts it reports [`MilpStatus::NodeLimitReached`]
    /// instead of claiming optimality or infeasibility.
    pub fn set_node_limit(&mut self, limit: usize) {
        self.node_limit = limit;
    }

    /// The underlying relaxation.
    pub fn lp(&self) -> &LinearProgram {
        &self.lp
    }

    /// Solves the MILP.
    ///
    /// Branching pushes **bound deltas** onto one working copy of the
    /// relaxation instead of cloning the program per node, and every node
    /// relaxation is solved through one [`SimplexWorkspace`]; the copy, the
    /// delta stack and the workspace live for this solve only.
    pub fn solve(&self) -> MilpSolution {
        let lp = &self.lp;
        let maximize = lp.is_maximize();
        let mut working = lp.clone();
        let mut simplex = SimplexWorkspace::new();
        let mut ops = vec![NodeOp::Root];
        // The incumbent's objective and values.
        let mut best: Option<(f64, Vec<f64>)> = None;
        let mut nodes = 0_usize;
        let mut limit_hit = false;
        while let Some(op) = ops.pop() {
            match op {
                NodeOp::Restore { var, lo, hi } => {
                    working.set_bounds(var, lo, hi);
                    continue;
                }
                NodeOp::Solve { var, lo, hi } => working.set_bounds(var, lo, hi),
                NodeOp::Root => {}
            }
            if nodes >= self.node_limit {
                limit_hit = true;
                break;
            }
            nodes += 1;
            let relax = simplex.solve(&working);
            // An infeasible relaxation closes its subtree. An unbounded one
            // means the MILP is unbounded (or the bounding box is missing);
            // deeper nodes inherit the issue, so the branch is given up.
            if relax.status != LpStatus::Optimal {
                continue;
            }
            // Prune by bound.
            if let Some((inc, _)) = &best {
                let worse = if maximize {
                    relax.objective <= inc + 1e-12
                } else {
                    relax.objective >= inc - 1e-12
                };
                if worse {
                    continue;
                }
            }
            // Find the most fractional integer variable.
            let mut branch_var = None;
            let mut worst_frac = INT_TOL;
            for &v in &self.integer_vars {
                let val = relax.values[v];
                let frac = (val - val.round()).abs();
                if frac > worst_frac {
                    worst_frac = frac;
                    branch_var = Some(v);
                }
            }
            match branch_var {
                None => {
                    // Integer feasible: round the integer vars exactly.
                    let mut values = relax.values.clone();
                    for &v in &self.integer_vars {
                        values[v] = values[v].round();
                    }
                    let obj = lp.objective_at(&values);
                    let better = match &best {
                        None => true,
                        Some((inc, _)) if maximize => obj > inc + 1e-12,
                        Some((inc, _)) => obj < inc - 1e-12,
                    };
                    if better {
                        best = Some((obj, values));
                    }
                }
                Some(v) => {
                    let floor = relax.values[v].floor();
                    let (lo, hi) = working.bounds(v);
                    // The parent's bounds come back after both subtrees
                    // (LIFO: popped last).
                    ops.push(NodeOp::Restore { var: v, lo, hi });
                    // Down branch: v <= floor (explored second).
                    if floor >= lo - 1e-9 {
                        ops.push(NodeOp::Solve { var: v, lo, hi: floor.min(hi) });
                    }
                    // Up branch: v >= floor + 1 (explored first).
                    if floor + 1.0 <= hi + 1e-9 {
                        ops.push(NodeOp::Solve { var: v, lo: (floor + 1.0).max(lo), hi });
                    }
                }
            }
        }

        let status = if limit_hit {
            MilpStatus::NodeLimitReached
        } else if best.is_some() {
            MilpStatus::Optimal
        } else {
            MilpStatus::Infeasible
        };
        let (objective, values) = best.unwrap_or_else(|| (0.0, vec![0.0; lp.num_vars()]));
        MilpSolution { status, values, objective, nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knapsack_small() {
        // max 5a + 4b + 3c s.t. 2a + 3b + c <= 5, a,b,c in {0,1}.
        let mut lp = LinearProgram::new(3);
        lp.set_objective(&[5.0, 4.0, 3.0]);
        lp.set_maximize(true);
        for v in 0..3 {
            lp.set_bounds(v, 0.0, 1.0);
        }
        lp.add_constraint(&[(0, 2.0), (1, 3.0), (2, 1.0)], ConstraintOp::Le, 5.0);
        let sol = MixedIntegerProgram::new(lp, vec![0, 1, 2]).solve();
        assert_eq!(sol.status, MilpStatus::Optimal);
        // a=1, c=1, b=0 -> 8; or a=1,b=1 -> 9 (2+3=5 fits!).
        assert!((sol.objective - 9.0).abs() < 1e-7);
        assert!((sol.values[0] - 1.0).abs() < 1e-7);
        assert!((sol.values[1] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn integer_rounding_differs_from_relaxation() {
        // max y s.t. 2y <= 7 -> relaxation 3.5, integer 3.
        let mut lp = LinearProgram::new(1);
        lp.set_objective(&[1.0]);
        lp.set_maximize(true);
        lp.add_constraint(&[(0, 2.0)], ConstraintOp::Le, 7.0);
        let sol = MixedIntegerProgram::new(lp, vec![0]).solve();
        assert!(sol.is_optimal());
        assert!((sol.values[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_integer_and_continuous() {
        // min x + y, x integer in [0,10], y continuous >= 0,
        // x + y >= 2.5 -> x = 0, y = 2.5 (cheaper than x = 3).
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[1.0, 1.0]);
        lp.set_bounds(0, 0.0, 10.0);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], ConstraintOp::Ge, 2.5);
        let sol = MixedIntegerProgram::new(lp, vec![0]).solve();
        assert!(sol.is_optimal());
        assert!((sol.objective - 2.5).abs() < 1e-7);
        assert_eq!(sol.values[0], sol.values[0].round());
    }

    #[test]
    fn infeasible_milp() {
        // x in {0,1}, x >= 2: infeasible — and *proven* infeasible, which
        // the status distinguishes from running out of nodes.
        let mut lp = LinearProgram::new(1);
        lp.set_bounds(0, 0.0, 1.0);
        lp.add_constraint(&[(0, 1.0)], ConstraintOp::Ge, 2.0);
        let sol = MixedIntegerProgram::new(lp, vec![0]).solve();
        assert_eq!(sol.status, MilpStatus::Infeasible);
        assert!(!sol.is_optimal());
    }

    #[test]
    fn node_limit_exhaustion_is_not_infeasibility() {
        // A feasible two-variable problem that needs several nodes: with a
        // one-node limit the root relaxation is fractional, branching is
        // cut short, and the status must say so instead of claiming
        // either optimality or infeasibility.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[1.0, 1.0]);
        lp.set_maximize(true);
        lp.set_bounds(0, 0.0, 6.0);
        lp.set_bounds(1, 0.0, 6.0);
        lp.add_constraint(&[(0, 2.0), (1, 2.0)], ConstraintOp::Le, 7.0);
        let mut milp = MixedIntegerProgram::new(lp, vec![0, 1]);
        milp.set_node_limit(1);
        let sol = milp.solve();
        assert_eq!(sol.status, MilpStatus::NodeLimitReached);
        assert!(sol.nodes <= 1);
        // The same problem with room to branch closes the tree.
        milp.set_node_limit(200_000);
        let full = milp.solve();
        assert_eq!(full.status, MilpStatus::Optimal);
        assert!((full.objective - 3.0).abs() < 1e-7);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        // Deterministic pseudo-random 2-var integer programs, brute force
        // over the grid as oracle.
        let mut state = 0xABCDEF_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 2.0 - 1.0
        };
        for _case in 0..30 {
            let c0 = (next() * 5.0).round();
            let c1 = (next() * 5.0).round();
            let a0 = (next() * 3.0).round();
            let a1 = (next() * 3.0).round();
            let b = (next().abs() * 10.0).round() + 1.0;

            let mut lp = LinearProgram::new(2);
            lp.set_objective(&[c0, c1]);
            lp.set_maximize(true);
            lp.set_bounds(0, 0.0, 6.0);
            lp.set_bounds(1, 0.0, 6.0);
            lp.add_constraint(&[(0, a0), (1, a1)], ConstraintOp::Le, b);
            let sol = MixedIntegerProgram::new(lp, vec![0, 1]).solve();

            // Brute force.
            let mut best = f64::NEG_INFINITY;
            for x in 0..=6 {
                for y in 0..=6 {
                    let (xf, yf) = (x as f64, y as f64);
                    if a0 * xf + a1 * yf <= b + 1e-9 {
                        best = best.max(c0 * xf + c1 * yf);
                    }
                }
            }
            if best.is_finite() {
                assert!(sol.is_optimal(), "solver failed where brute force succeeded");
                assert!(
                    (sol.objective - best).abs() < 1e-6,
                    "case: obj {} vs brute {best}",
                    sol.objective
                );
            }
        }
    }

    #[test]
    fn buffer_step_shape() {
        // The alignment use-case shape: x = -5 + 0.5k, k integer in [0,19];
        // minimize |3.3 - x| via eta. Optimum k: x=3.5 -> k=17, eta=0.2.
        let mut lp = LinearProgram::new(2); // k, eta
        lp.set_bounds(0, 0.0, 19.0);
        lp.set_bounds(1, 0.0, f64::INFINITY);
        lp.set_objective(&[0.0, 1.0]);
        // eta >= (-5 + 0.5k) - 3.3  ->  -0.5k + eta >= -8.3
        lp.add_constraint(&[(0, -0.5), (1, 1.0)], ConstraintOp::Ge, -8.3);
        // eta >= 3.3 - (-5 + 0.5k)  ->  0.5k + eta >= 8.3
        lp.add_constraint(&[(0, 0.5), (1, 1.0)], ConstraintOp::Ge, 8.3);
        let sol = MixedIntegerProgram::new(lp, vec![0]).solve();
        assert!(sol.is_optimal());
        assert!((sol.values[0] - 17.0).abs() < 1e-7);
        assert!((sol.objective - 0.2).abs() < 1e-7);
    }
}
