use std::fmt;

/// Relation of a linear constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `sum a_j x_j <= b`
    Le,
    /// `sum a_j x_j >= b`
    Ge,
    /// `sum a_j x_j == b`
    Eq,
}

/// Outcome of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal solution was found.
    Optimal,
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

/// Solution of a [`LinearProgram`].
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Solve outcome; `values`/`objective` are meaningful only for
    /// [`LpStatus::Optimal`].
    pub status: LpStatus,
    /// Optimal variable values (original variable space).
    pub values: Vec<f64>,
    /// Optimal objective value (in the user's orientation: the maximum if
    /// maximizing, the minimum otherwise).
    pub objective: f64,
}

/// A linear program over `n` variables with per-variable bounds.
///
/// Variables default to `[0, +inf)`; bounds may be any combination of
/// finite/infinite (use [`f64::NEG_INFINITY`] / [`f64::INFINITY`]). The
/// solver is a dense two-phase primal simplex with a Dantzig pivot rule and
/// a Bland fallback for anti-cycling — entirely adequate for the
/// EffiTest-sized instances (tens of variables) and exact up to round-off.
///
/// See the crate-level docs for an example.
#[derive(Debug, Clone)]
pub struct LinearProgram {
    n: usize,
    objective: Vec<f64>,
    maximize: bool,
    rows: Vec<RawRow>,
    lower: Vec<f64>,
    upper: Vec<f64>,
}

/// One user-level constraint: sparse terms, operator, right-hand side.
type RawRow = (Vec<(usize, f64)>, ConstraintOp, f64);

const EPS: f64 = 1e-9;
const MAX_ITER: usize = 20_000;

impl LinearProgram {
    /// Creates an LP over `n` variables, all bounded to `[0, +inf)`, with a
    /// zero minimization objective.
    pub fn new(n: usize) -> Self {
        LinearProgram {
            n,
            objective: vec![0.0; n],
            maximize: false,
            rows: Vec::new(),
            lower: vec![0.0; n],
            upper: vec![f64::INFINITY; n],
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Number of constraint rows.
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Sets the objective coefficients (dense, length `n`).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the variable count.
    pub fn set_objective(&mut self, coeffs: &[f64]) {
        assert_eq!(coeffs.len(), self.n, "objective length must match variable count");
        self.objective.copy_from_slice(coeffs);
    }

    /// Sets one objective coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn set_objective_coeff(&mut self, var: usize, coeff: f64) {
        self.objective[var] = coeff;
    }

    /// Chooses maximization (`true`) or minimization (`false`, default).
    pub fn set_maximize(&mut self, maximize: bool) {
        self.maximize = maximize;
    }

    /// `true` if the objective is maximized.
    pub fn is_maximize(&self) -> bool {
        self.maximize
    }

    /// Adds a constraint row given as sparse `(variable, coefficient)`
    /// terms.
    ///
    /// # Panics
    ///
    /// Panics if any variable index is out of range.
    pub fn add_constraint(&mut self, terms: &[(usize, f64)], op: ConstraintOp, rhs: f64) {
        for &(j, _) in terms {
            assert!(j < self.n, "constraint references variable {j} of {}", self.n);
        }
        self.rows.push((terms.to_vec(), op, rhs));
    }

    /// Sets the bounds of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range or `lo > hi`.
    pub fn set_bounds(&mut self, var: usize, lo: f64, hi: f64) {
        assert!(var < self.n);
        assert!(lo <= hi, "lower bound exceeds upper bound");
        self.lower[var] = lo;
        self.upper[var] = hi;
    }

    /// Marks a variable as free (unbounded both ways).
    pub fn set_free(&mut self, var: usize) {
        self.set_bounds(var, f64::NEG_INFINITY, f64::INFINITY);
    }

    /// Current bounds of a variable.
    pub fn bounds(&self, var: usize) -> (f64, f64) {
        (self.lower[var], self.upper[var])
    }

    /// Solves the LP with a throwaway workspace.
    ///
    /// Hot paths that solve many LPs (branch-and-bound nodes, per-iteration
    /// alignment problems) should hold a [`SimplexWorkspace`] and call
    /// [`SimplexWorkspace::solve`] instead: the workspace keeps every
    /// solver buffer alive between solves, so repeated solves allocate
    /// nothing and return bitwise-identical results to this cold path.
    pub fn solve(&self) -> LpSolution {
        SimplexWorkspace::new().solve(self).clone()
    }

    /// Checks a candidate point for feasibility within `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.n {
            return false;
        }
        for ((&xj, &lo), &hi) in x.iter().zip(&self.lower).zip(&self.upper) {
            if xj < lo - tol || xj > hi + tol {
                return false;
            }
        }
        for (terms, op, rhs) in &self.rows {
            let lhs: f64 = terms.iter().map(|&(j, a)| a * x[j]).sum();
            let ok = match op {
                ConstraintOp::Le => lhs <= rhs + tol,
                ConstraintOp::Ge => lhs >= rhs - tol,
                ConstraintOp::Eq => (lhs - rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Objective value at a point (user orientation).
    pub fn objective_at(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(&c, &v)| c * v).sum()
    }
}

impl fmt::Display for LinearProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} {} vars, {} rows",
            if self.maximize { "max" } else { "min" },
            self.n,
            self.rows.len()
        )
    }
}

/// Mapping from an original variable to its standard-form representation.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = y + shift` with `y >= 0`.
    Shifted { col: usize, shift: f64 },
    /// `x = shift - y` with `y >= 0` (upper-bounded-only variables).
    Flipped { col: usize, shift: f64 },
    /// `x = y_plus - y_minus`, both `>= 0` (free variables).
    Split { plus: usize, minus: usize },
}

/// Per-row standard-form metadata computed before the tableau is filled.
#[derive(Debug, Clone, Copy)]
struct RowMeta {
    /// Right-hand side after bound shifts, before sign normalization.
    rhs_adj: f64,
    /// Slack column of this row (`usize::MAX` for equality rows).
    slack: usize,
    /// `true` if the row is negated to make the rhs non-negative.
    negate: bool,
    /// Artificial column (`usize::MAX` when the slack seeds the basis).
    art: usize,
}

/// Reusable dense-simplex state: the tableau, basis, cost row, and every
/// scratch vector a solve needs, all owned by the workspace and recycled
/// between solves.
///
/// # Warm starts and determinism
///
/// A workspace solve rebuilds the standard-form tableau **in place** from
/// the [`LinearProgram`] it is given — no allocation happens once the
/// buffers have grown to the largest problem seen — and then replays the
/// same deterministic pivot rule a cold solve uses. Warm solves are
/// therefore *bitwise identical* to cold solves on the same program: the
/// warm start saves the allocation and deallocation traffic (the dominant
/// cost of the EffiTest-sized instances, which pivot only a handful of
/// times), never the pivoting itself, so no stale state can leak from one
/// solve into the next. The property suite in `tests/proptests.rs` pins
/// this equivalence on randomized solve sequences.
///
/// # Example
///
/// ```
/// use effitest_solver::{ConstraintOp, LinearProgram, LpStatus, SimplexWorkspace};
///
/// let mut ws = SimplexWorkspace::new();
/// let mut lp = LinearProgram::new(1);
/// lp.set_objective(&[1.0]);
/// for rhs in [3.0, 5.0] {
///     lp.set_bounds(0, rhs, f64::INFINITY); // only bounds change...
///     let sol = ws.solve(&lp); // ...so the workspace is reused as-is
///     assert_eq!(sol.status, LpStatus::Optimal);
///     assert_eq!(sol.values[0], rhs);
/// }
/// ```
#[derive(Debug)]
pub struct SimplexWorkspace {
    /// Variable mapping back to the original space.
    var_map: Vec<VarMap>,
    /// Synthetic `x_j <= hi` rows for two-sided-bounded variables.
    upper_rows: Vec<(usize, f64)>,
    /// Per-row standard-form metadata.
    meta: Vec<RowMeta>,
    /// Flat row-major tableau: `m` rows of `stride` entries (all columns
    /// plus the rhs in the last slot).
    tab: Vec<f64>,
    /// Basis: column index of the basic variable of each row.
    basis: Vec<usize>,
    /// Reduced-cost row (phase 1, then phase 2).
    cost: Vec<f64>,
    /// Standard-form variable values at extraction.
    std_vals: Vec<f64>,
    /// The solution of the most recent solve.
    solution: LpSolution,
    stride: usize,
    m: usize,
    /// Structural + slack columns (artificials appended after).
    n_cols: usize,
    /// All columns including artificials.
    total_cols: usize,
}

impl Default for SimplexWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl SimplexWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        SimplexWorkspace {
            var_map: Vec::new(),
            upper_rows: Vec::new(),
            meta: Vec::new(),
            tab: Vec::new(),
            basis: Vec::new(),
            cost: Vec::new(),
            std_vals: Vec::new(),
            solution: LpSolution { status: LpStatus::Optimal, values: Vec::new(), objective: 0.0 },
            stride: 0,
            m: 0,
            n_cols: 0,
            total_cols: 0,
        }
    }

    /// Solves `lp`, reusing this workspace's buffers.
    ///
    /// The returned reference borrows the workspace; clone it (or copy the
    /// fields out) if the solution must outlive the next solve. Results
    /// are bitwise identical to [`LinearProgram::solve`].
    pub fn solve(&mut self, lp: &LinearProgram) -> &LpSolution {
        self.build(lp);
        self.run(lp);
        &self.solution
    }

    /// The most recent solution (untouched until the next [`solve`](Self::solve)).
    pub fn last_solution(&self) -> &LpSolution {
        &self.solution
    }

    fn fail(&mut self, lp: &LinearProgram, status: LpStatus) {
        self.solution.status = status;
        self.solution.values.clear();
        self.solution.values.resize(lp.n, 0.0);
        self.solution.objective = match status {
            LpStatus::Unbounded => {
                if lp.maximize {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                }
            }
            _ => 0.0,
        };
    }

    /// Rebuilds the standard-form tableau in place from `lp`.
    fn build(&mut self, lp: &LinearProgram) {
        // --- Map variables to non-negative standard-form columns. ---
        self.var_map.clear();
        self.upper_rows.clear();
        let mut n_struct = 0;
        for j in 0..lp.n {
            let (lo, hi) = (lp.lower[j], lp.upper[j]);
            let vm = if lo.is_finite() {
                let col = n_struct;
                n_struct += 1;
                if hi.is_finite() {
                    self.upper_rows.push((j, hi));
                }
                VarMap::Shifted { col, shift: lo }
            } else if hi.is_finite() {
                let col = n_struct;
                n_struct += 1;
                VarMap::Flipped { col, shift: hi }
            } else {
                let plus = n_struct;
                let minus = n_struct + 1;
                n_struct += 2;
                VarMap::Split { plus, minus }
            };
            self.var_map.push(vm);
        }

        let m = lp.rows.len() + self.upper_rows.len();
        let n_slack = lp.rows.iter().filter(|(_, op, _)| *op != ConstraintOp::Eq).count()
            + self.upper_rows.len();
        let n_cols = n_struct + n_slack;

        // --- Pass 1: per-row metadata (shifted rhs, slack/basis seeding,
        // artificial assignment), which fixes the tableau width before any
        // coefficient is written. ---
        self.meta.clear();
        let mut slack_cursor = n_struct;
        let mut n_art = 0;
        for r in 0..m {
            let (terms, op, rhs) = split_row(lp, &self.upper_rows, r);
            let mut rhs_adj = rhs;
            for &(j, a) in terms.iter() {
                match self.var_map[j] {
                    VarMap::Shifted { shift, .. } | VarMap::Flipped { shift, .. } => {
                        rhs_adj -= a * shift;
                    }
                    VarMap::Split { .. } => {}
                }
            }
            let slack = if op == ConstraintOp::Eq {
                usize::MAX
            } else {
                let c = slack_cursor;
                slack_cursor += 1;
                c
            };
            let negate = rhs_adj < 0.0;
            // A slack column that ends up `+1` after normalization seeds
            // the basis; everything else needs a phase-1 artificial.
            let seeded = match op {
                ConstraintOp::Le => !negate,
                ConstraintOp::Ge => negate,
                ConstraintOp::Eq => false,
            };
            let art = if seeded {
                usize::MAX
            } else {
                let c = n_cols + n_art;
                n_art += 1;
                c
            };
            self.meta.push(RowMeta { rhs_adj, slack, negate, art });
        }

        let total_cols = n_cols + n_art;
        let stride = total_cols + 1;
        self.m = m;
        self.n_cols = n_cols;
        self.total_cols = total_cols;
        self.stride = stride;

        // --- Pass 2: fill the tableau. ---
        self.tab.clear();
        self.tab.resize(m * stride, 0.0);
        self.basis.clear();
        self.basis.resize(m, usize::MAX);
        for r in 0..m {
            let (terms, op, _) = split_row(lp, &self.upper_rows, r);
            let RowMeta { rhs_adj, slack, negate, art } = self.meta[r];
            let row = &mut self.tab[r * stride..(r + 1) * stride];
            for &(j, a) in terms.iter() {
                match self.var_map[j] {
                    VarMap::Shifted { col, .. } => row[col] += a,
                    VarMap::Flipped { col, .. } => row[col] -= a,
                    VarMap::Split { plus, minus } => {
                        row[plus] += a;
                        row[minus] -= a;
                    }
                }
            }
            if slack != usize::MAX {
                row[slack] = if op == ConstraintOp::Le { 1.0 } else { -1.0 };
            }
            row[total_cols] = rhs_adj;
            if negate {
                for v in row.iter_mut() {
                    *v = -*v;
                }
            }
            if art != usize::MAX {
                row[art] = 1.0;
                self.basis[r] = art;
            } else {
                self.basis[r] = slack;
            }
        }
    }

    /// Runs phase 1 (when artificials exist) and phase 2, extracting the
    /// solution into `self.solution`.
    fn run(&mut self, lp: &LinearProgram) {
        let (m, stride, n_cols, total_cols) = (self.m, self.stride, self.n_cols, self.total_cols);

        if total_cols > n_cols {
            // Phase-1 objective: minimize the sum of artificials.
            self.cost.clear();
            self.cost.resize(stride, 0.0);
            for c in n_cols..total_cols {
                self.cost[c] = 1.0;
            }
            // Price out the basic artificials.
            for r in 0..m {
                if self.basis[r] >= n_cols {
                    let row = &self.tab[r * stride..(r + 1) * stride];
                    for (cv, &rv) in self.cost.iter_mut().zip(row) {
                        *cv -= rv;
                    }
                }
            }
            if !run_simplex(&mut self.tab, &mut self.basis, stride, m, &mut self.cost, total_cols) {
                // Phase 1 of a feasibility objective cannot be unbounded;
                // treat as numerical failure -> infeasible.
                return self.fail(lp, LpStatus::Infeasible);
            }
            let phase1_obj = -self.cost[total_cols];
            if phase1_obj > 1e-7 {
                return self.fail(lp, LpStatus::Infeasible);
            }
            // Drive any remaining artificial out of the basis.
            for r in 0..m {
                if self.basis[r] >= n_cols {
                    let row = &self.tab[r * stride..(r + 1) * stride];
                    let pivot_col = (0..n_cols).find(|&c| row[c].abs() > EPS);
                    if let Some(c) = pivot_col {
                        pivot(&mut self.tab, &mut self.basis, stride, m, r, c);
                    }
                    // If the whole row is zero over structural columns the
                    // row is redundant; leaving the artificial basic at
                    // value 0 is harmless.
                }
            }
        }

        // --- Phase 2. We always minimize internally. ---
        self.cost.clear();
        self.cost.resize(stride, 0.0);
        let sign = if lp.maximize { -1.0 } else { 1.0 };
        let mut const_shift = 0.0;
        for j in 0..lp.n {
            let c_orig = sign * lp.objective[j];
            match self.var_map[j] {
                VarMap::Shifted { col, shift } => {
                    self.cost[col] += c_orig;
                    const_shift += c_orig * shift;
                }
                VarMap::Flipped { col, shift } => {
                    self.cost[col] -= c_orig;
                    const_shift += c_orig * shift;
                }
                VarMap::Split { plus, minus } => {
                    self.cost[plus] += c_orig;
                    self.cost[minus] -= c_orig;
                }
            }
        }
        // Forbid artificials from re-entering.
        for c in n_cols..total_cols {
            self.cost[c] = f64::INFINITY;
        }
        // Price out the current basis.
        for r in 0..m {
            let b = self.basis[r];
            if b < total_cols && self.cost[b] != 0.0 && self.cost[b].is_finite() {
                let factor = self.cost[b];
                let row = &self.tab[r * stride..(r + 1) * stride];
                for (cv, &rv) in self.cost.iter_mut().zip(row) {
                    *cv -= factor * rv;
                }
            }
        }

        if !run_simplex(&mut self.tab, &mut self.basis, stride, m, &mut self.cost, total_cols) {
            return self.fail(lp, LpStatus::Unbounded);
        }

        // --- Extract the solution. ---
        self.std_vals.clear();
        self.std_vals.resize(total_cols, 0.0);
        for r in 0..m {
            let b = self.basis[r];
            if b < total_cols {
                self.std_vals[b] = self.tab[r * stride + total_cols];
            }
        }
        self.solution.values.clear();
        for vm in &self.var_map {
            self.solution.values.push(match *vm {
                VarMap::Shifted { col, shift } => self.std_vals[col] + shift,
                VarMap::Flipped { col, shift } => shift - self.std_vals[col],
                VarMap::Split { plus, minus } => self.std_vals[plus] - self.std_vals[minus],
            });
        }
        let min_obj = -self.cost[total_cols] + const_shift;
        self.solution.objective = if lp.maximize { -min_obj } else { min_obj };
        self.solution.status = LpStatus::Optimal;
    }
}

/// Expanded row `r` of the standard form: the user's rows first, then the
/// synthetic upper-bound rows.
fn split_row<'a>(
    lp: &'a LinearProgram,
    upper_rows: &'a [(usize, f64)],
    r: usize,
) -> (UpperOrUser<'a>, ConstraintOp, f64) {
    if r < lp.rows.len() {
        let (terms, op, rhs) = &lp.rows[r];
        (UpperOrUser::User(terms), *op, *rhs)
    } else {
        let (j, hi) = upper_rows[r - lp.rows.len()];
        (UpperOrUser::Upper([(j, 1.0)]), ConstraintOp::Le, hi)
    }
}

/// Either a borrowed user constraint row or an inline `x_j <= hi` row.
enum UpperOrUser<'a> {
    User(&'a [(usize, f64)]),
    Upper([(usize, f64); 1]),
}

impl UpperOrUser<'_> {
    fn iter(&self) -> std::slice::Iter<'_, (usize, f64)> {
        match self {
            UpperOrUser::User(terms) => terms.iter(),
            UpperOrUser::Upper(one) => one.iter(),
        }
    }
}

/// Runs the simplex on the tableau with the given cost row. Returns
/// `false` on unboundedness.
fn run_simplex(
    tab: &mut [f64],
    basis: &mut [usize],
    stride: usize,
    m: usize,
    cost: &mut [f64],
    total_cols: usize,
) -> bool {
    for iter in 0..MAX_ITER {
        // Entering column: most negative reduced cost (Dantzig), Bland
        // after a while to break cycles.
        let bland = iter > MAX_ITER / 2;
        let mut enter = None;
        let mut best = -EPS;
        for (c, &rc) in cost.iter().enumerate().take(total_cols) {
            if !rc.is_finite() {
                continue;
            }
            if bland {
                if rc < -EPS {
                    enter = Some(c);
                    break;
                }
            } else if rc < best {
                best = rc;
                enter = Some(c);
            }
        }
        let Some(enter) = enter else {
            return true; // optimal
        };
        // Leaving row: min ratio test (Bland tie-break on basis index).
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for r in 0..m {
            let a = tab[r * stride + enter];
            if a > EPS {
                let ratio = tab[r * stride + total_cols] / a;
                let better = ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS && leave.is_some_and(|lr| basis[r] < basis[lr]));
                if better {
                    best_ratio = ratio;
                    leave = Some(r);
                }
            }
        }
        let Some(leave) = leave else {
            return false; // unbounded
        };
        pivot(tab, basis, stride, m, leave, enter);
        // Update cost row.
        let factor = cost[enter];
        if factor != 0.0 {
            let row = &tab[leave * stride..(leave + 1) * stride];
            for (cv, &v) in cost.iter_mut().zip(row) {
                if v != 0.0 && cv.is_finite() {
                    *cv -= factor * v;
                }
            }
        }
    }
    // Iteration cap reached: treat as optimal-enough (should not happen
    // on EffiTest-sized problems).
    true
}

/// Pivots on `(row, col)`: makes `col` basic in `row`.
fn pivot(tab: &mut [f64], basis: &mut [usize], stride: usize, m: usize, row: usize, col: usize) {
    let pivot = tab[row * stride + col];
    debug_assert!(pivot.abs() > 1e-12, "zero pivot");
    for c in 0..stride {
        tab[row * stride + c] /= pivot;
    }
    for r in 0..m {
        if r == row {
            continue;
        }
        let factor = tab[r * stride + col];
        if factor != 0.0 {
            // Disjoint pivot/target rows, borrowed via a single split.
            let (pr, tr) = if r < row {
                let (head, tail) = tab.split_at_mut(row * stride);
                (&tail[..stride], &mut head[r * stride..(r + 1) * stride])
            } else {
                let (head, tail) = tab.split_at_mut(r * stride);
                (&head[row * stride..(row + 1) * stride], &mut tail[..stride])
            };
            for (tv, &v) in tr.iter_mut().zip(pr) {
                if v != 0.0 {
                    *tv -= factor * v;
                }
            }
            tab[r * stride + col] = 0.0; // kill round-off
        }
    }
    basis[row] = col;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    #[test]
    fn maximization_textbook() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18; opt (2, 6) = 36.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[3.0, 5.0]);
        lp.set_maximize(true);
        lp.add_constraint(&[(0, 1.0)], ConstraintOp::Le, 4.0);
        lp.add_constraint(&[(1, 2.0)], ConstraintOp::Le, 12.0);
        lp.add_constraint(&[(0, 3.0), (1, 2.0)], ConstraintOp::Le, 18.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 36.0);
        assert_close(sol.values[0], 2.0);
        assert_close(sol.values[1], 6.0);
        assert!(lp.is_feasible(&sol.values, 1e-9));
    }

    #[test]
    fn minimization_with_ge_rows_needs_phase1() {
        // min 2x + 3y s.t. x + y >= 4, x + 2y >= 6, x,y >= 0; opt (2,2)=10.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[2.0, 3.0]);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], ConstraintOp::Ge, 4.0);
        lp.add_constraint(&[(0, 1.0), (1, 2.0)], ConstraintOp::Ge, 6.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 10.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y = 5, x - y = 1 -> (3, 2), obj 5.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[1.0, 1.0]);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 5.0);
        lp.add_constraint(&[(0, 1.0), (1, -1.0)], ConstraintOp::Eq, 1.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.values[0], 3.0);
        assert_close(sol.values[1], 2.0);
    }

    #[test]
    fn detects_infeasibility() {
        let mut lp = LinearProgram::new(1);
        lp.add_constraint(&[(0, 1.0)], ConstraintOp::Ge, 5.0);
        lp.add_constraint(&[(0, 1.0)], ConstraintOp::Le, 3.0);
        assert_eq!(lp.solve().status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_unboundedness() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(&[1.0]);
        lp.set_maximize(true);
        // x >= 0, maximize x: unbounded.
        assert_eq!(lp.solve().status, LpStatus::Unbounded);
    }

    #[test]
    fn free_variables_go_negative() {
        // min x s.t. x >= -7 as a row, x free -> x = -7.
        let mut lp = LinearProgram::new(1);
        lp.set_objective(&[1.0]);
        lp.set_free(0);
        lp.add_constraint(&[(0, 1.0)], ConstraintOp::Ge, -7.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.values[0], -7.0);
    }

    #[test]
    fn variable_bounds_are_respected() {
        // max x + y with x in [1, 3], y in [-2, 2], x + y <= 4.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[1.0, 1.0]);
        lp.set_maximize(true);
        lp.set_bounds(0, 1.0, 3.0);
        lp.set_bounds(1, -2.0, 2.0);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], ConstraintOp::Le, 4.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 4.0);
        assert!(sol.values[0] <= 3.0 + 1e-9);
        assert!(sol.values[1] <= 2.0 + 1e-9);
        assert!(sol.values[0] >= 1.0 - 1e-9);
    }

    #[test]
    fn upper_bounded_only_variable() {
        // min -x with x <= 5 (lower unbounded): optimum at x = 5.
        let mut lp = LinearProgram::new(1);
        lp.set_objective(&[-1.0]);
        lp.set_bounds(0, f64::NEG_INFINITY, 5.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.values[0], 5.0);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // x - y <= -2 with x, y >= 0: minimize y -> y = 2, x = 0.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[0.0, 1.0]);
        lp.add_constraint(&[(0, 1.0), (1, -1.0)], ConstraintOp::Le, -2.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 2.0);
    }

    #[test]
    fn l1_alignment_shape() {
        // The alignment LP shape: min e1 + e2 with e_p >= +-(T - c_p),
        // T free. Optimal T is any weighted median; objective = |c1 - c2|.
        let (c1, c2) = (3.0, 9.0);
        let mut lp = LinearProgram::new(3); // T, e1, e2
        lp.set_free(0);
        lp.set_objective(&[0.0, 1.0, 1.0]);
        for (e, c) in [(1_usize, c1), (2, c2)] {
            lp.add_constraint(&[(0, 1.0), (e, -1.0)], ConstraintOp::Le, c);
            lp.add_constraint(&[(0, -1.0), (e, -1.0)], ConstraintOp::Le, -c);
        }
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 6.0);
        assert!(sol.values[0] >= c1 - 1e-7 && sol.values[0] <= c2 + 1e-7);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degenerate example; must terminate via Bland fallback.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[1.0, 1.0]);
        lp.set_maximize(true);
        lp.add_constraint(&[(0, 1.0)], ConstraintOp::Le, 1.0);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], ConstraintOp::Le, 1.0);
        lp.add_constraint(&[(1, 1.0)], ConstraintOp::Le, 1.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 1.0);
    }

    #[test]
    fn redundant_equalities_are_fine() {
        // x + y = 2 stated twice.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[1.0, 2.0]);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 2.0);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 2.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 2.0); // x=2, y=0
    }

    #[test]
    fn objective_at_matches_reported_objective() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[4.0, -1.0]);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], ConstraintOp::Ge, 1.0);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], ConstraintOp::Le, 3.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(lp.objective_at(&sol.values), sol.objective);
    }
}
