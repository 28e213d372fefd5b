//! Delay-range alignment for batched frequency stepping (paper §3.3).
//!
//! Inside a test batch, each frequency-stepping iteration should bisect as
//! many delay ranges as possible. Because the effective quantity tested is
//! `D_ij + x_i - x_j` (paper eq. 1), the already-present tuning buffers can
//! *shift* each range; the alignment problem chooses one clock period `T`
//! and a discrete setting for every involved buffer so that `T` lands as
//! close as possible to the (shifted) range centers:
//!
//! ```text
//! minimize  sum_p  k_p * | T - (c_p + x_i(p) - x_j(p)) |      (7)
//! subject to  x in discrete buffer ranges,                    (14)
//!             x_i - x_j >= lambda_p   (hold bounds, eq. 21)
//! ```
//!
//! The paper linearizes the absolute values with big-M binaries (eqs. 8–13)
//! and calls Gurobi. Here two solvers are provided:
//!
//! * [`AlignmentProblem::solve_coordinate_descent`] — alternating weighted
//!   medians: the optimal `T` for fixed buffers is a weighted median, and
//!   the optimal single buffer for fixed everything-else is found by
//!   scanning its discrete values, outward from the current one until no
//!   further value can win. Converges in a handful of rounds and matches
//!   the exact optimum on practical instances.
//! * [`AlignmentProblem::solve_exact`] — the exact MILP (standard
//!   `eta >= +-(...)` linearization, no big-M needed under minimization)
//!   on the crate's branch-and-bound solver; used as the oracle in tests
//!   and for the ablation bench.
//!
//! Weights follow the paper's sorted-center rule
//! ([`sorted_center_weights`]): the middle range gets `k0`, neighbors lose
//! `kd` per rank step, so non-overlappable outliers (paper Fig. 6e) do not
//! leave `T` floating between two clusters.
//!
//! # Warm-started solving
//!
//! `solve_coordinate_descent` / `solve_exact` are the *cold* entry points:
//! every call allocates its own scratch. The frequency-stepping loop of
//! the aligned test solves one alignment problem **per iteration**, with
//! only the range centers (and the retired-path set) changing between
//! solves, so the hot path goes through an [`AlignmentEngine`] instead:
//! built once per batch, it mutates the path list in place between
//! iterations, reuses every scratch buffer, and warm-starts each solve —
//! the coordinate descent from the previous iteration's buffer values and
//! the exact MILP from the previous solution as its branch-and-bound
//! incumbent.
//!
//! # Incremental candidate scan
//!
//! A buffer moves only its incident paths: one or two of a batch's paths
//! on the paper's circuits, one of 206 on the 100k-path large tier. Once
//! per solve the engine indexes each buffer's incident paths (a CSR), and
//! once per descent it caches every path's shifted center `c_p + x_i -
//! x_j` and sorts them. Scanning a buffer filters its incident paths out
//! of the sorted centers and checks the other paths' hold bounds once, as
//! no candidate can change them. Each candidate value then re-checks only
//! the incident paths' hold bounds, merges only their shifted centers
//! into the sorted rest to find the weighted median, and sums the
//! objective in path order over the cached centers. Buffers without an
//! incident path are skipped: moving one changes nothing.
//!
//! Every number is computed by the same expression, in the same order,
//! as a full rescan that rebuilds and re-sorts all centers per candidate
//! (kept as the test oracle), so the descent is bit-identical to it. The
//! median adds tied centers' weights in path order. That is the order
//! the rescan's sort leaves them in for up to 20 paths (the standard
//! library sorts such short slices by stable insertion); above 20 its tie
//! order is unspecified. The order can only matter for non-integer tied
//! weights, and the flow's sorted-center weights are integers, whose
//! partial sums are exact.
//!
//! # Convexity-pruned walk
//!
//! With every other buffer fixed, the best objective over the period as a
//! function of the scanned buffer's value `v`,
//!
//! ```text
//! G(v) = min_T  sum_p  w_p * | T - a_p - s_p * v |,    s_p in {-1, 0, +1},
//! ```
//!
//! is convex when every `w_p >= 0`: it is the partial minimum over `T` of
//! a jointly convex function. Each incident hold bound is monotone in `v`
//! (a source bound holds from some value up, a sink bound up to some
//! value), and lattice values are monotone in their index. So a scan
//! walks outward from the current value `v_0`, whose objective is `S`:
//!
//! * a direction stops at its first hold-infeasible value, as every value
//!   beyond it violates the same bound;
//! * a direction stops at a value whose computed objective exceeds both
//!   its predecessor's (the previous value walked, or `S`) and `S` by the
//!   error margin below. Then `G` rose there, so by convexity it never
//!   falls below that value's `G` further out, and every value beyond
//!   scores at least `S`. An acceptance needs less than `best - 1e-12`,
//!   and `best <= S` throughout, so no value beyond can be accepted.
//!
//! Skipping values that can never be accepted leaves the result alone,
//! provided acceptance (`obj < best - 1e-12`, the first strictly best value
//! in lattice order) still sees the others in lattice order. The downward
//! walk therefore only finds where to start, keeping its first eight
//! scores; the scan then scores the values below `v_0` in ascending order
//! and walks upward. Period, objective and buffer values are bit-identical
//! to a full scan of the lattice.
//!
//! A scan prunes only when it can observe that the argument holds: every
//! weight a non-negative integer, summing below `2^53`, so the median's
//! partial weight sums are exact and its period minimizes the objective
//! over the computed centers exactly (the flow's sorted-center weights
//! always qualify); the current value on the lattice and within the
//! incident hold bounds; and a finite objective. Otherwise it runs the same
//! walk with both stop rules off.
//!
//! ## The error margin
//!
//! Let `u = 2^-53` (`f64::EPSILON / 2`), `n` the number of paths, and `r`
//! the larger of `|value(0)|` and `|value(steps - 1)|`, which bounds every
//! lattice value. A computed objective differs from `G` in two ways.
//!
//! * *Centers.* A moved path's center is `fl(c + fl(±(v - y)))`, `y` the
//!   value at its other end (or 0), against the exact `c ± (v - y)`: two
//!   roundings, at most `2u(1+u)^2 m_p` apart, with `m_p = |c| + r + |y|`.
//!   `G` moves by at most `w_p` per unit of a center, so the exact minimum
//!   `F(v)` of the objective over the computed centers is within `D` of
//!   `G(v)`, where `D = 2u(1+u)^2 sum w_p m_p` over the moved paths. The
//!   computed sum `d` of `w_p m_p` is at most `n + 2` roundings of
//!   non-negative terms low, so `D <= 1.1 ε d` (for fewer than `2^40`
//!   paths).
//! * *Summation.* The median `t` is exact, so `F(v) = sum w_p |t - c_p|`.
//!   The computed objective rounds each difference, each product and
//!   `n - 1` additions of non-negative terms, so it lies within a factor
//!   `1 ± γ` of `F`, `γ = (n+1)u / (1 - (n+1)u) <= 1.01 (n+1) u`. Results
//!   below `2^-1022` are exact here (integer multiples of subnormals), so
//!   underflow adds nothing.
//!
//! For a computed objective `o` and a reference `R` (the predecessor's or
//! `S`, computed the same way), `o - R > 2D + 2γ(o + R)` gives
//! `G(v) >= o(1-γ) - D > R(1+2γ) + D >= G(v_R)`, so `G` rose; and, with
//! `R = S`, every value `v'` further out scores at least
//! `(1-γ)(G(v') - D) >= (1-γ)(o(1-γ) - 2D) > (1-γ)(1+2γ)S >= S`. The scan
//! tests `o - R > 8ε d + 4ε(n+1)(o + R)` in floating point: twice the
//! bound, which absorbs the test's own four roundings, with `8ε d` kept at
//! least `f64::MIN_POSITIVE`. Only a finite objective can pass the test,
//! and one that overflows further out scores `inf` or NaN, which is never
//! accepted either.

use crate::milp::DEFAULT_NODE_LIMIT;
use crate::{
    weighted_median_in_place, ConstraintOp, LinearProgram, MilpWorkspace, MixedIntegerProgram,
};

/// A discrete tunable-buffer variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferVar {
    /// Lowest representable delay (`r_i`).
    pub min: f64,
    /// Highest representable delay (`r_i + tau_i`).
    pub max: f64,
    /// Number of discrete settings (>= 2).
    pub steps: u32,
}

impl BufferVar {
    /// `true` if the solvers can use this buffer: at least one setting and
    /// finite bounds with `min <= max`.
    pub fn is_well_formed(&self) -> bool {
        self.steps > 0 && self.min.is_finite() && self.max.is_finite() && self.min <= self.max
    }

    /// Spacing between adjacent settings.
    pub fn step_size(&self) -> f64 {
        if self.steps <= 1 {
            return 0.0;
        }
        (self.max - self.min) / (self.steps - 1) as f64
    }

    /// Value of discrete setting `k`.
    pub fn value(&self, k: u32) -> f64 {
        self.value_at(self.step_size(), k)
    }

    /// [`value`](Self::value) with the step size computed once by the caller.
    fn value_at(&self, step: f64, k: u32) -> f64 {
        self.min + step * k as f64
    }

    /// Nearest discrete setting to `x` (clamped into range).
    ///
    /// # Panics
    ///
    /// Panics if `min > max` or a bound is NaN (see
    /// [`is_well_formed`](Self::is_well_formed)).
    pub fn nearest(&self, x: f64) -> u32 {
        let d = self.step_size();
        if d == 0.0 {
            return 0;
        }
        let k = ((x.clamp(self.min, self.max) - self.min) / d).round() as u32;
        k.min(self.steps - 1)
    }

    /// All representable values, ascending.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.steps).map(move |k| self.value(k))
    }
}

/// The position of the first buffer in a list that is not
/// [well formed](BufferVar::is_well_formed): no settings, a non-finite
/// bound, or `min > max`. The alignment solvers refuse such a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MalformedBuffer {
    /// Index of the buffer in the batch's list.
    pub index: usize,
}

/// One path's data in the alignment problem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlignPath {
    /// Current range center `(u_ij + l_ij) / 2`.
    pub center: f64,
    /// Weight `k_ij` (see [`sorted_center_weights`]).
    pub weight: f64,
    /// Index of the source buffer in the problem's buffer list, if any.
    pub source_buffer: Option<usize>,
    /// Index of the sink buffer, if any.
    pub sink_buffer: Option<usize>,
    /// Hold-time tuning bound `lambda_ij` (constraint
    /// `x_i - x_j >= lambda_ij`), if applicable.
    pub hold_lower_bound: Option<f64>,
}

impl AlignPath {
    /// The shift `x_i - x_j` for a buffer assignment.
    pub fn shift(&self, x: &[f64]) -> f64 {
        let xi = self.source_buffer.map_or(0.0, |b| x[b]);
        let xj = self.sink_buffer.map_or(0.0, |b| x[b]);
        xi - xj
    }

    /// `true` if the assignment satisfies this path's hold bound.
    pub fn hold_ok(&self, x: &[f64]) -> bool {
        match self.hold_lower_bound {
            None => true,
            Some(lambda) => self.shift(x) >= lambda - 1e-9,
        }
    }
}

/// The per-batch alignment problem.
#[derive(Debug, Clone, Default)]
pub struct AlignmentProblem {
    /// Paths in the batch.
    pub paths: Vec<AlignPath>,
    /// Buffers adjustable in this batch (indexed by the paths).
    pub buffers: Vec<BufferVar>,
}

/// Solution of an alignment problem.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignmentSolution {
    /// The chosen clock period `T`.
    pub period: f64,
    /// Discrete buffer values (same order as the problem's buffer list).
    pub buffer_values: Vec<f64>,
    /// Objective value `sum_p k_p eta_p`.
    pub objective: f64,
}

/// The paper's sorted-center weight rule: rank the ranges by center, give
/// the median rank weight `k0`, and subtract `kd` per rank step away from
/// it (clamped at `kd`).
///
/// With `k0 >> kd` all weights are nearly equal but ties break toward the
/// middle of the sorted list, which resolves the degenerate non-overlap
/// case of paper Fig. 6e.
pub fn sorted_center_weights(centers: &[f64], k0: f64, kd: f64) -> Vec<f64> {
    let mut order = Vec::new();
    let mut weights = Vec::new();
    sorted_center_weights_into(centers, k0, kd, &mut order, &mut weights);
    weights
}

/// Allocation-free variant of [`sorted_center_weights`]: `order` is rank
/// scratch and `weights` receives the result, both cleared and refilled
/// (existing capacity is reused).
pub fn sorted_center_weights_into(
    centers: &[f64],
    k0: f64,
    kd: f64,
    order: &mut Vec<usize>,
    weights: &mut Vec<f64>,
) {
    let n = centers.len();
    order.clear();
    weights.clear();
    if n == 0 {
        return;
    }
    order.extend(0..n);
    // The index tie-break reproduces the stable sort this replaced, so
    // equal centers keep their path order under the unstable sort.
    order.sort_unstable_by(|&a, &b| centers[a].total_cmp(&centers[b]).then(a.cmp(&b)));
    let middle = (n - 1) / 2;
    weights.resize(n, 0.0);
    for (rank, &idx) in order.iter().enumerate() {
        let dist = rank.abs_diff(middle) as f64;
        weights[idx] = (k0 - kd * dist).max(kd);
    }
}

impl AlignmentProblem {
    /// Objective value for a period and buffer assignment.
    pub fn objective(&self, period: f64, x: &[f64]) -> f64 {
        self.paths.iter().map(|p| p.weight * (period - (p.center + p.shift(x))).abs()).sum()
    }

    /// `true` if `x` lies on every buffer's discrete grid (within `tol`)
    /// and satisfies all hold bounds. A buffer that is not well formed has
    /// no grid to lie on.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.buffers.len() {
            return false;
        }
        for (b, &v) in self.buffers.iter().zip(x) {
            if !b.is_well_formed() || v < b.min - tol || v > b.max + tol {
                return false;
            }
            let snapped = b.value(b.nearest(v));
            if (snapped - v).abs() > tol {
                return false;
            }
        }
        self.paths.iter().all(|p| p.hold_ok(x))
    }

    /// Fast alignment: coordinate descent over the buffers where each
    /// candidate buffer value is scored with its *jointly optimal* clock
    /// period (a weighted median), plus a small multi-start. `init` seeds
    /// one start (snapped to the grid); pass the previous iteration's
    /// values to warm-start.
    ///
    /// Hold bounds are respected throughout; if a seed violates one, the
    /// violating buffers are first repaired greedily. A seed that repair
    /// cannot make feasible descends only through feasible moves, and its
    /// result loses to any feasible one, whatever the objectives.
    ///
    /// This is the *cold* entry point — it builds a throwaway
    /// [`AlignmentEngine`] per call. Iterative callers should hold an
    /// engine and solve through it instead.
    ///
    /// Returns `None` if a buffer is not
    /// [well formed](BufferVar::is_well_formed).
    ///
    /// # Panics
    ///
    /// Panics if `init.len() != self.buffers.len()`.
    pub fn solve_coordinate_descent(&self, init: &[f64]) -> Option<AlignmentSolution> {
        assert_eq!(init.len(), self.buffers.len());
        let mut engine = AlignmentEngine::new();
        engine.begin_batch(&self.buffers).ok()?;
        engine.paths_mut().extend_from_slice(&self.paths);
        engine.seed(init);
        Some(engine.solve().clone())
    }

    /// Exact MILP solve (oracle / ablation). Returns `None` if the hold
    /// bounds make the problem infeasible, the node limit is hit, or a
    /// buffer is not [well formed](BufferVar::is_well_formed).
    pub fn solve_exact(&self) -> Option<AlignmentSolution> {
        if !self.buffers.iter().all(BufferVar::is_well_formed) {
            return None;
        }
        if self.paths.is_empty() {
            return Some(AlignmentSolution {
                period: 0.0,
                buffer_values: self.buffers.iter().map(|b| b.value(0)).collect(),
                objective: 0.0,
            });
        }
        let mut lp = LinearProgram::new(0);
        let mut int_vars = Vec::new();
        if !build_exact_milp(self, &mut lp, &mut int_vars) {
            return None;
        }
        let sol = MixedIntegerProgram::new(lp, int_vars).solve();
        if !sol.is_optimal() {
            return None;
        }
        let buffer_values: Vec<f64> = self
            .buffers
            .iter()
            .enumerate()
            .map(|(b, buf)| buf.value(sol.values[1 + b].round() as u32))
            .collect();
        Some(AlignmentSolution { period: sol.values[0], buffer_values, objective: sol.objective })
    }

    /// Greedy hold repair: bump violating buffers toward feasibility.
    fn repair_hold(&self, x: &mut [f64]) {
        for _ in 0..4 * self.buffers.len().max(1) {
            let Some(viol) = self.paths.iter().find(|p| !p.hold_ok(x)) else {
                return;
            };
            let lambda = viol.hold_lower_bound.expect("violation implies bound");
            let deficit = lambda - viol.shift(x);
            // Raise the source buffer or lower the sink buffer.
            if let Some(b) = viol.source_buffer {
                let buf = &self.buffers[b];
                let target = buf.value(buf.nearest(x[b] + deficit));
                if target > x[b] + 1e-12 {
                    x[b] = target;
                    continue;
                }
            }
            if let Some(b) = viol.sink_buffer {
                let buf = &self.buffers[b];
                let target = buf.value(buf.nearest(x[b] - deficit));
                if target < x[b] - 1e-12 {
                    x[b] = target;
                    continue;
                }
            }
            return; // cannot repair further
        }
    }
}

/// Builds the exact-MILP formulation of `problem` into `lp` (reset in
/// place, existing allocations reused) with the integer variables listed
/// in `int_vars`.
///
/// Variables: `0 = T` (free), `1..=nb` = integer buffer steps `k_b`,
/// `nb+1..nb+np` = path residuals `eta_p >= 0`.
///
/// Returns `false` when a hold bound on a bufferless path is
/// unsatisfiable (`0 >= lambda > 0`), i.e. the problem is infeasible
/// before any solving.
fn build_exact_milp(
    problem: &AlignmentProblem,
    lp: &mut LinearProgram,
    int_vars: &mut Vec<usize>,
) -> bool {
    let nb = problem.buffers.len();
    let np = problem.paths.len();
    let n_vars = 1 + nb + np;
    lp.reset(n_vars);
    lp.set_free(0);
    for (b, buf) in problem.buffers.iter().enumerate() {
        lp.set_bounds(1 + b, 0.0, (buf.steps - 1) as f64);
    }
    for (p, path) in problem.paths.iter().enumerate() {
        lp.set_objective_coeff(1 + nb + p, path.weight);
    }

    for (p, path) in problem.paths.iter().enumerate() {
        let eta = 1 + nb + p;
        // t_p = T - c_p - x_i + x_j, with x = min + d*k.
        // eta >= t_p  and  eta >= -t_p.
        let mut base = -path.center;
        let mut terms_pos: [(usize, f64); 4] = [(0, 1.0), (eta, -1.0), (0, 0.0), (0, 0.0)];
        let mut terms_neg: [(usize, f64); 4] = [(0, -1.0), (eta, -1.0), (0, 0.0), (0, 0.0)];
        let mut nt = 2;
        if let Some(b) = path.source_buffer {
            let buf = &problem.buffers[b];
            base -= buf.min;
            terms_pos[nt] = (1 + b, -buf.step_size());
            terms_neg[nt] = (1 + b, buf.step_size());
            nt += 1;
        }
        if let Some(b) = path.sink_buffer {
            let buf = &problem.buffers[b];
            base += buf.min;
            terms_pos[nt] = (1 + b, buf.step_size());
            terms_neg[nt] = (1 + b, -buf.step_size());
            nt += 1;
        }
        // T - d_i k_i + d_j k_j - eta <= c_p + m_i - m_j
        lp.add_constraint(&terms_pos[..nt], ConstraintOp::Le, -base);
        lp.add_constraint(&terms_neg[..nt], ConstraintOp::Le, base);

        if let Some(lambda) = path.hold_lower_bound {
            // x_i - x_j >= lambda.
            let mut terms: [(usize, f64); 2] = [(0, 0.0), (0, 0.0)];
            let mut ht = 0;
            let mut rhs = lambda;
            if let Some(b) = path.source_buffer {
                let buf = &problem.buffers[b];
                terms[ht] = (1 + b, buf.step_size());
                ht += 1;
                rhs -= buf.min;
            }
            if let Some(b) = path.sink_buffer {
                let buf = &problem.buffers[b];
                terms[ht] = (1 + b, -buf.step_size());
                ht += 1;
                rhs += buf.min;
            }
            if ht == 0 {
                if rhs > 1e-9 {
                    return false; // 0 >= lambda > 0: infeasible
                }
            } else {
                lp.add_constraint(&terms[..ht], ConstraintOp::Ge, rhs);
            }
        }
    }
    int_vars.clear();
    int_vars.extend(1..=nb);
    true
}

/// Optimal period for fixed buffers: the weighted median of the shifted
/// centers, computed in the caller's scratch buffer.
fn best_period_in(problem: &AlignmentProblem, x: &[f64], pts: &mut Vec<(f64, f64)>) -> f64 {
    pts.clear();
    pts.extend(problem.paths.iter().map(|p| (p.center + p.shift(x), p.weight)));
    weighted_median_in_place(pts).unwrap_or(0.0)
}

/// A median point of the incremental descent: `(shifted center,
/// max(weight, 0), path index)`.
type MedianPoint = (f64, f64, usize);

/// The order the median accumulates weight in: by position, ties by path
/// index. This is the order the stable small-slice sort inside
/// [`weighted_median_in_place`] leaves a path-ordered point list in.
fn median_order(a: &MedianPoint, b: &MedianPoint) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.2.cmp(&b.2))
}

/// `fixed` and `moved`, each already in [`median_order`], merged.
fn merged<'a>(
    fixed: &'a [MedianPoint],
    moved: &'a [MedianPoint],
) -> impl Iterator<Item = &'a MedianPoint> {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        let take_moved = match (fixed.get(i), moved.get(j)) {
            (Some(f), Some(m)) => median_order(m, f).is_lt(),
            (None, Some(_)) => true,
            (_, None) => false,
        };
        if take_moved {
            j += 1;
            Some(&moved[j - 1])
        } else {
            i += 1;
            fixed.get(i - 1)
        }
    })
}

/// The scan of [`weighted_median_in_place`] over points already in median
/// order: the same `total / 2` threshold, `1e-15` slack and last-point
/// fallback, with `total` summed in path order as that function sums it.
/// Empty input or a non-positive total gives period 0, as the descent's
/// `unwrap_or(0.0)` does.
fn median_of<'a>(points: impl Iterator<Item = &'a MedianPoint>, total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let half = total / 2.0;
    let mut acc = 0.0;
    let mut last = 0.0;
    for &(c, w, _) in points {
        acc += w;
        if acc >= half - 1e-15 {
            return c;
        }
        last = c;
    }
    last
}

/// [`AlignmentProblem::objective`] over cached shifted centers, summed in
/// path order.
fn objective_at(paths: &[AlignPath], shifted: &[f64], period: f64) -> f64 {
    paths.iter().zip(shifted).map(|(p, &c)| p.weight * (period - c).abs()).sum()
}

/// `true` if moving buffer `b` shifts `path`.
fn touches(path: &AlignPath, b: usize) -> bool {
    path.source_buffer == Some(b) || path.sink_buffer == Some(b)
}

/// The stop rules of a pruned buffer scan (see the module docs): the
/// lattice index of the scan's starting value and the error margin.
#[derive(Debug, Clone, Copy)]
struct StopRule {
    /// The index whose value is the buffer's current value.
    start: u32,
    /// Absolute margin `8ε d`, at least `f64::MIN_POSITIVE`.
    abs: f64,
    /// Relative margin `4ε(n + 1)`.
    rel: f64,
}

impl StopRule {
    /// The rule for scanning buffer `b` (well formed, as the engine only
    /// holds such buffers) from `x`, or `None` when the scan cannot
    /// observe that the convexity argument holds: weights not `exact`, a
    /// non-finite `objective` or margin, a current value off the lattice,
    /// or an incident hold bound violated at it.
    fn new(
        problem: &AlignmentProblem,
        b: usize,
        inc: &[usize],
        x: &[f64],
        objective: f64,
        exact: bool,
    ) -> Option<StopRule> {
        let lattice = &problem.buffers[b];
        if !exact || !objective.is_finite() {
            return None;
        }
        let start = lattice.nearest(x[b]);
        if lattice.value(start) != x[b] || !inc.iter().all(|&p| problem.paths[p].hold_ok(x)) {
            return None;
        }
        // Lattice values are monotone in k, so none is further from 0 than
        // an end of the lattice.
        let reach = lattice.value(0).abs().max(lattice.value(lattice.steps - 1).abs());
        let mut d = 0.0;
        for &p in inc {
            let path = &problem.paths[p];
            let other = match (path.source_buffer == Some(b), path.sink_buffer == Some(b)) {
                (true, true) => continue, // its shift is exactly zero
                (true, false) => path.sink_buffer,
                (false, _) => path.source_buffer,
            };
            d += path.weight * (path.center.abs() + reach + other.map_or(0.0, |o| x[o].abs()));
        }
        let abs = (8.0 * f64::EPSILON * d).max(f64::MIN_POSITIVE);
        let rel = 4.0 * f64::EPSILON * (problem.paths.len() + 1) as f64;
        abs.is_finite().then_some(StopRule { start, abs, rel })
    }

    /// `true` if `obj` exceeds both `prev` and `start` by the margin, so no
    /// value further along the walk can be accepted.
    fn rises(&self, obj: f64, prev: f64, start: f64) -> bool {
        let above = |r: f64| obj - r > self.abs + self.rel * (obj + r);
        above(prev) && above(start)
    }
}

/// Scratch of the incremental coordinate descent (see [`Descent::descend`]).
#[derive(Debug, Default)]
struct Descent {
    /// Per-buffer CSR: buffer `b` moves paths `incident[starts[b]..starts[b + 1]]`.
    starts: Vec<usize>,
    incident: Vec<usize>,
    /// `sum_p max(weight_p, 0)` in path order.
    total: f64,
    /// Every weight is a non-negative integer and `total < 2^53`: partial
    /// weight sums are exact, so the median minimizes the objective and
    /// scans may stop early (see [`StopRule`]).
    exact: bool,
    /// `center + shift(x)` of every path at the descent's current `x`.
    shifted: Vec<f64>,
    /// Every path's point, in median order.
    sorted: Vec<MedianPoint>,
    /// `sorted` without the scanned buffer's incident paths.
    fixed: Vec<MedianPoint>,
    /// The scanned buffer's incident paths at one candidate value, sorted.
    moved: Vec<MedianPoint>,
    /// Scans walked with the stop rules off (`[0]`) and on (`[1]`), and
    /// candidates evaluated; counted for the tests.
    #[cfg(test)]
    walks: [usize; 2],
    #[cfg(test)]
    evaluated: usize,
}

impl Descent {
    /// Indexes the problem's paths by buffer; once per solve.
    fn prepare(&mut self, problem: &AlignmentProblem) {
        let nb = problem.buffers.len();
        let buffers_of = |p: &AlignPath| {
            let sink = p.sink_buffer.filter(|&s| Some(s) != p.source_buffer);
            p.source_buffer.into_iter().chain(sink)
        };
        // Count into starts[b + 2], prefix-sum so starts[b + 1] is b's
        // start, then fill: each fill advances starts[b + 1] to b's end.
        self.starts.clear();
        self.starts.resize(nb + 2, 0);
        for p in &problem.paths {
            for b in buffers_of(p) {
                self.starts[b + 2] += 1;
            }
        }
        for b in 2..nb + 2 {
            self.starts[b] += self.starts[b - 1];
        }
        self.incident.clear();
        self.incident.resize(self.starts[nb + 1], 0);
        for (i, p) in problem.paths.iter().enumerate() {
            for b in buffers_of(p) {
                self.incident[self.starts[b + 1]] = i;
                self.starts[b + 1] += 1;
            }
        }
        self.starts.pop();
        self.total = problem.paths.iter().map(|p| p.weight.max(0.0)).sum();
        self.exact = self.total < 9_007_199_254_740_992.0
            && problem.paths.iter().all(|p| p.weight >= 0.0 && p.weight.fract() == 0.0);
    }

    /// Coordinate descent from the grid-snapped seed in `x`, moving it to
    /// a local optimum; returns `(period, objective)`.
    ///
    /// Each buffer tries the lattice values that can win (see
    /// [`scan`](Self::scan)) with the period re-optimized per candidate (a
    /// joint move). Only the buffer's incident paths move, so a candidate
    /// re-checks just their hold bounds and merges just their shifted
    /// centers into the sorted rest. Every value is computed by the same
    /// expression, in the same order, as a full rescan of all paths would,
    /// so the result is bit-identical to one (see the module docs for how
    /// tied centers are ordered).
    fn descend(&mut self, problem: &AlignmentProblem, x: &mut [f64]) -> (f64, f64) {
        problem.repair_hold(x);
        let paths = &problem.paths;
        self.shifted.clear();
        self.shifted.extend(paths.iter().map(|p| p.center + p.shift(x)));
        self.sorted.clear();
        self.sorted.extend(
            paths
                .iter()
                .zip(&self.shifted)
                .enumerate()
                .map(|(i, (p, &c))| (c, p.weight.max(0.0), i)),
        );
        self.sorted.sort_unstable_by(median_order);

        let mut period = median_of(self.sorted.iter(), self.total);
        let mut objective = objective_at(paths, &self.shifted, period);
        let mut last_move = usize::MAX;
        for _round in 0..50 {
            if objective == 0.0 {
                break; // perfect alignment: no candidate can improve on zero
            }
            let mut changed = false;
            for b in 0..problem.buffers.len() {
                if !changed && last_move < b {
                    // Scanned from this very state after the last move, it
                    // found nothing, and so would every later buffer.
                    return (period, objective);
                }
                let Some((v, t, obj)) = self.scan(problem, b, x, objective) else {
                    continue;
                };
                if obj + 1e-12 < objective {
                    x[b] = v;
                    period = t;
                    objective = obj;
                    changed = true;
                    last_move = b;
                    self.accept(problem, b, x);
                }
            }
            if !changed {
                break;
            }
        }
        (period, objective)
    }

    /// Scans buffer `b`'s lattice from the descent's current `objective`;
    /// returns the first strictly best candidate `(value, period,
    /// objective)` in lattice order, if any. Leaves `x` and `shifted` as it
    /// found them and `fixed` holding the paths `b` does not move.
    ///
    /// The scan walks outward from the current value. Under a [`StopRule`]
    /// each direction stops at its first hold-infeasible value or once an
    /// objective rises past its predecessor and the starting objective by
    /// the error margin: no value beyond can be accepted (see the module
    /// docs). The downward walk only finds where to start; the candidates
    /// it passed are then accepted or not in ascending order (scored again
    /// beyond the eight it keeps), followed by the upward walk, so
    /// acceptance sees them in lattice order as a full scan would. Without
    /// a rule the walk covers the whole lattice.
    fn scan(
        &mut self,
        problem: &AlignmentProblem,
        b: usize,
        x: &mut [f64],
        objective: f64,
    ) -> Option<(f64, f64, f64)> {
        let Descent { starts, incident, total, exact, shifted, sorted, fixed, moved, .. } = self;
        let paths = &problem.paths;
        let inc = &incident[starts[b]..starts[b + 1]];
        if inc.is_empty() {
            return None; // moving an unused buffer changes nothing
        }
        fixed.clear();
        for pt in sorted.iter() {
            let path = &paths[pt.2];
            if !touches(path, b) {
                if !path.hold_ok(x) {
                    return None; // no candidate can repair a path it does not move
                }
                fixed.push(*pt);
            }
        }
        let lattice = &problem.buffers[b];
        let step = lattice.step_size();
        let current = x[b];
        let rule = StopRule::new(problem, b, inc, x, objective, *exact);
        #[cfg(test)]
        let mut evaluated = 0;
        // `None` for a hold-infeasible candidate, else `(period, objective)`.
        let mut score = |k: u32, x: &mut [f64]| {
            x[b] = lattice.value_at(step, k);
            if !inc.iter().all(|&p| paths[p].hold_ok(x)) {
                return None;
            }
            #[cfg(test)]
            {
                evaluated += 1;
            }
            place(paths, inc, x, shifted, moved);
            let t = median_of(merged(fixed, moved), *total);
            Some((t, objective_at(paths, shifted, t)))
        };
        let skip = |k: u32| (lattice.value_at(step, k) - current).abs() < 1e-15;

        let k0 = rule.map_or(0, |r| r.start);
        let mut lo = k0;
        // The scores of k0 - 1, k0 - 2, ... as far as they fit.
        let mut below = [(0.0, 0.0); 8];
        if let Some(rule) = rule {
            let mut prev = objective;
            while lo > 0 {
                if !skip(lo - 1) {
                    match score(lo - 1, x) {
                        Some((t, obj)) if !rule.rises(obj, prev, objective) => {
                            prev = obj;
                            if let Some(slot) = below.get_mut((k0 - lo) as usize) {
                                *slot = (t, obj);
                            }
                        }
                        _ => break,
                    }
                }
                lo -= 1;
            }
        }
        let mut best = None;
        let mut best_obj = objective;
        let mut prev = objective;
        for k in lo..lattice.steps {
            if skip(k) {
                continue;
            }
            let upward = rule.filter(|_| k >= k0);
            let kept = if k < k0 { below.get((k0 - 1 - k) as usize).copied() } else { None };
            let Some((t, obj)) = kept.or_else(|| score(k, x)) else {
                if upward.is_some() {
                    break;
                }
                continue;
            };
            if let Some(rule) = upward {
                if rule.rises(obj, prev, objective) {
                    break;
                }
                prev = obj;
            }
            if obj < best_obj - 1e-12 {
                best_obj = obj;
                best = Some((lattice.value_at(step, k), t, obj));
            }
        }
        x[b] = current;
        place(paths, inc, x, shifted, moved);
        #[cfg(test)]
        {
            self.walks[usize::from(rule.is_some())] += 1;
            self.evaluated += evaluated;
        }
        best
    }

    /// Re-sorts the points after the descent moved buffer `b` to `x[b]`.
    fn accept(&mut self, problem: &AlignmentProblem, b: usize, x: &[f64]) {
        let inc = &self.incident[self.starts[b]..self.starts[b + 1]];
        place(&problem.paths, inc, x, &mut self.shifted, &mut self.moved);
        self.sorted.clear();
        self.sorted.extend(merged(&self.fixed, &self.moved));
    }
}

/// Shifts the incident paths `inc` to `x`: their centers go into `shifted`
/// and, in median order, `moved`.
fn place(
    paths: &[AlignPath],
    inc: &[usize],
    x: &[f64],
    shifted: &mut [f64],
    moved: &mut Vec<MedianPoint>,
) {
    moved.clear();
    for &p in inc {
        let c = paths[p].center + paths[p].shift(x);
        shifted[p] = c;
        moved.push((c, paths[p].weight.max(0.0), p));
    }
    moved.sort_unstable_by(median_order);
}

/// Warm-started, allocation-free alignment solver for the per-batch
/// frequency-stepping loop.
///
/// Lifecycle:
///
/// 1. [`begin_batch`](Self::begin_batch) once per test batch — copies the
///    buffer list in and resets the warm start to zero (warm state never
///    crosses a batch, which is what keeps population runs bitwise
///    deterministic at any thread count when worker threads carry
///    long-lived engines);
/// 2. per iteration, rebuild the active-path list in place through
///    [`paths_mut`](Self::paths_mut) (capacity is retained) and call
///    [`solve`](Self::solve) or [`solve_exact`](Self::solve_exact);
/// 3. both solvers warm-start from the previous iteration's buffer values
///    — the descent as its first multi-start seed, the MILP as its
///    initial branch-and-bound incumbent — and update the warm state from
///    the solution they return.
///
/// All scratch (the descent's per-buffer path index and sorted centers,
/// the MILP working program and its simplex workspace) lives in the
/// engine: steady-state [`solve`](Self::solve) calls allocate nothing, and
/// [`solve_exact`](Self::solve_exact) reuses the branch-and-bound
/// workspace but still rebuilds its constraint rows (a handful of small
/// vectors per path) each call.
#[derive(Debug)]
pub struct AlignmentEngine {
    problem: AlignmentProblem,
    /// Previous solution's buffer values (the warm start), grid-snapped.
    warm: Vec<f64>,
    /// Flat `nb`-chunks of already-descended seeds (for dedup).
    seeds: Vec<f64>,
    x: Vec<f64>,
    best_x: Vec<f64>,
    descent: Descent,
    pts: Vec<(f64, f64)>,
    /// `true` until the first solve after `begin_batch` / `seed`: the
    /// first solve runs the full multi-start, later solves descend from
    /// the warm seed alone (see [`solve`](Self::solve)).
    multistart: bool,
    solution: AlignmentSolution,
    lp: LinearProgram,
    int_vars: Vec<usize>,
    milp_ws: MilpWorkspace,
    exact_seed: Vec<f64>,
    node_limit: usize,
}

impl Default for AlignmentEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl AlignmentEngine {
    /// Creates an empty engine; buffers grow on first use.
    pub fn new() -> Self {
        AlignmentEngine {
            problem: AlignmentProblem::default(),
            warm: Vec::new(),
            seeds: Vec::new(),
            x: Vec::new(),
            best_x: Vec::new(),
            descent: Descent::default(),
            pts: Vec::new(),
            multistart: true,
            solution: AlignmentSolution { period: 0.0, buffer_values: Vec::new(), objective: 0.0 },
            lp: LinearProgram::new(0),
            int_vars: Vec::new(),
            milp_ws: MilpWorkspace::new(),
            exact_seed: Vec::new(),
            node_limit: DEFAULT_NODE_LIMIT,
        }
    }

    /// Caps the branch-and-bound nodes of [`solve_exact`](Self::solve_exact)
    /// (default [`crate::DEFAULT_NODE_LIMIT`]). A solve that exhausts the
    /// cap returns `None` — the caller's cue to fall back to the
    /// coordinate-descent heuristic — never a silently suboptimal
    /// "exact" solution.
    pub fn set_node_limit(&mut self, limit: usize) {
        self.node_limit = limit;
    }

    /// The current branch-and-bound node cap for exact solves.
    pub fn node_limit(&self) -> usize {
        self.node_limit
    }

    /// Starts a new batch: installs its buffers, clears the path list, and
    /// resets the warm start to all-zero buffer values.
    ///
    /// This is the one place the engine checks its buffers; every solve
    /// relies on them being well formed.
    ///
    /// # Errors
    ///
    /// [`MalformedBuffer`] names the first buffer that is not
    /// [well formed](BufferVar::is_well_formed). The engine is then left
    /// with an empty batch: no buffers and no paths.
    pub fn begin_batch(&mut self, buffers: &[BufferVar]) -> Result<(), MalformedBuffer> {
        self.problem.buffers.clear();
        self.problem.paths.clear();
        self.warm.clear();
        self.multistart = true;
        if let Some(index) = buffers.iter().position(|b| !b.is_well_formed()) {
            return Err(MalformedBuffer { index });
        }
        self.problem.buffers.extend_from_slice(buffers);
        self.warm.resize(buffers.len(), 0.0);
        Ok(())
    }

    /// Overrides the warm start (grid snapping happens at solve time) and
    /// re-arms the full multi-start for the next solve, as after
    /// [`begin_batch`](Self::begin_batch).
    ///
    /// # Panics
    ///
    /// Panics if `init.len()` differs from the batch's buffer count.
    pub fn seed(&mut self, init: &[f64]) {
        assert_eq!(init.len(), self.problem.buffers.len());
        self.warm.clear();
        self.warm.extend_from_slice(init);
        self.multistart = true;
    }

    /// The batch's buffers.
    pub fn buffers(&self) -> &[BufferVar] {
        &self.problem.buffers
    }

    /// The current iteration's paths; rebuild in place between solves
    /// (`clear` + `push`/`extend`, capacity is retained).
    pub fn paths_mut(&mut self) -> &mut Vec<AlignPath> {
        &mut self.problem.paths
    }

    /// The current iteration's paths.
    pub fn paths(&self) -> &[AlignPath] {
        &self.problem.paths
    }

    /// The warm-start buffer values the next solve will start from.
    pub fn warm_values(&self) -> &[f64] {
        &self.warm
    }

    /// The most recent solution (untouched until the next solve).
    pub fn last_solution(&self) -> &AlignmentSolution {
        &self.solution
    }

    /// Coordinate-descent solve with the engine's warm-start rule:
    ///
    /// * the **first** solve after [`begin_batch`](Self::begin_batch) /
    ///   [`seed`](Self::seed) runs the full multi-start (warm seed plus
    ///   all-zero / lowest / highest buffer values, duplicates descended
    ///   once) — identical to
    ///   [`AlignmentProblem::solve_coordinate_descent`], because at batch
    ///   start the initial basin is unknown;
    /// * every **subsequent** solve descends from the warm seed alone.
    ///   Between frequency-stepping iterations the range centers drift
    ///   continuously, so the previous optimum sits in the new optimum's
    ///   basin and the far-away multi-start seeds only repeat work; the
    ///   result can never be worse than the warm seed itself and in
    ///   steady state converges in a single scan.
    ///
    /// Steady-state calls allocate nothing.
    pub fn solve(&mut self) -> &AlignmentSolution {
        let nb = self.problem.buffers.len();
        let kinds: std::ops::Range<u8> = if self.multistart { 0..4 } else { 0..1 };
        self.multistart = false;
        let mut best_obj = f64::INFINITY;
        let mut best_period = 0.0;
        let mut have_best = false;
        let mut best_feasible = false;
        self.seeds.clear();
        self.descent.prepare(&self.problem);
        for kind in kinds {
            {
                let AlignmentEngine { problem, warm, x, .. } = self;
                x.clear();
                match kind {
                    0 => x.extend(
                        problem
                            .buffers
                            .iter()
                            .zip(warm.iter())
                            .map(|(b, &w)| b.value(b.nearest(w))),
                    ),
                    1 => x.extend(problem.buffers.iter().map(|b| b.value(b.nearest(0.0)))),
                    2 => x.extend(problem.buffers.iter().map(|b| b.value(0))),
                    _ => x.extend(problem.buffers.iter().map(|b| b.value(b.steps - 1))),
                }
            }
            // Identical seeds descend to identical optima; skip repeats.
            if nb == 0 {
                if kind > 0 {
                    continue;
                }
            } else if self.seeds.chunks(nb).any(|c| c == &self.x[..]) {
                continue;
            }
            self.seeds.extend_from_slice(&self.x);
            let (period, objective) = self.descent.descend(&self.problem, &mut self.x);
            // A seed that greedy repair left on a violated hold bound can
            // descend to a lower objective than any feasible seed; a
            // feasible descent always beats it.
            let feasible = self.problem.paths.iter().all(|p| p.hold_ok(&self.x));
            let better =
                if feasible == best_feasible { objective < best_obj - 1e-12 } else { feasible };
            if !have_best || better {
                have_best = true;
                best_feasible = feasible;
                best_obj = objective;
                best_period = period;
                self.best_x.clear();
                self.best_x.extend_from_slice(&self.x);
            }
        }
        self.solution.period = best_period;
        self.solution.objective = best_obj;
        self.solution.buffer_values.clear();
        self.solution.buffer_values.extend_from_slice(&self.best_x);
        self.warm.clear();
        self.warm.extend_from_slice(&self.best_x);
        &self.solution
    }

    /// Exact MILP solve, warm-started with the previous solution as the
    /// branch-and-bound incumbent. Returns `None` (leaving the last
    /// solution untouched) if the hold bounds make the problem infeasible
    /// or the node limit is hit; the objective is always the true optimum
    /// otherwise.
    pub fn solve_exact(&mut self) -> Option<&AlignmentSolution> {
        if self.problem.paths.is_empty() {
            self.solution.period = 0.0;
            self.solution.objective = 0.0;
            self.solution.buffer_values.clear();
            self.solution.buffer_values.extend(self.problem.buffers.iter().map(|b| b.value(0)));
            self.warm.clear();
            self.warm.extend_from_slice(&self.solution.buffer_values);
            return Some(&self.solution);
        }
        if !build_exact_milp(&self.problem, &mut self.lp, &mut self.int_vars) {
            return None;
        }
        // Incumbent from the warm start: snap to the grid, repair holds,
        // and bail out of seeding (not solving) if holds stay violated.
        let seeded = {
            let AlignmentEngine { problem, warm, x, pts, exact_seed, .. } = self;
            x.clear();
            x.extend(problem.buffers.iter().zip(warm.iter()).map(|(b, &w)| b.value(b.nearest(w))));
            problem.repair_hold(x);
            if problem.paths.iter().all(|p| p.hold_ok(x)) {
                let t = best_period_in(problem, x, pts);
                exact_seed.clear();
                exact_seed.push(t);
                exact_seed.extend(
                    problem.buffers.iter().zip(x.iter()).map(|(b, &v)| b.nearest(v) as f64),
                );
                exact_seed
                    .extend(problem.paths.iter().map(|p| (t - (p.center + p.shift(x))).abs()));
                true
            } else {
                false
            }
        };
        let AlignmentEngine {
            problem,
            lp,
            int_vars,
            milp_ws,
            exact_seed,
            solution,
            warm,
            node_limit,
            ..
        } = self;
        let incumbent = seeded.then_some(&exact_seed[..]);
        let sol = crate::milp::solve_milp(lp, int_vars, *node_limit, milp_ws, incumbent);
        if !sol.is_optimal() {
            return None;
        }
        solution.period = sol.values[0];
        solution.objective = sol.objective;
        solution.buffer_values.clear();
        solution.buffer_values.extend(
            problem
                .buffers
                .iter()
                .enumerate()
                .map(|(b, buf)| buf.value(sol.values[1 + b].round() as u32)),
        );
        warm.clear();
        warm.extend_from_slice(&solution.buffer_values);
        Some(&self.solution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(min: f64, max: f64, steps: u32) -> BufferVar {
        BufferVar { min, max, steps }
    }

    fn path(center: f64, src: Option<usize>, snk: Option<usize>) -> AlignPath {
        AlignPath {
            center,
            weight: 1.0,
            source_buffer: src,
            sink_buffer: snk,
            hold_lower_bound: None,
        }
    }

    /// Oracle: the full-rescan buffer scan the incremental descent
    /// replaced. Every candidate re-checks every hold bound, re-sorts every
    /// shifted center and re-sums the whole objective.
    fn best_buffer_value_in(
        problem: &AlignmentProblem,
        b: usize,
        x: &[f64],
        cand: &mut Vec<f64>,
        pts: &mut Vec<(f64, f64)>,
    ) -> (f64, f64, f64) {
        cand.clear();
        cand.extend_from_slice(x);
        let mut best_v = x[b];
        let mut best_t = best_period_in(problem, x, pts);
        let mut best_obj = problem.objective(best_t, x);
        for v in problem.buffers[b].values() {
            if (v - x[b]).abs() < 1e-15 {
                continue;
            }
            cand[b] = v;
            if !problem.paths.iter().all(|p| p.hold_ok(cand)) {
                continue;
            }
            let t = best_period_in(problem, cand, pts);
            let obj = problem.objective(t, cand);
            if obj < best_obj - 1e-12 {
                best_obj = obj;
                best_v = v;
                best_t = t;
            }
        }
        (best_v, best_t, best_obj)
    }

    /// Oracle: the full-rescan coordinate descent.
    fn descend_in(
        problem: &AlignmentProblem,
        x: &mut [f64],
        cand: &mut Vec<f64>,
        pts: &mut Vec<(f64, f64)>,
    ) -> (f64, f64) {
        problem.repair_hold(x);
        let mut period = best_period_in(problem, x, pts);
        let mut objective = problem.objective(period, x);
        for _round in 0..50 {
            if objective == 0.0 {
                break;
            }
            let mut changed = false;
            for b in 0..problem.buffers.len() {
                let (best_v, best_t, best_obj) = best_buffer_value_in(problem, b, x, cand, pts);
                if best_obj + 1e-12 < objective {
                    x[b] = best_v;
                    period = best_t;
                    objective = best_obj;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        (period, objective)
    }

    /// Oracle: [`AlignmentEngine::solve`]'s seed loop over [`descend_in`].
    fn oracle_solve(
        problem: &AlignmentProblem,
        warm: &[f64],
        multistart: bool,
    ) -> AlignmentSolution {
        let kinds = if multistart { 0..4_u8 } else { 0..1 };
        let (mut cand, mut pts, mut seeds) = (Vec::new(), Vec::new(), Vec::<Vec<f64>>::new());
        let mut best: Option<(AlignmentSolution, bool)> = None;
        for kind in kinds {
            let mut x: Vec<f64> = (problem.buffers.iter().zip(warm))
                .map(|(b, &w)| match kind {
                    0 => b.value(b.nearest(w)),
                    1 => b.value(b.nearest(0.0)),
                    2 => b.value(0),
                    _ => b.value(b.steps - 1),
                })
                .collect();
            if (problem.buffers.is_empty() && kind > 0) || seeds.contains(&x) {
                continue;
            }
            seeds.push(x.clone());
            let (period, objective) = descend_in(problem, &mut x, &mut cand, &mut pts);
            let feasible = problem.paths.iter().all(|p| p.hold_ok(&x));
            let better = best.as_ref().is_none_or(|(s, best_feasible)| {
                if feasible == *best_feasible {
                    objective < s.objective - 1e-12
                } else {
                    feasible
                }
            });
            if better {
                best = Some((AlignmentSolution { period, buffer_values: x, objective }, feasible));
            }
        }
        best.expect("the warm seed always descends").0
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Deterministic generator for the differential test.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 33
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn unit(&mut self) -> f64 {
            self.next() as f64 / (1_u64 << 31) as f64
        }

        fn chance(&mut self, one_in: u64) -> bool {
            self.below(one_in) == 0
        }
    }

    /// A random alignment problem. Centers sit on a coarse grid half the
    /// time and buffers often step in binary fractions, so shifted centers
    /// tie. Above 20 paths the weights are integers: the oracle's unstable
    /// sort leaves ties of more than 20 points in an unspecified order, and
    /// only exact (integer) partial sums make that order irrelevant.
    fn random_problem(rng: &mut Lcg, large: bool) -> AlignmentProblem {
        let nb = rng.below(7) as usize;
        let np = if large { 21 + rng.below(12) } else { rng.below(13) } as usize;
        let buffers: Vec<BufferVar> = (0..nb)
            .map(|_| {
                let steps = 2 + rng.below(19) as u32;
                if rng.chance(2) {
                    let step = [0.25, 0.5, 1.0][rng.below(3) as usize];
                    let min = -(rng.below(steps as u64) as f64) * step;
                    buf(min, min + step * (steps - 1) as f64, steps)
                } else {
                    let min = -3.0 * rng.unit();
                    buf(min, min + 0.1 + 5.0 * rng.unit(), steps)
                }
            })
            .collect();
        let integer_weights = large || rng.chance(2);
        let mut paths: Vec<AlignPath> = (0..np)
            .map(|_| {
                let center =
                    if rng.chance(2) { rng.below(17) as f64 * 0.5 } else { 20.0 * rng.unit() };
                let pick = |rng: &mut Lcg| {
                    (nb > 0 && !rng.chance(3)).then(|| rng.below(nb as u64) as usize)
                };
                let source_buffer = pick(rng);
                let sink_buffer = if rng.chance(8) { source_buffer } else { pick(rng) };
                let hold_lower_bound = rng.chance(3).then(|| {
                    if rng.chance(2) {
                        rng.below(9) as f64 * 0.5 - 3.0
                    } else {
                        8.0 * rng.unit() - 5.0
                    }
                });
                let weight = match rng.below(12) {
                    0 => 0.0,
                    1 if !integer_weights => -0.3,
                    _ if !integer_weights => 0.1 * (1 + rng.below(9)) as f64,
                    _ => 1.0,
                };
                AlignPath { center, weight, source_buffer, sink_buffer, hold_lower_bound }
            })
            .collect();
        if integer_weights && rng.chance(2) {
            let centers: Vec<f64> = paths.iter().map(|p| p.center).collect();
            for (p, w) in paths.iter_mut().zip(sorted_center_weights(&centers, 1000.0, 1.0)) {
                p.weight = w;
            }
        }
        AlignmentProblem { paths, buffers }
    }

    /// Tied centers whose weights reach half the total when added in path
    /// order (34.4 + 39.6 + 27.2 against 101.2) but not in reverse order.
    const TIE_CENTERS: [f64; 4] = [0.0, 0.0, 0.0, 1.0];
    const TIE_WEIGHTS: [f64; 4] = [34.4, 39.6, 27.2, 101.2];

    /// Problems whose optimal period depends on the tie order: the
    /// buffered path (first or last) can only move away from the tie.
    fn tie_order_problems() -> Vec<AlignmentProblem> {
        let tied: Vec<AlignPath> = (TIE_CENTERS.iter().zip(TIE_WEIGHTS))
            .map(|(&center, weight)| AlignPath { weight, ..path(center, None, None) })
            .collect();
        let buffers = vec![buf(0.0, 0.5, 2)];
        let mut last = tied.clone();
        last[3].source_buffer = Some(0);
        let mut first = vec![last[3]];
        first.extend_from_slice(&tied[..3]);
        vec![
            AlignmentProblem { paths: last, buffers: buffers.clone() },
            AlignmentProblem { paths: first, buffers },
        ]
    }

    #[test]
    fn merged_median_adds_tied_weights_in_path_order() {
        let point = |p: usize| (TIE_CENTERS[p], TIE_WEIGHTS[p], p);
        let total = TIE_WEIGHTS.iter().sum();
        let mut pts: Vec<(f64, f64)> = TIE_CENTERS.iter().copied().zip(TIE_WEIGHTS).collect();
        assert_eq!(weighted_median_in_place(&mut pts), Some(0.0));
        assert_eq!(median_of([2, 1, 0, 3].map(point).iter(), total), 1.0, "order matters");
        for moved in 0..3 {
            let fixed: Vec<MedianPoint> = (0..4).filter(|&p| p != moved).map(point).collect();
            assert_eq!(median_of(merged(&fixed, &[point(moved)]), total), 0.0, "moved {moved}");
        }
    }

    /// The incremental descent, and the engine over warm multi-solve
    /// sequences, return the full-rescan oracle's period, objective and
    /// buffer values bit for bit.
    #[test]
    fn incremental_descent_matches_full_rescan_bitwise() {
        let mut rng = Lcg(0x5eed_a11e);
        let mut descent = Descent::default();
        let mut engine = AlignmentEngine::new();
        let (mut cand, mut pts) = (Vec::new(), Vec::new());
        let (mut stuck_holds, mut same_buffer, mut bufferless, mut unused_buffers) = (0, 0, 0, 0);
        let mut fractional_ties = 0;
        let tie_order = tie_order_problems();
        for case in 0..10_000 + tie_order.len() {
            let mut problem = match tie_order.get(case) {
                Some(problem) => problem.clone(),
                None => random_problem(&mut rng, case % 20 == 0),
            };
            let nb = problem.buffers.len();
            let paths = &problem.paths;
            same_buffer += paths
                .iter()
                .filter(|p| p.source_buffer.is_some() && p.source_buffer == p.sink_buffer)
                .count();
            bufferless += paths
                .iter()
                .filter(|p| p.source_buffer.is_none() && p.sink_buffer.is_none())
                .count();
            unused_buffers += (0..nb).filter(|&b| !paths.iter().any(|p| touches(p, b))).count();
            if paths.iter().any(|p| p.weight.fract() != 0.0)
                && paths
                    .iter()
                    .enumerate()
                    .any(|(i, p)| paths[..i].iter().any(|q| q.center == p.center))
            {
                fractional_ties += 1;
            }

            // Single descents from random lattice seeds.
            descent.prepare(&problem);
            for _ in 0..2 {
                let seed: Vec<f64> = (problem.buffers.iter())
                    .map(|b| b.value(rng.below(b.steps as u64) as u32))
                    .collect();
                let mut repaired = seed.clone();
                problem.repair_hold(&mut repaired);
                if !problem.paths.iter().all(|p| p.hold_ok(&repaired)) {
                    stuck_holds += 1;
                }
                let (mut fast_x, mut slow_x) = (seed.clone(), seed);
                let fast = descent.descend(&problem, &mut fast_x);
                let slow = descend_in(&problem, &mut slow_x, &mut cand, &mut pts);
                assert_eq!(fast.0.to_bits(), slow.0.to_bits(), "period, case {case}");
                assert_eq!(fast.1.to_bits(), slow.1.to_bits(), "objective, case {case}");
                assert_eq!(bits(&fast_x), bits(&slow_x), "buffer values, case {case}");
            }

            // A warm sequence: multi-start first, warm seed alone after,
            // re-armed once by `seed`.
            engine.begin_batch(&problem.buffers).unwrap();
            let mut warm = vec![0.0; nb];
            for iter in 0..3 {
                if iter > 0 {
                    for p in &mut problem.paths {
                        p.center += rng.below(5) as f64 * 0.25 - 0.5;
                    }
                }
                let multistart = iter == 0 || (iter == 2 && case % 3 == 0);
                if iter == 2 && multistart {
                    warm = (problem.buffers.iter()).map(|b| b.min + rng.unit() * b.max).collect();
                    engine.seed(&warm);
                }
                let e = engine.paths_mut();
                e.clear();
                e.extend_from_slice(&problem.paths);
                let fast = engine.solve().clone();
                let slow = oracle_solve(&problem, &warm, multistart);
                assert_eq!(fast.period.to_bits(), slow.period.to_bits(), "period, case {case}");
                assert_eq!(fast.objective.to_bits(), slow.objective.to_bits(), "case {case}");
                assert_eq!(bits(&fast.buffer_values), bits(&slow.buffer_values), "case {case}");
                warm = slow.buffer_values;
            }
        }
        // Every structural case the scan special-cases was exercised.
        let walks = [0, 1].map(|i| descent.walks[i] + engine.descent.walks[i]);
        assert!(walks[1] > 500, "walks with stop rules: {}", walks[1]);
        assert!(walks[0] > 500, "walks without stop rules: {}", walks[0]);
        assert!(stuck_holds > 500, "unrepairable hold bounds: {stuck_holds}");
        assert!(same_buffer > 500, "same-buffer paths: {same_buffer}");
        assert!(bufferless > 500, "bufferless paths: {bufferless}");
        assert!(unused_buffers > 500, "buffers without paths: {unused_buffers}");
        assert!(fractional_ties > 500, "tied centers, non-integer weights: {fractional_ties}");
    }

    /// Descends from `seed` with the incremental descent and, multi-started
    /// from it, the engine, and asserts both equal their full-rescan
    /// oracles bit for bit. Returns the descent's buffer values and its
    /// walk counters `([without, with] stop rules, candidates evaluated)`.
    fn assert_matches_oracle(
        problem: &AlignmentProblem,
        seed: &[f64],
    ) -> (Vec<f64>, [usize; 2], usize) {
        let mut descent = Descent::default();
        descent.prepare(problem);
        let (mut fast_x, mut slow_x) = (seed.to_vec(), seed.to_vec());
        let fast = descent.descend(problem, &mut fast_x);
        let slow = descend_in(problem, &mut slow_x, &mut Vec::new(), &mut Vec::new());
        assert_eq!(fast.0.to_bits(), slow.0.to_bits(), "period");
        assert_eq!(fast.1.to_bits(), slow.1.to_bits(), "objective");
        assert_eq!(bits(&fast_x), bits(&slow_x), "buffer values");

        let mut engine = AlignmentEngine::new();
        engine.begin_batch(&problem.buffers).unwrap();
        engine.paths_mut().extend_from_slice(&problem.paths);
        engine.seed(seed);
        let fast = engine.solve().clone();
        let slow = oracle_solve(problem, seed, true);
        assert_eq!(fast.period.to_bits(), slow.period.to_bits(), "engine period");
        assert_eq!(fast.objective.to_bits(), slow.objective.to_bits(), "engine objective");
        assert_eq!(bits(&fast.buffer_values), bits(&slow.buffer_values), "engine values");
        (fast_x, descent.walks, descent.evaluated)
    }

    /// The objective is `1 + |v - 8h|` on the lattice `v = k h`, `h =
    /// 2^-42`, `k < 20`: a step changes it by about 0.23 of the 1e-12
    /// acceptance tolerance, so the first strictly best value in lattice
    /// order wins, not the minimum. From the top, a walk that stopped at
    /// the first rise past its predecessor (k = 7) would never score k = 0
    /// to 6, which the full scan accepts first, and would land on k = 8.
    #[test]
    fn pruned_walk_keeps_the_first_best_value_on_a_plateau() {
        let h = 2f64.powi(-42);
        let problem = AlignmentProblem {
            paths: vec![
                AlignPath { weight: 3.0, ..path(0.0, None, None) },
                path(1.0, None, None),
                path(-8.0 * h, Some(0), None),
            ],
            buffers: vec![buf(0.0, 19.0 * h, 20)],
        };
        for (seed, lands) in [(19.0 * h, 7.0 * h), (0.0, 5.0 * h)] {
            let (x, walks, _) = assert_matches_oracle(&problem, &[seed]);
            assert_eq!(x, [lands], "seed {seed:e}");
            assert!(walks[1] > 0, "the plateau must be walked with stop rules");
        }
    }

    /// Centers near 1e12 are 2^-13 apart, and the buffer steps 2^-15, so
    /// shifted centers round in steps: at k = 2 the sink path rounds away
    /// from the period before the source path rounds toward it, and the
    /// objective rises by 2^-12 although it falls on the whole. The error
    /// margin (about 9e-3 here) keeps the walk going to the optimum near
    /// v = 0.02; a walk stopping at the first computed rise would stay at 0.
    #[test]
    fn pruned_walk_does_not_stop_on_rounding_noise() {
        let u = 2f64.powi(-13);
        let problem = AlignmentProblem {
            paths: vec![
                AlignPath { weight: 10.0, ..path(1e12, None, None) },
                AlignPath { weight: 3.0, ..path(1e12 - 0.02, Some(0), None) },
                AlignPath { weight: 2.0, ..path(1e12 - u, None, Some(0)) },
            ],
            buffers: vec![buf(0.0, 250.0 * u, 1001)],
        };
        let (x, walks, _) = assert_matches_oracle(&problem, &[0.0]);
        assert!(x[0] > 0.019, "the descent should reach the optimum, got {}", x[0]);
        assert!(walks[1] > 0 && walks[0] == 0, "walks {walks:?}");
    }

    /// Scans that cannot observe the convexity argument walk the whole
    /// lattice: an incident hold bound violated at the current value (a
    /// seed greedy repair leaves infeasible), and negative or non-integer
    /// weights.
    #[test]
    fn walks_without_stop_rules_score_every_feasible_value() {
        // Repair rounds x0 + 0.2 to 0 and gives up, although 0.5 and 1
        // satisfy the hold bound; the first scan walks everything.
        let mut repairable = path(2.0, Some(0), None);
        repairable.hold_lower_bound = Some(0.2);
        let problem = AlignmentProblem {
            paths: vec![repairable, path(2.4, None, None), path(2.6, None, None)],
            buffers: vec![buf(0.0, 1.0, 3)],
        };
        let (x, walks, _) = assert_matches_oracle(&problem, &[0.0]);
        assert_eq!(x, [0.5]);
        assert!(walks[0] > 0 && walks[1] > 0, "walks {walks:?}");

        // A hold bound no value can meet: every walk is a full one, and
        // nothing moves.
        let mut hopeless = path(3.0, Some(0), Some(1));
        hopeless.hold_lower_bound = Some(5.0);
        let problem = AlignmentProblem {
            paths: vec![hopeless, path(3.0, Some(2), None), path(5.0, None, Some(2))],
            buffers: vec![buf(-2.0, 2.0, 5); 3],
        };
        let (x, walks, _) = assert_matches_oracle(&problem, &[-2.0, 2.0, 0.0]);
        assert_eq!(x, [2.0, -2.0, 0.0]);
        assert_eq!(walks[1], 0);

        for weights in [[0.5, 1.7, 2.0, 1.0], [1.0, -0.3, 2.0, 1.0]] {
            let paths = [
                (3.0, Some(0), None),
                (4.5, None, Some(0)),
                (5.0, Some(1), None),
                (4.0, None, None),
            ]
            .iter()
            .zip(weights)
            .map(|(&(c, s, k), weight)| AlignPath { weight, ..path(c, s, k) })
            .collect();
            let problem = AlignmentProblem { paths, buffers: vec![buf(-2.0, 2.0, 17); 2] };
            let (_, walks, evaluated) = assert_matches_oracle(&problem, &[-2.0, 2.0]);
            assert!(walks[0] > 0 && walks[1] == 0, "weights {weights:?}: walks {walks:?}");
            assert_eq!(evaluated, 16 * walks[0], "a full walk scores every other value");
        }
    }

    /// One value (nothing to scan), two values, and 10,000 values, where a
    /// warm solve scores a handful of them per buffer. (Each buffer moves
    /// one path: two paths of equal weight on either side of the period
    /// would make the objective exactly flat, and a plateau is walked to
    /// its end.)
    #[test]
    fn pruned_walk_handles_one_two_and_ten_thousand_steps() {
        for steps in [1, 2] {
            let problem = AlignmentProblem {
                paths: vec![
                    path(1.0, Some(0), None),
                    path(2.0, None, Some(1)),
                    path(3.0, None, None),
                ],
                buffers: vec![buf(-0.5, 0.5, steps), buf(0.0, 1.0, 2)],
            };
            for seed in [[-0.5, 0.0], [0.5, 1.0]] {
                assert_matches_oracle(&problem, &seed);
            }
        }

        let centers = [3.1, 4.7, 5.2, 5.9, 7.4];
        let weights = sorted_center_weights(&centers, 1000.0, 1.0);
        let mut problem = AlignmentProblem {
            paths: centers
                .iter()
                .zip(&weights)
                .enumerate()
                .map(|(i, (&c, &weight))| {
                    let (src, snk) = [(Some(0), None), (None, None), (None, None), (None, Some(1))]
                        .get(i)
                        .copied()
                        .unwrap_or_default();
                    AlignPath { weight, ..path(c, src, snk) }
                })
                .collect(),
            buffers: vec![buf(-5.0, 5.0, 10_000); 2],
        };
        assert_matches_oracle(&problem, &[0.0, 0.0]);
        let mut engine = AlignmentEngine::new();
        engine.begin_batch(&problem.buffers).unwrap();
        engine.paths_mut().extend_from_slice(&problem.paths);
        let warm = engine.solve().buffer_values.clone();
        for p in &mut problem.paths {
            p.center += 0.01;
        }
        engine.paths_mut().clear();
        engine.paths_mut().extend_from_slice(&problem.paths);
        let before = engine.descent.evaluated;
        let fast = engine.solve().clone();
        let slow = oracle_solve(&problem, &warm, false);
        assert_eq!(bits(&fast.buffer_values), bits(&slow.buffer_values));
        assert_eq!(fast.objective.to_bits(), slow.objective.to_bits());
        let evaluated = engine.descent.evaluated - before;
        assert!(evaluated <= 8, "a warm solve scored {evaluated} of 2 x 10,000 values");
    }

    #[test]
    fn buffer_var_grid() {
        let b = buf(-1.0, 1.0, 21);
        assert!((b.step_size() - 0.1).abs() < 1e-12);
        assert_eq!(b.value(10), 0.0);
        assert_eq!(b.nearest(0.04), 10);
        assert_eq!(b.nearest(99.0), 20);
        assert_eq!(b.values().count(), 21);
    }

    #[test]
    fn no_buffers_period_is_weighted_median() {
        let problem = AlignmentProblem {
            paths: vec![path(2.0, None, None), path(4.0, None, None), path(10.0, None, None)],
            buffers: vec![],
        };
        let sol = problem.solve_coordinate_descent(&[]).unwrap();
        assert_eq!(sol.period, 4.0);
        assert!((sol.objective - 8.0).abs() < 1e-9);
    }

    #[test]
    fn buffers_align_two_separated_ranges() {
        // Two paths with centers 0 and 4; the second path's source buffer
        // can shift its range by -2..2 in 0.5 steps. Perfect alignment:
        // shift path 2 down by 2 to center 2... but T can also move. The
        // optimum is objective ~0 when centers can meet: center2 + x = 2
        // with x = -2, T = 2... path1 center 0 unshiftable, so T = 0 and
        // path2 shifted to 4 - 2 = 2 -> residual 2. Actually optimal:
        // T=0+e? Let's just check exact == descent.
        let problem = AlignmentProblem {
            paths: vec![path(0.0, None, None), path(4.0, Some(0), None)],
            buffers: vec![buf(-2.0, 2.0, 9)],
        };
        let exact = problem.solve_exact().expect("feasible");
        let fast = problem.solve_coordinate_descent(&[0.0]).unwrap();
        assert!(
            (fast.objective - exact.objective).abs() < 1e-6,
            "fast {} vs exact {}",
            fast.objective,
            exact.objective
        );
        // Ranges can meet: path2 shifted to 2.0 (x=-2), T anywhere between
        // 0 and 2 gives objective 2.0; or T=0, x=-2 -> |0-0| + |0-2| = 2.
        assert!((exact.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn perfectly_alignable_ranges_reach_zero() {
        // Path centers 0 and 1; buffer on path 2 with exactly 1.0 reachable
        // shift: x = -1 aligns both at 0.
        let problem = AlignmentProblem {
            paths: vec![path(0.0, None, None), path(1.0, Some(0), None)],
            buffers: vec![buf(-2.0, 2.0, 5)],
        };
        let exact = problem.solve_exact().expect("feasible");
        assert!(exact.objective.abs() < 1e-7);
        let fast = problem.solve_coordinate_descent(&[0.0]).unwrap();
        assert!(fast.objective.abs() < 1e-7);
        assert!(problem.is_feasible(&fast.buffer_values, 1e-9));
    }

    #[test]
    fn shared_buffer_couples_paths() {
        // Buffer 0 is the SINK of path A (center 5) and the SOURCE of path
        // B (center 5): raising x shifts A down and B up — they separate.
        // Optimal x = 0.
        let problem = AlignmentProblem {
            paths: vec![path(5.0, None, Some(0)), path(5.0, Some(0), None)],
            buffers: vec![buf(-1.0, 1.0, 5)],
        };
        let exact = problem.solve_exact().expect("feasible");
        assert!(exact.objective.abs() < 1e-7);
        assert!((exact.buffer_values[0]).abs() < 1e-9);
    }

    #[test]
    fn hold_bounds_restrict_shifts() {
        // Path B (center 8, source buffer) wants x = -2 to align with
        // center 6, but hold requires x >= -0.5.
        let problem = AlignmentProblem {
            paths: vec![
                path(6.0, None, None),
                AlignPath {
                    center: 8.0,
                    weight: 1.0,
                    source_buffer: Some(0),
                    sink_buffer: None,
                    hold_lower_bound: Some(-0.5),
                },
            ],
            buffers: vec![buf(-2.0, 2.0, 9)],
        };
        let exact = problem.solve_exact().expect("feasible");
        let fast = problem.solve_coordinate_descent(&[0.0]).unwrap();
        // Best: x = -0.5 -> centers 6 and 7.5, objective 1.5.
        assert!((exact.objective - 1.5).abs() < 1e-6);
        assert!((fast.objective - 1.5).abs() < 1e-6);
        assert!(fast.buffer_values[0] >= -0.5 - 1e-9);
    }

    #[test]
    fn sorted_center_weights_prioritize_middle() {
        let centers = [10.0, 0.0, 5.0, 20.0, 15.0];
        let w = sorted_center_weights(&centers, 1000.0, 1.0);
        // Sorted: 0, 5, 10, 15, 20 -> middle is 10.
        assert_eq!(w[0], 1000.0); // center 10.0
        assert_eq!(w[2], 999.0); // center 5
        assert_eq!(w[4], 999.0); // center 15
        assert_eq!(w[1], 998.0); // center 0
        assert_eq!(w[3], 998.0); // center 20
        assert!(sorted_center_weights(&[], 10.0, 1.0).is_empty());
    }

    #[test]
    fn weights_never_drop_below_kd() {
        let centers: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let w = sorted_center_weights(&centers, 10.0, 1.0);
        assert!(w.iter().all(|&x| x >= 1.0));
    }

    #[test]
    fn descent_matches_exact_on_random_instances() {
        let mut state = 0x77_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as f64 / 100.0
        };
        let mut worse = 0;
        let cases = 25;
        for _case in 0..cases {
            let nb = 1 + (next() as usize) % 2; // 1-2 buffers
            let buffers: Vec<BufferVar> = (0..nb).map(|_| buf(-2.0, 2.0, 9)).collect();
            let np = 2 + (next() as usize) % 3;
            let paths: Vec<AlignPath> = (0..np)
                .map(|_| {
                    let which = (next() * 10.0) as usize % 3;
                    let b = (next() as usize) % nb;
                    let (src, snk) = match which {
                        0 => (Some(b), None),
                        1 => (None, Some(b)),
                        _ => (None, None),
                    };
                    path(next(), src, snk)
                })
                .collect();
            let problem = AlignmentProblem { paths, buffers };
            let exact = problem.solve_exact().expect("feasible without hold bounds");
            let fast = problem.solve_coordinate_descent(&vec![0.0; nb]).unwrap();
            assert!(problem.is_feasible(&fast.buffer_values, 1e-9));
            // Coordinate descent is a heuristic: allow rare slightly-worse
            // outcomes but never infeasibility; the bulk must match.
            if fast.objective > exact.objective + 1e-6 {
                worse += 1;
            }
        }
        assert!(worse * 5 <= cases, "descent missed the optimum too often: {worse}/{cases}");
    }

    #[test]
    fn exhausted_node_limit_returns_none_and_preserves_the_last_solution() {
        // A problem whose root relaxation is fractional (the buffer grid
        // forces branching): with a one-node cap the exact solve must
        // report failure instead of a silently suboptimal "optimum", and
        // the engine's last solution must stay what the heuristic left
        // there — that pair is exactly the fallback contract the aligned
        // test relies on.
        let problem = AlignmentProblem {
            paths: vec![path(0.0, None, None), path(3.3, Some(0), None), path(7.1, Some(1), None)],
            buffers: vec![buf(-2.0, 2.0, 9), buf(-2.0, 2.0, 9)],
        };
        let mut engine = AlignmentEngine::new();
        engine.begin_batch(&problem.buffers).unwrap();
        engine.paths_mut().extend_from_slice(&problem.paths);
        let heuristic = engine.solve().clone();

        engine.set_node_limit(0);
        assert_eq!(engine.node_limit(), 0);
        assert!(engine.solve_exact().is_none(), "a 0-node budget cannot prove optimality");
        assert_eq!(
            engine.last_solution(),
            &heuristic,
            "a failed exact solve must leave the previous solution untouched"
        );

        // With the default budget the same engine closes the tree and can
        // only match or improve the heuristic objective.
        engine.set_node_limit(crate::DEFAULT_NODE_LIMIT);
        let exact = engine.solve_exact().expect("feasible problem").clone();
        assert!(exact.objective <= heuristic.objective + 1e-9);
        assert!(problem.is_feasible(&exact.buffer_values, 1e-9));
    }

    #[test]
    fn empty_problem_is_trivial() {
        let problem = AlignmentProblem { paths: vec![], buffers: vec![buf(-1.0, 1.0, 3)] };
        let sol = problem.solve_exact().expect("trivially feasible");
        assert_eq!(sol.objective, 0.0);
        let fast = problem.solve_coordinate_descent(&[0.5]).unwrap();
        assert_eq!(fast.objective, 0.0);
    }

    #[test]
    fn malformed_buffers_are_refused_where_the_batch_is_installed() {
        // Each used to panic: the first two in `f64::clamp` inside
        // `BufferVar::nearest`, the last on `steps - 1` in the multi-start.
        for bad in [buf(1.0, -1.0, 5), buf(f64::NAN, 1.0, 5), buf(-1.0, 1.0, 0)] {
            let problem = AlignmentProblem {
                paths: vec![path(3.0, Some(1), None)],
                buffers: vec![buf(-1.0, 1.0, 5), bad],
            };
            assert!(!bad.is_well_formed(), "{bad:?}");
            assert_eq!(problem.solve_coordinate_descent(&[0.0, 0.0]), None, "{bad:?}");
            assert_eq!(problem.solve_exact(), None, "{bad:?}");
            assert!(!problem.is_feasible(&[0.0, 0.0], 1e-9), "{bad:?}");
            let mut engine = AlignmentEngine::new();
            assert_eq!(engine.begin_batch(&problem.buffers), Err(MalformedBuffer { index: 1 }));
            // The refused batch leaves nothing behind to solve over.
            assert!(engine.buffers().is_empty() && engine.paths().is_empty());
            assert_eq!(engine.solve().objective, 0.0);
        }
        for bad in [buf(-1.0, f64::INFINITY, 5), buf(f64::NEG_INFINITY, 1.0, 5)] {
            assert!(!bad.is_well_formed(), "{bad:?}");
        }
        for good in [buf(-1.0, 1.0, 1), buf(0.0, 0.0, 5), buf(-8.0, 8.0, 20)] {
            assert!(good.is_well_formed(), "{good:?}");
        }
    }
}
