//! Procedure 1's selection straight from sparse rows, by a Lanczos
//! iteration that certifies its answer against the dense route.
//!
//! A correlation group's covariance is `C = B B^T + diag(d)`, where row `i`
//! of `B` holds path `i`'s canonical-form coefficients, a few dozen of
//! thousands of columns. [`SparseGram`] applies `C` to a vector in
//! `O(nnz)` without forming it. [`SparseGram::dominant_variables`] runs
//! Lanczos on it and returns what [`Pca::from_covariance`](crate::Pca)
//! followed by one [`Pca::dominant_variable`](crate::Pca::dominant_variable)
//! per kept component returns on the dense `C`, the kept count and the
//! picks, but only once three certificates prove that the dense route,
//! round-off and all, reaches the same answer. Otherwise it declines, and
//! the caller runs the dense route.
//!
//! # The iteration
//!
//! Lanczos with full reorthogonalization (classical Gram–Schmidt, twice)
//! from a fixed pseudo-random start vector. After `j` steps it holds
//! orthonormal `Q_j`, the tridiagonal `T_j = Q_j^T C Q_j` and its Ritz values
//! `θ_0 >= ... >= θ_{j-1}` from the QL recurrence that
//! [`SymmetricEigen`](crate::SymmetricEigen) runs. Let `t = tr C`, the sum of
//! the rows' squared norms plus `d`, and `R = t - tr T_j`, the trace `T_j`
//! has not reached. The iteration stops once the certificates below hold
//! and declines once the Krylov space is exhausted: after `n` steps, or
//! when a new direction does not survive reorthogonalization (its norm
//! more than halves in the second pass).
//!
//! # The certificates, in exact arithmetic
//!
//! Let `λ_0 >= ... >= λ_{n-1} >= 0` be the eigenvalues of `C` (it is
//! positive semidefinite) with eigenvectors `u_i`, and `S_k` the sum of the
//! first `k`.
//!
//! 1. *Lower bounds.* Cauchy interlacing gives `λ_i >= θ_i` for `i < j`, so
//!    `S_k >= sum_{i<k} θ_i`.
//! 2. *Upper bounds.* `S_k = t - sum_{i>=k} λ_i <= t - sum_{k<=i<j} θ_i =
//!    sum_{i<k} θ_i + R`, by interlacing for `i < j` and `λ_i >= 0` beyond.
//!    Ky Fan's bound on the block form of `C` in the basis `[Q_j, Q_j⊥]`
//!    gives the same with `β_j`, the one coupling between the blocks,
//!    added; `C >= 0` makes that term unnecessary. Subtracting the lower
//!    bounds of the others, `λ_i <= θ_i + R` (with `θ_i = 0` for `i >= j`).
//! 3. *Directions.* For a unit `y`, any `θ` and `r = ||C y - θ y||`: if
//!    every eigenvalue but `λ_c` lies at least `δ` from `θ`, then
//!    `sin ∠(y, u_c) <= r / δ` (Davis–Kahan's sin θ theorem for one
//!    vector: expand `y` in the eigenvectors). For the Ritz pair
//!    `(θ_c, y_c)`, the eigenvalues above lie at or over `θ_{c-1}` and those
//!    below at or under `θ_{c+1} + R`, so
//!    `δ_c = min(θ_{c-1} - θ_c, θ_c - θ_{c+1} - R)` (`θ_{-1} = ∞`). Once
//!    `r < δ_c`, the eigenvalue within `r` of `θ_c` can only be `λ_c`, so
//!    `λ_c` is simple, at least `δ_c - r` from every other eigenvalue.
//!
//! # What the dense route computes
//!
//! [`Pca`](crate::Pca) keeps the smallest `k` with `acc_k + s >= e T̂`,
//! where `acc_k` sums the first `k` computed eigenvalues clamped at zero,
//! `T̂` all of them, `e` the energy and `s = 1e-12 min(T̂, 1)`; the count is
//! `n` if no `k` qualifies. Component `c`'s pick is the lowest untaken
//! index whose `|v̂_l|` reaches `(1 - τ)` times the largest untaken one, with
//! `v̂` the computed unit eigenvector and `τ = 1e-9`.
//!
//! # The round-off margin
//!
//! Let `ε` be `f64::EPSILON`, `u = ε / 2`, `K` the most entries in a row
//! plus one (for `d`), `N = n + K`, and `ρ = 16 N² ε t`. Every test below
//! allows for round-off in units of `ρ`.
//!
//! * *Step 1: the dense route's backward error.* The Householder reduction
//!   of `C` yields a tridiagonal exactly orthogonally similar to `C + E_1`
//!   with `||E_1||_F <= 2(n - 2) γ̃_n ||C||_F`: its `n - 2` reflectors are
//!   applied from both sides, and each costs `γ̃_n = c n u / (1 - c n u)`
//!   (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
//!   ch. 19, on sequences of Householder transformations). The QL
//!   recurrence, about two sweeps of plane rotations per eigenvalue, adds a
//!   backward error of `γ̃_{4n} ||C||_F`, since each row meets two rotations
//!   per sweep (the same chapter, on sequences of rotations). Inverse iteration
//!   accepts an iterate once it has grown past `(0.1 / n)^{1/2}` from a
//!   right-hand side of 1-norm `n ||T||_1 ε`, so the accepted vector's
//!   residual is at most `√10 n^{3/2} ε ||T||_1 <= 3 √10 n^{3/2} ε ||C||_2`;
//!   mapping it back through the reflectors adds `(n - 2) γ̃_n` to it. With
//!   `c <= 4` the four terms total `(6 n² + 8 n + 9.5 n^{3/2}) ε ||C||_F`,
//!   below `16 N² ε ||C||_F` because `N >= n + 1`. And `||C||_F <= t` for a
//!   positive semidefinite `C`. So the dense eigenvalues are exactly those
//!   of some `C + E` with `||E||_F <= ρ`, and each kept direction `v̂`
//!   leaves a residual `||C v̂ - x v̂|| <= ρ` for a shift `x` within `ρ` of
//!   its eigenvalue. The eigenvector solver also reorthogonalizes a
//!   direction against earlier ones whose eigenvalues lie within
//!   `1e-3 ||T||_1`; those are accurate to the same order, which at most
//!   doubles the direction's error below.
//! * *Step 2: this module's own arithmetic.* Each entry of `B^T v` sums at
//!   most `n` products and each entry of `B z` at most `K`, so a computed
//!   `C v` is within `γ_N (|B| |B|^T + D) |v|` of the exact one entry by
//!   entry, and within `γ_N t ||v||` in norm, since `|B| |B|^T + D` has
//!   trace `t`. Reorthogonalizing twice with the survival test keeps
//!   `Q_j` orthonormal to `O(j n u)`, so `T_j` is within `ρ` in the
//!   Frobenius norm of `U^T C U` for an exactly orthonormal `U`, and the
//!   computed `t`, `R` and residual norms are within `ρ` of the exact ones.
//! * *Step 3: the tests.* By Hoffman–Wielandt the sorted eigenvalue errors
//!   of `C + E` have `sum (λ̂_i - λ_i)² <= ||E||_F²`, and clamping at zero
//!   only moves a `λ̂_i` towards `λ_i >= 0`. So `acc_k` is within
//!   `√k ρ + γ_n t` of `S_k` and `T̂` within `√n ρ + γ_n t` of `t`, while
//!   this module's `sum_{i<k} θ_i`, `R` and `t` are off by at most
//!   `(√k + √j + 1) ρ` together. Every error adds to at most
//!   `M = 6 √n ρ`. Hence:
//!   - `n_pcs <= k` is proven by `sum_{i<k} θ_i - e t > M`;
//!   - `n_pcs > k` by `e t - (sum_{i<k} θ_i + R) > M + 2e-12 min(t, 1)`,
//!     which also absorbs the dense route's slack `s`;
//!   - a kept direction is certified by `r_c + ρ < δ_c - M`, where `r_c`
//!     is the computed residual of the normalized Ritz vector plus `ρ`.
//!     Then `sin ∠(y_c, u_c) <= r_c / δ` and the dense direction's
//!     `sin ∠(v̂_c, u_c) <= 2ρ / (δ - r_c - ρ)`, with `δ = δ_c - M`. For
//!     unit vectors at an angle `φ <= π/2`, `||y - u|| <= √2 sin φ`, so
//!     every `|y_l|` is within
//!     `f = √2 (r_c / δ + 2ρ / (δ - r_c - ρ)) + n ε` of the dense `|v̂_l|`
//!     (the last term covers both vectors' normalization).
//!   - With `m` the largest untaken `|y_l|`, the dense threshold lies in
//!     `[(1 - τ)(m - f)(1 - 2ε), (1 - τ)(m + f)(1 + 2ε)]`. An index whose
//!     `|y_l| + f` falls below that interval is surely passed over, one
//!     whose `|y_l| - f` reaches its top surely taken. The pick is
//!     certified when the first index not surely passed over is surely
//!     taken, or is the only one not surely passed over (the largest
//!     `|v̂_l|` always reaches the threshold).
//!
//! The constants are generous on purpose: no multi-member group of the
//! 88 configurations `examples/select_sweep` prints falls inside these
//! margins, and the smallest gap between the top two candidate loadings on
//! the paper circuits is `3.9e-4` relative. The tests that matter are
//! exact ties, such as an exchangeable group's
//! uniform top direction: there every tied `|y_l|` sits within round-off of
//! `m`, and the pick is certified while `f` stays below about
//! `τ m / 2`.
//!
//! # When it declines
//!
//! The routine declines on a zero trace; on a largest diagonal entry of
//! `C` outside `[2^-256, 2^256]`, where the dense route decomposes a copy
//! scaled by a power of two and products of this module's entries could
//! underflow or overflow; on an energy sum or a loading inside its
//! margin; and on a kept direction whose eigenvalue it cannot separate
//! from its neighbors before the Krylov space is exhausted. A converged
//! direction whose pick fails even at the widest gap the iteration could
//! still reach, `θ_c + R`, is declined at once instead of iterating on:
//! an exchangeable group of more than a few dozen paths ties its loadings
//! exactly, closer than the dense route's round-off allowance can
//! resolve.

use crate::eigen::{diagonalize, dot, tridiagonal_eigenvectors, Lcg};
use crate::pca::{ENERGY_SLACK, LOADING_TIE};

/// The operator `C = B B^T + diag(d)` of sparse rows `b_i` and extra
/// diagonal terms `d_i`, applied without forming `C`.
///
/// Its rows are stored compressed, with the columns some row touches
/// renumbered from 0, so one product costs two passes over the nonzeros.
#[derive(Debug)]
pub struct SparseGram {
    /// `starts[i]..starts[i + 1]` indexes row `i`'s entries.
    starts: Vec<usize>,
    /// Each entry's renumbered column and value, row by row.
    entries: Vec<(u32, f64)>,
    /// `d`, one per row.
    extra: Vec<f64>,
    /// Number of distinct columns.
    width: usize,
}

impl SparseGram {
    /// Builds the operator from rows given as `(entries, d_i)`, the entries
    /// as `(column, value)` pairs that name each column at most once, and
    /// `d_i >= 0` so that `C` is positive semidefinite.
    pub fn new<R, E>(rows: R) -> Self
    where
        R: IntoIterator<Item = (E, f64)>,
        E: IntoIterator<Item = (u32, f64)>,
    {
        let rows = rows.into_iter();
        let mut starts = Vec::with_capacity(rows.size_hint().0 + 1);
        let mut extra = Vec::with_capacity(rows.size_hint().0);
        let mut entries = Vec::new();
        starts.push(0);
        for (row, d) in rows {
            entries.extend(row);
            starts.push(entries.len());
            extra.push(d);
        }
        let mut distinct: Vec<u32> = entries.iter().map(|&(c, _)| c).collect();
        distinct.sort_unstable();
        distinct.dedup();
        for (c, _) in &mut entries {
            *c = distinct.binary_search(c).expect("listed above") as u32;
        }
        SparseGram { starts, entries, extra, width: distinct.len() }
    }

    /// Number of rows, the dimension of `C`.
    fn dim(&self) -> usize {
        self.extra.len()
    }

    /// Row `i`'s entries, with renumbered columns.
    fn row(&self, i: usize) -> &[(u32, f64)] {
        &self.entries[self.starts[i]..self.starts[i + 1]]
    }

    /// `out = C v`, with `z` (of length `width`) as scratch.
    fn apply(&self, v: &[f64], out: &mut [f64], z: &mut [f64]) {
        z.iter_mut().for_each(|x| *x = 0.0);
        for (i, &vi) in v.iter().enumerate() {
            for &(c, b) in self.row(i) {
                z[c as usize] += b * vi;
            }
        }
        for (i, o) in out.iter_mut().enumerate() {
            let bz: f64 = self.row(i).iter().map(|&(c, b)| b * z[c as usize]).sum();
            *o = bz + self.extra[i] * v[i];
        }
    }

    /// Procedure 1's picks on `C`: one index per kept principal component,
    /// in component order, exactly as [`Pca::from_covariance`](crate::Pca)
    /// at `energy` and [`Pca::dominant_variable`](crate::Pca::dominant_variable)
    /// over the indices picked before would choose them on the dense `C`.
    /// Their count is the kept count.
    ///
    /// Returns `None` when its certificates cannot prove that answer; the
    /// dense route then decides. The certificates hold once Ritz values
    /// bound the leading eigenvalues from below (interlacing), the trace
    /// the Lanczos basis has not reached bounds their sums from above, and
    /// each kept direction's residual over a proven eigengap bounds its
    /// loading error (Davis–Kahan), each test with a margin for the dense
    /// solver's round-off. `crates/linalg/src/lanczos.rs` derives those
    /// margins step by step. It declines on a zero trace, on a largest
    /// diagonal entry outside `[2^-256, 2^256]`, on a negative `d_i`, and
    /// on an energy sum or a loading inside its margin.
    pub fn dominant_variables(&self, energy: f64) -> Option<Vec<usize>> {
        let n = self.dim();
        let diagonal: Vec<f64> = (0..n)
            .map(|i| self.row(i).iter().map(|(_, b)| b * b).sum::<f64>() + self.extra[i])
            .collect();
        let trace: f64 = diagonal.iter().sum();
        let largest = diagonal.iter().copied().fold(0.0, f64::max);
        // A NaN or infinite entry makes the trace non-finite; a negative
        // `d` leaves `C` possibly indefinite, outside every certificate.
        let semidefinite = self.extra.iter().all(|&d| d >= 0.0);
        if !(trace.is_finite() && semidefinite && (WINDOW_LOW..=WINDOW_HIGH).contains(&largest)) {
            return None;
        }
        let row_entries = (0..n).map(|i| self.starts[i + 1] - self.starts[i]).max().unwrap_or(0);
        let big_n = (n + row_entries + 1) as f64;
        let rho = 16.0 * big_n * big_n * f64::EPSILON * trace;
        let margins = Margins {
            rho,
            sum: 6.0 * (n as f64).sqrt() * rho,
            slack: 2.0 * ENERGY_SLACK * trace.min(1.0),
            target: energy.clamp(0.0, 1.0) * trace,
            trace,
        };

        let mut basis: Vec<f64> = Vec::new();
        let (mut alpha, mut beta) = (Vec::new(), Vec::new());
        let mut q: Vec<f64> = {
            let mut lcg = Lcg::default();
            (0..n).map(|_| lcg.draw()).collect()
        };
        let length = dot(&q, &q).sqrt();
        q.iter_mut().for_each(|x| *x /= length);
        let (mut w, mut z, mut h) = (vec![0.0; n], vec![0.0; self.width], Vec::new());
        let mut next_check = 1;
        loop {
            let j = alpha.len();
            basis.extend_from_slice(&q);
            self.apply(&q, &mut w, &mut z);
            let a = dot(&q, &w);
            w.iter_mut().zip(&q).for_each(|(x, &qk)| *x -= a * qk);
            if j > 0 {
                let previous = &basis[(j - 1) * n..j * n];
                w.iter_mut().zip(previous).for_each(|(x, &qk)| *x -= beta[j - 1] * qk);
            }
            let first = reorthogonalize(&basis, &mut w, &mut h);
            let second = reorthogonalize(&basis, &mut w, &mut h);
            alpha.push(a);
            // The Krylov space is exhausted: no direction is left, or the
            // new one is mostly round-off that reorthogonalization cannot
            // make orthogonal.
            let exhausted = j + 1 == n || second == 0.0 || second < 0.5 * first;
            // Both energy bounds only tighten as the basis grows, so checking
            // after steps 1, 2, 3, 4, 5, 7, 9, 12, ... (each a quarter past
            // the last) finds a certificate at most a quarter of the steps
            // late, and keeps the checks' QL runs at O(n^2) in all.
            if exhausted || j + 1 == next_check {
                next_check = j + 1 + (j + 1).div_ceil(4);
                match self.certify(&basis, &alpha, &beta, &margins) {
                    Check::Certified(picks) => return Some(picks),
                    Check::Hopeless => return None,
                    Check::Undecided => {}
                }
            }
            if exhausted {
                return None;
            }
            beta.push(second);
            q.iter_mut().zip(&w).for_each(|(x, &wk)| *x = wk / second);
        }
    }

    /// Checks the certificates on the Lanczos basis `basis` (`j` rows) and
    /// its tridiagonal `(alpha, beta)`.
    fn certify(&self, basis: &[f64], alpha: &[f64], beta: &[f64], margins: &Margins) -> Check {
        let (n, j) = (self.dim(), alpha.len());
        let mut off = beta.to_vec();
        off.push(0.0);
        let mut theta = alpha.to_vec();
        if diagonalize(&mut theta, &mut off.clone(), |_, _, _| {}).is_err() {
            return Check::Undecided;
        }
        theta.sort_by(|a, b| b.total_cmp(a));
        let rest = margins.trace - alpha.iter().sum::<f64>();
        let Some(kept) = margins.kept_count(&theta, rest, n) else {
            return Check::Undecided;
        };
        // Each kept Ritz value's separation `δ_c - M` from the eigenvalues
        // of the others; a residual is at least `ρ`, so each must exceed
        // `2ρ` before the Ritz vectors are worth forming.
        let theta_at = |i: usize| theta.get(i).copied().unwrap_or(0.0);
        let gaps: Vec<f64> = (0..kept)
            .map(|c| {
                let above = if c == 0 { f64::INFINITY } else { theta[c - 1] - theta[c] };
                above.min(theta[c] - theta_at(c + 1) - rest) - margins.sum
            })
            .collect();
        if gaps.iter().any(|&gap| gap <= 2.0 * margins.rho) {
            return Check::Undecided;
        }

        let Ok(ritz) = tridiagonal_eigenvectors(alpha, &off, &theta[..kept]) else {
            return Check::Undecided;
        };
        let error_at = |residual: f64, gap: f64| {
            std::f64::consts::SQRT_2
                * (residual / gap + 2.0 * margins.rho / (gap - residual - margins.rho))
                + n as f64 * f64::EPSILON
        };
        let (mut y, mut cy, mut z) = (vec![0.0; n], vec![0.0; n], vec![0.0; self.width]);
        let mut picks = Vec::with_capacity(kept);
        for ((c, s), &gap) in ritz.chunks_exact(j).enumerate().zip(&gaps) {
            // The normalized Ritz vector y = Q s and its residual.
            y.iter_mut().for_each(|x| *x = 0.0);
            for (&sk, qk) in s.iter().zip(basis.chunks_exact(n)) {
                y.iter_mut().zip(qk).for_each(|(x, &q)| *x += sk * q);
            }
            let length = dot(&y, &y).sqrt();
            y.iter_mut().for_each(|x| *x /= length);
            self.apply(&y, &mut cy, &mut z);
            cy.iter_mut().zip(&y).for_each(|(x, &yk)| *x -= theta[c] * yk);
            let residual = dot(&cy, &cy).sqrt() + margins.rho;
            let separated = residual + margins.rho < gap;
            if !separated {
                return Check::Undecided;
            }
            match certified_pick(&y, &picks, error_at(residual, gap)) {
                Some(pick) => picks.push(pick),
                // Once the direction has converged, more steps can only
                // widen its gap, and no gap exceeds `θ_c + R`: a pick that
                // fails there fails for good, as an exact tie in a large
                // exchangeable group does against the dense round-off.
                None if residual <= 2.0 * margins.rho
                    && certified_pick(&y, &picks, error_at(margins.rho, theta[c] + rest))
                        .is_none() =>
                {
                    return Check::Hopeless
                }
                None => return Check::Undecided,
            }
        }
        Check::Certified(picks)
    }
}

/// What one check of the certificates concludes.
#[derive(Debug)]
enum Check {
    /// Every certificate holds, with these picks.
    Certified(Vec<usize>),
    /// A certificate may still come to hold after more steps.
    Undecided,
    /// A kept direction has converged, yet its pick cannot be certified at
    /// any gap the iteration can still reach.
    Hopeless,
}

/// Smallest and largest diagonal entry, over the whole of `C`, the dense
/// eigensolver decomposes unscaled: `[2^-256, 2^256]`.
const WINDOW_LOW: f64 = f64::from_bits((1023 - 256) << 52);
const WINDOW_HIGH: f64 = f64::from_bits((1023 + 256) << 52);

/// The energy tests' quantities (see the module docs).
#[derive(Debug)]
struct Margins {
    /// The round-off unit `ρ = 16 N² ε t`.
    rho: f64,
    /// `M = 6 √n ρ`, the allowance on any eigenvalue sum.
    sum: f64,
    /// Twice the dense route's energy slack `1e-12 min(t, 1)`.
    slack: f64,
    /// `e t`.
    target: f64,
    /// `t`.
    trace: f64,
}

impl Margins {
    /// The kept count, if the Ritz values `theta` (descending) and the
    /// unreached trace `rest` prove it: the smallest `k` that surely
    /// reaches the target, where `k - 1` surely falls short.
    fn kept_count(&self, theta: &[f64], rest: f64, n: usize) -> Option<usize> {
        let mut sum = 0.0;
        for k in 1..=n {
            let short = k == 1 || self.target - (sum + rest) > self.sum + self.slack;
            sum += theta.get(k - 1).copied().unwrap_or(0.0);
            let reaches = sum - self.target > self.sum;
            if reaches || k == n {
                return short.then_some(k);
            }
            if !short {
                return None;
            }
        }
        None
    }
}

/// Projects `w` off the rows of `basis` (classical Gram–Schmidt, with `h`
/// as scratch for the projections) and returns its norm afterwards.
fn reorthogonalize(basis: &[f64], w: &mut [f64], h: &mut Vec<f64>) -> f64 {
    let n = w.len();
    h.clear();
    h.extend(basis.chunks_exact(n).map(|q| dot(q, w)));
    for (&hk, q) in h.iter().zip(basis.chunks_exact(n)) {
        w.iter_mut().zip(q).for_each(|(x, &qk)| *x -= hk * qk);
    }
    dot(w, w).sqrt()
}

/// The dense route's pick on a direction within `error` of `y` entry by
/// entry, skipping `taken`, if the tie rule surely picks the same index
/// (see the module docs).
fn certified_pick(y: &[f64], taken: &[usize], error: f64) -> Option<usize> {
    let untaken =
        || y.iter().enumerate().filter(|(l, _)| !taken.contains(l)).map(|(l, v)| (l, v.abs()));
    let m = untaken().map(|(_, a)| a).reduce(f64::max)?;
    let low = (1.0 - LOADING_TIE) * (m - error) * (1.0 - 2.0 * f64::EPSILON);
    let high = (1.0 - LOADING_TIE) * (m + error) * (1.0 + 2.0 * f64::EPSILON);
    let mut candidates = untaken().filter(|&(_, a)| a + error >= low);
    let (l, a) = candidates.next()?;
    (a - error >= high || candidates.next().is_none()).then_some(l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Matrix, Pca};
    use proptest::prelude::*;

    /// Sparse rows `b_i` with their extra diagonal terms `d_i`.
    #[derive(Debug, Clone)]
    struct Rows {
        rows: Vec<Vec<(u32, f64)>>,
        extra: Vec<f64>,
    }

    impl Rows {
        fn new(rows: Vec<Vec<(u32, f64)>>) -> Self {
            let extra = vec![0.0; rows.len()];
            Rows { rows, extra }
        }

        fn gram(&self) -> SparseGram {
            SparseGram::new(self.rows.iter().zip(&self.extra).map(|(r, &d)| (r.iter().copied(), d)))
        }

        /// The dense `B B^T + diag(d)`.
        fn dense(&self) -> Matrix {
            let width = self.rows.iter().flatten().map(|&(c, _)| c as usize + 1).max().unwrap_or(1);
            let mut b = Matrix::zeros(self.rows.len(), width);
            for (i, row) in self.rows.iter().enumerate() {
                for &(c, v) in row {
                    b[(i, c as usize)] = v;
                }
            }
            let mut c = b.gram();
            for (i, &d) in self.extra.iter().enumerate() {
                c[(i, i)] += d;
            }
            c
        }

        fn scaled(&self, factor: f64) -> Self {
            let rows = self.rows.iter().map(|r| r.iter().map(|&(c, v)| (c, v * factor)).collect());
            let extra = self.extra.iter().map(|d| d * factor * factor).collect();
            Rows { rows: rows.collect(), extra }
        }
    }

    /// Procedure 1's picks by the dense route: `Pca` on the dense `C`, then
    /// one dominant variable per kept component.
    fn dense_picks(c: &Matrix, energy: f64) -> Vec<usize> {
        let pca = Pca::from_covariance(c, energy).unwrap();
        let mut picks = Vec::new();
        for k in 0..pca.components().len() {
            picks.extend(pca.dominant_variable(k, &picks));
        }
        picks
    }

    /// The certified picks, checked against the dense route: they must be
    /// the dense picks whenever they are returned.
    fn agree_or_decline(rows: &Rows, energy: f64) -> Option<Vec<usize>> {
        let certified = rows.gram().dominant_variables(energy);
        if let Some(picks) = &certified {
            let n = rows.rows.len();
            assert_eq!(picks, &dense_picks(&rows.dense(), energy), "energy {energy}, {n} rows");
        }
        certified
    }

    /// A fixed 64-bit LCG mapped to `[0, 1)`.
    struct Uniform(u64);

    impl Uniform {
        fn next(&mut self) -> f64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (self.0 >> 11) as f64 / (1_u64 << 53) as f64
        }
    }

    /// A group shaped like Procedure 1's: every row loads `shared` common
    /// factors with weights near a per-row scale, plus private gate
    /// columns, a few of them shared with a neighbor.
    fn group_like(n: usize, shared: usize, rng: &mut Uniform) -> Rows {
        let rows = (0..n)
            .map(|i| {
                let scale = 1.0 + rng.next();
                let mut row: Vec<(u32, f64)> =
                    (0..shared).map(|k| (k as u32, scale * (0.5 + rng.next()))).collect();
                for g in 0..8 {
                    let column = shared + (i * 6 + g) % (6 * n + 2);
                    row.push((column as u32, 0.3 * rng.next()));
                }
                row.sort_unstable_by_key(|&(c, _)| c);
                row.dedup_by_key(|e| e.0);
                row
            })
            .collect();
        Rows::new(rows)
    }

    #[test]
    fn group_like_rows_are_certified_and_agree() {
        // Certification must actually happen: a route that always declined
        // would agree with the dense one vacuously.
        let mut rng = Uniform(7);
        let mut declined = Vec::new();
        for case in 0..200 {
            let n = 2 + case % 40;
            let rows = group_like(n, 1 + case % 6, &mut rng);
            for energy in [0.5, 0.95] {
                if agree_or_decline(&rows, energy).is_none() {
                    declined.push((case, n, energy));
                }
            }
        }
        assert!(declined.is_empty(), "declined {declined:?}");
    }

    #[test]
    fn exchangeable_groups_pick_the_lowest_tied_index() {
        // `C = 0.98 J + 0.02 I`: the top direction is uniform, so every
        // loading ties and the tie rule picks index 0 on either route. The
        // pick is certified while the dense route's round-off allowance
        // stays below the tie window.
        for n in [2_usize, 5, 16, 89] {
            let rows = Rows::new(
                (0..n)
                    .map(|i| vec![(0, 0.98_f64.sqrt()), (1 + i as u32, 0.02_f64.sqrt())])
                    .collect(),
            );
            let certified = agree_or_decline(&rows, 0.95);
            assert_eq!(dense_picks(&rows.dense(), 0.95), vec![0], "n = {n}");
            if n <= 16 {
                assert_eq!(certified, Some(vec![0]), "n = {n}");
            }
        }
    }

    #[test]
    fn rank_deficient_rows_are_certified_when_the_krylov_space_runs_out() {
        // Twelve rows over three columns: `C` has rank 3, so the iteration
        // exhausts its Krylov space after three steps.
        let mut rng = Uniform(3);
        for energy in [0.5, 0.9, 0.999] {
            let rows = Rows::new(
                (0..12)
                    .map(|_| (0..3).map(|c| (c, 0.1 + rng.next() * (1 + c) as f64)).collect())
                    .collect(),
            );
            assert!(agree_or_decline(&rows, energy).is_some(), "energy {energy}");
        }
    }

    /// Rows whose `C` is `diag(spectrum)`.
    fn diagonal(spectrum: &[f64]) -> Rows {
        Rows::new(spectrum.iter().enumerate().map(|(i, l)| vec![(i as u32, l.sqrt())]).collect())
    }

    #[test]
    fn energy_targets_inside_the_margin_are_declined() {
        // The first eigenvalue carries 0.8 of the trace, give or take
        // `offset`. Within the margin the route must decline, whichever way
        // the dense route's round-off and its `1e-12` slack break the tie;
        // well outside it, it must decide. With two rows the round-off
        // allowance is below the slack, so the slack decides there.
        let energy = 0.8;
        for (offset, decided) in [
            (0.0, false),
            (1e-15, false),
            (-1e-15, false),
            (-0.5e-12, false),
            (-1.5e-12, false),
            (-1e-6, true),
            (1e-6, true),
        ] {
            let top = energy + offset;
            for spectrum in [vec![top, 1.0 - top], vec![top, 0.12, 0.05, 1.0 - top - 0.17]] {
                let certified = agree_or_decline(&diagonal(&spectrum), energy);
                assert_eq!(certified.is_some(), decided, "{spectrum:?}: {certified:?}");
            }
        }
    }

    #[test]
    fn rotated_energy_boundaries_agree_or_decline() {
        // `C = Q diag(λ) Q^T` with the first eigenvalue exactly on the
        // energy target of a trace near 1e6, where round-off in either
        // route dwarfs the dense route's absolute `1e-12` slack: which
        // count the dense route keeps is up to its round-off, so the
        // certified route has to decline.
        let mut rng = Uniform(5);
        let n = 12;
        let mut certified = Vec::new();
        for _ in 0..24 {
            let mut spectrum: Vec<f64> = (1..n).map(|_| rng.next()).collect();
            let rest: f64 = spectrum.iter().sum();
            spectrum.iter_mut().for_each(|l| *l *= 2e5 / rest);
            spectrum.insert(0, 8e5);
            // An orthogonal Q from Gram–Schmidt on a random matrix.
            let mut q: Vec<Vec<f64>> = Vec::new();
            while q.len() < n {
                let mut v: Vec<f64> = (0..n).map(|_| rng.next() - 0.5).collect();
                for u in &q {
                    let p = dot(&v, u);
                    v.iter_mut().zip(u).for_each(|(x, &uk)| *x -= p * uk);
                }
                let length = dot(&v, &v).sqrt();
                q.push(v.iter().map(|x| x / length).collect());
            }
            let rows = Rows::new(
                (0..n)
                    .map(|i| (0..n).map(|k| (k as u32, q[k][i] * spectrum[k].sqrt())).collect())
                    .collect(),
            );
            certified.extend(agree_or_decline(&rows, 0.8));
        }
        assert_eq!(certified, Vec::<Vec<usize>>::new());
    }

    #[test]
    fn zero_tiny_and_huge_operators_are_declined() {
        assert_eq!(Rows::new(vec![vec![], vec![]]).gram().dominant_variables(0.95), None);
        assert_eq!(
            Rows::new(vec![vec![(0, 0.0)], vec![(3, 0.0)]]).gram().dominant_variables(0.95),
            None
        );
        assert_eq!(Rows::new(Vec::new()).gram().dominant_variables(0.95), None);
        let rows = group_like(9, 2, &mut Uniform(11));
        let reference = agree_or_decline(&rows, 0.95).expect("certified at unit scale");
        // Squares of entries near 1e-200 underflow and near 1e250 overflow:
        // outside the eigensolver's window the route declines.
        for factor in [1e-200, 1e250] {
            assert_eq!(agree_or_decline(&rows.scaled(factor), 0.95), None, "x{factor:e}");
        }
        // Inside it, a power-of-two scale changes no pick.
        for factor in [2_f64.powi(-120), 2_f64.powi(120)] {
            assert_eq!(agree_or_decline(&rows.scaled(factor), 0.95), Some(reference.clone()));
        }
        // A negative extra term leaves `C` possibly indefinite.
        let mut indefinite = rows.clone();
        indefinite.extra[0] = -1e-3;
        assert_eq!(indefinite.gram().dominant_variables(0.95), None);
    }

    /// Strategy: up to 16 sparse rows over up to 24 columns, entries in
    /// `[-2, 2)` with about a third present, optional extra terms, and an
    /// energy.
    fn sparse_rows() -> impl Strategy<Value = (Rows, f64)> {
        (1..=16_usize, 1..=24_usize, 0_usize..4).prop_flat_map(|(n, width, energy)| {
            (
                proptest::collection::vec((0.0_f64..1.0, -2.0_f64..2.0), n * width),
                proptest::collection::vec(0.0_f64..0.5, n),
                proptest::bool::ANY,
            )
                .prop_map(move |(entries, extra, with_extra)| {
                    let rows = entries
                        .chunks_exact(width)
                        .map(|row| {
                            let present = row.iter().enumerate().filter(|(_, e)| e.0 < 0.35);
                            present.map(|(c, e)| (c as u32, e.1)).collect()
                        })
                        .collect();
                    let extra = if with_extra { extra } else { vec![0.0; n] };
                    (Rows { rows, extra }, [0.5, 0.8, 0.95, 0.999][energy])
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn random_sparse_rows_agree_with_the_dense_route_or_decline((rows, energy) in sparse_rows()) {
            let certified = rows.gram().dominant_variables(energy);
            if let Some(picks) = certified {
                prop_assert_eq!(picks, dense_picks(&rows.dense(), energy));
            }
        }
    }
}
