use crate::{CholeskyDecomposition, LinalgError, Matrix, Result};

/// A multivariate Gaussian distribution `N(mu, Sigma)` held as a dense
/// mean vector and covariance matrix.
///
/// This is the statistical core of the paper's delay prediction (§3.1,
/// eqs. 4–5): once the delays of the *tested* paths are measured, the delay
/// of every untested path is re-estimated by conditioning the joint Gaussian
/// on the measurements:
///
/// ```text
/// mu'_k     = mu_k + Sigma_kt Sigma_t^-1 (d_t - mu_t)        (4)
/// sigma'^2_k = sigma^2_k - Sigma_kt Sigma_t^-1 Sigma_tk      (5)
/// ```
///
/// [`conditioner`](Self::conditioner) precomputes everything eq. 4 and
/// eq. 5 need for one observed-index set; the conditional means then come
/// per observation vector from
/// [`GaussianConditioner::condition_mean`].
///
/// # Example
///
/// ```
/// use effitest_linalg::{Matrix, MultivariateGaussian};
///
/// # fn main() -> Result<(), effitest_linalg::LinalgError> {
/// let mean = vec![10.0, 20.0];
/// let cov = Matrix::from_rows(&[&[1.0, 0.8], &[0.8, 1.0]])?;
/// let g = MultivariateGaussian::new(mean, cov)?;
/// // Observe variable 1 at 21.0 (one sigma high); variable 0 shifts by 0.8.
/// let cond = g.conditioner(&[1])?;
/// assert!((cond.condition_mean(&[21.0])?[0] - 10.8).abs() < 1e-9);
/// // ... and its variance shrinks from 1.0 to 1 - 0.8^2 = 0.36.
/// assert!((cond.conditional_sigmas()[0] - 0.6).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultivariateGaussian {
    mean: Vec<f64>,
    covariance: Matrix,
}

impl MultivariateGaussian {
    /// Creates a Gaussian from a mean vector and covariance matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] if the dimensions disagree.
    /// * [`LinalgError::NotSymmetric`] if the covariance is visibly
    ///   asymmetric.
    pub fn new(mean: Vec<f64>, covariance: Matrix) -> Result<Self> {
        if covariance.rows() != mean.len() || !covariance.is_square() {
            return Err(LinalgError::ShapeMismatch {
                op: "gaussian_new",
                lhs: (mean.len(), 1),
                rhs: covariance.shape(),
            });
        }
        let tol = 1e-8 * covariance.max_abs().max(1.0);
        let asym = covariance.max_asymmetry()?;
        if asym > tol {
            return Err(LinalgError::NotSymmetric { max_asymmetry: asym });
        }
        Ok(MultivariateGaussian { mean, covariance })
    }

    /// Dimension of the distribution.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Mean vector.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Covariance matrix.
    pub fn covariance(&self) -> &Matrix {
        &self.covariance
    }

    /// The conditioner of this Gaussian on observing `observed_idx`:
    /// [`GaussianConditioner::new`] reading this distribution's dense mean
    /// and covariance.
    ///
    /// # Errors
    ///
    /// Same as [`GaussianConditioner::new`].
    pub fn conditioner(&self, observed_idx: &[usize]) -> Result<GaussianConditioner> {
        GaussianConditioner::new(
            self.dim(),
            observed_idx,
            |i| self.mean[i],
            |i, j| self.covariance[(i, j)],
        )
    }
}

/// The reusable, value-independent half of a Gaussian conditioning: built
/// once per (distribution, observed-index set) by
/// [`new`](Self::new), applied per observation vector by
/// [`condition_mean_into`](Self::condition_mean_into).
///
/// Holds the Cholesky factor of the observed block `Sigma_oo` (the
/// conditioning gain `K = Sigma_uo Sigma_oo^-1` in factored form), the
/// cross-covariance `Sigma_uo`, and the conditional sigmas, which do not
/// depend on the observed values (paper eq. 5). It keeps no conditional
/// covariance: eq. 5 reads only its diagonal, and
/// [`new`](Self::new) computes that diagonal entry by entry.
///
/// # Example
///
/// ```
/// use effitest_linalg::{GaussianConditioner, Matrix, MultivariateGaussian};
///
/// # fn main() -> Result<(), effitest_linalg::LinalgError> {
/// let cov = Matrix::from_rows(&[&[1.0, 0.8], &[0.8, 1.0]])?;
/// let g = MultivariateGaussian::new(vec![10.0, 20.0], cov.clone())?;
/// let conditioner = g.conditioner(&[1])?;
/// // Reading the same entries through closures builds the same conditioner:
/// let direct = GaussianConditioner::new(2, &[1], |i| [10.0, 20.0][i], |i, j| cov[(i, j)])?;
/// let mean = conditioner.condition_mean(&[21.0])?;
/// assert_eq!(mean, direct.condition_mean(&[21.0])?);
/// assert!((mean[0] - 10.8).abs() < 1e-12);
/// assert!((conditioner.conditional_sigmas()[0] - 0.6).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GaussianConditioner {
    /// Observed variable indices, in the order observation vectors use.
    observed: Vec<usize>,
    /// Unobserved variable indices, ascending.
    remaining: Vec<usize>,
    /// Prior means of the observed variables.
    mean_obs: Vec<f64>,
    /// Prior means of the unobserved variables.
    mean_rem: Vec<f64>,
    /// Factored observed-block covariance `Sigma_oo` (regularized).
    chol: CholeskyDecomposition,
    /// Cross covariance `Sigma_uo` (remaining x observed).
    cross: Matrix,
    /// `Sigma_ou` — the transpose of `cross`, precomputed so the
    /// chip-major batch form can run its GEMM with both operands streamed
    /// row-major (see
    /// [`condition_mean_batch_chipmajor_into`](Self::condition_mean_batch_chipmajor_into)).
    cross_t: Matrix,
    /// Conditional standard deviations of the unobserved variables.
    cond_sigmas: Vec<f64>,
}

/// The serializable state of a [`GaussianConditioner`]: exactly the fields
/// a persistent plan store must carry. `cross_t` is deliberately absent —
/// it is `cross.transpose()`, recomputed by
/// [`GaussianConditioner::from_parts`], so carrying it would only bloat the
/// blob and add corruption surface.
#[derive(Debug, Clone)]
pub struct ConditionerParts {
    /// Observed variable indices, in observation-vector order.
    pub observed: Vec<usize>,
    /// Unobserved variable indices, ascending.
    pub remaining: Vec<usize>,
    /// Prior means of the observed variables.
    pub mean_obs: Vec<f64>,
    /// Prior means of the unobserved variables.
    pub mean_rem: Vec<f64>,
    /// Lower-triangular Cholesky factor of the observed block.
    pub chol_factor: Matrix,
    /// Diagonal jitter the observed-block factorization needed.
    pub chol_jitter: f64,
    /// Cross covariance `Sigma_uo` (remaining x observed).
    pub cross: Matrix,
    /// Conditional standard deviations, one per unobserved variable.
    pub cond_sigmas: Vec<f64>,
}

impl GaussianConditioner {
    /// Builds the conditioner of a `dim`-variable Gaussian on observing
    /// `observed`, reading the prior through two accessors: `mean(i)` and
    /// `covariance(i, j)` for variable indices below `dim`.
    ///
    /// Only the entries conditioning needs are read: the observed block
    /// `Sigma_oo`, the cross block `Sigma_uo` and the unobserved variances
    /// `Sigma_uu[i][i]`. Each conditional variance is
    /// `Sigma_ii - sum_k cross_ik * solve(cross_i)_k`, summed in ascending
    /// `k` from `+0.0`, skipping zero `cross_ik`, then clamped at zero
    /// before its square root is taken. That is the diagonal of
    /// `Sigma_uu - Sigma_uo Sigma_oo^-1 Sigma_ou` as [`Matrix::matmul`] and
    /// [`CholeskyDecomposition::solve_matrix`] compute it, bit for bit, so
    /// two accessors that return the same bits for every entry — a dense
    /// matrix, or a covariance computed on demand — build identical
    /// conditioners.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] if `observed` is empty (there is nothing
    ///   to condition on; the prior stands).
    /// * [`LinalgError::IndexOutOfBounds`] for an index at or past `dim`.
    /// * Factorization errors if the observed covariance block is not
    ///   positive (semi-)definite even after regularization — the caller's
    ///   cue to fall back to the prior.
    pub fn new(
        dim: usize,
        observed: &[usize],
        mean: impl Fn(usize) -> f64,
        covariance: impl Fn(usize, usize) -> f64,
    ) -> Result<Self> {
        if observed.is_empty() {
            return Err(LinalgError::Empty);
        }
        if let Some(&i) = observed.iter().find(|&&i| i >= dim) {
            return Err(LinalgError::IndexOutOfBounds { index: i, bound: dim });
        }
        // Partition: u = remaining (unknown), o = observed (tested).
        let remaining: Vec<usize> = (0..dim).filter(|i| !observed.contains(i)).collect();
        let (n_obs, n_rem) = (observed.len(), remaining.len());
        let sigma_oo = Matrix::from_fn(n_obs, n_obs, |a, b| covariance(observed[a], observed[b]));
        let cross = Matrix::from_fn(n_rem, n_obs, |u, o| covariance(remaining[u], observed[o]));
        let chol = CholeskyDecomposition::new_regularized(&sigma_oo)?;

        // Eq. 5, one unobserved variable at a time; see the doc comment
        // for why this matches the dense diagonal bit for bit.
        let mut solved = vec![0.0; n_obs];
        let mut cond_sigmas = Vec::with_capacity(n_rem);
        for (u, &i) in remaining.iter().enumerate() {
            let row = cross.row(u);
            solved.copy_from_slice(row);
            chol.solve_vec_in_place(&mut solved)?;
            let mut reduction = 0.0;
            for (&c, &s) in row.iter().zip(&solved) {
                if c != 0.0 {
                    reduction += c * s;
                }
            }
            let mut variance = covariance(i, i) - reduction;
            // Round-off can push tiny variances negative.
            if variance < 0.0 {
                variance = 0.0;
            }
            cond_sigmas.push(variance.max(0.0).sqrt());
        }
        Ok(GaussianConditioner {
            observed: observed.to_vec(),
            mean_obs: observed.iter().map(|&i| mean(i)).collect(),
            mean_rem: remaining.iter().map(|&i| mean(i)).collect(),
            remaining,
            chol,
            cross_t: cross.transpose(),
            cross,
            cond_sigmas,
        })
    }

    /// Observed variable indices, in observation-vector order.
    pub fn observed_indices(&self) -> &[usize] {
        &self.observed
    }

    /// Extracts the serializable state (see [`ConditionerParts`]).
    pub fn to_parts(&self) -> ConditionerParts {
        ConditionerParts {
            observed: self.observed.clone(),
            remaining: self.remaining.clone(),
            mean_obs: self.mean_obs.clone(),
            mean_rem: self.mean_rem.clone(),
            chol_factor: self.chol.l().clone(),
            chol_jitter: self.chol.jitter(),
            cross: self.cross.clone(),
            cond_sigmas: self.cond_sigmas.clone(),
        }
    }

    /// Reassembles a conditioner from serialized parts.
    ///
    /// `cross_t` is rebuilt as `cross.transpose()` — byte for byte the
    /// expression the original construction used — so a reassembled
    /// conditioner produces bitwise-identical conditional means and
    /// sigmas.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] if the part dimensions are mutually
    /// inconsistent, and the factor errors of
    /// [`CholeskyDecomposition::from_factor`] for an invalid factor.
    pub fn from_parts(parts: ConditionerParts) -> Result<Self> {
        let n_obs = parts.observed.len();
        let n_rem = parts.remaining.len();
        if parts.mean_obs.len() != n_obs
            || parts.mean_rem.len() != n_rem
            || parts.chol_factor.shape() != (n_obs, n_obs)
            || parts.cross.shape() != (n_rem, n_obs)
            || parts.cond_sigmas.len() != n_rem
        {
            return Err(LinalgError::ShapeMismatch {
                op: "conditioner_from_parts",
                lhs: (n_rem, n_obs),
                rhs: parts.cross.shape(),
            });
        }
        let chol = CholeskyDecomposition::from_factor(parts.chol_factor, parts.chol_jitter)?;
        let cross_t = parts.cross.transpose();
        Ok(GaussianConditioner {
            observed: parts.observed,
            remaining: parts.remaining,
            mean_obs: parts.mean_obs,
            mean_rem: parts.mean_rem,
            chol,
            cross: parts.cross,
            cross_t,
            cond_sigmas: parts.cond_sigmas,
        })
    }

    /// Unobserved variable indices (ascending): the variable order of
    /// conditional means and sigmas.
    pub fn remaining_indices(&self) -> &[usize] {
        &self.remaining
    }

    /// Conditional standard deviations of the unobserved variables (paper
    /// eq. 5) — value-independent, so precomputed once.
    pub fn conditional_sigmas(&self) -> &[f64] {
        &self.cond_sigmas
    }

    /// Diagonal jitter the observed-block factorization needed (0 for a
    /// well-conditioned block; positive for rank-deficient ones).
    pub fn jitter(&self) -> f64 {
        self.chol.jitter()
    }

    /// Conditional means of the unobserved variables given
    /// `observed_values` (paper eq. 4):
    /// `mu'_u = mu_u + Sigma_uo Sigma_oo^-1 (d_o - mu_o)`.
    ///
    /// `solve_scratch` carries the innovation through the triangular
    /// solves and `mean_out` receives the means; both are cleared and
    /// refilled, so a caller looping over many observation vectors
    /// allocates nothing after the first call.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `observed_values` does not
    /// match the observed-index count.
    pub fn condition_mean_into(
        &self,
        observed_values: &[f64],
        solve_scratch: &mut Vec<f64>,
        mean_out: &mut Vec<f64>,
    ) -> Result<()> {
        if observed_values.len() != self.observed.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "gaussian_condition",
                lhs: (self.observed.len(), 1),
                rhs: (observed_values.len(), 1),
            });
        }
        // innovation = d_o - mu_o
        solve_scratch.clear();
        solve_scratch.extend(observed_values.iter().zip(&self.mean_obs).map(|(&v, &m)| v - m));
        // w = Sigma_oo^{-1} (d_o - mu_o); mu' = mu_u + Sigma_uo w.
        self.chol.solve_vec_in_place(solve_scratch)?;
        self.cross.matvec_into(solve_scratch, mean_out)?;
        for (shift, &mu) in mean_out.iter_mut().zip(&self.mean_rem) {
            *shift += mu;
        }
        Ok(())
    }

    /// Conditional means for a whole batch of observation vectors at once
    /// (paper eq. 4 applied to every chip of a population in one pass), in
    /// **chip-major** layout.
    ///
    /// `observed_values` holds a row-major `observed x n_chips` matrix —
    /// row `r` carries observation `r` of every chip — and is consumed as
    /// scratch (overwritten with the triangular-solve intermediates).
    /// `mean_out` is cleared and refilled with the row-major
    /// `n_chips x remaining` conditional means, so one chip's means are
    /// contiguous; `wt_scratch` carries the transposed solve block.
    ///
    /// Runs `M'^T = mu_u^T + W^T Sigma_ou` with
    /// `W = Sigma_oo^-1 (D_o - mu_o)`: the multi-column triangular solve
    /// ([`CholeskyDecomposition::solve_columns_in_place`]) works on the
    /// observed-major block, the small `W` is transposed, and the blocked
    /// GEMM ([`crate::kernels::gemm_into`]) streams both operands row-major.
    /// Row `c` of the result is **bitwise identical** to
    /// [`condition_mean_into`](Self::condition_mean_into) on chip `c`'s
    /// observation vector: the innovation and the column solve match the
    /// vector solve element for element, each GEMM output pairs the same
    /// operands as the matvec (IEEE multiplication commutes bitwise) and
    /// accumulates over the same ascending observation order from `0.0`,
    /// and the prior mean is added last.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `observed_values.len()`
    /// is not `observed x n_chips`.
    pub fn condition_mean_batch_chipmajor_into(
        &self,
        observed_values: &mut [f64],
        n_chips: usize,
        wt_scratch: &mut Vec<f64>,
        mean_out: &mut Vec<f64>,
    ) -> Result<()> {
        let n_obs = self.observed.len();
        if observed_values.len() != n_obs * n_chips {
            return Err(LinalgError::ShapeMismatch {
                op: "gaussian_condition_batch",
                lhs: (n_obs, n_chips),
                rhs: (observed_values.len(), 1),
            });
        }
        mean_out.clear();
        if n_chips == 0 {
            return Ok(());
        }
        // innovation rows = d_o - mu_o, one prior mean per observed row.
        for (row, &m) in observed_values.chunks_exact_mut(n_chips).zip(&self.mean_obs) {
            for v in row.iter_mut() {
                *v -= m;
            }
        }
        self.chol.solve_columns_in_place(observed_values, n_chips)?;
        // W^T (`n_chips x n_obs`): a small transpose so the GEMM below
        // reads it row-major.
        wt_scratch.clear();
        wt_scratch.resize(n_chips * n_obs, 0.0);
        for o in 0..n_obs {
            for c in 0..n_chips {
                wt_scratch[c * n_obs + o] = observed_values[o * n_chips + c];
            }
        }
        let n_rem = self.remaining.len();
        mean_out.resize(n_chips * n_rem, 0.0);
        crate::kernels::gemm_into(
            n_chips,
            n_obs,
            n_rem,
            wt_scratch,
            self.cross_t.as_slice(),
            mean_out,
        );
        for row in mean_out.chunks_exact_mut(n_rem) {
            for (shift, &mu) in row.iter_mut().zip(&self.mean_rem) {
                *shift += mu;
            }
        }
        Ok(())
    }

    /// Allocating convenience form of
    /// [`condition_mean_into`](Self::condition_mean_into).
    ///
    /// # Errors
    ///
    /// Same as [`condition_mean_into`](Self::condition_mean_into).
    pub fn condition_mean(&self, observed_values: &[f64]) -> Result<Vec<f64>> {
        let mut scratch = Vec::with_capacity(self.observed.len());
        let mut mean = Vec::with_capacity(self.remaining.len());
        self.condition_mean_into(observed_values, &mut scratch, &mut mean)?;
        Ok(mean)
    }
}

#[cfg(test)]
#[path = "../tests/support/dense_gaussian.rs"]
mod dense;

#[cfg(test)]
mod tests {
    use super::dense;
    use super::*;

    fn three_var() -> MultivariateGaussian {
        // Correlated triple with known structure.
        let cov =
            Matrix::from_rows(&[&[4.0, 1.8, 0.4], &[1.8, 1.0, 0.3], &[0.4, 0.3, 2.0]]).unwrap();
        MultivariateGaussian::new(vec![1.0, 2.0, 3.0], cov).unwrap()
    }

    #[test]
    fn construction_validates_shapes() {
        let cov = Matrix::identity(2);
        assert!(MultivariateGaussian::new(vec![0.0; 3], cov).is_err());
        let asym = Matrix::from_rows(&[&[1.0, 0.5], &[0.2, 1.0]]).unwrap();
        assert!(MultivariateGaussian::new(vec![0.0; 2], asym).is_err());
    }

    #[test]
    fn marginal_picks_blocks() {
        let g = three_var();
        let (mean, cov) = dense::marginal(&g, &[2, 0]).unwrap();
        assert_eq!(mean, &[3.0, 1.0]);
        assert_eq!(cov[(0, 0)], 2.0);
        assert_eq!(cov[(0, 1)], 0.4);
    }

    #[test]
    fn conditioning_shrinks_variance() {
        let g = three_var();
        let cond = g.conditioner(&[1]).unwrap();
        // Remaining variables are 0 and 2.
        assert_eq!(cond.remaining_indices(), &[0, 2]);
        assert!(cond.conditional_sigmas()[0] < 2.0);
        assert!(cond.conditional_sigmas()[1] < 2.0_f64.sqrt());
    }

    #[test]
    fn conditional_mean_hand_computed() {
        // For bivariate normal: mu'_0 = mu_0 + rho * s0/s1 * (x1 - mu_1).
        let cov = Matrix::from_rows(&[&[4.0, 1.8], &[1.8, 1.0]]).unwrap();
        let g = MultivariateGaussian::new(vec![1.0, 2.0], cov).unwrap();
        let cond = g.conditioner(&[1]).unwrap();
        // Sigma_kt Sigma_t^-1 (d - mu) = 1.8 / 1.0 * 1.0 = 1.8.
        assert!((cond.condition_mean(&[3.0]).unwrap()[0] - 2.8).abs() < 1e-12);
        // sigma'^2 = 4.0 - 1.8^2 / 1.0 = 0.76.
        assert!((cond.conditional_sigmas()[0] - 0.76_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn observing_at_the_mean_does_not_shift() {
        let g = three_var();
        let cond = g.conditioner(&[0, 1]).unwrap();
        assert!((cond.condition_mean(&[1.0, 2.0]).unwrap()[0] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn variance_never_increases_with_more_observations() {
        let g = three_var();
        let one = g.conditioner(&[1]).unwrap();
        let two = g.conditioner(&[1, 2]).unwrap();
        // Variable 0 sigma: prior >= cond on 1 >= cond on {1, 2}.
        let prior = g.covariance()[(0, 0)].sqrt();
        let s1 = one.conditional_sigmas()[0];
        let s2 = two.conditional_sigmas()[0];
        assert!(s1 <= prior + 1e-12);
        assert!(s2 <= s1 + 1e-9);
    }

    #[test]
    fn condition_with_no_observations_is_identity() {
        // Nothing to condition on: the conditioner refuses, and the dense
        // oracle returns the prior unchanged.
        let g = three_var();
        assert!(matches!(g.conditioner(&[]), Err(LinalgError::Empty)));
        let cond = dense::condition(&g, &[], &[]).unwrap();
        assert_eq!(cond.mean, g.mean());
        assert!((&cond.covariance - g.covariance()).max_abs() < 1e-15);
    }

    #[test]
    fn perfectly_correlated_prediction_is_exact() {
        // Two variables with correlation 1: observing one pins the other.
        let cov = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let g = MultivariateGaussian::new(vec![5.0, 7.0], cov).unwrap();
        let cond = g.conditioner(&[1]).unwrap();
        assert!((cond.condition_mean(&[8.0]).unwrap()[0] - 6.0).abs() < 1e-5);
        assert!(cond.conditional_sigmas()[0].powi(2) < 1e-5);
    }

    #[test]
    fn conditioner_matches_condition_bitwise() {
        // The per-variable sums reproduce the dense conditional's means and
        // clamped diagonal bit for bit.
        let g = three_var();
        for obs in [&[1_usize][..], &[1, 2], &[2, 0], &[0]] {
            let conditioner = g.conditioner(obs).unwrap();
            assert_eq!(conditioner.observed_indices(), obs);
            for values in [[2.5, 2.0], [1.0, 4.5], [2.0, 3.0]] {
                let values = &values[..obs.len()];
                let cond = dense::condition(&g, obs, values).unwrap();
                assert_eq!(conditioner.remaining_indices(), cond.remaining.as_slice());
                let mean = conditioner.condition_mean(values).unwrap();
                for (a, b) in mean.iter().zip(&cond.mean) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                for (a, b) in conditioner.conditional_sigmas().iter().zip(cond.sigmas()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                assert_eq!(conditioner.jitter().to_bits(), cond.jitter.to_bits());
            }
            assert_eq!(conditioner.jitter(), 0.0);
        }
    }

    #[test]
    fn condition_mean_into_reuses_buffers() {
        let g = three_var();
        let conditioner = g.conditioner(&[0]).unwrap();
        let mut scratch = Vec::new();
        let mut mean = Vec::new();
        conditioner.condition_mean_into(&[3.0], &mut scratch, &mut mean).unwrap();
        let first = mean.clone();
        // A second application through the same buffers gives the same
        // answer (buffers are scratch, never state) ...
        conditioner.condition_mean_into(&[3.0], &mut scratch, &mut mean).unwrap();
        assert_eq!(mean, first);
        // ... and matches the one-shot form.
        assert_eq!(conditioner.condition_mean(&[3.0]).unwrap(), first);
    }

    /// Lays per-chip observation pairs out as the batch forms' row-major
    /// `observed x n_chips` block.
    fn observed_major(chips: &[[f64; 2]]) -> Vec<f64> {
        let mut batch = vec![0.0; 2 * chips.len()];
        for (c, obs) in chips.iter().enumerate() {
            for (r, &v) in obs.iter().enumerate() {
                batch[r * chips.len() + c] = v;
            }
        }
        batch
    }

    #[test]
    fn condition_mean_batch_matches_per_vector_bitwise() {
        let g = three_var();
        let conditioner = g.conditioner(&[1, 2]).unwrap();
        let chips = [[2.5, 2.0], [1.0, 4.5], [2.0, 3.0], [-0.25, 7.5]];
        let mut batch = observed_major(&chips);
        let (mut wt, mut means) = (Vec::new(), Vec::new());
        conditioner
            .condition_mean_batch_chipmajor_into(&mut batch, chips.len(), &mut wt, &mut means)
            .unwrap();
        assert_eq!(means.len(), chips.len()); // one remaining variable
        for (c, obs) in chips.iter().enumerate() {
            let reference = conditioner.condition_mean(obs).unwrap();
            assert_eq!(
                means[c].to_bits(),
                reference[0].to_bits(),
                "chip {c} diverged from per-vector conditioning"
            );
        }
    }

    #[test]
    fn condition_mean_batch_chipmajor_is_the_bitwise_transpose() {
        // A 4-variable Gaussian so the remaining block has 2 variables and
        // the transpose is non-trivial in both dimensions: the chip-major
        // block must be the exact transpose of the per-vector means stacked
        // as columns.
        let cov = Matrix::from_rows(&[
            &[2.0, 0.6, 0.3, 0.2],
            &[0.6, 1.5, 0.4, 0.1],
            &[0.3, 0.4, 1.2, 0.5],
            &[0.2, 0.1, 0.5, 1.8],
        ])
        .unwrap();
        let g = MultivariateGaussian::new(vec![1.0, -2.0, 0.5, 3.0], cov).unwrap();
        let conditioner = g.conditioner(&[0, 3]).unwrap();
        let chips = [[1.5, 2.0], [0.25, 4.0], [-1.0, 3.5], [2.0, 2.5], [1.0, 3.0]];
        let n_chips = chips.len();
        let n_rem = conditioner.remaining_indices().len();
        assert_eq!(n_rem, 2);
        let mut path_major = vec![0.0; n_rem * n_chips];
        for (c, obs) in chips.iter().enumerate() {
            for (r, mu) in conditioner.condition_mean(obs).unwrap().into_iter().enumerate() {
                path_major[r * n_chips + c] = mu;
            }
        }
        let mut batch = observed_major(&chips);
        let (mut wt, mut chip_major) = (Vec::new(), Vec::new());
        conditioner
            .condition_mean_batch_chipmajor_into(&mut batch, n_chips, &mut wt, &mut chip_major)
            .unwrap();
        assert_eq!(chip_major.len(), n_chips * n_rem);
        for c in 0..n_chips {
            for r in 0..n_rem {
                assert_eq!(
                    chip_major[c * n_rem + r].to_bits(),
                    path_major[r * n_chips + c].to_bits(),
                    "chip {c} remaining {r} diverged from per-vector conditioning"
                );
            }
        }
    }

    #[test]
    fn condition_mean_batch_validates_shape_and_handles_empty() {
        let g = three_var();
        let conditioner = g.conditioner(&[1]).unwrap();
        let (mut wt, mut means) = (Vec::new(), Vec::new());
        let mut wrong = vec![0.0; 3];
        assert!(matches!(
            conditioner.condition_mean_batch_chipmajor_into(&mut wrong, 2, &mut wt, &mut means),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        let mut empty: Vec<f64> = Vec::new();
        conditioner
            .condition_mean_batch_chipmajor_into(&mut empty, 0, &mut wt, &mut means)
            .unwrap();
        assert!(means.is_empty());
    }

    #[test]
    fn conditioner_rejects_bad_inputs() {
        let g = three_var();
        assert!(matches!(g.conditioner(&[]), Err(LinalgError::Empty)));
        assert!(matches!(g.conditioner(&[7]), Err(LinalgError::IndexOutOfBounds { .. })));
        let conditioner = g.conditioner(&[1]).unwrap();
        assert!(matches!(
            conditioner.condition_mean(&[1.0, 2.0]),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn conditioner_surfaces_degenerate_observed_blocks() {
        // An indefinite "covariance" sneaks past the symmetry check but
        // cannot be factorized even with regularization: the conditioner
        // must surface the error instead of panicking, so callers can fall
        // back to the prior.
        let cov =
            Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[2.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]).unwrap();
        let g = MultivariateGaussian::new(vec![0.0; 3], cov).unwrap();
        assert!(g.conditioner(&[0, 1]).is_err());
        // Rank-deficient but PSD blocks regularize fine.
        let psd =
            Matrix::from_rows(&[&[1.0, 1.0, 0.5], &[1.0, 1.0, 0.5], &[0.5, 0.5, 1.0]]).unwrap();
        let g = MultivariateGaussian::new(vec![0.0; 3], psd).unwrap();
        let conditioner = g.conditioner(&[0, 1]).unwrap();
        assert!(conditioner.jitter() > 0.0);
    }

    #[test]
    fn conditioner_parts_round_trip_bitwise() {
        let g = three_var();
        let conditioner = g.conditioner(&[1, 2]).unwrap();
        let rebuilt = GaussianConditioner::from_parts(conditioner.to_parts()).unwrap();
        assert_eq!(rebuilt.observed_indices(), conditioner.observed_indices());
        assert_eq!(rebuilt.remaining_indices(), conditioner.remaining_indices());
        for (a, b) in rebuilt.conditional_sigmas().iter().zip(conditioner.conditional_sigmas()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for values in [[2.5, 2.0], [1.0, 4.5], [-0.25, 7.5]] {
            let a = rebuilt.condition_mean(&values).unwrap();
            let b = conditioner.condition_mean(&values).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // Batch conditioning goes through `cross_t`, which from_parts
        // recomputes — exercise it too.
        let mut batch = observed_major(&[[2.5, 2.0], [1.0, 4.5]]);
        let (mut wt_a, mut out_a) = (Vec::new(), Vec::new());
        let (mut wt_b, mut out_b) = (Vec::new(), Vec::new());
        rebuilt
            .condition_mean_batch_chipmajor_into(&mut batch.clone(), 2, &mut wt_a, &mut out_a)
            .unwrap();
        conditioner
            .condition_mean_batch_chipmajor_into(&mut batch, 2, &mut wt_b, &mut out_b)
            .unwrap();
        for (x, y) in out_a.iter().zip(&out_b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn conditioner_from_parts_rejects_inconsistent_shapes() {
        let g = three_var();
        let conditioner = g.conditioner(&[1]).unwrap();
        let mut parts = conditioner.to_parts();
        parts.mean_rem.pop();
        assert!(matches!(
            GaussianConditioner::from_parts(parts),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        let mut parts = conditioner.to_parts();
        parts.cond_sigmas.push(0.0);
        assert!(matches!(
            GaussianConditioner::from_parts(parts),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        let mut parts = conditioner.to_parts();
        parts.chol_jitter = f64::NAN;
        assert!(GaussianConditioner::from_parts(parts).is_err());
    }
}
