//! The dense conditioning oracle: a Gaussian conditioned by forming the
//! full conditional covariance `Sigma_uu - Sigma_uo Sigma_oo^-1 Sigma_ou`
//! with matrix products, the arithmetic `GaussianConditioner::new` replaced
//! with one sum per unobserved variable. Shared by the unit tests in
//! `src/gaussian.rs` and the integration proptests. The including module
//! must have `CholeskyDecomposition`, `LinalgError`, `Matrix` and
//! `MultivariateGaussian` in scope.

use super::{CholeskyDecomposition, LinalgError, Matrix, MultivariateGaussian};

/// The distribution of the unobserved variables.
#[derive(Debug, Clone)]
pub struct Conditional {
    /// Unobserved variable indices, ascending.
    pub remaining: Vec<usize>,
    /// Conditional means, in `remaining` order.
    pub mean: Vec<f64>,
    /// The full conditional covariance, its diagonal clamped at zero.
    pub covariance: Matrix,
    /// Diagonal jitter the observed-block factorization needed.
    pub jitter: f64,
}

impl Conditional {
    /// Conditional standard deviations: the clamped square roots of the
    /// covariance diagonal.
    pub fn sigmas(&self) -> Vec<f64> {
        (0..self.covariance.rows()).map(|i| self.covariance[(i, i)].max(0.0).sqrt()).collect()
    }
}

/// The marginal distribution over `idx`, in that order: means and
/// covariance block.
pub fn marginal(
    g: &MultivariateGaussian,
    idx: &[usize],
) -> Result<(Vec<f64>, Matrix), LinalgError> {
    if let Some(&i) = idx.iter().find(|&&i| i >= g.dim()) {
        return Err(LinalgError::IndexOutOfBounds { index: i, bound: g.dim() });
    }
    Ok((idx.iter().map(|&i| g.mean()[i]).collect(), g.covariance().submatrix(idx, idx)?))
}

/// Conditions `g` on observing `observed` at `values` (paper eqs. 4–5 for
/// every unobserved variable at once). With nothing observed this is the
/// marginal of the rest.
pub fn condition(
    g: &MultivariateGaussian,
    observed: &[usize],
    values: &[f64],
) -> Result<Conditional, LinalgError> {
    if observed.len() != values.len() {
        return Err(LinalgError::ShapeMismatch {
            op: "gaussian_condition",
            lhs: (observed.len(), 1),
            rhs: (values.len(), 1),
        });
    }
    if let Some(&i) = observed.iter().find(|&&i| i >= g.dim()) {
        return Err(LinalgError::IndexOutOfBounds { index: i, bound: g.dim() });
    }
    let remaining: Vec<usize> = (0..g.dim()).filter(|i| !observed.contains(i)).collect();
    if observed.is_empty() {
        let (mean, covariance) = marginal(g, &remaining)?;
        return Ok(Conditional { remaining, mean, covariance, jitter: 0.0 });
    }
    let cov = g.covariance();
    let sigma_oo = cov.submatrix(observed, observed)?;
    let cross = cov.submatrix(&remaining, observed)?;
    let chol = CholeskyDecomposition::new_regularized(&sigma_oo)?;
    // Sigma' = Sigma_uu - Sigma_uo Sigma_oo^-1 Sigma_ou.
    let solved = chol.solve_matrix(&cross.transpose())?;
    let reduction = cross.matmul(&solved)?;
    let mut covariance = cov.submatrix(&remaining, &remaining)?.sub_matrix(&reduction)?;
    covariance.symmetrize()?;
    for i in 0..covariance.rows() {
        if covariance[(i, i)] < 0.0 {
            covariance[(i, i)] = 0.0;
        }
    }
    // mu' = mu_u + Sigma_uo Sigma_oo^-1 (d_o - mu_o).
    let innovation: Vec<f64> =
        observed.iter().zip(values).map(|(&i, &v)| v - g.mean()[i]).collect();
    let shift = cross.matvec(&chol.solve_vec(&innovation)?)?;
    let mean = shift.iter().zip(&remaining).map(|(&s, &i)| s + g.mean()[i]).collect();
    Ok(Conditional { remaining, mean, covariance, jitter: chol.jitter() })
}
