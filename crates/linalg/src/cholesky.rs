use crate::{LinalgError, Matrix, Result};

/// Cholesky factorization `A = L L^T` of a symmetric positive-definite
/// matrix.
///
/// Covariance matrices assembled from canonical delay forms are symmetric
/// positive semi-definite; the conditional-Gaussian prediction of the paper
/// (eqs. 4–5) repeatedly solves systems against the covariance of the tested
/// paths. Cholesky is the right factorization for that: twice as fast as LU
/// and it certifies positive definiteness as a side effect.
///
/// For semi-definite inputs (paths that are perfectly correlated produce
/// rank-deficient covariances), use [`CholeskyDecomposition::new_regularized`]
/// which adds the smallest diagonal jitter that makes the factorization
/// succeed.
///
/// # Example
///
/// ```
/// use effitest_linalg::{CholeskyDecomposition, Matrix};
///
/// # fn main() -> Result<(), effitest_linalg::LinalgError> {
/// let cov = Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]])?;
/// let chol = CholeskyDecomposition::new(&cov)?;
/// assert!(chol.jitter() == 0.0);
/// let x = chol.solve_vec(&[1.0, 1.0])?;
/// let back = cov.matvec(&x)?;
/// assert!((back[0] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CholeskyDecomposition {
    /// Lower-triangular factor (upper part zeroed).
    l: Matrix,
    /// Diagonal jitter that was added to make the factorization succeed.
    jitter: f64,
}

impl CholeskyDecomposition {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] / [`LinalgError::NotSymmetric`] for
    ///   malformed input (symmetry tolerance scales with the matrix norm).
    /// * [`LinalgError::NotPositiveDefinite`] if a diagonal pivot is not
    ///   strictly positive.
    pub fn new(a: &Matrix) -> Result<Self> {
        Self::factor(a, 0.0)
    }

    /// Factorizes a symmetric positive *semi*-definite matrix by adding the
    /// smallest power-of-ten diagonal jitter (relative to the mean diagonal)
    /// that makes the factorization succeed.
    ///
    /// The jitter actually used is reported by
    /// [`jitter`](CholeskyDecomposition::jitter); callers that care about
    /// exactness can check it is zero.
    ///
    /// # Errors
    ///
    /// Same as [`new`](CholeskyDecomposition::new) if even the maximum jitter
    /// (1% of the mean diagonal) fails, or if the input is malformed.
    pub fn new_regularized(a: &Matrix) -> Result<Self> {
        let n = a.rows().max(1);
        let mean_diag = a.diagonal().iter().map(|d| d.abs()).sum::<f64>() / n as f64;
        let mut jitter = 0.0;
        loop {
            match Self::factor(a, jitter) {
                Ok(c) => return Ok(c),
                Err(LinalgError::NotPositiveDefinite { .. }) => {
                    let next = if jitter == 0.0 {
                        mean_diag.max(f64::MIN_POSITIVE) * 1e-12
                    } else {
                        jitter * 10.0
                    };
                    if next > mean_diag * 1e-2 || !next.is_finite() {
                        return Self::factor(a, jitter).map_err(|e| e.clone());
                    }
                    jitter = next;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn factor(a: &Matrix, jitter: f64) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let sym_tol = 1e-8 * a.max_abs().max(1.0);
        let asym = a.max_asymmetry()?;
        if asym > sym_tol {
            return Err(LinalgError::NotSymmetric { max_asymmetry: asym });
        }
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                if i == j {
                    sum += jitter;
                }
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite { pivot: i, value: sum });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(CholeskyDecomposition { l, jitter })
    }

    /// Reassembles a decomposition from a previously computed factor —
    /// the deserialization entry point for persistent plan stores, which
    /// carry `L` and the jitter instead of refactorizing. The caller is
    /// responsible for `l` actually being the lower-triangular factor of
    /// whatever matrix it claims to factor; solves through a reassembled
    /// decomposition are bitwise identical to the original because the
    /// factor bits are identical.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `l` is not square.
    /// * [`LinalgError::Empty`] if `l` is 0 x 0.
    /// * [`LinalgError::NotPositiveDefinite`] if a diagonal entry of `l`
    ///   is not strictly positive or the jitter is not finite and
    ///   non-negative (no valid factorization produces either).
    pub fn from_factor(l: Matrix, jitter: f64) -> Result<Self> {
        if !l.is_square() {
            return Err(LinalgError::NotSquare { shape: l.shape() });
        }
        if l.rows() == 0 {
            return Err(LinalgError::Empty);
        }
        if !(jitter.is_finite() && jitter >= 0.0) {
            return Err(LinalgError::NotPositiveDefinite { pivot: 0, value: jitter });
        }
        for i in 0..l.rows() {
            let d = l[(i, i)];
            if !(d.is_finite() && d > 0.0) {
                return Err(LinalgError::NotPositiveDefinite { pivot: i, value: d });
            }
        }
        Ok(CholeskyDecomposition { l, jitter })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Diagonal jitter added during factorization (0 unless
    /// [`new_regularized`](CholeskyDecomposition::new_regularized) needed it).
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Solves `A x = b` (with `A = L L^T`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve_vec(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut y = b.to_vec();
        self.solve_vec_in_place(&mut y)?;
        Ok(y)
    }

    /// Solves `A x = b` in place: `b` is overwritten with the solution.
    ///
    /// This is the allocation-free form of [`solve_vec`](Self::solve_vec)
    /// (bitwise the same result) for hot loops that own a reusable buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve_vec_in_place(&self, y: &mut [f64]) -> Result<()> {
        let n = self.dim();
        if y.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky_solve",
                lhs: (n, n),
                rhs: (y.len(), 1),
            });
        }
        // Forward substitution: L y = b.
        for i in 0..n {
            let mut sum = y[i];
            for (j, &yj) in y.iter().enumerate().take(i) {
                sum -= self.l[(i, j)] * yj;
            }
            y[i] = sum / self.l[(i, i)];
        }
        // Back substitution: L^T x = y.
        for i in (0..n).rev() {
            let mut sum = y[i];
            for (j, &yj) in y.iter().enumerate().skip(i + 1) {
                sum -= self.l[(j, i)] * yj;
            }
            y[i] = sum / self.l[(i, i)];
        }
        Ok(())
    }

    /// Solves `A X = B` column by column.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `B.rows() != self.dim()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky_solve_matrix",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let x = self.solve_vec(&b.col(j))?;
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }

    /// Log-determinant `ln det A = 2 sum ln L_ii`.
    pub fn log_determinant(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_example() -> Matrix {
        Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 3.0, 0.4], &[0.6, 0.4, 2.0]]).unwrap()
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd_example();
        let chol = CholeskyDecomposition::new(&a).unwrap();
        let recon = chol.l().matmul(&chol.l().transpose()).unwrap();
        assert!((&recon - &a).max_abs() < 1e-12);
    }

    #[test]
    fn solve_matches_lu() {
        let a = spd_example();
        let b = [1.0, 2.0, 3.0];
        let x_chol = CholeskyDecomposition::new(&a).unwrap().solve_vec(&b).unwrap();
        let x_lu = crate::LuDecomposition::new(&a).unwrap().solve_vec(&b).unwrap();
        for (c, l) in x_chol.iter().zip(&x_lu) {
            assert!((c - l).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            CholeskyDecomposition::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_asymmetric() {
        let a = Matrix::from_rows(&[&[1.0, 0.5], &[0.4, 1.0]]).unwrap();
        assert!(matches!(CholeskyDecomposition::new(&a), Err(LinalgError::NotSymmetric { .. })));
    }

    #[test]
    fn regularized_handles_semidefinite() {
        // Rank-1 covariance: two perfectly correlated variables.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let chol = CholeskyDecomposition::new_regularized(&a).unwrap();
        assert!(chol.jitter() > 0.0);
        assert!(chol.jitter() <= 1e-2);
        // Solutions should still be usable: A x ~= b in the least-squares
        // sense along the range of A.
        let x = chol.solve_vec(&[2.0, 2.0]).unwrap();
        let back = a.matvec(&x).unwrap();
        assert!((back[0] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn regularized_reports_zero_jitter_for_spd() {
        let chol = CholeskyDecomposition::new_regularized(&spd_example()).unwrap();
        assert_eq!(chol.jitter(), 0.0);
    }

    #[test]
    fn log_determinant_matches_lu_determinant() {
        let a = spd_example();
        let chol = CholeskyDecomposition::new(&a).unwrap();
        let det = crate::LuDecomposition::new(&a).unwrap().determinant();
        assert!((chol.log_determinant() - det.ln()).abs() < 1e-10);
    }

    #[test]
    fn one_by_one_matrix() {
        let a = Matrix::from_rows(&[&[9.0]]).unwrap();
        let chol = CholeskyDecomposition::new(&a).unwrap();
        assert!((chol.l()[(0, 0)] - 3.0).abs() < 1e-15);
        assert_eq!(chol.solve_vec(&[18.0]).unwrap(), vec![2.0]);
    }
}
