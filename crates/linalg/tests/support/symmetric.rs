//! Symmetric test matrices for the eigensolver's property tests, and the
//! reconstruction they check, shared by the unit tests in `src/eigen.rs`
//! (which hold the full-QL and Jacobi oracles) and the integration
//! proptests. The including module must have `Matrix` in scope.

use super::Matrix;
use proptest::prelude::*;

/// The input families the eigensolver is tested on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Well conditioned: `B B^T + (n / 2) I`.
    PositiveDefinite,
    /// The Gram matrix of `(n + 1) / 3` vectors, so rank `< n`.
    RankDeficient,
    /// `Q D Q^T` with `1 + n / 8` distinct eigenvalues in `D`, each
    /// repeated, and `Q` a product of up to three random reflectors.
    Repeated,
}

/// Strategy: an `n x n` symmetric matrix of a random [`Family`], `n` in
/// `1..=max_n`.
pub fn symmetric_matrix(max_n: usize) -> impl Strategy<Value = (Family, Matrix)> {
    (0_u8..3, 1..=max_n).prop_flat_map(|(family, n)| {
        proptest::collection::vec(-2.0_f64..2.0, n * n).prop_map(move |data| match family {
            0 => {
                let mut g = Matrix::from_fn(n, n, |i, j| data[i * n + j]).gram();
                for i in 0..n {
                    g[(i, i)] += n as f64 * 0.5;
                }
                (Family::PositiveDefinite, g)
            }
            1 => {
                let k = (n + 1) / 3;
                (Family::RankDeficient, Matrix::from_fn(n, k, |i, j| data[i * k + j]).gram())
            }
            _ => {
                let distinct = 1 + n / 8;
                let spectrum: Vec<f64> =
                    (0..n).map(|i| 0.5 + 2.0 * data[n * n - 1 - i % distinct].abs()).collect();
                let mut q = Matrix::identity(n);
                for v in data.chunks_exact(n).take(3) {
                    let vv: f64 = v.iter().map(|x| x * x).sum();
                    if vv > 0.0 {
                        let qv = q.matvec(v).expect("square");
                        q = Matrix::from_fn(n, n, |i, j| q[(i, j)] - 2.0 * qv[i] * v[j] / vv);
                    }
                }
                let a = q
                    .matmul(&Matrix::from_diagonal(&spectrum))
                    .and_then(|qd| qd.matmul(&q.transpose()))
                    .expect("square");
                (Family::Repeated, a)
            }
        })
    })
}

/// `V diag(values) V^T` for eigenvector columns `V`.
pub fn reconstruct(values: &[f64], vectors: &Matrix) -> Matrix {
    let scaled = Matrix::from_fn(vectors.rows(), values.len(), |i, k| vectors[(i, k)] * values[k]);
    scaled.matmul(&vectors.transpose()).expect("shapes agree by construction")
}
