//! Dense linear algebra for the EffiTest reproduction.
//!
//! This crate provides the small, self-contained numerical kernel used by the
//! statistical timing machinery of the EffiTest flow:
//!
//! * [`Matrix`] — a dense, row-major `f64` matrix with the usual arithmetic.
//! * [`LuDecomposition`] — LU factorization with partial pivoting, for
//!   general linear solves and inverses.
//! * [`CholeskyDecomposition`] — factorization of symmetric positive-definite
//!   matrices, the workhorse behind conditional Gaussian inference.
//! * [`SymmetricEigen`] — every eigenvalue of a symmetric matrix by
//!   Householder tridiagonalization and the implicit-shift QL recurrence,
//!   and the eigenvectors of the leading ones on request, by inverse
//!   iteration on the tridiagonal matrix.
//! * [`Pca`] — principal component analysis on covariance matrices
//!   (paper §3.1, used to pick representative paths per correlation
//!   group), computing directions for the retained components only.
//! * [`SparseGram`] — a covariance `B B^T + diag(d)` held as sparse rows
//!   and applied without forming it, with a Lanczos iteration that
//!   returns Procedure 1's kept count and representatives only once it
//!   has certified that [`Pca`] on the dense matrix would return the same.
//!   Procedure 1 runs it on every group and falls back to [`Pca`] where it
//!   declines.
//! * [`MultivariateGaussian`] — a joint Gaussian held as a dense mean and
//!   covariance (paper eqs. 4–5 condition it).
//! * [`GaussianConditioner`] — the reusable, value-independent half of a
//!   conditioning (factored gain + conditional sigmas), precomputed once
//!   per observed-index set and applied per observation vector without
//!   refactorizing or allocating. It reads its prior through a mean and a
//!   covariance accessor, and only the entries conditioning needs: the
//!   observed block, the cross block and the unobserved variances. It
//!   keeps no conditional covariance matrix.
//!
//! Everything is hand-rolled on purpose: the reproduction brief requires all
//! substrates to be built from scratch. Most matrices involved (observed
//! blocks, per-batch optimization) are small enough that dense `O(n^3)`
//! algorithms are the right tool. Correlation groups are the exception: a
//! full-size group has hundreds of paths but only a few dozen nonzero
//! canonical-form coefficients per path, so Procedure 1 works on those
//! coefficients through [`SparseGram`] and keeps the dense [`Pca`] as its
//! fallback and test oracle.
//!
//! # Example
//!
//! ```
//! use effitest_linalg::{Matrix, CholeskyDecomposition};
//!
//! # fn main() -> Result<(), effitest_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
//! let chol = CholeskyDecomposition::new(&a)?;
//! let x = chol.solve_vec(&[8.0, 7.0])?;
//! assert!((x[0] - 1.25).abs() < 1e-12);
//! assert!((x[1] - 1.5).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cholesky;
mod eigen;
mod error;
mod gaussian;
mod lanczos;
mod lu;
mod matrix;
mod pca;
pub mod stats;

pub use cholesky::CholeskyDecomposition;
pub use eigen::SymmetricEigen;
pub use error::LinalgError;
pub use gaussian::{ConditionerParts, GaussianConditioner, MultivariateGaussian};
pub use lanczos::SparseGram;
pub use lu::LuDecomposition;
pub use matrix::Matrix;
pub use pca::{Pca, PrincipalComponent};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
