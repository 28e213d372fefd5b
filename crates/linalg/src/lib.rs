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
//! substrates to be built from scratch, and the matrices involved (path
//! groups, per-batch optimization) are small enough that dense `O(n^3)`
//! algorithms are the right tool.
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
mod lu;
mod matrix;
mod pca;
pub mod stats;

pub use cholesky::CholeskyDecomposition;
pub use eigen::SymmetricEigen;
pub use error::LinalgError;
pub use gaussian::{ConditionerParts, GaussianConditioner, MultivariateGaussian};
pub use lu::LuDecomposition;
pub use matrix::Matrix;
pub use pca::{Pca, PrincipalComponent};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
