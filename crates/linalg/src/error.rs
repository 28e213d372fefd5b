use std::error::Error;
use std::fmt;

/// Errors produced by the linear-algebra kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Two operands had incompatible shapes.
    ///
    /// Carries a human-readable description of the operation and the two
    /// offending shapes.
    ShapeMismatch {
        /// Operation that was attempted (e.g. `"matmul"`).
        op: &'static str,
        /// Shape of the left operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// A matrix that must be square was not.
    NotSquare {
        /// Actual shape of the matrix.
        shape: (usize, usize),
    },
    /// A matrix expected to be symmetric failed the symmetry check.
    NotSymmetric {
        /// Maximum absolute asymmetry `|a_ij - a_ji|` found.
        max_asymmetry: f64,
    },
    /// A factorization encountered a singular (or numerically singular)
    /// pivot.
    Singular {
        /// Index of the pivot where breakdown occurred.
        pivot: usize,
    },
    /// Cholesky factorization failed because the matrix is not positive
    /// definite (within the jitter budget).
    NotPositiveDefinite {
        /// Index of the diagonal entry where breakdown occurred.
        pivot: usize,
        /// Value of the offending diagonal entry.
        value: f64,
    },
    /// An entry that must be a finite number was NaN or infinite.
    NonFinite {
        /// Row of the first offending entry.
        row: usize,
        /// Column of the first offending entry.
        col: usize,
    },
    /// An iterative algorithm did not converge within its iteration cap.
    NoConvergence {
        /// Name of the algorithm (e.g. `"implicit QL"`).
        algorithm: &'static str,
        /// Number of iterations performed.
        iterations: usize,
    },
    /// Rows passed to a constructor had inconsistent lengths.
    RaggedRows {
        /// Length of the first row.
        expected: usize,
        /// Index of the first row with a different length.
        row: usize,
        /// Length of that row.
        found: usize,
    },
    /// An empty matrix or vector was passed where data is required.
    Empty,
    /// An index or dimension argument was out of bounds.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The allowed bound (exclusive).
        bound: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: left is {}x{}, right is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotSquare { shape } => {
                write!(f, "matrix must be square, got {}x{}", shape.0, shape.1)
            }
            LinalgError::NotSymmetric { max_asymmetry } => {
                write!(f, "matrix is not symmetric (max asymmetry {max_asymmetry:e})")
            }
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular at pivot {pivot}")
            }
            LinalgError::NotPositiveDefinite { pivot, value } => {
                write!(f, "matrix is not positive definite (diagonal {pivot} has value {value:e})")
            }
            LinalgError::NonFinite { row, col } => {
                write!(f, "matrix entry ({row}, {col}) is not finite")
            }
            LinalgError::NoConvergence { algorithm, iterations } => {
                write!(f, "{algorithm} did not converge after {iterations} iterations")
            }
            LinalgError::RaggedRows { expected, row, found } => {
                write!(f, "ragged rows: row 0 has {expected} entries but row {row} has {found}")
            }
            LinalgError::Empty => write!(f, "empty matrix or vector"),
            LinalgError::IndexOutOfBounds { index, bound } => {
                write!(f, "index {index} out of bounds (size {bound})")
            }
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            LinalgError::ShapeMismatch { op: "matmul", lhs: (2, 3), rhs: (4, 5) },
            LinalgError::NotSquare { shape: (2, 3) },
            LinalgError::NotSymmetric { max_asymmetry: 0.5 },
            LinalgError::Singular { pivot: 1 },
            LinalgError::NotPositiveDefinite { pivot: 0, value: -1.0 },
            LinalgError::NonFinite { row: 0, col: 1 },
            LinalgError::NoConvergence { algorithm: "implicit QL", iterations: 30 },
            LinalgError::RaggedRows { expected: 3, row: 1, found: 2 },
            LinalgError::Empty,
            LinalgError::IndexOutOfBounds { index: 9, bound: 3 },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<LinalgError>();
    }
}
