use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use crate::{LinalgError, Result};

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is the central data type of the linear-algebra kernel. It favors
/// explicitness over cleverness: storage is a flat `Vec<f64>` in row-major
/// order, and all operations validate shapes, returning
/// [`LinalgError::ShapeMismatch`] rather than panicking on bad input.
///
/// # Example
///
/// ```
/// use effitest_linalg::Matrix;
///
/// # fn main() -> Result<(), effitest_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a square matrix with `diag` on the diagonal and zeros
    /// elsewhere.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.data[i * n + i] = d;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] if `rows` is empty or the first row is
    /// empty, and [`LinalgError::RaggedRows`] if the rows have inconsistent
    /// lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::Empty);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(LinalgError::RaggedRows { expected: cols, row: i, found: row.len() });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix { rows: rows.len(), cols, data })
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix and returns the row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns element `(i, j)`, or `None` if out of bounds.
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        if i < self.rows && j < self.cols {
            Some(self.data[i * self.cols + j])
        } else {
            None
        }
    }

    /// Sets element `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        self.data[i * self.cols + j] = value;
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column index out of bounds");
        (0..self.rows).map(|i| self.data[i * self.cols + j]).collect()
    }

    /// Copies the main diagonal into a fresh vector.
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self.data[i * self.cols + i]).collect()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the inner dimensions do not
    /// agree.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // Cache-friendlier i-k-j loop ordering.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rrow = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &r) in orow.iter_mut().zip(rrow) {
                    *o += a * r;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.matvec_into(v, &mut out)?;
        Ok(out)
    }

    /// Matrix-vector product `self * v` written into `out` (cleared and
    /// refilled), so hot loops can reuse one buffer across calls. Produces
    /// bitwise the same values as [`matvec`](Self::matvec).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `v.len() != self.cols()`.
    pub fn matvec_into(&self, v: &[f64], out: &mut Vec<f64>) -> Result<()> {
        if v.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        out.clear();
        out.extend(
            (0..self.rows).map(|i| self.row(i).iter().zip(v).map(|(&a, &b)| a * b).sum::<f64>()),
        );
        Ok(())
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on shape disagreement.
    pub fn add_matrix(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on shape disagreement.
    pub fn sub_matrix(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch { op, lhs: self.shape(), rhs: rhs.shape() });
        }
        let data = self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b)).collect();
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Returns `self * s` for a scalar `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&a| a * s).collect(),
        }
    }

    /// Extracts the submatrix given by `row_idx` x `col_idx`.
    ///
    /// The index lists may repeat or reorder indices, which is exactly what
    /// the conditional-Gaussian machinery needs when it partitions a
    /// covariance matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::IndexOutOfBounds`] if any index is outside the
    /// matrix.
    pub fn submatrix(&self, row_idx: &[usize], col_idx: &[usize]) -> Result<Matrix> {
        for &i in row_idx {
            if i >= self.rows {
                return Err(LinalgError::IndexOutOfBounds { index: i, bound: self.rows });
            }
        }
        for &j in col_idx {
            if j >= self.cols {
                return Err(LinalgError::IndexOutOfBounds { index: j, bound: self.cols });
            }
        }
        let mut out = Matrix::zeros(row_idx.len(), col_idx.len());
        for (oi, &i) in row_idx.iter().enumerate() {
            for (oj, &j) in col_idx.iter().enumerate() {
                out.data[oi * col_idx.len() + oj] = self.data[i * self.cols + j];
            }
        }
        Ok(out)
    }

    /// Maximum absolute asymmetry `max |a_ij - a_ji|` (0 for symmetric
    /// matrices).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square matrices.
    pub fn max_asymmetry(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare { shape: self.shape() });
        }
        let mut worst: f64 = 0.0;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let d = (self.data[i * self.cols + j] - self.data[j * self.cols + i]).abs();
                worst = worst.max(d);
            }
        }
        Ok(worst)
    }

    /// `true` if the matrix is square and symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        matches!(self.max_asymmetry(), Ok(a) if a <= tol)
    }

    /// Symmetrizes the matrix in place: `a_ij <- (a_ij + a_ji) / 2`.
    ///
    /// Useful to clean up round-off after assembling covariance matrices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square matrices.
    pub fn symmetrize(&mut self) -> Result<()> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare { shape: self.shape() });
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self.data[i * self.cols + j] + self.data[j * self.cols + i]);
                self.data[i * self.cols + j] = avg;
                self.data[j * self.cols + i] = avg;
            }
        }
        Ok(())
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &a| m.max(a.abs()))
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square matrices.
    pub fn trace(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare { shape: self.shape() });
        }
        Ok((0..self.rows).map(|i| self.data[i * self.cols + i]).sum())
    }

    /// `A A^T`, assembled without forming the transpose.
    ///
    /// This is the covariance-assembly kernel: with `A` the `n x k` matrix of
    /// canonical-form coefficients, `A A^T` is the shared-factor covariance.
    pub fn gram(&self) -> Matrix {
        let n = self.rows;
        let k = self.cols;
        let mut out = Matrix::zeros(n, n);
        for i in 0..n {
            let ri = &self.data[i * k..(i + 1) * k];
            for j in i..n {
                let rj = &self.data[j * k..(j + 1) * k];
                let dot: f64 = ri.iter().zip(rj).map(|(&a, &b)| a * b).sum();
                out.data[i * n + j] = dot;
                out.data[j * n + i] = dot;
            }
        }
        out
    }

    /// `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|a| a.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        self.add_matrix(rhs).expect("shape mismatch in matrix addition")
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        self.sub_matrix(rhs).expect("shape mismatch in matrix subtraction")
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.scale(s)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix {}x{}", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            writeln!(f)?;
            for i in 0..self.rows {
                write!(f, "  [")?;
                for j in 0..self.cols {
                    if j > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{:.6}", self.data[i * self.cols + j])?;
                }
                writeln!(f, "]")?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:10.4}", self.data[i * self.cols + j])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert!(approx(i.trace().unwrap(), 3.0));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert_eq!(err, LinalgError::RaggedRows { expected: 2, row: 1, found: 1 });
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert_eq!(Matrix::from_rows(&[]).unwrap_err(), LinalgError::Empty);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn from_fn_builds_expected_entries() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap());
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(LinalgError::ShapeMismatch { .. })));
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn submatrix_reorders_and_repeats() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]).unwrap();
        let s = m.submatrix(&[2, 0], &[1, 1]).unwrap();
        assert_eq!(s, Matrix::from_rows(&[&[8.0, 8.0], &[2.0, 2.0]]).unwrap());
        assert!(m.submatrix(&[3], &[0]).is_err());
    }

    #[test]
    fn symmetry_checks() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[2.5, 1.0]]).unwrap();
        assert!(!m.is_symmetric(1e-9));
        assert!(m.is_symmetric(0.6));
        m.symmetrize().unwrap();
        assert!(m.is_symmetric(1e-15));
        assert!(approx(m[(0, 1)], 2.25));
    }

    #[test]
    fn gram_equals_explicit_product() {
        let a =
            Matrix::from_rows(&[&[1.0, 2.0, 0.5], &[0.0, 1.0, -1.0], &[2.0, 0.0, 3.0]]).unwrap();
        let g = a.gram();
        let explicit = a.matmul(&a.transpose()).unwrap();
        assert!((&g - &explicit).max_abs() < 1e-12);
        assert!(g.is_symmetric(0.0));
    }

    #[test]
    fn norms_and_diagonal() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]).unwrap();
        assert_eq!(m.max_abs(), 4.0);
        assert_eq!(m.diagonal(), vec![3.0, 4.0]);
    }

    #[test]
    fn operator_overloads() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::identity(2);
        let sum = &a + &b;
        assert_eq!(sum[(0, 0)], 2.0);
        let diff = &sum - &b;
        assert_eq!(diff, a);
        let scaled = &a * 2.0;
        assert_eq!(scaled[(1, 1)], 8.0);
        let neg = -&a;
        assert_eq!(neg[(0, 1)], -2.0);
    }

    #[test]
    fn get_and_set_bounds() {
        let mut m = Matrix::zeros(2, 2);
        assert_eq!(m.get(1, 1), Some(0.0));
        assert_eq!(m.get(2, 0), None);
        m.set(1, 0, 5.0);
        assert_eq!(m[(1, 0)], 5.0);
    }

    #[test]
    fn debug_is_never_empty() {
        let m = Matrix::zeros(1, 1);
        assert!(!format!("{m:?}").is_empty());
        let big = Matrix::zeros(100, 100);
        assert!(format!("{big:?}").contains("100x100"));
    }

    #[test]
    fn display_formats_rows() {
        let m = Matrix::identity(2);
        let s = m.to_string();
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = Matrix::zeros(2, 2);
        assert!(m.is_finite());
        m.set(0, 0, f64::NAN);
        assert!(!m.is_finite());
    }

    #[test]
    fn from_diagonal_places_entries() {
        let m = Matrix::from_diagonal(&[1.0, 2.0, 3.0]);
        assert_eq!(m.shape(), (3, 3));
        assert_eq!(m[(1, 1)], 2.0);
        assert_eq!(m[(0, 1)], 0.0);
    }
}
