use crate::{LinalgError, Matrix, Result};

/// Eigenvalues of a symmetric matrix, with eigenvectors computed on demand
/// for the leading eigenvalues only.
///
/// [`new`](Self::new) reduces the matrix to a tridiagonal `T = Q^T A Q`
/// with Householder reflectors and runs the implicit-shift QL recurrence
/// on `T` (EISPACK's `tred2`/`tql2`), but never forms `Q` or rotates it:
/// the recurrence reads only `T`. That yields every eigenvalue, sorted
/// *descending* — the order principal component analysis wants them in.
/// [`eigenvectors`](Self::eigenvectors) then computes the eigenvectors of
/// the leading `k` eigenvalues by inverse iteration on `T` (LAPACK's
/// `dstein`) and maps each one back through the reflectors the reduction
/// left in place (the `dsyevx` route).
///
/// The reduction costs about `2n^3` flops and the recurrence `O(n^2)`;
/// each eigenvector costs `O(n)` on `T` plus `2n^2` to map back. Procedure
/// 1 decomposes every correlation group's covariance, up to 470 paths in
/// full-size s13207, and reads the directions of only the few components
/// it keeps (one of the 470 there), so rotating all `n` eigenvectors
/// through QL, another `6n^3`, would be mostly wasted.
///
/// # Example
///
/// ```
/// use effitest_linalg::{Matrix, SymmetricEigen};
///
/// # fn main() -> Result<(), effitest_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]])?;
/// let eig = SymmetricEigen::new(&a)?;
/// assert!((eig.eigenvalues()[0] - 3.0).abs() < 1e-12);
/// assert!((eig.eigenvalues()[1] - 1.0).abs() < 1e-12);
/// // The leading eigenvector is (1, 1) / sqrt(2), up to sign.
/// let v = eig.eigenvectors(1)?;
/// assert!((v[(0, 0)] - v[(1, 0)]).abs() < 1e-12);
/// assert!((v[(0, 0)].abs() - 0.5_f64.sqrt()).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues, sorted descending.
    eigenvalues: Vec<f64>,
    /// The reduced matrix, row-major `n x n`: the first `i` entries of row
    /// `i` hold the vector `u` of reflector `i`.
    reflectors: Vec<f64>,
    /// `h` of reflector `i`, `H_i = I - u u^T / h`; 0 where row `i` needed
    /// none.
    norms: Vec<f64>,
    /// Diagonal of `T`.
    diagonal: Vec<f64>,
    /// `off[i]` couples rows `i` and `i + 1` of `T`; `off[n - 1] = 0`.
    off: Vec<f64>,
}

/// Most implicit QL iterations spent on any one eigenvalue before giving
/// up; EISPACK's `tql2` uses the same cap. Two or three per eigenvalue is
/// typical.
const MAX_QL_ITERATIONS: usize = 30;

/// Inverse-iteration steps an iterate gets to pass the growth test
/// (LAPACK's `dstein` uses the same cap). With an eigenvalue from the QL
/// recurrence as the shift, the first step passes.
const MAX_INVERSE_ITERATIONS: usize = 5;

/// Steps taken after an iterate first passes the growth test (`dstein`'s
/// `EXTRA`), each shrinking its error by a further factor of about
/// `eps ||T|| / gap`.
const EXTRA_INVERSE_ITERATIONS: usize = 2;

impl SymmetricEigen {
    /// Computes every eigenvalue of a symmetric matrix and keeps the
    /// reduction for [`eigenvectors`](Self::eigenvectors).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] / [`LinalgError::Empty`] /
    ///   [`LinalgError::NotSymmetric`] for malformed input.
    /// * [`LinalgError::NonFinite`] if any entry is NaN or infinite.
    /// * [`LinalgError::NoConvergence`] if some eigenvalue is still coupled
    ///   to its neighbor after the iteration cap (does not happen for finite
    ///   symmetric input in practice).
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        if let Some(pos) = a.as_slice().iter().position(|x| !x.is_finite()) {
            return Err(LinalgError::NonFinite { row: pos / n, col: pos % n });
        }
        let sym_tol = 1e-8 * a.max_abs().max(1.0);
        let asym = a.max_asymmetry()?;
        if asym > sym_tol {
            return Err(LinalgError::NotSymmetric { max_asymmetry: asym });
        }

        let mut m = a.clone();
        m.symmetrize()?;
        let mut reflectors = m.into_vec();
        let (diagonal, off, norms) = tridiagonalize(&mut reflectors, n);
        let (mut eigenvalues, mut e) = (diagonal.clone(), off.clone());
        diagonalize(&mut eigenvalues, &mut e, |_, _, _| {})?;
        eigenvalues.sort_by(|a, b| b.total_cmp(a));
        Ok(SymmetricEigen { eigenvalues, reflectors, norms, diagonal, off })
    }

    /// Eigenvalues, sorted descending.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Orthonormal eigenvectors of the `count` largest eigenvalues, as the
    /// columns of an `n x count` matrix in eigenvalue order.
    ///
    /// Each comes from inverse iteration on `T` with its eigenvalue as the
    /// shift, started from a fixed pseudo-random vector. Eigenvalues within
    /// `1e-3 ||T||_1` of their predecessor form a cluster, and every
    /// iterate is reorthogonalized against the cluster's earlier vectors,
    /// so the columns stay orthonormal where eigenvalues repeat. An
    /// eigenvector is unique (up to sign) only where its eigenvalue is
    /// simple; there it agrees with a full QL decomposition's to round-off
    /// over the gap to the neighboring eigenvalues. Column `k` is the same
    /// for every `count > k`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::IndexOutOfBounds`] if `count` exceeds the dimension.
    /// * [`LinalgError::NoConvergence`] if an iterate has not grown within
    ///   the iteration cap (does not happen in practice for eigenvalues
    ///   from [`new`](Self::new)).
    pub fn eigenvectors(&self, count: usize) -> Result<Matrix> {
        let n = self.dim();
        if count > n {
            return Err(LinalgError::IndexOutOfBounds { index: count, bound: n + 1 });
        }
        let mut rows =
            tridiagonal_eigenvectors(&self.diagonal, &self.off, &self.eigenvalues[..count])?;
        for y in rows.chunks_exact_mut(n) {
            back_transform(&self.reflectors, &self.norms, y);
        }
        Ok(Matrix::from_fn(n, count, |i, k| rows[k * n + i]))
    }

    /// Dimension of the decomposed matrix.
    pub fn dim(&self) -> usize {
        self.eigenvalues.len()
    }
}

/// Householder reduction of the exactly symmetric, row-major `n x n`
/// matrix `a` to a tridiagonal `T = Q^T A Q` (the reduction of `tred2`).
///
/// Returns the diagonal of `T`, its off-diagonal `e` with `e[i]` coupling
/// rows `i` and `i + 1` (and `e[n - 1] = 0`), and the `h` of each
/// reflector (0 for none). Rows are reduced from the last up, and the
/// vector of reflector `i` stays in the first `i` entries of row `i`,
/// which no later step touches: `Q = H_{n-1} ... H_1` is never formed.
fn tridiagonalize(a: &mut [f64], n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut norms = vec![0.0; n];
    let mut e = vec![0.0; n];
    let mut q = vec![0.0; n];
    for i in (1..n).rev() {
        let (block, rest) = a.split_at_mut(i * n);
        let u = &mut rest[..i];
        let scale: f64 = u.iter().map(|x| x.abs()).sum();
        if i == 1 || scale == 0.0 {
            e[i] = u[i - 1];
            continue;
        }
        // Reflector H = I - u u^T / h mapping row i onto its last entry;
        // scaling first keeps the squared norm from overflowing.
        u.iter_mut().for_each(|x| *x /= scale);
        let sigma2: f64 = u.iter().map(|x| x * x).sum();
        let f = u[i - 1];
        let g = if f >= 0.0 { -sigma2.sqrt() } else { sigma2.sqrt() };
        let h = sigma2 - f * g;
        e[i] = scale * g;
        u[i - 1] = f - g;
        norms[i] = h;
        // H B H = B - u q^T - q u^T over the leading i x i block B, with
        // p = B u / h and q = p - (u.p / 2h) u. The update is symmetric
        // term for term, so B stays exactly symmetric.
        let u = &rest[..i];
        for (j, qj) in q[..i].iter_mut().enumerate() {
            *qj = dot(&block[j * n..j * n + i], u) / h;
        }
        let k = dot(&q[..i], u) / (h + h);
        q[..i].iter_mut().zip(u).for_each(|(qj, &uj)| *qj -= k * uj);
        for (j, (&uj, &qj)) in u.iter().zip(&q[..i]).enumerate() {
            let row = &mut block[j * n..j * n + i];
            for ((b, &qk), &uk) in row.iter_mut().zip(&q[..i]).zip(u) {
                *b -= uj * qk + qj * uk;
            }
        }
    }
    let diagonal = (0..n).map(|i| a[i * n + i]).collect();
    // Re-index the subdiagonal so `e[i]` couples rows `i` and `i + 1`.
    e.copy_within(1..n, 0);
    e[n - 1] = 0.0;
    (diagonal, e, norms)
}

/// Implicit-shift QL recurrence on the symmetric tridiagonal `(d, e)` from
/// [`tridiagonalize`] (`tql2`). On success `d` holds the eigenvalues,
/// unsorted. Each plane rotation, of rows `i` and `i + 1` by `(c, s)`, is
/// reported as `rotate(i, c, s)` for a caller that accumulates
/// eigenvectors; the recurrence itself never reads them.
fn diagonalize(
    d: &mut [f64],
    e: &mut [f64],
    mut rotate: impl FnMut(usize, f64, f64),
) -> Result<()> {
    let n = d.len();
    let mut shift = 0.0;
    let mut tst1 = 0.0_f64;
    for l in 0..n {
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let tol = f64::EPSILON * tst1;
        // The first negligible subdiagonal at or after l bounds the
        // unreduced block l..=m.
        let m = (l..n).find(|&m| e[m].abs() <= tol).unwrap_or(n - 1);
        let mut iterations = 0;
        // A NaN coupling iterates into the cap instead of passing for
        // converged.
        while e[l].abs() > tol || e[l].is_nan() {
            iterations += 1;
            if iterations > MAX_QL_ITERATIONS {
                return Err(LinalgError::NoConvergence {
                    algorithm: "implicit QL",
                    iterations: MAX_QL_ITERATIONS,
                });
            }
            // Wilkinson-style shift from the leading 2 x 2 block.
            let g = d[l];
            let mut p = (d[l + 1] - g) / (2.0 * e[l]);
            let r = if p < 0.0 { -p.hypot(1.0) } else { p.hypot(1.0) };
            d[l] = e[l] / (p + r);
            d[l + 1] = e[l] * (p + r);
            let dl1 = d[l + 1];
            let h = g - d[l];
            d[l + 2..].iter_mut().for_each(|x| *x -= h);
            shift += h;
            // Chase the bulge from m back to l with plane rotations.
            p = d[m];
            let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
            let (mut s, mut s2) = (0.0, 0.0);
            let el1 = e[l + 1];
            for i in (l..m).rev() {
                c3 = c2;
                c2 = c;
                s2 = s;
                let g = c * e[i];
                let h = c * p;
                let r = p.hypot(e[i]);
                e[i + 1] = s * r;
                s = e[i] / r;
                c = p / r;
                p = c * d[i] - s * g;
                d[i + 1] = h + s * (c * g + s * d[i]);
                rotate(i, c, s);
            }
            p = -s * s2 * c3 * el1 * e[l] / dl1;
            e[l] = s * p;
            d[l] = c * p;
        }
        d[l] += shift;
        e[l] = 0.0;
    }
    Ok(())
}

/// Eigenvectors of the symmetric tridiagonal `T` with diagonal `diag` and
/// off-diagonal `off` (as from [`tridiagonalize`]) for the descending
/// eigenvalues `values`, by inverse iteration as in LAPACK's `dstein`.
/// Returns them row-major, row `k` for `values[k]`, each of unit length.
///
/// Every iterate is scaled to a 1-norm of `n ||T||_1 max(eps, |u_nn|)`
/// and solved against `T - x I`; near an eigenvalue it grows past
/// `sqrt(0.1 / n)` in the max norm, and two more steps follow. A shift
/// within `10 eps |x|` below its predecessor is moved that far away from
/// it, so equal eigenvalues get distinct factorizations, and shifts within
/// `1e-3 ||T||_1` of their predecessor form a cluster, whose earlier
/// vectors every iterate is reorthogonalized against (modified
/// Gram–Schmidt).
fn tridiagonal_eigenvectors(diag: &[f64], off: &[f64], values: &[f64]) -> Result<Vec<f64>> {
    let n = diag.len();
    let mut norm = 0.0_f64;
    for i in 0..n {
        let below = if i > 0 { off[i - 1].abs() } else { 0.0 };
        norm = norm.max(diag[i].abs() + off[i].abs() + below);
    }
    // Every vector is an eigenvector of a zero `T`; unit scale keeps the
    // arithmetic below clear of underflow.
    if norm == 0.0 {
        norm = 1.0;
    }
    let cluster_gap = 1e-3 * norm;
    let growth = (0.1 / n as f64).sqrt();
    let mut lu = ShiftedLu::new(n, f64::EPSILON * norm);
    // Start vectors: a fixed 64-bit LCG mapped to [-1, 1).
    let mut state = 0_u64;
    let mut draw = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1_u64 << 52) as f64 - 1.0
    };
    let mut rows = vec![0.0; values.len() * n];
    let (mut prev, mut cluster) = (f64::INFINITY, 0);
    for (j, &lambda) in values.iter().enumerate() {
        let mut x = lambda;
        let separation = 10.0 * (f64::EPSILON * x).abs();
        if prev - x < separation {
            x = prev - separation;
        }
        if prev - x > cluster_gap {
            cluster = j;
        }
        lu.factor(diag, off, x);
        let (done, rest) = rows.split_at_mut(j * n);
        let y = &mut rest[..n];
        y.iter_mut().for_each(|v| *v = draw());
        let (mut steps, mut passed) = (0, 0);
        while passed <= EXTRA_INVERSE_ITERATIONS {
            steps += 1;
            if steps > MAX_INVERSE_ITERATIONS {
                return Err(LinalgError::NoConvergence {
                    algorithm: "inverse iteration",
                    iterations: MAX_INVERSE_ITERATIONS,
                });
            }
            let scale = n as f64 * norm * f64::EPSILON.max(lu.u[n - 1][0].abs())
                / y.iter().map(|v| v.abs()).sum::<f64>();
            y.iter_mut().for_each(|v| *v *= scale);
            lu.solve(y);
            for z in done[cluster * n..].chunks_exact(n) {
                let p = dot(y, z);
                y.iter_mut().zip(z).for_each(|(v, &zk)| *v -= p * zk);
            }
            if y.iter().any(|v| v.abs() >= growth) {
                passed += 1;
            }
        }
        let length = dot(y, y).sqrt();
        y.iter_mut().for_each(|v| *v /= length);
        prev = x;
    }
    Ok(rows)
}

/// Maps an eigenvector `y` of `T` to the eigenvector `Q y` of the matrix
/// [`tridiagonalize`] reduced: `Q = H_{n-1} ... H_1`, so `H_1` applies
/// first.
fn back_transform(reflectors: &[f64], norms: &[f64], y: &mut [f64]) {
    let n = y.len();
    for (i, &h) in norms.iter().enumerate() {
        if h != 0.0 {
            let u = &reflectors[i * n..i * n + i];
            let g = dot(u, &y[..i]) / h;
            y[..i].iter_mut().zip(u).for_each(|(x, &uk)| *x -= g * uk);
        }
    }
}

/// LU factorization with partial pivoting of a shifted tridiagonal
/// `T - x I` (LAPACK's `dlagtf`). Row `k` of `U` holds its entries at
/// columns `k`, `k + 1` and `k + 2`; eliminating column `k` subtracted
/// `l[k].0` times the pivot row from the next, after swapping rows `k` and
/// `k + 1` where `l[k].1`.
#[derive(Debug)]
struct ShiftedLu {
    u: Vec<[f64; 3]>,
    l: Vec<(f64, bool)>,
    /// Smallest pivot magnitude a solve divides by.
    tol: f64,
}

impl ShiftedLu {
    fn new(n: usize, tol: f64) -> Self {
        ShiftedLu { u: vec![[0.0; 3]; n], l: vec![(0.0, false); n], tol }
    }

    /// Factors `T - x I`, `off` as from [`tridiagonalize`].
    fn factor(&mut self, diag: &[f64], off: &[f64], x: f64) {
        let n = diag.len();
        // The row still to be pivoted on: `u` at column k, `v` at k + 1.
        let (mut u, mut v) = (diag[0] - x, off[0]);
        for k in 0..n - 1 {
            let (sub, next, beyond) = (off[k], diag[k + 1] - x, off[k + 1]);
            if sub.abs() > u.abs() {
                let m = u / sub;
                (self.u[k], self.l[k]) = ([sub, next, beyond], (m, true));
                (u, v) = (v - m * next, -m * beyond);
            } else {
                let m = if sub == 0.0 { 0.0 } else { sub / u };
                (self.u[k], self.l[k]) = ([u, v, 0.0], (m, false));
                (u, v) = (next - m * v, beyond);
            }
        }
        self.u[n - 1] = [u, 0.0, 0.0];
    }

    /// Overwrites `y` with `(T - x I)^{-1} y`, with every pivot smaller
    /// than the tolerance raised to it in magnitude (`dlagts`, job -1).
    fn solve(&self, y: &mut [f64]) {
        let n = y.len();
        for (k, &(m, swap)) in self.l[..n - 1].iter().enumerate() {
            if swap {
                y.swap(k, k + 1);
            }
            y[k + 1] -= m * y[k];
        }
        for k in (0..n).rev() {
            let [p, s1, s2] = self.u[k];
            let at = |i: usize| y.get(i).copied().unwrap_or(0.0);
            let r = y[k] - s1 * at(k + 1) - s2 * at(k + 2);
            y[k] = r / if p.abs() < self.tol { self.tol.copysign(p) } else { p };
        }
    }
}

/// Dot product over four interleaved partial sums, which lets the loop
/// pipeline instead of waiting on a single accumulator.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0; 4];
    let (a4, b4) = (a.chunks_exact(4), b.chunks_exact(4));
    let tail: f64 = a4.remainder().iter().zip(b4.remainder()).map(|(x, y)| x * y).sum();
    for (x, y) in a4.zip(b4) {
        for lane in 0..4 {
            acc[lane] += x[lane] * y[lane];
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

#[cfg(test)]
#[path = "../tests/support/symmetric.rs"]
mod symmetric;

#[cfg(test)]
mod tests {
    use super::symmetric::{reconstruct, symmetric_matrix};
    use super::*;
    use crate::Pca;
    use proptest::prelude::*;

    /// A full eigendecomposition from an oracle: descending eigenvalues and
    /// their eigenvectors as columns.
    struct Decomposition {
        values: Vec<f64>,
        vectors: Matrix,
    }

    impl Decomposition {
        /// Sorts eigenpairs by descending eigenvalue. Row `k` of the
        /// row-major `vectors` is the eigenvector of `values[k]`; ties keep
        /// their order.
        fn sorted(values: Vec<f64>, vectors: &[f64]) -> Self {
            let n = values.len();
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| values[b].total_cmp(&values[a]));
            let vectors = Matrix::from_fn(n, n, |row, col| vectors[order[col] * n + row]);
            Decomposition { values: order.iter().map(|&k| values[k]).collect(), vectors }
        }

        /// Procedure 1's PCA over this decomposition.
        fn pca(&self, energy: f64) -> Pca {
            let n = self.values.len();
            Pca::retaining(&self.values, energy, |k| {
                Ok(Matrix::from_fn(n, k, |i, j| self.vectors[(i, j)]))
            })
            .unwrap()
        }
    }

    /// The full-vector QL solver `SymmetricEigen` replaced, kept as the
    /// oracle for its eigenvectors: `tred2` with the reflectors accumulated
    /// into `Q^T`, then `tql2` with every rotation applied to it. It runs
    /// the production reduction and recurrence, so the two cannot drift
    /// apart.
    fn full_ql(a: &Matrix) -> Decomposition {
        let n = a.rows();
        let mut m = a.clone();
        m.symmetrize().unwrap();
        let mut z = m.into_vec();
        let (mut d, mut e, norms) = tridiagonalize(&mut z, n);
        accumulate_reflectors(&mut z, &norms, n);
        diagonalize(&mut d, &mut e, |i, c, s| {
            let (zi, zi1) = z[i * n..(i + 2) * n].split_at_mut(n);
            for (x, y) in zi.iter_mut().zip(zi1) {
                let t = *y;
                *y = s * *x + c * t;
                *x = c * *x - s * t;
            }
        })
        .unwrap();
        Decomposition::sorted(d, &z)
    }

    /// Overwrites the reduced matrix with `Q^T = H_1 H_2 ... H_{n-1}`.
    /// Reflector i touches only indices below i, so multiplying them in
    /// from the left end keeps the product in the leading block, whose rows
    /// no longer hold reduction data.
    fn accumulate_reflectors(a: &mut [f64], norms: &[f64], n: usize) {
        for (i, &h) in norms.iter().enumerate() {
            if h != 0.0 {
                let (block, rest) = a.split_at_mut(i * n);
                let u = &rest[..i];
                for row in block.chunks_exact_mut(n) {
                    let row = &mut row[..i];
                    let g = dot(row, u) / h;
                    row.iter_mut().zip(u).for_each(|(x, &uk)| *x -= g * uk);
                }
            }
            a[i * n + i] = 1.0;
            for j in 0..i {
                a[i * n + j] = 0.0;
                a[j * n + i] = 0.0;
            }
        }
    }

    /// The cyclic Jacobi method, the differential oracle for both QL
    /// solvers: simple and accurate, but each of its sweeps costs `O(n^3)`
    /// in column-strided updates, seconds at n = 470.
    fn jacobi(a: &Matrix) -> Decomposition {
        let n = a.rows();
        let mut m = a.clone();
        m.symmetrize().unwrap();
        let mut v = Matrix::identity(n);
        let tol = 1e-14 * m.max_abs().max(f64::MIN_POSITIVE);
        for _sweep in 0..100 {
            let mut off = 0.0_f64;
            for i in 0..n {
                for j in (i + 1)..n {
                    off = off.max(m[(i, j)].abs());
                }
            }
            if off <= tol {
                return Decomposition::sorted(m.diagonal(), v.transpose().as_slice());
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= tol * 1e-2 {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    // Classic Jacobi rotation computation (Golub & Van Loan).
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        1.0 / (theta - (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    for k in 0..n {
                        let mkp = m[(k, p)];
                        let mkq = m[(k, q)];
                        m[(k, p)] = c * mkp - s * mkq;
                        m[(k, q)] = s * mkp + c * mkq;
                    }
                    for k in 0..n {
                        let mpk = m[(p, k)];
                        let mqk = m[(q, k)];
                        m[(p, k)] = c * mpk - s * mqk;
                        m[(q, k)] = s * mpk + c * mqk;
                    }
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        panic!("jacobi oracle did not converge");
    }

    /// Procedure 1's per-group selection: one representative per retained
    /// component, each the dominant variable not yet taken.
    fn representatives(pca: &Pca) -> Vec<usize> {
        let mut taken = Vec::new();
        for c in 0..pca.components().len() {
            taken.extend(pca.dominant_variable(c, &taken));
        }
        taken
    }

    /// Largest entry-wise difference between column `k` of `a` and of `b`,
    /// up to sign.
    fn column_distance(a: &Matrix, b: &Matrix, k: usize) -> f64 {
        let (x, y) = (a.col(k), b.col(k));
        let gap =
            |sign: f64| x.iter().zip(&y).map(|(p, q)| (p - sign * q).abs()).fold(0.0, f64::max);
        gap(1.0).min(gap(-1.0))
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    /// `true` if eigenvalue `k` of the descending `lambda` is farther than
    /// `gap` from both neighbors.
    fn isolated(lambda: &[f64], k: usize, gap: f64) -> bool {
        let below = lambda.get(k + 1).map_or(f64::INFINITY, |l| lambda[k] - l);
        let above = if k == 0 { f64::INFINITY } else { lambda[k - 1] - lambda[k] };
        below.min(above) > gap
    }

    fn check_decomposition(a: &Matrix) {
        let eig = SymmetricEigen::new(a).unwrap();
        let vectors = eig.eigenvectors(eig.dim()).unwrap();
        // Reconstruction.
        let recon = reconstruct(eig.eigenvalues(), &vectors);
        let scale = a.max_abs().max(1.0);
        assert!((&recon - a).max_abs() < 1e-9 * scale, "reconstruction failed");
        // Orthonormality of eigenvectors.
        let vtv = vectors.transpose().matmul(&vectors).unwrap();
        assert!((&vtv - &Matrix::identity(a.rows())).max_abs() < 1e-10);
        // Descending order.
        for w in eig.eigenvalues().windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn two_by_two_known_values() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!((eig.eigenvalues()[0] - 3.0).abs() < 1e-12);
        assert!((eig.eigenvalues()[1] - 1.0).abs() < 1e-12);
        let v = eig.eigenvectors(2).unwrap();
        let h = 0.5_f64.sqrt();
        assert!((v[(0, 0)] - v[(1, 0)]).abs() < 1e-12 && (v[(0, 0)].abs() - h).abs() < 1e-12);
        assert!((v[(0, 1)] + v[(1, 1)]).abs() < 1e-12 && (v[(0, 1)].abs() - h).abs() < 1e-12);
    }

    #[test]
    fn diagonal_matrix_is_trivial() {
        let a = Matrix::from_diagonal(&[5.0, 1.0, 3.0]);
        let eig = SymmetricEigen::new(&a).unwrap();
        assert_eq!(eig.eigenvalues(), &[5.0, 3.0, 1.0]);
        check_decomposition(&a);
        // A zero matrix and a 1 x 1 one need no reflector.
        check_decomposition(&Matrix::zeros(4, 4));
        let one = SymmetricEigen::new(&Matrix::from_diagonal(&[-2.5])).unwrap();
        assert_eq!(one.eigenvalues(), &[-2.5]);
        assert_eq!(one.eigenvectors(1).unwrap().col(0).iter().map(|x| x.abs()).sum::<f64>(), 1.0);
    }

    #[test]
    fn handles_negative_eigenvalues() {
        let a = Matrix::from_rows(&[&[0.0, 2.0], &[2.0, 0.0]]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!((eig.eigenvalues()[0] - 2.0).abs() < 1e-12);
        assert!((eig.eigenvalues()[1] + 2.0).abs() < 1e-12);
        check_decomposition(&a);
    }

    #[test]
    fn random_symmetric_matrices() {
        let mut state = 0x9E3779B97F4A7C15_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        for n in [1_usize, 2, 3, 4, 7, 12, 25, 64] {
            let mut a = Matrix::from_fn(n, n, |_, _| next());
            let at = a.transpose();
            a = (&a + &at).scale(0.5);
            check_decomposition(&a);
        }
    }

    #[test]
    fn eigenvectors_do_not_depend_on_how_many_are_requested() {
        let a =
            Matrix::from_fn(9, 9, |i, j| 1.0 / (1 + i + j) as f64 + if i == j { 0.5 } else { 0.0 });
        let eig = SymmetricEigen::new(&a).unwrap();
        let all = eig.eigenvectors(9).unwrap();
        for count in 0..9 {
            let some = eig.eigenvectors(count).unwrap();
            assert_eq!(some.shape(), (9, count));
            for k in 0..count {
                assert_eq!(bits(&some.col(k)), bits(&all.col(k)), "count {count}, column {k}");
            }
        }
        assert_eq!(
            eig.eigenvectors(10).unwrap_err(),
            LinalgError::IndexOutOfBounds { index: 10, bound: 10 }
        );
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = Matrix::from_rows(&[&[3.0, 1.0, 0.5], &[1.0, 2.0, 0.2], &[0.5, 0.2, 1.0]]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        let sum: f64 = eig.eigenvalues().iter().sum();
        assert!((sum - a.trace().unwrap()).abs() < 1e-10);
    }

    #[test]
    fn rejects_asymmetric() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(matches!(SymmetricEigen::new(&a), Err(LinalgError::NotSymmetric { .. })));
    }

    #[test]
    fn rejects_non_finite_entries() {
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        let cases = [
            (Matrix::from_rows(&[&[1.0, nan], &[nan, 1.0]]).unwrap(), (0, 1)),
            (Matrix::from_rows(&[&[1.0, inf], &[inf, 1.0]]).unwrap(), (0, 1)),
            (Matrix::from_rows(&[&[nan, 0.0], &[0.0, 1.0]]).unwrap(), (0, 0)),
        ];
        for (a, (row, col)) in cases {
            let want = LinalgError::NonFinite { row, col };
            assert_eq!(SymmetricEigen::new(&a).unwrap_err(), want);
            assert_eq!(Pca::from_covariance(&a, 0.95).unwrap_err(), want);
        }
    }

    #[test]
    fn ql_reports_a_nan_coupling_instead_of_converging() {
        // `new` rejects non-finite input, so drive the QL phase directly:
        // a NaN subdiagonal must exhaust the cap, not pass as converged.
        let (mut d, mut e) = (vec![1.0, 1.0], vec![f64::NAN, 0.0]);
        assert_eq!(
            diagonalize(&mut d, &mut e, |_, _, _| {}),
            Err(LinalgError::NoConvergence {
                algorithm: "implicit QL",
                iterations: MAX_QL_ITERATIONS
            })
        );
    }

    #[test]
    fn rank_deficient_covariance() {
        // Perfectly correlated 3-variable covariance: rank 1.
        let a = Matrix::filled(3, 3, 2.0);
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!((eig.eigenvalues()[0] - 6.0).abs() < 1e-10);
        assert!(eig.eigenvalues()[1].abs() < 1e-10);
        assert!(eig.eigenvalues()[2].abs() < 1e-10);
        check_decomposition(&a);
    }

    #[test]
    fn uniform_top_component_picks_the_same_representative_as_jacobi() {
        // An exchangeable group, like a symmetric H-tree's: the top
        // component is uniform up to round-off and carries the retained
        // energy, and the rest of the spectrum is one repeated eigenvalue.
        // The tie rule in `dominant_variable` makes the pick independent
        // of the solver.
        for n in [2_usize, 5, 16, 89] {
            let a = Matrix::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.98 });
            let pca = Pca::from_covariance(&a, 0.95).unwrap();
            assert_eq!(representatives(&pca), vec![0], "n = {n}");
            assert_eq!(representatives(&full_ql(&a).pca(0.95)), vec![0], "n = {n}");
            assert_eq!(representatives(&jacobi(&a).pca(0.95)), vec![0], "n = {n}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ql_agrees_with_the_jacobi_oracle((family, a) in symmetric_matrix(48)) {
            let eig = SymmetricEigen::new(&a).expect("symmetric by construction");
            let (full, oracle) = (full_ql(&a), jacobi(&a));
            // Dropping the rotations leaves the recurrence as it was.
            prop_assert_eq!(bits(eig.eigenvalues()), bits(&full.values), "{:?}", family);
            let lambda = &oracle.values;
            let scale = lambda.iter().fold(f64::MIN_POSITIVE, |m, l| m.max(l.abs()));
            for (k, (x, y)) in eig.eigenvalues().iter().zip(lambda).enumerate() {
                prop_assert!(
                    (x - y).abs() <= 1e-10 * scale,
                    "{family:?}: eigenvalue {k}: {x} vs {y}"
                );
            }
            // An eigenvector is unique up to sign only where its eigenvalue
            // is simple; outside inverse iteration's clusters the two
            // solvers agree to round-off over the gap.
            let vectors = eig.eigenvectors(eig.dim()).unwrap();
            for k in (0..eig.dim()).filter(|&k| isolated(lambda, k, 1e-3 * scale)) {
                let distance = column_distance(&vectors, &full.vectors, k);
                prop_assert!(distance <= 1e-10, "{family:?}: eigenvector {k} off by {distance}");
            }
            // Selection reads the retained eigenvectors.
            let pca = Pca::from_covariance(&a, 0.95).unwrap();
            let reference = oracle.pca(0.95);
            let retained = reference.components().len();
            if (0..retained).all(|k| isolated(lambda, k, 1e-6 * scale)) {
                prop_assert_eq!(pca.components().len(), retained);
                prop_assert_eq!(representatives(&pca), representatives(&reference));
                prop_assert_eq!(representatives(&full.pca(0.95)), representatives(&reference));
            }
        }
    }

    #[test]
    fn s13207_largest_group_matches_the_full_ql_oracle() {
        use effitest_circuit::{BenchmarkSpec, GeneratedBenchmark};
        use effitest_ssta::{TimingModel, VariationConfig};
        // Procedure 1's largest PCA on the paper's circuits: path 0 and
        // every path correlated with it at 0.95 or more.
        let bench = GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s13207(), 1);
        let model = TimingModel::build(&bench, &VariationConfig::paper());
        let members: Vec<usize> = (0..model.path_count())
            .filter(|&p| p == 0 || model.correlation(0, p) >= 0.95)
            .collect();
        let n = members.len();
        assert_eq!(n, 470);
        let cov = model.covariance_matrix(&members).as_slice().to_vec();
        let a = Matrix::from_vec(n, n, cov).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        let full = full_ql(&a);
        assert_eq!(bits(eig.eigenvalues()), bits(&full.values));
        let pca = Pca::from_covariance(&a, 0.95).unwrap();
        assert_eq!(pca.components().len(), 1);
        let reference = full.pca(0.95);
        assert_eq!(representatives(&pca), representatives(&reference));
        let kept = eig.eigenvectors(1).unwrap();
        let distance = column_distance(&kept, &full.vectors, 0);
        assert!(distance <= 1e-10, "leading eigenvector off by {distance}");
    }
}
