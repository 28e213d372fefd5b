use crate::{LinalgError, Matrix, Result};

/// Eigendecomposition of a symmetric matrix by Householder
/// tridiagonalization followed by the implicit-shift QL algorithm
/// (EISPACK's `tred2`/`tql2`).
///
/// Produces all eigenvalues and orthonormal eigenvectors, sorted by
/// *descending* eigenvalue — the order principal component analysis wants
/// them in. The reduction costs about `2n^3` flops and QL about `6n^3`,
/// most of it plane rotations of the accumulated transform, which is
/// stored transposed so that every reflector and rotation streams over
/// contiguous rows. Procedure 1 decomposes every correlation group's
/// covariance, up to 470 paths in full-size s13207 (about 0.18 s on one
/// core of a 2-vCPU host), so the decomposition must stay cheap at several
/// hundred variables, not just at tens.
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
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    eigenvalues: Vec<f64>,
    /// Eigenvectors as columns, in the same order as `eigenvalues`.
    eigenvectors: Matrix,
}

/// Most implicit QL iterations spent on any one eigenvalue before giving
/// up; EISPACK's `tql2` uses the same cap. Two or three per eigenvalue is
/// typical.
const MAX_QL_ITERATIONS: usize = 30;

impl SymmetricEigen {
    /// Computes the eigendecomposition of a symmetric matrix.
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
        let mut z = m.into_vec();
        let (mut d, mut e) = tridiagonalize(&mut z, n);
        diagonalize(&mut d, &mut e, &mut z, n)?;
        Ok(Self::sorted(d, &z))
    }

    /// Sorts eigenpairs by descending eigenvalue. Row `k` of the row-major
    /// `vectors` is the eigenvector of `values[k]`; ties keep their order.
    fn sorted(values: Vec<f64>, vectors: &[f64]) -> Self {
        let n = values.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| values[b].total_cmp(&values[a]));
        let eigenvalues: Vec<f64> = order.iter().map(|&k| values[k]).collect();
        let mut eigenvectors = Matrix::zeros(n, n);
        for (col, &k) in order.iter().enumerate() {
            for (row, &x) in vectors[k * n..(k + 1) * n].iter().enumerate() {
                eigenvectors[(row, col)] = x;
            }
        }
        SymmetricEigen { eigenvalues, eigenvectors }
    }

    /// Eigenvalues, sorted descending.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Orthonormal eigenvectors as matrix columns, in eigenvalue order.
    pub fn eigenvectors(&self) -> &Matrix {
        &self.eigenvectors
    }

    /// The `k`-th eigenvector as an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn eigenvector(&self, k: usize) -> Vec<f64> {
        self.eigenvectors.col(k)
    }

    /// Dimension of the decomposed matrix.
    pub fn dim(&self) -> usize {
        self.eigenvalues.len()
    }

    /// Reconstructs `V diag(lambda) V^T`; useful mainly for testing.
    pub fn reconstruct(&self) -> Matrix {
        let n = self.dim();
        let mut scaled = self.eigenvectors.clone();
        for j in 0..n {
            for i in 0..n {
                scaled[(i, j)] *= self.eigenvalues[j];
            }
        }
        scaled.matmul(&self.eigenvectors.transpose()).expect("shapes agree by construction")
    }
}

/// Householder reduction of the exactly symmetric, row-major `n x n`
/// matrix `a` to a tridiagonal `T = Q^T A Q` (`tred2`).
///
/// Returns the diagonal of `T` and its subdiagonal, where `e[i]` couples
/// rows `i - 1` and `i` and `e[0] = 0`, and overwrites `a` with `Q^T`.
/// Rows are reduced from the last up. The reflector for row `i` is stored
/// in that row once the row has left the active block, and the reflectors
/// are then accumulated by right-multiplication, so both phases walk rows.
fn tridiagonalize(a: &mut [f64], n: usize) -> (Vec<f64>, Vec<f64>) {
    // `d[i]` holds the norm `h` of reflector `i` (0 for none) until the
    // accumulation below replaces it with the diagonal of `T`.
    let mut d = vec![0.0; n];
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
        d[i] = h;
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
    // Q^T = H_1 H_2 ... H_{n-1}. Reflector i touches only indices below i,
    // so multiplying them in from the left end keeps the product in the
    // leading block, whose rows no longer hold reduction data.
    for i in 0..n {
        let h = d[i];
        if h != 0.0 {
            let (block, rest) = a.split_at_mut(i * n);
            let u = &rest[..i];
            for row in block.chunks_exact_mut(n) {
                let row = &mut row[..i];
                let g = dot(row, u) / h;
                row.iter_mut().zip(u).for_each(|(x, &uk)| *x -= g * uk);
            }
        }
        d[i] = a[i * n + i];
        a[i * n + i] = 1.0;
        for j in 0..i {
            a[i * n + j] = 0.0;
            a[j * n + i] = 0.0;
        }
    }
    (d, e)
}

/// Implicit-shift QL iteration on the symmetric tridiagonal `(d, e)` from
/// [`tridiagonalize`] (`tql2`). On success `d` holds the eigenvalues and
/// row `k` of the row-major `z` (which enters as `Q^T`) the eigenvector of
/// `d[k]`.
fn diagonalize(d: &mut [f64], e: &mut [f64], z: &mut [f64], n: usize) -> Result<()> {
    // Re-index the subdiagonal so `e[i]` couples rows `i` and `i + 1`.
    e.copy_within(1..n, 0);
    e[n - 1] = 0.0;
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
                let (zi, zi1) = z[i * n..(i + 2) * n].split_at_mut(n);
                for (x, y) in zi.iter_mut().zip(zi1) {
                    let t = *y;
                    *y = s * *x + c * t;
                    *x = c * *x - s * t;
                }
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
    use super::symmetric::symmetric_matrix;
    use super::*;
    use crate::Pca;
    use proptest::prelude::*;

    /// The cyclic Jacobi method, the differential oracle for the QL
    /// solver: simple and accurate, but each of its sweeps costs `O(n^3)`
    /// in column-strided updates, seconds at n = 470.
    fn jacobi(a: &Matrix) -> SymmetricEigen {
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
                return SymmetricEigen::sorted(m.diagonal(), v.transpose().as_slice());
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
    fn representatives(pca: &Pca, energy: f64) -> Vec<usize> {
        let mut taken = Vec::new();
        for c in 0..pca.components_for_energy(energy) {
            taken.extend(pca.dominant_variable(c, &taken));
        }
        taken
    }

    fn check_decomposition(a: &Matrix) {
        let eig = SymmetricEigen::new(a).unwrap();
        // Reconstruction.
        let recon = eig.reconstruct();
        let scale = a.max_abs().max(1.0);
        assert!((&recon - a).max_abs() < 1e-9 * scale, "reconstruction failed");
        // Orthonormality of eigenvectors.
        let vtv = eig.eigenvectors().transpose().matmul(eig.eigenvectors()).unwrap();
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
    }

    #[test]
    fn diagonal_matrix_is_trivial() {
        let a = Matrix::from_diagonal(&[5.0, 1.0, 3.0]);
        let eig = SymmetricEigen::new(&a).unwrap();
        assert_eq!(eig.eigenvalues(), &[5.0, 3.0, 1.0]);
        check_decomposition(&a);
    }

    #[test]
    fn handles_negative_eigenvalues() {
        let a = Matrix::from_rows(&[&[0.0, 2.0], &[2.0, 0.0]]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!((eig.eigenvalues()[0] - 2.0).abs() < 1e-12);
        assert!((eig.eigenvalues()[1] + 2.0).abs() < 1e-12);
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
            assert_eq!(Pca::from_covariance(&a).unwrap_err(), want);
        }
    }

    #[test]
    fn ql_reports_a_nan_coupling_instead_of_converging() {
        // `new` rejects non-finite input, so drive the QL phase directly:
        // a NaN subdiagonal must exhaust the cap, not pass as converged.
        let (mut d, mut e, mut z) = (vec![1.0, 1.0], vec![0.0, f64::NAN], vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(
            diagonalize(&mut d, &mut e, &mut z, 2),
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
            let ql = Pca::from_eigen(&SymmetricEigen::new(&a).unwrap());
            let oracle = Pca::from_eigen(&jacobi(&a));
            assert_eq!(representatives(&ql, 0.95), vec![0], "n = {n}");
            assert_eq!(representatives(&oracle, 0.95), vec![0], "n = {n}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ql_agrees_with_the_jacobi_oracle((family, a) in symmetric_matrix(48)) {
            let eig = SymmetricEigen::new(&a).expect("symmetric by construction");
            let oracle = jacobi(&a);
            let lambda = oracle.eigenvalues();
            let scale = lambda.iter().fold(f64::MIN_POSITIVE, |m, l| m.max(l.abs()));
            for (k, (x, y)) in eig.eigenvalues().iter().zip(lambda).enumerate() {
                prop_assert!(
                    (x - y).abs() <= 1e-10 * scale,
                    "{family:?}: eigenvalue {k}: {x} vs {y}"
                );
            }
            // Selection reads the retained eigenvectors, which are unique
            // only where their eigenvalues are simple.
            let (ql, reference) = (Pca::from_eigen(&eig), Pca::from_eigen(&oracle));
            let retained = reference.components_for_energy(0.95);
            let isolated = |k: usize| {
                let below = lambda.get(k + 1).map_or(f64::INFINITY, |l| lambda[k] - l);
                let above = if k == 0 { f64::INFINITY } else { lambda[k - 1] - lambda[k] };
                below.min(above) > 1e-6 * scale
            };
            if (0..retained).all(isolated) {
                prop_assert_eq!(ql.components_for_energy(0.95), retained);
                prop_assert_eq!(representatives(&ql, 0.95), representatives(&reference, 0.95));
            }
        }
    }
}
