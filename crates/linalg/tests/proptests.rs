//! Property-based tests for the linear-algebra kernel.

use effitest_linalg::{
    stats, CholeskyDecomposition, GaussianConditioner, LinalgError, LuDecomposition, Matrix,
    MultivariateGaussian, Pca, SymmetricEigen,
};
use proptest::prelude::*;

#[path = "support/symmetric.rs"]
mod symmetric;
use symmetric::{reconstruct, symmetric_matrix, Family};

#[path = "support/dense_gaussian.rs"]
mod dense_gaussian;

/// Strategy: a well-conditioned SPD matrix built as `B B^T + n*I`.
fn spd_matrix(max_n: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(-2.0_f64..2.0, n * n).prop_map(move |data| {
            let b = Matrix::from_vec(n, n, data).expect("sized correctly");
            let mut g = b.gram();
            for i in 0..n {
                let v = g[(i, i)];
                g[(i, i)] = v + n as f64 * 0.5;
            }
            g
        })
    })
}

/// Strategy: an `n x n` symmetric "covariance", `n` in `2..=max_n`: well
/// conditioned SPD, rank deficient (the Gram matrix of `n / 2` vectors), or
/// indefinite (a symmetrized random matrix).
fn covariance_family(max_n: usize) -> impl Strategy<Value = Matrix> {
    (0_u8..3, 2..=max_n).prop_flat_map(|(family, n)| {
        proptest::collection::vec(-2.0_f64..2.0, n * n).prop_map(move |data| {
            let m = Matrix::from_vec(n, n, data).expect("sized correctly");
            match family {
                0 => {
                    let mut g = m.gram();
                    for i in 0..n {
                        g[(i, i)] += n as f64 * 0.5;
                    }
                    g
                }
                1 => Matrix::from_fn(n, n / 2, |i, j| m[(i, j)]).gram(),
                _ => Matrix::from_fn(n, n, |i, j| m[(i, j)] + m[(j, i)]),
            }
        })
    })
}

/// Strategy: a general nonsingular matrix (diagonally dominated).
fn nonsingular_matrix(max_n: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(-2.0_f64..2.0, n * n).prop_map(move |data| {
            let mut m = Matrix::from_vec(n, n, data).expect("sized correctly");
            for i in 0..n {
                let v = m[(i, i)];
                m[(i, i)] = v + if v >= 0.0 { 3.0 + n as f64 } else { -3.0 - n as f64 };
            }
            m
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solve_has_small_residual(
        a in nonsingular_matrix(8),
        seed in 0_u64..1000,
    ) {
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| ((seed as f64) * 0.37 + i as f64).sin()).collect();
        let lu = LuDecomposition::new(&a).expect("matrix is diagonally dominant");
        let x = lu.solve_vec(&b).expect("sizes agree");
        let back = a.matvec(&x).expect("sizes agree");
        for (l, r) in back.iter().zip(&b) {
            prop_assert!((l - r).abs() < 1e-8);
        }
    }

    #[test]
    fn cholesky_reconstructs_spd(a in spd_matrix(8)) {
        let chol = CholeskyDecomposition::new(&a).expect("strategy produces SPD");
        let recon = chol.l().matmul(&chol.l().transpose()).expect("square");
        prop_assert!((&recon - &a).max_abs() < 1e-9 * a.max_abs().max(1.0));
        prop_assert_eq!(chol.jitter(), 0.0);
    }

    #[test]
    fn eigen_reconstructs_and_is_orthonormal((family, a) in symmetric_matrix(48)) {
        let eig = SymmetricEigen::new(&a).expect("symmetric by construction");
        // Every eigenvector, so the repeated family's clusters are
        // reorthogonalized in full.
        let vectors = eig.eigenvectors(a.rows()).expect("inverse iteration converges");
        let scale = a.max_abs().max(1.0);
        let recon = reconstruct(eig.eigenvalues(), &vectors);
        prop_assert!((&recon - &a).max_abs() < 1e-8 * scale, "{family:?}");
        let vtv = vectors.transpose().matmul(&vectors).expect("square");
        prop_assert!((&vtv - &Matrix::identity(a.rows())).max_abs() < 1e-9, "{family:?}");
        let lambda = eig.eigenvalues();
        for w in lambda.windows(2) {
            prop_assert!(w[0] >= w[1], "eigenvalues not descending: {:?}", w);
        }
        // Every family is positive semidefinite; the SPD one strictly.
        let smallest = lambda[lambda.len() - 1];
        match family {
            Family::PositiveDefinite => prop_assert!(smallest > 0.0),
            _ => prop_assert!(smallest > -1e-10 * scale, "{family:?}: {smallest}"),
        }
        // Rank deficiency shows as numerically zero trailing eigenvalues.
        if family == Family::RankDeficient {
            let rank = (a.rows() + 1) / 3;
            for &l in &lambda[rank..] {
                prop_assert!(l.abs() < 1e-10 * scale, "rank {rank} input: eigenvalue {l}");
            }
        }
    }

    #[test]
    fn pca_energy_is_monotone_and_normalized(a in spd_matrix(8)) {
        let pca = Pca::from_covariance(&a, 0.95).expect("symmetric");
        let mut prev = 0.0;
        for k in 0..=pca.dim() {
            let e = pca.energy_fraction(k);
            prop_assert!(e + 1e-12 >= prev);
            prev = e;
        }
        prop_assert!((pca.energy_fraction(pca.dim()) - 1.0).abs() < 1e-9);
        // components_for_energy is consistent with energy_fraction.
        let k95 = pca.components_for_energy(0.95);
        prop_assert!(pca.energy_fraction(k95) + 1e-9 >= 0.95);
        prop_assert_eq!(pca.components().len(), k95);
    }

    #[test]
    fn conditioning_never_inflates_variance(
        a in spd_matrix(6),
        values in proptest::collection::vec(-3.0_f64..3.0, 1..6),
    ) {
        let n = a.rows();
        prop_assume!(n >= 2);
        let mean = vec![0.0; n];
        let g = MultivariateGaussian::new(mean, a.clone()).expect("valid");
        let n_obs = values.len().min(n - 1);
        let observed_idx: Vec<usize> = (0..n_obs).collect();
        let cond = g.conditioner(&observed_idx).expect("valid conditioning");
        for (&orig, &sigma) in cond.remaining_indices().iter().zip(cond.conditional_sigmas()) {
            let before = a[(orig, orig)];
            let after = sigma * sigma;
            prop_assert!(after <= before + 1e-7, "variance grew: {before} -> {after}");
            prop_assert!(sigma >= 0.0);
        }
    }

    #[test]
    fn conditioner_matches_brute_force_dense_conditional(
        a in spd_matrix(8),
        values in proptest::collection::vec(-3.0_f64..3.0, 1..8),
        seed in 0_u64..1000,
    ) {
        // The precomputed conditioner must agree with the textbook dense
        // conditional computed from an explicit LU inverse of Sigma_oo:
        //   mu'  = mu_u + Sigma_uo Sigma_oo^-1 (d - mu_o)
        //   Sig' = Sigma_uu - Sigma_uo Sigma_oo^-1 Sigma_ou
        let n = a.rows();
        prop_assume!(n >= 2);
        let mean: Vec<f64> = (0..n).map(|i| ((seed as f64) * 0.71 + i as f64).cos()).collect();
        let g = MultivariateGaussian::new(mean.clone(), a.clone()).expect("valid");
        let n_obs = values.len().min(n - 1);
        let observed: Vec<usize> = (0..n_obs).collect();
        let remaining: Vec<usize> = (n_obs..n).collect();
        let conditioner = g.conditioner(&observed).expect("SPD observed block");
        prop_assert_eq!(conditioner.remaining_indices(), remaining.as_slice());

        let sigma_oo = a.submatrix(&observed, &observed).unwrap();
        let sigma_uo = a.submatrix(&remaining, &observed).unwrap();
        let inv = LuDecomposition::new(&sigma_oo).expect("SPD is nonsingular").inverse().unwrap();
        let innovation: Vec<f64> =
            observed.iter().zip(&values).map(|(&i, &v)| v - mean[i]).collect();
        let gain = sigma_uo.matmul(&inv).unwrap();
        let shift = gain.matvec(&innovation).unwrap();
        let brute_cov = a
            .submatrix(&remaining, &remaining)
            .unwrap()
            .sub_matrix(&gain.matmul(&sigma_uo.transpose()).unwrap())
            .unwrap();

        let cond_mean = conditioner.condition_mean(&values[..n_obs]).unwrap();
        let scale = a.max_abs().max(1.0);
        for (pos, &orig) in remaining.iter().enumerate() {
            prop_assert!((cond_mean[pos] - (mean[orig] + shift[pos])).abs() < 1e-9 * scale);
            let brute_sigma = brute_cov[(pos, pos)].max(0.0).sqrt();
            prop_assert!((conditioner.conditional_sigmas()[pos] - brute_sigma).abs() < 1e-9 * scale);
        }
        // Exact-arithmetic regime: no regularization was needed.
        prop_assert_eq!(conditioner.jitter(), 0.0);
    }

    #[test]
    fn conditioner_degrades_gracefully_on_rank_deficient_observed_blocks(
        a in spd_matrix(6),
        values in proptest::collection::vec(-2.0_f64..2.0, 2..6),
    ) {
        // Duplicate variable 1 as a clone of variable 0: the observed block
        // {0, 1} becomes exactly rank-deficient. The conditioner must take
        // the regularized path (positive jitter), stay finite, and remain
        // bitwise consistent with from-scratch conditioning.
        let n = a.rows();
        prop_assume!(n >= 3);
        let mut dup = a.clone();
        for j in 0..n {
            let v = dup[(0, j)];
            dup[(1, j)] = v;
            dup[(j, 1)] = v;
        }
        dup[(1, 1)] = dup[(0, 0)];
        let g = MultivariateGaussian::new(vec![0.0; n], dup).expect("still symmetric PSD");
        let observed = [0_usize, 1];
        let conditioner = g.conditioner(&observed).expect("regularization must rescue PSD");
        // Rounding can leave the zero pivot epsilon-positive, so jitter is
        // not always engaged — but it must never be negative, and the
        // exactly-singular case (guaranteed jitter) is pinned by the unit
        // test `conditioner_surfaces_degenerate_observed_blocks`.
        prop_assert!(conditioner.jitter() >= 0.0);
        let vals = [values[0], values[1]];
        let mean = conditioner.condition_mean(&vals).unwrap();
        let cond = dense_gaussian::condition(&g, &observed, &vals).unwrap();
        for (pos, (m, c)) in mean.iter().zip(&cond.mean).enumerate() {
            prop_assert!(m.is_finite());
            prop_assert_eq!(m.to_bits(), c.to_bits(), "mean drifted at {}", pos);
        }
        for (&s, scratch) in conditioner.conditional_sigmas().iter().zip(cond.sigmas()) {
            prop_assert!(s.is_finite() && s >= 0.0);
            prop_assert_eq!(s.to_bits(), scratch.to_bits());
        }
    }

    #[test]
    fn block_built_conditioner_matches_the_dense_oracle_bitwise(
        a in covariance_family(8),
        raw in proptest::collection::vec(0_usize..9, 0..8),
        seed in 0_u64..1000,
    ) {
        // The accessor-built conditioner reads only Sigma_oo, Sigma_uo and
        // the unobserved variances; the oracle forms the full conditional
        // covariance. Means, sigmas, jitter and errors must agree bit for
        // bit. Raw index 8 stands for an out-of-range index, and repeated
        // indices make the observed block singular.
        let n = a.rows();
        let observed: Vec<usize> = raw.iter().map(|&r| if r == 8 { n } else { r % n }).collect();
        let mean: Vec<f64> = (0..n).map(|i| ((seed as f64) * 0.37 + i as f64).sin()).collect();
        let values: Vec<f64> =
            (0..observed.len()).map(|k| ((seed + k as u64) as f64 * 0.61).cos() * 3.0).collect();
        let g = MultivariateGaussian::new(mean.clone(), a.clone()).expect("symmetric");
        let block = GaussianConditioner::new(n, &observed, |i| mean[i], |i, j| a[(i, j)]);
        match (block, dense_gaussian::condition(&g, &observed, &values)) {
            (Err(LinalgError::Empty), Ok(_)) => prop_assert!(observed.is_empty()),
            (Err(e), Err(d)) => prop_assert_eq!(e, d),
            (Ok(block), Ok(dense)) => {
                prop_assert_eq!(block.remaining_indices(), dense.remaining.as_slice());
                prop_assert_eq!(block.jitter().to_bits(), dense.jitter.to_bits());
                let means = block.condition_mean(&values).unwrap();
                for (x, y) in means.iter().zip(&dense.mean) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
                for (x, y) in block.conditional_sigmas().iter().zip(dense.sigmas()) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            (block, dense) => {
                prop_assert!(false, "block {:?} vs dense {:?}", block.err(), dense.err());
            }
        }
    }

    #[test]
    fn matmul_is_associative(
        a in nonsingular_matrix(5),
        seed in 0_u64..100,
    ) {
        let n = a.rows();
        let b = Matrix::from_fn(n, n, |i, j| ((i + 2 * j) as f64 + seed as f64 * 0.1).cos());
        let c = Matrix::from_fn(n, n, |i, j| ((3 * i + j) as f64 - seed as f64 * 0.2).sin());
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!((&left - &right).max_abs() < 1e-9 * left.max_abs().max(1.0));
    }

    #[test]
    fn transpose_is_involution(a in nonsingular_matrix(8)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn empirical_quantile_is_monotone(
        mut xs in proptest::collection::vec(-100.0_f64..100.0, 1..50),
        q1 in 0.0_f64..1.0,
        q2 in 0.0_f64..1.0,
    ) {
        xs.iter_mut().for_each(|x| *x = x.round());
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(stats::empirical_quantile(&xs, lo) <= stats::empirical_quantile(&xs, hi));
    }
}
