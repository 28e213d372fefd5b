use crate::{Matrix, Result, SymmetricEigen};

/// Relative gap below which [`Pca::dominant_variable`] treats two loadings
/// as tied. Eigensolver round-off is orders of magnitude smaller, and the
/// smallest non-zero gap between the top two candidate loadings on the
/// eight paper circuits is 3.9e-4 (pci_bridge32).
const LOADING_TIE: f64 = 1e-9;

/// One principal component of a covariance matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct PrincipalComponent {
    /// Variance captured by this component (the eigenvalue).
    pub variance: f64,
    /// Unit-norm direction (the eigenvector).
    pub direction: Vec<f64>,
}

/// Principal component analysis of a covariance matrix.
///
/// The EffiTest path-selection step (paper §3.1, Procedure 1) decomposes each
/// correlation group's covariance with PCA, keeps the components that carry
/// the shared (correlated) variation, and then tests exactly one
/// representative path per retained component. `Pca` holds every
/// component's variance, for the energy bookkeeping that decides how many
/// components matter, but the directions and per-variable *loadings* of
/// the retained components only: only those are ever computed.
///
/// # Example
///
/// ```
/// use effitest_linalg::{Matrix, Pca};
///
/// # fn main() -> Result<(), effitest_linalg::LinalgError> {
/// // Two strongly correlated variables plus one independent one.
/// let cov = Matrix::from_rows(&[
///     &[1.00, 0.95, 0.0],
///     &[0.95, 1.00, 0.0],
///     &[0.00, 0.00, 1.0],
/// ])?;
/// let pca = Pca::from_covariance(&cov, 0.98)?;
/// // Two components explain (1.95 + 1.0) / 3.0 > 98% of the energy.
/// assert_eq!(pca.components().len(), 2);
/// assert_eq!(pca.variances().len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Pca {
    /// Every component's variance, descending.
    variances: Vec<f64>,
    /// The retained components, the leading ones.
    components: Vec<PrincipalComponent>,
    total_variance: f64,
}

impl Pca {
    /// Runs PCA on a symmetric covariance matrix and retains the fewest
    /// leading components whose cumulative variance reaches `energy` of
    /// the total ([`components_for_energy`](Self::components_for_energy)).
    ///
    /// Eigenvalues that are negative due to round-off are clamped to zero.
    ///
    /// # Errors
    ///
    /// Propagates [`SymmetricEigen`] errors for malformed input.
    pub fn from_covariance(cov: &Matrix, energy: f64) -> Result<Self> {
        let eig = SymmetricEigen::new(cov)?;
        Self::retaining(eig.eigenvalues(), energy, |count| eig.eigenvectors(count))
    }

    /// PCA from the descending eigenvalues of a covariance, retaining the
    /// components that reach `energy`; `vectors(k)` returns the leading
    /// `k` eigenvectors as matrix columns.
    pub(crate) fn retaining(
        eigenvalues: &[f64],
        energy: f64,
        vectors: impl FnOnce(usize) -> Result<Matrix>,
    ) -> Result<Self> {
        let variances: Vec<f64> = eigenvalues.iter().map(|&lambda| lambda.max(0.0)).collect();
        let total_variance = variances.iter().sum();
        let mut pca = Pca { variances, components: Vec::new(), total_variance };
        let retained = pca.components_for_energy(energy);
        let directions = vectors(retained)?;
        pca.components = (0..retained)
            .map(|k| PrincipalComponent {
                variance: pca.variances[k],
                direction: directions.col(k),
            })
            .collect();
        Ok(pca)
    }

    /// The retained components, sorted by descending variance.
    pub fn components(&self) -> &[PrincipalComponent] {
        &self.components
    }

    /// Every component's variance, retained or not, sorted descending.
    pub fn variances(&self) -> &[f64] {
        &self.variances
    }

    /// Total variance (trace of the covariance).
    pub fn total_variance(&self) -> f64 {
        self.total_variance
    }

    /// Number of variables the PCA was computed over.
    pub fn dim(&self) -> usize {
        self.variances.len()
    }

    /// Fraction of total variance captured by the first `k` components.
    ///
    /// Returns 1.0 when the total variance is zero (degenerate but
    /// well-defined: there is nothing left to explain).
    pub fn energy_fraction(&self, k: usize) -> f64 {
        if self.total_variance <= 0.0 {
            return 1.0;
        }
        let captured: f64 = self.variances.iter().take(k).sum();
        captured / self.total_variance
    }

    /// Smallest number of components whose cumulative variance reaches
    /// `energy` (a fraction in `[0, 1]`). At least 1 for non-empty input.
    pub fn components_for_energy(&self, energy: f64) -> usize {
        if self.variances.is_empty() {
            return 0;
        }
        let target = energy.clamp(0.0, 1.0) * self.total_variance;
        let mut acc = 0.0;
        for (k, variance) in self.variances.iter().enumerate() {
            acc += variance;
            if acc + 1e-12 >= target {
                return k + 1;
            }
        }
        self.variances.len()
    }

    /// Loading of variable `var` on component `comp`:
    /// `sqrt(lambda_comp) * v_comp[var]`.
    ///
    /// The loading is the covariance between the original variable and the
    /// (unit-variance) principal component; the paper selects, per component,
    /// the path with the largest absolute loading as its tested
    /// representative.
    ///
    /// # Panics
    ///
    /// Panics if `comp` is not a retained component or `var` is out of
    /// range.
    pub fn loading(&self, comp: usize, var: usize) -> f64 {
        let c = &self.components[comp];
        c.variance.sqrt() * c.direction[var]
    }

    /// For retained component `comp`, the index of the variable with the
    /// largest absolute loading, ignoring the indices in `excluded`.
    ///
    /// Loadings within a relative `1e-9` of the largest count as tied, and
    /// the lowest tied index wins. Symmetric groups have components whose
    /// loadings are equal in exact arithmetic, so without the rule the pick
    /// would follow the eigensolver's round-off.
    ///
    /// Returns `None` if every variable is excluded.
    pub fn dominant_variable(&self, comp: usize, excluded: &[usize]) -> Option<usize> {
        let candidates = || {
            self.components[comp]
                .direction
                .iter()
                .enumerate()
                .filter(|(i, _)| !excluded.contains(i))
                .map(|(i, v)| (i, v.abs()))
        };
        let max = candidates().map(|(_, a)| a).reduce(f64::max)?;
        candidates().find(|&(_, a)| a >= max - LOADING_TIE * max).map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered_cov() -> Matrix {
        // Variables 0..3 strongly correlated; variable 3 independent with
        // larger variance so the test also exercises the sort order.
        Matrix::from_rows(&[
            &[1.0, 0.9, 0.9, 0.0],
            &[0.9, 1.0, 0.9, 0.0],
            &[0.9, 0.9, 1.0, 0.0],
            &[0.0, 0.0, 0.0, 2.0],
        ])
        .unwrap()
    }

    #[test]
    fn energy_accumulates_to_one() {
        let pca = Pca::from_covariance(&clustered_cov(), 0.95).unwrap();
        assert!((pca.energy_fraction(pca.dim()) - 1.0).abs() < 1e-12);
        assert!(pca.energy_fraction(0) == 0.0);
        assert!(pca.energy_fraction(1) > 0.0);
    }

    #[test]
    fn component_count_for_thresholds() {
        let pca = Pca::from_covariance(&clustered_cov(), 0.95).unwrap();
        // Total variance = 5.0. Cluster PC = 2.8, independent = 2.0,
        // residuals = 0.1 each.
        assert_eq!(pca.components_for_energy(0.5), 1);
        assert_eq!(pca.components_for_energy(0.95), 2);
        assert_eq!(pca.components_for_energy(1.0), 4);
        // Exactly the components the energy needs are retained, and every
        // variance is kept.
        for (energy, retained) in [(0.5, 1), (0.95, 2), (1.0, 4)] {
            let pca = Pca::from_covariance(&clustered_cov(), energy).unwrap();
            assert_eq!(pca.components().len(), retained, "energy {energy}");
            assert_eq!(pca.variances().len(), 4);
            assert_eq!(pca.dim(), 4);
        }
    }

    #[test]
    fn retained_components_are_the_leading_ones_whatever_the_energy() {
        let all = Pca::from_covariance(&clustered_cov(), 1.0).unwrap();
        let one = Pca::from_covariance(&clustered_cov(), 0.5).unwrap();
        assert_eq!(one.components()[0], all.components()[0]);
        assert_eq!(one.variances(), all.variances());
        assert_eq!(one.total_variance(), all.total_variance());
    }

    #[test]
    fn total_variance_is_trace() {
        let cov = clustered_cov();
        let pca = Pca::from_covariance(&cov, 0.95).unwrap();
        assert!((pca.total_variance() - cov.trace().unwrap()).abs() < 1e-10);
    }

    #[test]
    fn dominant_variable_respects_exclusions() {
        let pca = Pca::from_covariance(&clustered_cov(), 0.95).unwrap();
        // First component is the cluster: dominated by one of 0..3 (they are
        // symmetric so any of them may win).
        let first = pca.dominant_variable(0, &[]).unwrap();
        assert!(first < 3);
        let second = pca.dominant_variable(0, &[first]).unwrap();
        assert_ne!(second, first);
        assert!(second < 3);
        assert_eq!(pca.dominant_variable(0, &[0, 1, 2, 3]), None);
    }

    #[test]
    fn dominant_variable_breaks_near_ties_by_lowest_index() {
        let pca = Pca {
            variances: vec![1.0, 0.0, 0.0, 0.0],
            components: vec![PrincipalComponent {
                variance: 1.0,
                direction: vec![0.5, -0.5 * (1.0 + 1e-12), 0.5 * (1.0 - 1e-12), 0.4],
            }],
            total_variance: 1.0,
        };
        // All three leading loadings tie; the lowest index not excluded wins.
        assert_eq!(pca.dominant_variable(0, &[]), Some(0));
        assert_eq!(pca.dominant_variable(0, &[0]), Some(1));
        assert_eq!(pca.dominant_variable(0, &[0, 1]), Some(2));
        assert_eq!(pca.dominant_variable(0, &[0, 1, 2]), Some(3));
        // A gap well above the tie tolerance is a real difference.
        let pca = Pca {
            variances: vec![1.0, 0.0],
            components: vec![PrincipalComponent {
                variance: 1.0,
                direction: vec![0.5, -0.5 * (1.0 + 1e-6)],
            }],
            total_variance: 1.0,
        };
        assert_eq!(pca.dominant_variable(0, &[]), Some(1));
    }

    #[test]
    fn loadings_reproduce_variable_variance() {
        // sum_k loading(k, i)^2 == var(i) for exact PCA.
        let cov = clustered_cov();
        let pca = Pca::from_covariance(&cov, 1.0).unwrap();
        assert_eq!(pca.components().len(), pca.dim());
        for var in 0..4 {
            let sum: f64 = (0..pca.dim()).map(|k| pca.loading(k, var).powi(2)).sum();
            assert!((sum - cov[(var, var)]).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_covariance_is_degenerate_but_safe() {
        let cov = Matrix::zeros(3, 3);
        let pca = Pca::from_covariance(&cov, 0.95).unwrap();
        assert_eq!(pca.total_variance(), 0.0);
        assert_eq!(pca.energy_fraction(0), 1.0);
        assert_eq!(pca.components_for_energy(0.95), 1);
        // Any unit vector is a direction of the zero covariance.
        let direction = &pca.components()[0].direction;
        assert!((direction.iter().map(|x| x * x).sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn negative_roundoff_eigenvalues_clamped() {
        // Rank-1 matrix: residual eigenvalues may round to tiny negatives.
        let cov = Matrix::filled(4, 4, 1.0);
        let pca = Pca::from_covariance(&cov, 0.99).unwrap();
        assert!(pca.variances().iter().all(|&v| v >= 0.0));
        assert_eq!(pca.components_for_energy(0.99), 1);
    }
}
