use std::cmp::Ordering;

/// A first-order canonical (linear Gaussian) delay form:
///
/// ```text
/// D = mean + sum_k coeffs[k] * Z_k + sum_g indep[g] * E_g + extra * E_path
/// ```
///
/// where `Z_k` are the shared spatial factors of a
/// [`FactorSpace`](crate::FactorSpace), `E_g` are per-gate independent
/// standard normals (shared between paths that share gate `g`), and
/// `E_path` is a per-path independent standard normal used only by the
/// inflated-variation experiment (paper Fig. 7: sigmas grow, covariances do
/// not).
///
/// Both coefficient lists are sparse: a gate chain touches the global
/// factors and the few grid cells it crosses, so most of a form's factor
/// coefficients are zero, and only the nonzero ones are stored. Skipping
/// the zero terms changes no bit of an evaluation or a covariance: every
/// sum runs in index order and starts at `+0.0` or at the mean, and adding
/// `±0.0` to a running sum that is not `-0.0` leaves it unchanged.
///
/// All second-order statistics are exact consequences of this form:
/// variance, covariance, and correlation are plain dot products.
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalDelay {
    /// Mean delay (ps).
    pub mean: f64,
    /// Nonzero coefficients over the shared spatial factors, sorted
    /// ascending by factor index: `(factor_index, coefficient)`. A factor
    /// missing from the list has coefficient zero.
    pub coeffs: Vec<(u32, f64)>,
    /// Per-gate independent components, sorted ascending by gate index:
    /// `(gate_index, coefficient)`.
    pub indep: Vec<(u32, f64)>,
    /// Per-path independent component (0 unless variance was inflated).
    pub extra: f64,
}

impl CanonicalDelay {
    /// A deterministic delay (no variation).
    pub fn constant(mean: f64) -> Self {
        CanonicalDelay { mean, coeffs: Vec::new(), indep: Vec::new(), extra: 0.0 }
    }

    /// Variance of the form.
    pub fn variance(&self) -> f64 {
        let shared = self.coeffs.iter().fold(0.0, |s, &(_, c)| s + c * c);
        let indep: f64 = self.indep.iter().map(|(_, c)| c * c).sum();
        shared + indep + self.extra * self.extra
    }

    /// Standard deviation of the form.
    pub fn sigma(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Covariance with another form over the same factor space.
    ///
    /// Shared factors and per-gate independent parts contribute only where
    /// both forms have a coefficient, summed in index order. The per-path
    /// `extra` components never co-vary.
    pub fn covariance(&self, other: &CanonicalDelay) -> f64 {
        let shared = sorted_dot(0.0, &self.coeffs, &other.coeffs);
        sorted_dot(shared, &self.indep, &other.indep)
    }

    /// Correlation with another form (0 if either is deterministic).
    pub fn correlation(&self, other: &CanonicalDelay) -> f64 {
        let va = self.variance();
        let vb = other.variance();
        if va <= 0.0 || vb <= 0.0 {
            return 0.0;
        }
        (self.covariance(other) / (va.sqrt() * vb.sqrt())).clamp(-1.0, 1.0)
    }

    /// Evaluates the form for a concrete factor realization.
    ///
    /// `z` maps factor index to its standard normal; `gate_eps` maps gate
    /// index to its independent standard normal; `path_eps` realizes the
    /// per-path `extra` component. Only the entries the form has
    /// coefficients on are read.
    ///
    /// # Panics
    ///
    /// Panics if `z` or `gate_eps` is too short for an index in the form.
    pub fn evaluate(&self, z: &[f64], gate_eps: &[f64], path_eps: f64) -> f64 {
        let mut d = self.mean;
        for &(k, c) in &self.coeffs {
            d += c * z[k as usize];
        }
        for &(g, c) in &self.indep {
            d += c * gate_eps[g as usize];
        }
        d + self.extra * path_eps
    }

    /// Returns a copy whose total sigma is scaled by `factor` (>= 1) by
    /// growing only the per-path independent `extra` term, leaving all
    /// covariances with other paths untouched — the paper's Fig.-7 setup.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1`.
    pub fn with_inflated_sigma(&self, factor: f64) -> Self {
        assert!(factor >= 1.0, "sigma inflation factor must be >= 1");
        let var = self.variance();
        let added = var * (factor * factor - 1.0);
        let mut out = self.clone();
        out.extra = (self.extra * self.extra + added).sqrt();
        out
    }
}

/// `acc` plus the products of the entries two index-sorted
/// `(index, coefficient)` lists share, added in index order.
fn sorted_dot(mut acc: f64, a: &[(u32, f64)], b: &[(u32, f64)]) -> f64 {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                acc += a[i].1 * b[j].1;
                i += 1;
                j += 1;
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A form from dense factor coefficients (zeros dropped).
    fn form(mean: f64, coeffs: &[f64], indep: &[(u32, f64)]) -> CanonicalDelay {
        let coeffs = coeffs
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0.0)
            .map(|(k, &c)| (k as u32, c))
            .collect();
        CanonicalDelay { mean, coeffs, indep: indep.to_vec(), extra: 0.0 }
    }

    #[test]
    fn variance_sums_components() {
        let f = form(10.0, &[3.0, 4.0], &[(2, 2.0)]);
        assert!((f.variance() - (9.0 + 16.0 + 4.0)).abs() < 1e-12);
        assert!((f.sigma() - 29.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn covariance_uses_shared_factors_and_shared_gates() {
        let a = form(0.0, &[1.0, 2.0], &[(1, 3.0), (5, 1.0)]);
        let b = form(0.0, &[2.0, -1.0], &[(1, 4.0), (6, 9.0)]);
        // Shared: 1*2 + 2*(-1) = 0; gate 1: 3*4 = 12.
        assert!((a.covariance(&b) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn identical_forms_have_correlation_one() {
        let a = form(5.0, &[1.0, 0.5], &[(0, 0.2)]);
        assert!((a.correlation(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_forms_have_correlation_zero() {
        let a = form(0.0, &[1.0, 0.0], &[(0, 1.0)]);
        let b = form(0.0, &[0.0, 1.0], &[(1, 1.0)]);
        assert_eq!(a.correlation(&b), 0.0);
    }

    #[test]
    fn deterministic_form_is_safe() {
        let c = CanonicalDelay::constant(7.0);
        assert_eq!(c.variance(), 0.0);
        let other = form(0.0, &[1.0, 0.0, 0.0, 0.0], &[]);
        assert_eq!(c.correlation(&other), 0.0);
        assert_eq!(c.evaluate(&[1.0, 2.0, 3.0, 4.0], &[], 0.0), 7.0);
    }

    #[test]
    fn evaluate_matches_hand_computation() {
        let f = form(10.0, &[1.0, -2.0], &[(0, 0.5)]);
        let v = f.evaluate(&[2.0, 1.0], &[4.0], 0.0);
        assert!((v - (10.0 + 2.0 - 2.0 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn inflation_preserves_covariances() {
        let a = form(0.0, &[1.0, 1.0], &[(3, 0.5)]);
        let b = form(0.0, &[1.0, -0.5], &[(3, 0.8)]);
        let cov_before = a.covariance(&b);
        let a2 = a.with_inflated_sigma(1.1);
        assert!((a2.covariance(&b) - cov_before).abs() < 1e-12);
        assert!((a2.sigma() - 1.1 * a.sigma()).abs() < 1e-9);
        // Correlation must drop.
        assert!(a2.correlation(&b).abs() < a.correlation(&b).abs());
    }

    #[test]
    #[should_panic(expected = "factor must be >= 1")]
    fn inflation_rejects_shrinking() {
        form(0.0, &[1.0], &[]).with_inflated_sigma(0.9);
    }

    #[test]
    fn extra_component_realized_by_path_eps() {
        let mut f = form(0.0, &[0.0], &[]);
        f.extra = 2.0;
        assert_eq!(f.evaluate(&[0.0], &[], 1.5), 3.0);
        assert!((f.variance() - 4.0).abs() < 1e-12);
    }
}
