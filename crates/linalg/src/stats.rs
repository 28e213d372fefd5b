//! Scalar statistics helpers shared across the workspace.
//!
//! Small, dependency-free routines: summary statistics and empirical
//! quantiles (the designated clock periods sit at quantiles of the sampled
//! chips' untuned periods).

/// Arithmetic mean; 0.0 for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; 0.0 for fewer than two samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Pearson correlation of two equal-length samples; 0.0 if either side is
/// constant or the lengths differ.
pub fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    if xs.len() != ys.len() || xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return 0.0;
    }
    sxy / (sxx.sqrt() * syy.sqrt())
}

/// Empirical quantile by linear interpolation on the sorted sample.
///
/// Returns `f64::NAN` for empty input; `q` is clamped to `[0, 1]`.
///
/// # NaN handling
///
/// Samples are ordered with [`f64::total_cmp`], so NaN inputs never panic
/// mid-experiment: positive NaNs sort above `+inf` and negative NaNs below
/// `-inf`. A NaN sample therefore only contaminates the extreme quantiles
/// it sorts into (and any interpolation touching it) instead of aborting
/// the whole run.
pub fn empirical_quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(variance(&[5.0]), 0.0);
        assert!((variance(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
        assert!((std_dev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_limits() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((correlation(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((correlation(&xs, &neg) + 1.0).abs() < 1e-12);
        assert_eq!(correlation(&xs, &[1.0, 1.0, 1.0, 1.0]), 0.0);
        assert_eq!(correlation(&xs, &ys[..3]), 0.0);
    }

    #[test]
    fn empirical_quantile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(empirical_quantile(&xs, 0.0), 1.0);
        assert_eq!(empirical_quantile(&xs, 1.0), 4.0);
        assert!((empirical_quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert!(empirical_quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn empirical_quantile_tolerates_nan_samples() {
        // A NaN sample must not panic; it sorts to an extreme end
        // (total_cmp order) and only affects the quantiles that touch it.
        let xs = [4.0, f64::NAN, 1.0, 3.0, 2.0];
        assert_eq!(empirical_quantile(&xs, 0.0), 1.0);
        assert!((empirical_quantile(&xs, 0.5) - 3.0).abs() < 1e-12);
        assert!(empirical_quantile(&xs, 1.0).is_nan());
    }
}
