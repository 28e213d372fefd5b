use effitest_circuit::{FlipFlopId, GeneratedBenchmark, TuningBufferSpec};
use effitest_linalg::{Matrix, MultivariateGaussian};

use crate::{CanonicalDelay, ChipInstance, FactorSpace, NormalSampler, VariationConfig};

/// The statistical timing model of one generated benchmark.
///
/// Built once per benchmark (the paper's offline SSTA step), the model
/// holds a [`CanonicalDelay`] form for every required path's effective
/// setup delay `D_ij = d_ij + s_j` and every carved short path's hold bound
/// `underline(d)_ij = h_j - d_ij_min`, indexed by path position. From those
/// forms it derives:
///
/// * means, sigmas, covariances, correlations — all exact under the model;
/// * joint Gaussians over arbitrary path subsets (for the conditional
///   prediction of paper eqs. 4–5);
/// * Monte-Carlo [`ChipInstance`]s — the "manufactured chips" the virtual
///   tester measures;
/// * the nominal clock period and the derived tunable-buffer range (1/8 of
///   the period, 20 discrete steps, after Tam et al. \[19\] as cited by the
///   paper).
///
/// # Example
///
/// ```
/// use effitest_circuit::{BenchmarkSpec, GeneratedBenchmark};
/// use effitest_ssta::{TimingModel, VariationConfig};
///
/// let bench = GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s9234().scaled_down(20), 1);
/// let model = TimingModel::build(&bench, &VariationConfig::paper());
/// assert_eq!(model.path_count(), bench.paths.len());
/// // Correlations are symmetric and bounded.
/// let c = model.correlation(0, 1);
/// assert!((-1.0..=1.0).contains(&c));
/// assert_eq!(model.correlation(1, 0), c);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimingModel {
    factor_space: FactorSpace,
    config: VariationConfig,
    /// Effective setup-delay forms (`D_ij`), one per required path.
    setup_forms: Vec<CanonicalDelay>,
    /// Hold-bound forms (`underline(d)_ij`), aligned with `setup_forms`.
    hold_forms: Vec<Option<CanonicalDelay>>,
    /// `(source, sink)` per path.
    endpoints: Vec<(FlipFlopId, FlipFlopId)>,
    /// Flip-flops carrying tunable buffers.
    buffered_ffs: Vec<FlipFlopId>,
    /// Number of gates in the netlist (for epsilon sampling).
    gate_count: usize,
    /// Nominal critical period: `max_ij mean(D_ij)`.
    nominal_period: f64,
    /// Uniform buffer range derived from the nominal period.
    buffer_spec: TuningBufferSpec,
}

impl TimingModel {
    /// Number of discrete buffer settings (paper: 20).
    pub const BUFFER_STEPS: u32 = 20;

    /// Buffer range as a fraction of the nominal clock period (paper: 1/8).
    pub const BUFFER_RANGE_FRACTION: f64 = 1.0 / 8.0;

    /// Runs SSTA over a generated benchmark with the paper's tunable
    /// buffer range (period / 8, 20 steps).
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see
    /// [`VariationConfig::assert_valid`]), the benchmark's paths reference
    /// invalid netlist elements (generated benchmarks never do), or
    /// `EFFITEST_THREADS` is set to an invalid value.
    pub fn build(bench: &GeneratedBenchmark, config: &VariationConfig) -> Self {
        Self::build_with_buffer_range(
            bench,
            config,
            Self::BUFFER_RANGE_FRACTION,
            Self::BUFFER_STEPS,
        )
    }

    /// [`build`](Self::build) with an explicit tuning-range axis: the
    /// buffer range spans `range_fraction` of the nominal clock period
    /// (paper: 1/8) over `steps` discrete settings (paper: 20). The
    /// scenario matrix sweeps this axis; everything else is identical to
    /// [`build`](Self::build).
    ///
    /// # Panics
    ///
    /// Panics on an invalid `config`, a non-positive / non-finite
    /// `range_fraction`, or `steps < 2`.
    pub fn build_with_buffer_range(
        bench: &GeneratedBenchmark,
        config: &VariationConfig,
        range_fraction: f64,
        steps: u32,
    ) -> Self {
        let threads = match effitest_parallel::threads::threads_from_env() {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        };
        Self::build_with_buffer_range_threaded(bench, config, range_fraction, steps, threads)
    }

    /// [`build_with_buffer_range`](Self::build_with_buffer_range) with an
    /// explicit worker-thread count: the per-path canonical forms fan out
    /// over `threads` workers and are committed in path order, so the
    /// model (including the `max`-folded nominal period) is bitwise
    /// identical for every `threads` value.
    ///
    /// # Panics
    ///
    /// Panics on an invalid `config`, a non-positive / non-finite
    /// `range_fraction`, or `steps < 2`.
    pub fn build_with_buffer_range_threaded(
        bench: &GeneratedBenchmark,
        config: &VariationConfig,
        range_fraction: f64,
        steps: u32,
        threads: usize,
    ) -> Self {
        config.assert_valid();
        assert!(
            range_fraction.is_finite() && range_fraction > 0.0,
            "buffer range fraction must be positive and finite"
        );
        assert!(steps >= 2, "buffers need at least 2 discrete settings");
        let factor_space = FactorSpace::new(bench.netlist.die(), config.grid_dim);
        let n = bench.paths.len();
        let paths: Vec<effitest_circuit::PathView<'_>> = bench.paths.iter().collect();

        // Each path's forms are a pure function of the path; the serial
        // commit below folds the nominal period in index order.
        let per_path = effitest_parallel::par_map(threads, n, |idx| {
            let path = paths[idx];
            let sink = bench.netlist.flip_flop(path.sink).expect("valid sink");
            let mut form = chain_form(bench, config, &factor_space, path.gates, 1.0);
            form.mean += sink.setup;
            let hold = bench.short_paths[idx].as_ref().map(|sp| {
                debug_assert_eq!(sp.source, path.source);
                debug_assert_eq!(sp.sink, path.sink);
                // underline(d) = h_j - d_min: negate the chain form.
                let mut h = chain_form(bench, config, &factor_space, &sp.gates, -1.0);
                h.mean += sink.hold;
                h
            });
            (form, hold, (path.source, path.sink))
        });

        let mut setup_forms = Vec::with_capacity(n);
        let mut hold_forms = Vec::with_capacity(n);
        let mut endpoints = Vec::with_capacity(n);
        let mut nominal_period = 0.0_f64;
        for (form, hold, ends) in per_path {
            nominal_period = nominal_period.max(form.mean);
            setup_forms.push(form);
            hold_forms.push(hold);
            endpoints.push(ends);
        }

        let width = nominal_period * range_fraction;
        let buffer_spec = TuningBufferSpec::centered(width, steps);

        TimingModel {
            factor_space,
            config: config.clone(),
            setup_forms,
            hold_forms,
            endpoints,
            buffered_ffs: bench.netlist.buffered_flip_flops(),
            gate_count: bench.netlist.gate_count(),
            nominal_period,
            buffer_spec,
        }
    }

    /// Number of required paths.
    pub fn path_count(&self) -> usize {
        self.setup_forms.len()
    }

    /// The shared factor space.
    pub fn factor_space(&self) -> &FactorSpace {
        &self.factor_space
    }

    /// The variation configuration the model was built with.
    pub fn config(&self) -> &VariationConfig {
        &self.config
    }

    /// Canonical form of path `idx`'s effective setup delay.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn setup_form(&self, idx: usize) -> &CanonicalDelay {
        &self.setup_forms[idx]
    }

    /// Canonical form of path `idx`'s hold bound, if a short path exists.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn hold_form(&self, idx: usize) -> Option<&CanonicalDelay> {
        self.hold_forms[idx].as_ref()
    }

    /// Mean of `D_ij` for path `idx`.
    pub fn path_mean(&self, idx: usize) -> f64 {
        self.setup_forms[idx].mean
    }

    /// Standard deviation of `D_ij` for path `idx`.
    pub fn path_sigma(&self, idx: usize) -> f64 {
        self.setup_forms[idx].sigma()
    }

    /// `(source, sink)` flip-flops of path `idx`.
    pub fn endpoints(&self, idx: usize) -> (FlipFlopId, FlipFlopId) {
        self.endpoints[idx]
    }

    /// Flip-flops that carry tunable buffers.
    pub fn buffered_ffs(&self) -> &[FlipFlopId] {
        &self.buffered_ffs
    }

    /// Nominal critical period (`max_ij mean(D_ij)`), the paper's
    /// "original clock period" from which buffer ranges derive.
    pub fn nominal_period(&self) -> f64 {
        self.nominal_period
    }

    /// The uniform tunable-buffer range: centered, width = period / 8,
    /// 20 discrete steps.
    pub fn buffer_spec(&self) -> TuningBufferSpec {
        self.buffer_spec
    }

    /// Covariance of `D_i` and `D_j`.
    pub fn covariance(&self, i: usize, j: usize) -> f64 {
        self.setup_forms[i].covariance(&self.setup_forms[j])
    }

    /// Correlation of `D_i` and `D_j`.
    pub fn correlation(&self, i: usize, j: usize) -> f64 {
        self.setup_forms[i].correlation(&self.setup_forms[j])
    }

    /// Covariance matrix over the listed paths.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn covariance_matrix(&self, idx: &[usize]) -> Matrix {
        let n = idx.len();
        let mut m = Matrix::zeros(n, n);
        for a in 0..n {
            for b in a..n {
                let cov = self.covariance(idx[a], idx[b]);
                m[(a, b)] = cov;
                m[(b, a)] = cov;
            }
        }
        m
    }

    /// Joint Gaussian of `D` over the listed paths (means + covariance).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range or the covariance assembly
    /// produces a malformed matrix (cannot happen for forms built by
    /// [`build`](Self::build)).
    pub fn gaussian(&self, idx: &[usize]) -> MultivariateGaussian {
        let mean: Vec<f64> = idx.iter().map(|&i| self.path_mean(i)).collect();
        let cov = self.covariance_matrix(idx);
        MultivariateGaussian::new(mean, cov).expect("covariance is symmetric by construction")
    }

    /// Samples one manufactured chip.
    ///
    /// The same `(model, seed)` always yields the same chip. Different
    /// paths on the same chip share the spatial factors and any shared
    /// gates' independent components, so measured delays exhibit exactly
    /// the correlations the model predicts.
    pub fn sample_chip(&self, seed: u64) -> ChipInstance {
        let mut sampler = NormalSampler::seeded(seed.wrapping_mul(0x9E3779B97F4A7C15));
        let mut z = vec![0.0; self.factor_space.len()];
        sampler.fill(&mut z);
        let mut gate_eps = vec![0.0; self.gate_count];
        sampler.fill(&mut gate_eps);

        let n = self.path_count();
        let mut setup = Vec::with_capacity(n);
        let mut hold = Vec::with_capacity(n);
        for i in 0..n {
            // One per-path epsilon drives the `extra` component of both the
            // setup and hold forms of the same path (they describe the same
            // physical cone).
            let path_eps = sampler.next_normal();
            setup.push(self.setup_forms[i].evaluate(&z, &gate_eps, path_eps));
            hold.push(self.hold_forms[i].as_ref().map(|f| f.evaluate(&z, &gate_eps, path_eps)));
        }
        ChipInstance::new(seed, setup, hold)
    }

    /// Samples `count` chips with seeds `base_seed..base_seed + count`.
    pub fn sample_chips(&self, base_seed: u64, count: usize) -> Vec<ChipInstance> {
        (0..count as u64).map(|k| self.sample_chip(base_seed + k)).collect()
    }

    /// A copy of the model with every path sigma inflated by `factor`
    /// while all cross-path covariances stay unchanged (the paper's Fig.-7
    /// experiment: +10% sigma grows only the purely random delay parts).
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1`.
    pub fn with_inflated_sigma(&self, factor: f64) -> TimingModel {
        let mut out = self.clone();
        out.setup_forms = self.setup_forms.iter().map(|f| f.with_inflated_sigma(factor)).collect();
        out.hold_forms = self
            .hold_forms
            .iter()
            .map(|h| h.as_ref().map(|f| f.with_inflated_sigma(factor)))
            .collect();
        out
    }
}

/// Builds the canonical form of a gate chain, scaled by `sign` (+1 for max
/// paths, -1 for hold bounds which subtract the chain delay).
fn chain_form(
    bench: &GeneratedBenchmark,
    config: &VariationConfig,
    fs: &FactorSpace,
    gates: &[effitest_circuit::GateId],
    sign: f64,
) -> CanonicalDelay {
    let sigmas = config.sigmas();
    let rho = config.global_correlation;
    let w_global = rho.sqrt();
    let w_cell = (1.0 - rho).sqrt();

    let mut mean = 0.0;
    let mut coeffs = vec![0.0; fs.len()];
    let mut indep: Vec<(u32, f64)> = Vec::with_capacity(gates.len());

    for &gid in gates {
        let gate = bench.netlist.gate(gid).expect("path gates are valid");
        let d = gate.kind.nominal_delay();
        mean += sign * d;
        let sens = gate.kind.sensitivity();
        let sens_arr = [sens.length, sens.oxide, sens.threshold];
        let cell = fs.cell_of(&gate.location);
        for (p, (&sigma, &s)) in sigmas.iter().zip(&sens_arr).enumerate() {
            let amp = sign * d * s * sigma;
            coeffs[fs.global_factor(p)] += amp * w_global;
            coeffs[fs.cell_factor(p, cell)] += amp * w_cell;
        }
        indep.push((gid.index() as u32, sign * d * config.local_sigma));
    }
    indep.sort_unstable_by_key(|&(g, _)| g);
    CanonicalDelay { mean, coeffs, indep, extra: 0.0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use effitest_circuit::BenchmarkSpec;

    fn small_model() -> (GeneratedBenchmark, TimingModel) {
        let bench =
            GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s9234().scaled_down(10), 1);
        let model = TimingModel::build(&bench, &VariationConfig::paper());
        (bench, model)
    }

    #[test]
    fn threaded_build_matches_serial_reference() {
        let bench =
            GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s9234().scaled_down(10), 1);
        let config = VariationConfig::paper();
        let build = |threads| {
            TimingModel::build_with_buffer_range_threaded(
                &bench,
                &config,
                TimingModel::BUFFER_RANGE_FRACTION,
                TimingModel::BUFFER_STEPS,
                threads,
            )
        };
        // At one thread the per-path forms are built inline: the serial run.
        let reference = build(1);
        for threads in [4, 8] {
            assert_eq!(build(threads), reference, "threads {threads}");
        }
    }

    #[test]
    fn forms_cover_all_paths() {
        let (bench, model) = small_model();
        assert_eq!(model.path_count(), bench.paths.len());
        for i in 0..model.path_count() {
            assert!(model.path_mean(i) > 0.0);
            assert!(model.path_sigma(i) > 0.0);
        }
    }

    #[test]
    fn nominal_period_is_max_mean() {
        let (_, model) = small_model();
        let max_mean = (0..model.path_count()).map(|i| model.path_mean(i)).fold(0.0_f64, f64::max);
        assert_eq!(model.nominal_period(), max_mean);
        let spec = model.buffer_spec();
        assert!((spec.width() - model.nominal_period() / 8.0).abs() < 1e-9);
        assert_eq!(spec.steps(), 20);
        assert!((spec.min() + spec.max()).abs() < 1e-9, "centered");
    }

    #[test]
    fn explicit_buffer_range_drives_the_spec() {
        let (bench, model) = small_model();
        let wide =
            TimingModel::build_with_buffer_range(&bench, &VariationConfig::paper(), 0.25, 10);
        // Same timing, different tuning axis.
        assert_eq!(wide.nominal_period(), model.nominal_period());
        assert_eq!(wide.path_count(), model.path_count());
        assert!((wide.buffer_spec().width() - wide.nominal_period() * 0.25).abs() < 1e-9);
        assert_eq!(wide.buffer_spec().steps(), 10);
        // The default build is exactly the paper point of the axis.
        let paper = TimingModel::build_with_buffer_range(
            &bench,
            &VariationConfig::paper(),
            TimingModel::BUFFER_RANGE_FRACTION,
            TimingModel::BUFFER_STEPS,
        );
        assert_eq!(paper.buffer_spec(), model.buffer_spec());
    }

    #[test]
    #[should_panic(expected = "range fraction")]
    fn zero_buffer_range_is_rejected() {
        let (bench, _) = small_model();
        let _ = TimingModel::build_with_buffer_range(&bench, &VariationConfig::paper(), 0.0, 20);
    }

    #[test]
    fn same_cluster_paths_are_highly_correlated() {
        let (bench, model) = small_model();
        // Find two paths sharing a sink (same cone): correlation must be
        // very high.
        let mut best: Option<(usize, usize)> = None;
        'outer: for i in 0..bench.paths.len() {
            for j in (i + 1)..bench.paths.len() {
                let pi = bench.paths.path(effitest_circuit::PathId::new(i as u32));
                let pj = bench.paths.path(effitest_circuit::PathId::new(j as u32));
                if pi.sink == pj.sink {
                    best = Some((i, j));
                    break 'outer;
                }
            }
        }
        if let Some((i, j)) = best {
            assert!(
                model.correlation(i, j) > 0.8,
                "shared-cone correlation too low: {}",
                model.correlation(i, j)
            );
        }
        // And correlations are symmetric, bounded, 1 on the diagonal.
        for i in 0..model.path_count().min(5) {
            assert!((model.correlation(i, i) - 1.0).abs() < 1e-9);
            for j in 0..model.path_count().min(5) {
                assert!((model.correlation(i, j) - model.correlation(j, i)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn covariance_matrix_matches_pairwise() {
        let (_, model) = small_model();
        let idx = [0_usize, 1, 2];
        let m = model.covariance_matrix(&idx);
        for (a, &i) in idx.iter().enumerate() {
            for (b, &j) in idx.iter().enumerate() {
                assert!((m[(a, b)] - model.covariance(i, j)).abs() < 1e-12);
            }
        }
        assert!(m.is_symmetric(1e-12));
    }

    #[test]
    fn sampled_moments_match_model() {
        let (_, model) = small_model();
        let n_chips = 4000;
        let chips = model.sample_chips(100, n_chips);
        let idx = 0;
        let samples: Vec<f64> = chips.iter().map(|c| c.setup_delay(idx)).collect();
        let mean = effitest_linalg::stats::mean(&samples);
        let sd = effitest_linalg::stats::std_dev(&samples);
        assert!(
            (mean - model.path_mean(idx)).abs()
                < 4.0 * model.path_sigma(idx) / (n_chips as f64).sqrt() + 1e-9,
            "sample mean {mean} vs model {}",
            model.path_mean(idx)
        );
        assert!(
            (sd - model.path_sigma(idx)).abs() / model.path_sigma(idx) < 0.08,
            "sample sd {sd} vs model {}",
            model.path_sigma(idx)
        );
    }

    #[test]
    fn sampled_correlation_matches_model() {
        let (_, model) = small_model();
        let chips = model.sample_chips(7, 3000);
        let a: Vec<f64> = chips.iter().map(|c| c.setup_delay(0)).collect();
        let b: Vec<f64> = chips.iter().map(|c| c.setup_delay(1)).collect();
        let emp = effitest_linalg::stats::correlation(&a, &b);
        let model_corr = model.correlation(0, 1);
        assert!((emp - model_corr).abs() < 0.08, "empirical {emp} vs model {model_corr}");
    }

    #[test]
    fn chips_are_deterministic_per_seed() {
        let (_, model) = small_model();
        assert_eq!(model.sample_chip(5), model.sample_chip(5));
        assert_ne!(model.sample_chip(5), model.sample_chip(6));
    }

    #[test]
    fn hold_bounds_are_below_setup_delays() {
        // underline(d) = h - d_min must sit far below D = d_max + s for any
        // sane chip.
        let (_, model) = small_model();
        let chip = model.sample_chip(3);
        for i in 0..model.path_count() {
            if let Some(h) = chip.hold_bound(i) {
                assert!(h < chip.setup_delay(i));
            }
        }
    }

    #[test]
    fn inflated_sigma_preserves_covariances() {
        let (_, model) = small_model();
        let inflated = model.with_inflated_sigma(1.1);
        for i in 0..model.path_count().min(4) {
            assert!((inflated.path_sigma(i) - 1.1 * model.path_sigma(i)).abs() < 1e-9);
            for j in 0..model.path_count().min(4) {
                if i != j {
                    assert!((inflated.covariance(i, j) - model.covariance(i, j)).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn gaussian_matches_model_statistics() {
        let (_, model) = small_model();
        let idx = [0_usize, 2, 4];
        let g = model.gaussian(&idx);
        assert_eq!(g.dim(), 3);
        for (pos, &i) in idx.iter().enumerate() {
            assert!((g.mean()[pos] - model.path_mean(i)).abs() < 1e-12);
            assert!((g.covariance()[(pos, pos)] - model.path_sigma(i).powi(2)).abs() < 1e-9);
        }
    }

    #[test]
    fn outlier_paths_have_low_correlation_to_cluster_paths() {
        let (bench, model) = small_model();
        // Outlier paths are the last generated ones (background sinks).
        // Check that at least one pair of paths has correlation well below
        // the intra-cluster level.
        let n = bench.paths.len();
        let mut min_corr = 1.0_f64;
        for i in 0..n {
            for j in (i + 1)..n {
                min_corr = min_corr.min(model.correlation(i, j));
            }
        }
        assert!(min_corr < 0.6, "expected some weakly correlated pair, min={min_corr}");
    }
}
