use effitest_circuit::{FlipFlopId, GeneratedBenchmark, TuningBufferSpec};
use effitest_linalg::{Matrix, MultivariateGaussian, SparseGram};

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
///   tester measures — and, for the hold-bound sampling of paper §3.5, the
///   hold bounds alone;
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
    /// The Box–Muller pairs of a chip's normal stream that some form reads
    /// (see [`sample_chip`](Self::sample_chip)).
    read_pairs: Vec<bool>,
    /// The pairs that some hold form reads.
    hold_pairs: Vec<bool>,
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

        let mut model = TimingModel {
            factor_space,
            config: config.clone(),
            setup_forms,
            hold_forms,
            endpoints,
            buffered_ffs: bench.netlist.buffered_flip_flops(),
            gate_count: bench.netlist.gate_count(),
            nominal_period,
            buffer_spec,
            read_pairs: Vec::new(),
            hold_pairs: Vec::new(),
        };
        model.mark_read_pairs();
        model
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

    /// Covariance of `D_i` and `D_j`. A path's per-path `extra` term
    /// co-varies with itself only, so it enters the diagonal: the
    /// covariance of `D_i` with itself is its variance.
    pub fn covariance(&self, i: usize, j: usize) -> f64 {
        let form = &self.setup_forms[i];
        let cov = form.covariance(&self.setup_forms[j]);
        if i == j {
            cov + form.extra * form.extra
        } else {
            cov
        }
    }

    /// Correlation of `D_i` and `D_j` (1 on the diagonal of a path that
    /// varies, 0 for a deterministic one).
    pub fn correlation(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return if self.setup_forms[i].variance() > 0.0 { 1.0 } else { 0.0 };
        }
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

    /// The covariance over the listed paths as the sparse operator
    /// `B B^T + diag(d)`, never formed: row `a` of `B` holds path `idx[a]`'s
    /// shared-factor coefficients (column `k` for factor `k`) and gate
    /// coefficients (column `factors + g` for gate `g`), and `d_a` is the
    /// square of its `extra` term. In exact arithmetic it is
    /// [`covariance_matrix`](Self::covariance_matrix) entry for entry.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn covariance_gram(&self, idx: &[usize]) -> SparseGram {
        let factors = self.factor_space.len() as u32;
        SparseGram::new(idx.iter().map(|&p| {
            let form = &self.setup_forms[p];
            let gates = form.indep.iter().map(move |&(g, c)| (factors + g, c));
            (form.coeffs.iter().copied().chain(gates), form.extra * form.extra)
        }))
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
    ///
    /// A chip is one [`NormalSampler`] stream: a normal per shared factor,
    /// then one per gate, then one `E_path` per path, which drives the
    /// `extra` term of both of that path's forms (they describe the same
    /// physical cone). Only the Box–Muller pairs some form reads are
    /// computed; most gates lie on no required or short path.
    pub fn sample_chip(&self, seed: u64) -> ChipInstance {
        self.with_normals(seed, &self.read_pairs, |z, gate_eps, path_eps| {
            let setup = self
                .setup_forms
                .iter()
                .zip(path_eps)
                .map(|(f, &e)| f.evaluate(z, gate_eps, e))
                .collect();
            let hold = self
                .hold_forms
                .iter()
                .zip(path_eps)
                .map(|(h, &e)| h.as_ref().map(|f| f.evaluate(z, gate_eps, e)))
                .collect();
            ChipInstance::new(seed, setup, hold)
        })
    }

    /// The hold bounds of the listed paths on the chip
    /// [`sample_chip(seed)`](Self::sample_chip) gives, bit for bit, and
    /// `None` for a path without a short path. Only the hold forms and the
    /// normals they read are computed.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn sample_hold_bounds(&self, seed: u64, paths: &[usize]) -> Vec<Option<f64>> {
        self.with_normals(seed, &self.hold_pairs, |z, gate_eps, path_eps| {
            paths
                .iter()
                .map(|&p| self.hold_forms[p].as_ref().map(|f| f.evaluate(z, gate_eps, path_eps[p])))
                .collect()
        })
    }

    /// Draws chip `seed`'s normal stream, computing the pairs `read` marks
    /// (the other entries stay zero), and hands its factor, gate and path
    /// parts to `f`.
    fn with_normals<T>(
        &self,
        seed: u64,
        read: &[bool],
        f: impl FnOnce(&[f64], &[f64], &[f64]) -> T,
    ) -> T {
        let (nf, ng) = (self.factor_space.len(), self.gate_count);
        let mut normals = vec![0.0; nf + ng + self.path_count()];
        NormalSampler::seeded(seed.wrapping_mul(0x9E3779B97F4A7C15)).fill(&mut normals, read);
        let (z, rest) = normals.split_at(nf);
        let (gate_eps, path_eps) = rest.split_at(ng);
        f(z, gate_eps, path_eps)
    }

    /// Sets the read masks from the forms. A factor is read if a form has
    /// a coefficient on it, a gate if it is in a form's `indep`, and a
    /// path's `E_path` if one of its forms has a nonzero `extra`.
    fn mark_read_pairs(&mut self) {
        let nf = self.factor_space.len();
        let eps = nf + self.gate_count;
        let pairs = (eps + self.path_count()).div_ceil(2);
        let mark = |read: &mut [bool], path: usize, form: &CanonicalDelay| {
            for &(k, _) in &form.coeffs {
                read[k as usize / 2] = true;
            }
            for &(g, _) in &form.indep {
                read[(nf + g as usize) / 2] = true;
            }
            if form.extra != 0.0 {
                read[(eps + path) / 2] = true;
            }
        };
        let mut hold_pairs = vec![false; pairs];
        for (p, form) in self.hold_forms.iter().enumerate() {
            if let Some(form) = form {
                mark(&mut hold_pairs, p, form);
            }
        }
        let mut read_pairs = hold_pairs.clone();
        for (p, form) in self.setup_forms.iter().enumerate() {
            mark(&mut read_pairs, p, form);
        }
        self.read_pairs = read_pairs;
        self.hold_pairs = hold_pairs;
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
        out.mark_read_pairs();
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
    // Accumulate densely, then keep the nonzero coefficients.
    let mut dense = vec![0.0; fs.len()];
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
            dense[fs.global_factor(p)] += amp * w_global;
            dense[fs.cell_factor(p, cell)] += amp * w_cell;
        }
        indep.push((gid.index() as u32, sign * d * config.local_sigma));
    }
    indep.sort_unstable_by_key(|&(g, _)| g);
    let mut coeffs = Vec::with_capacity(dense.iter().filter(|&&c| c != 0.0).count());
    coeffs
        .extend(dense.iter().enumerate().filter(|&(_, &c)| c != 0.0).map(|(k, &c)| (k as u32, c)));
    CanonicalDelay { mean, coeffs, indep, extra: 0.0 }
}

#[cfg(test)]
mod tests {
    use super::dense::check_against_dense;
    use super::*;
    use crate::VariationProfile;
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
    fn sparse_sampling_matches_the_dense_oracle_on_full_size_circuits() {
        // The seeds wrap past u64::MAX, as population seeds may.
        let seeds = || (0..300_u64).map(|k| (u64::MAX - 150).wrapping_add(k));
        for spec in [
            BenchmarkSpec::iscas89_s13207(),
            BenchmarkSpec::tau13_ac97_ctrl(),
            BenchmarkSpec::iscas89_s38584(),
        ] {
            let bench = GeneratedBenchmark::generate(&spec, 1);
            let model = TimingModel::build(&bench, &VariationConfig::paper());
            let gates = bench.netlist.gate_count();
            assert_eq!(check_against_dense(&model, gates, seeds()), Ok(()), "{}", spec.name);
            // The masks really skip work: some gates lie on no path, and
            // the hold forms read fewer pairs than all forms do.
            let count = |mask: &[bool]| mask.iter().filter(|&&r| r).count();
            let (read, hold) = (count(&model.read_pairs), count(&model.hold_pairs));
            assert!(0 < hold && hold < read && read < model.read_pairs.len(), "{}", spec.name);
        }
    }

    #[test]
    fn sparse_sampling_matches_the_dense_oracle_on_every_profile() {
        let bench =
            GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s9234().scaled_down(10), 1);
        let gates = bench.netlist.gate_count();
        // The first pair made only of path epsilons.
        let eps = |m: &TimingModel| (m.factor_space.len() + gates).div_ceil(2);
        for profile in VariationProfile::all() {
            for grid_dim in [profile.config().grid_dim, 1] {
                let config = VariationConfig { grid_dim, ..profile.config() };
                let model = TimingModel::build(&bench, &config);
                assert_eq!(
                    check_against_dense(&model, gates, 0..64),
                    Ok(()),
                    "{profile} {grid_dim}"
                );
                assert!(model.read_pairs[eps(&model)..].iter().all(|&r| !r), "no extra term");
                // Inflation adds an `extra` term to every form, so every
                // path's epsilon is read.
                let inflated = model.with_inflated_sigma(1.1);
                assert_eq!(
                    check_against_dense(&inflated, gates, 0..64),
                    Ok(()),
                    "{profile} {grid_dim} inflated"
                );
                assert!(inflated.read_pairs[eps(&model)..].iter().all(|&r| r));
            }
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
        let chips: Vec<ChipInstance> =
            (0..n_chips as u64).map(|k| model.sample_chip(100_u64.wrapping_add(k))).collect();
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
        let chips: Vec<ChipInstance> =
            (0..3000).map(|k| model.sample_chip(7_u64.wrapping_add(k))).collect();
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

#[cfg(test)]
#[path = "../tests/support/dense.rs"]
mod dense;
