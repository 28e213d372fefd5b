//! Statistical delay prediction for untested paths (paper §3.1 / §3.4,
//! eqs. 4–5).
//!
//! After the aligned test, every *tested* path has a measured range
//! `[l, u]`. For each correlation group, the joint Gaussian of the group's
//! delays is conditioned on the tested members — using their conservative
//! *upper bounds* as observations, as the paper prescribes — and every
//! untested member receives the range `mu' +- 3 sigma'` from the
//! conditional distribution.
//!
//! # Plan-time vs chip-time split
//!
//! The observed-index structure of that conditioning is **identical for
//! every chip of a population**: which paths are tested is decided by the
//! flow plan (selection + multiplexing), not by silicon. Only the measured
//! *values* differ per chip. The [`Predictor`] exploits this: built once
//! per [`FlowPlan`](crate::FlowPlan), it factors each group's observed
//! covariance block (the conditioning gain `K = Sigma_uo Sigma_oo^-1`, in
//! factored form) and precomputes the conditional sigmas (eq. 5 is
//! value-independent), so the per-chip step collapses to one gain
//! application per group through a reusable, zero-allocation
//! [`PredictWorkspace`].
//!
//! The plan's conditioners read the observed block, the cross block and
//! the unobserved variances straight from the timing model's canonical
//! forms ([`TimingModel::covariance`]), so the predictor forms neither a
//! group's full covariance nor a conditional covariance matrix.
//! [`predict_ranges`] is the from-scratch oracle: per call it builds each
//! group's dense Gaussian and conditions that, a second construction whose
//! ranges are **bitwise identical** to the engine's, and the differential
//! tests and the prediction bench compare the two. Every production
//! caller — the flow, the population drivers, the service and the hostile
//! re-tune — predicts through [`Predictor::predict_with`]; a caller with a
//! different tested set builds its own [`Predictor`] over it.
//!
//! # Whole-population prediction
//!
//! [`ChipMatrix`] and [`Predictor::predict_population`] run a population's
//! chips through [`Predictor::predict_with`] in parallel, one workspace per
//! worker, so eqs. 4–5 have one implementation. The flow, the population
//! runs, the service and the hostile re-tune predict per chip instead;
//! these remain for the benchmark harness's traced pass, which checks them
//! against the per-chip ranges.
//!
//! # Fallback semantics
//!
//! A group whose observed covariance block cannot be factorized even after
//! regularization (singular/ill-conditioned beyond rescue) is *downgraded
//! to the prior*: its unmeasured members keep their `mu +- k sigma` ranges
//! and the downgrade is counted (one **prediction fallback** per group),
//! never a panic. The count is surfaced per scenario cell in
//! [`ScenarioReport::prediction_fallbacks`](crate::scenarios::ScenarioReport::prediction_fallbacks).

use std::collections::HashMap;

use effitest_linalg::{GaussianConditioner, LinalgError};
use effitest_ssta::TimingModel;
use effitest_tester::DelayBounds;

use crate::select::PathGroup;

/// Writes a dense matrix as `(rows, cols, data)` for the plan codec.
fn put_matrix(w: &mut crate::codec::Writer, m: &effitest_linalg::Matrix) {
    w.put_usize(m.rows());
    w.put_usize(m.cols());
    w.put_f64_slice(m.as_slice());
}

/// Fallible inverse of [`put_matrix`].
fn get_matrix(
    r: &mut crate::codec::Reader<'_>,
) -> Result<effitest_linalg::Matrix, crate::codec::CodecError> {
    let rows = r.get_usize()?;
    let cols = r.get_usize()?;
    let data = r.get_f64_vec()?;
    if data.len() != rows.saturating_mul(cols) {
        return Err(crate::codec::CodecError::Invalid("matrix data length mismatch"));
    }
    effitest_linalg::Matrix::from_vec(rows, cols, data)
        .map_err(|_| crate::codec::CodecError::Invalid("matrix shape rejected"))
}

/// Per-path delay ranges after test + prediction, covering all paths.
#[derive(Debug, Clone)]
pub struct PredictedRanges {
    /// Range per path index (dense over the model's paths).
    pub ranges: Vec<DelayBounds>,
    /// `true` where the range came from silicon measurement.
    pub measured: Vec<bool>,
    /// Correlation groups downgraded to their prior ranges because the
    /// observed covariance block could not be factorized (see the module
    /// docs on fallback semantics).
    pub fallbacks: u64,
}

/// Conditions each group on its measured members and assembles full
/// ranges — the **oracle** for [`Predictor`]: every group's joint Gaussian
/// is rebuilt as a dense matrix and refactorized per call, the
/// from-scratch form of the engine's arithmetic.
///
/// The key set of `tested` may be anything. Production code builds a
/// [`Predictor`] over its tested set instead: same results, bitwise, at a
/// fraction of the cost.
///
/// `tested` maps path index to its measured bounds; `sigma_k` scales the
/// predicted half-width (paper: 3).
///
/// # Panics
///
/// Panics if a group references an out-of-range path (cannot happen for
/// model-built groups). A degenerate group covariance does *not* panic:
/// the group falls back to prior ranges and is counted in
/// [`PredictedRanges::fallbacks`].
pub fn predict_ranges(
    model: &TimingModel,
    groups: &[PathGroup],
    tested: &HashMap<usize, DelayBounds>,
    sigma_k: f64,
) -> PredictedRanges {
    let n = model.path_count();
    let mut ranges: Vec<DelayBounds> = (0..n)
        .map(|p| DelayBounds::from_gaussian(model.path_mean(p), model.path_sigma(p), sigma_k))
        .collect();
    let mut measured = vec![false; n];
    let mut fallbacks = 0_u64;

    // Measured paths keep their tested bounds.
    for (&p, &b) in tested {
        ranges[p] = b;
        measured[p] = true;
    }

    for group in groups {
        // Observed members of this group (selected or slot-filled).
        let observed: Vec<usize> =
            group.members.iter().copied().filter(|p| tested.contains_key(p)).collect();
        if observed.is_empty() || observed.len() == group.members.len() {
            continue;
        }
        // The dense route: the group's whole covariance matrix, built
        // afresh for every call.
        let gauss = model.gaussian(&group.members);
        let obs_pos: Vec<usize> = group
            .members
            .iter()
            .enumerate()
            .filter(|(_, p)| tested.contains_key(p))
            .map(|(pos, _)| pos)
            .collect();
        // Conservative observations: the measured upper bounds (paper
        // §3.4: "we use the upper bounds of d_t so that the estimated
        // delays are conservative").
        let values: Vec<f64> = observed.iter().map(|p| tested[p].upper).collect();
        // A block that cannot be factorized even after regularization is
        // a *prediction fallback*: keep the priors, count it, never panic.
        let Ok(cond) = gauss.conditioner(&obs_pos) else {
            fallbacks += 1;
            continue;
        };
        let mean = cond.condition_mean(&values).expect("one value per observed member");
        for ((&mpos, &mu), &sigma) in
            cond.remaining_indices().iter().zip(&mean).zip(cond.conditional_sigmas())
        {
            let p = group.members[mpos];
            ranges[p] = DelayBounds::new(mu - sigma_k * sigma, mu + sigma_k * sigma);
        }
    }

    PredictedRanges { ranges, measured, fallbacks }
}

/// The conditioner of a correlation group's joint Gaussian on the members
/// at positions `observed` of `members`, read straight from the model's
/// canonical forms: the observed block, the cross block and the unobserved
/// variances, never the group's whole covariance. It is bitwise the
/// conditioner `model.gaussian(members).conditioner(observed)` builds,
/// because [`TimingModel::covariance`] is bitwise symmetric.
///
/// # Errors
///
/// Those of [`GaussianConditioner::new`]; an `Err` is a downgrade to the
/// prior, never a panic.
///
/// # Panics
///
/// Panics if a member is out of range for `model`.
pub(crate) fn group_conditioner(
    model: &TimingModel,
    members: &[usize],
    observed: &[usize],
) -> Result<GaussianConditioner, LinalgError> {
    GaussianConditioner::new(
        members.len(),
        observed,
        |i| model.path_mean(members[i]),
        |i, j| model.covariance(members[i], members[j]),
    )
}

/// One correlation group's precomputed conditioning: which members are
/// observed, which receive predictions, and the factored gain.
#[derive(Debug, Clone)]
struct GroupPredictor {
    /// Observed member path indices, in member order (the order the
    /// observation vector is gathered in).
    observed: Vec<usize>,
    /// Unobserved member path indices, in member order (the order the
    /// conditional means/sigmas come out in).
    predicted: Vec<usize>,
    /// The value-independent conditioning, factored once at plan time.
    conditioner: GaussianConditioner,
}

/// The plan-level statistical prediction engine (paper eqs. 4–5 with the
/// chip-independent work hoisted out of the per-chip loop).
///
/// Built once per `(model, groups, tested set)` by [`Predictor::new`] —
/// [`EffiTestFlow::plan`](crate::EffiTestFlow::plan) stores one on the
/// [`FlowPlan`](crate::FlowPlan) — it factors each group's observed
/// covariance block and precomputes the conditional sigmas. Per chip,
/// [`predict_with`](Self::predict_with) then applies the factored gain to
/// the measured upper bounds: one triangular solve pair plus one matvec
/// per group, no factorization, no allocation beyond the returned ranges.
///
/// Results are **bitwise identical** to [`predict_ranges`] called with the
/// same tested set: both run the same arithmetic on the same factor (see
/// `effitest_linalg::GaussianConditioner`).
#[derive(Debug, Clone)]
pub struct Predictor {
    /// Total paths in the model.
    n_paths: usize,
    /// Planned tested paths, sorted (the contract for `tested` maps: their
    /// key set must be exactly this).
    planned: Vec<usize>,
    /// Predicted half-width in sigmas (paper: 3).
    sigma_k: f64,
    /// Prior `mu +- k sigma` range per path.
    priors: Vec<DelayBounds>,
    /// Groups that actually condition (some observed, some not).
    groups: Vec<GroupPredictor>,
    /// Groups downgraded to the prior at plan time (degenerate observed
    /// covariance block).
    fallbacks: u64,
}

impl Predictor {
    /// Builds the engine for a fixed tested-path set: factors every
    /// group's observed block and precomputes prior ranges and conditional
    /// sigmas.
    ///
    /// `tested` lists the path indices that will carry measured bounds on
    /// every chip (the plan's selected + slot-filled paths); `sigma_k`
    /// scales the predicted half-width (paper: 3). The per-group
    /// observed-block Cholesky and conditioning-gain factorization — the
    /// plan's single most expensive stage — runs one group per work item
    /// over `threads` workers, and the factored groups are committed (and
    /// fallbacks counted) in group order, so the engine is bitwise
    /// identical at every thread count.
    ///
    /// Groups whose observed block cannot be factorized are downgraded to
    /// the prior and counted ([`fallback_count`](Self::fallback_count));
    /// this constructor never panics on degenerate covariance.
    ///
    /// # Panics
    ///
    /// Panics if `tested` or a group references an out-of-range path
    /// (cannot happen for plan-built inputs).
    pub fn new(
        model: &TimingModel,
        groups: &[PathGroup],
        tested: &[usize],
        sigma_k: f64,
        threads: usize,
    ) -> Self {
        let n = model.path_count();
        let mut is_tested = vec![false; n];
        for &p in tested {
            is_tested[p] = true;
        }
        let priors: Vec<DelayBounds> = (0..n)
            .map(|p| DelayBounds::from_gaussian(model.path_mean(p), model.path_sigma(p), sigma_k))
            .collect();

        /// One group's plan-time outcome, carried from the worker back to
        /// the serial commit loop.
        enum GroupOutcome {
            /// Nothing to condition (all or none of the members tested).
            Skip,
            /// Factored successfully (boxed: the conditioner dwarfs the
            /// other variants).
            Conditioned(Box<GroupPredictor>),
            /// Degenerate observed block — downgraded to the prior.
            Fallback,
        }

        let is_tested = &is_tested;
        let outcomes = effitest_parallel::par_map(threads, groups.len(), |gi| {
            let group = &groups[gi];
            let observed: Vec<usize> =
                group.members.iter().copied().filter(|&p| is_tested[p]).collect();
            if observed.is_empty() || observed.len() == group.members.len() {
                return GroupOutcome::Skip;
            }
            let obs_pos: Vec<usize> = group
                .members
                .iter()
                .enumerate()
                .filter(|&(_, &p)| is_tested[p])
                .map(|(pos, _)| pos)
                .collect();
            match group_conditioner(model, &group.members, &obs_pos) {
                Ok(conditioner) => {
                    let predicted: Vec<usize> = conditioner
                        .remaining_indices()
                        .iter()
                        .map(|&pos| group.members[pos])
                        .collect();
                    GroupOutcome::Conditioned(Box::new(GroupPredictor {
                        observed,
                        predicted,
                        conditioner,
                    }))
                }
                Err(_) => GroupOutcome::Fallback,
            }
        });
        let mut group_predictors = Vec::new();
        let mut fallbacks = 0_u64;
        for outcome in outcomes {
            match outcome {
                GroupOutcome::Skip => {}
                GroupOutcome::Conditioned(gp) => group_predictors.push(*gp),
                GroupOutcome::Fallback => fallbacks += 1,
            }
        }
        Predictor {
            n_paths: n,
            planned: (0..n).filter(|&p| is_tested[p]).collect(),
            sigma_k,
            priors,
            groups: group_predictors,
            fallbacks,
        }
    }

    /// Paths in the underlying model.
    pub fn path_count(&self) -> usize {
        self.n_paths
    }

    /// Planned tested paths (the required key count of `tested` maps).
    pub fn tested_count(&self) -> usize {
        self.planned.len()
    }

    /// The planned tested paths, ascending — the exact key set every
    /// per-chip `tested` map must carry.
    pub fn planned_paths(&self) -> &[usize] {
        &self.planned
    }

    /// Groups downgraded to the prior at plan time because their observed
    /// covariance block could not be factorized.
    pub fn fallback_count(&self) -> u64 {
        self.fallbacks
    }

    /// Serializes the engine's factored state: planned set, per-group
    /// observed/predicted index lists, each group's conditioner parts
    /// (Cholesky factor + conditioning gain inputs), and the prior bound
    /// endpoints. The priors *are* a pure function of `(model, sigma_k)`,
    /// but rebuilding all `n_paths` of them costs more than everything
    /// else in a cached load combined, so the blob spends 16 bytes/path
    /// to carry their exact bit patterns instead.
    pub(crate) fn encode(&self, w: &mut crate::codec::Writer) {
        w.put_usize(self.n_paths);
        w.put_usize_slice(&self.planned);
        w.put_f64(self.sigma_k);
        w.put_u64(self.fallbacks);
        w.put_usize(self.groups.len());
        for g in &self.groups {
            w.put_usize_slice(&g.observed);
            w.put_usize_slice(&g.predicted);
            let parts = g.conditioner.to_parts();
            w.put_usize_slice(&parts.observed);
            w.put_usize_slice(&parts.remaining);
            w.put_f64_slice(&parts.mean_obs);
            w.put_f64_slice(&parts.mean_rem);
            put_matrix(w, &parts.chol_factor);
            w.put_f64(parts.chol_jitter);
            put_matrix(w, &parts.cross);
            w.put_f64_slice(&parts.cond_sigmas);
        }
        // Priors are a pure function of the model, but recomputing all
        // n_paths of them costs more than the entire rest of a cached
        // load at 100k paths — so the blob carries their bit patterns.
        for b in &self.priors {
            w.put_f64(b.lower);
            w.put_f64(b.upper);
        }
    }

    /// Inverse of [`encode`](Self::encode): reassembles the engine against
    /// `model`, which must be the model the encoded plan was built from
    /// (the cache layer guarantees this through its content key; the path
    /// count is re-checked here as a cheap structural backstop).
    ///
    /// Never panics on malformed bytes — every structural violation
    /// surfaces as a [`CodecError`](crate::codec::CodecError).
    pub(crate) fn decode(
        model: &TimingModel,
        r: &mut crate::codec::Reader<'_>,
    ) -> Result<Self, crate::codec::CodecError> {
        use crate::codec::CodecError;
        let n_paths = r.get_usize()?;
        if n_paths != model.path_count() {
            return Err(CodecError::Invalid("predictor path count does not match the model"));
        }
        let planned = r.get_usize_vec()?;
        if planned.windows(2).any(|w| w[0] >= w[1]) || planned.last().is_some_and(|&p| p >= n_paths)
        {
            return Err(CodecError::Invalid("planned tested set not sorted/in range"));
        }
        let sigma_k = r.get_f64()?;
        let fallbacks = r.get_u64()?;
        let n_groups = r.get_usize()?;
        let mut groups = Vec::with_capacity(n_groups.min(1 << 20));
        for _ in 0..n_groups {
            let observed = r.get_usize_vec()?;
            let predicted = r.get_usize_vec()?;
            if observed.iter().chain(&predicted).any(|&p| p >= n_paths) {
                return Err(CodecError::Invalid("group path index out of range"));
            }
            let parts = effitest_linalg::ConditionerParts {
                observed: r.get_usize_vec()?,
                remaining: r.get_usize_vec()?,
                mean_obs: r.get_f64_vec()?,
                mean_rem: r.get_f64_vec()?,
                chol_factor: get_matrix(r)?,
                chol_jitter: r.get_f64()?,
                cross: get_matrix(r)?,
                cond_sigmas: r.get_f64_vec()?,
            };
            if parts.observed.len() != observed.len() || parts.remaining.len() != predicted.len() {
                return Err(CodecError::Invalid("group index lists disagree with conditioner"));
            }
            let conditioner = GaussianConditioner::from_parts(parts)
                .map_err(|_| CodecError::Invalid("conditioner parts rejected"))?;
            groups.push(GroupPredictor { observed, predicted, conditioner });
        }
        // Priors come from the blob (bit patterns of the constructor's
        // output — see `encode`); the flags of a prior bound are always
        // unproven, so endpoint pairs reconstruct them exactly.
        let mut priors = Vec::with_capacity(n_paths.min(1 << 24));
        for _ in 0..n_paths {
            let lower = r.get_f64()?;
            let upper = r.get_f64()?;
            if !(lower.is_finite() && upper.is_finite() && lower <= upper) {
                return Err(CodecError::Invalid("prior bounds malformed"));
            }
            priors.push(DelayBounds::new(lower, upper));
        }
        Ok(Predictor { n_paths, planned, sigma_k, priors, groups, fallbacks })
    }

    /// Predicts all ranges from one chip's measured bounds, reusing a
    /// per-worker workspace; bitwise identical to [`predict_ranges`] on
    /// the same inputs, with no allocation beyond the returned ranges.
    ///
    /// `tested` must carry exactly the planned tested set (the flow passes
    /// the aligned-test bounds, whose key set is the plan's batches).
    ///
    /// # Panics
    ///
    /// Panics if `tested` lacks a planned tested path.
    pub fn predict_with(
        &self,
        ws: &mut PredictWorkspace,
        tested: &HashMap<usize, DelayBounds>,
    ) -> PredictedRanges {
        debug_assert_eq!(tested.len(), self.planned.len(), "tested map diverged from the plan");
        debug_assert!(
            self.planned.iter().all(|p| tested.contains_key(p)),
            "tested map's key set diverged from the planned tested paths"
        );
        let mut ranges = self.priors.clone();
        let mut measured = vec![false; self.n_paths];

        // Measured paths keep their tested bounds.
        for (&p, &b) in tested {
            ranges[p] = b;
            measured[p] = true;
        }

        for group in &self.groups {
            // Conservative observations: the measured upper bounds, in the
            // same member order the conditioner was factored for.
            ws.values.clear();
            ws.values.extend(group.observed.iter().map(|p| tested[p].upper));
            group
                .conditioner
                .condition_mean_into(&ws.values, &mut ws.solve, &mut ws.mean)
                .expect("observation count is fixed by the plan");
            for ((&p, &mu), &sigma) in
                group.predicted.iter().zip(&ws.mean).zip(group.conditioner.conditional_sigmas())
            {
                ranges[p] = DelayBounds::new(mu - self.sigma_k * sigma, mu + self.sigma_k * sigma);
            }
        }

        PredictedRanges { ranges, measured, fallbacks: self.fallbacks }
    }

    /// [`predict_with`](Self::predict_with) with a throwaway workspace.
    ///
    /// # Panics
    ///
    /// Same as [`predict_with`](Self::predict_with).
    pub fn predict(&self, tested: &HashMap<usize, DelayBounds>) -> PredictedRanges {
        self.predict_with(&mut PredictWorkspace::new(), tested)
    }
}

/// Reusable per-worker scratch for [`Predictor::predict_with`]: the
/// observation gather, the triangular-solve buffer, and the conditional
/// means.
///
/// Like every workspace in this crate it holds **scratch, never results**:
/// predictions are bitwise identical whether a workspace is fresh, reused,
/// or shared serially across any number of chips.
#[derive(Debug, Default)]
pub struct PredictWorkspace {
    /// Gathered observed upper bounds (one group at a time).
    values: Vec<f64>,
    /// Innovation/solve buffer threaded through the factored gain.
    solve: Vec<f64>,
    /// Conditional means of the group's unobserved members.
    mean: Vec<f64>,
}

impl PredictWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A whole population's measured bounds, one tested map per chip, as
/// [`Predictor::predict_population`] reads them.
#[derive(Debug, Clone)]
pub struct ChipMatrix {
    /// Planned tested paths, ascending: the key set of every chip's map.
    planned: Vec<usize>,
    /// Each chip's tested map, in chip order.
    chips: Vec<HashMap<usize, DelayBounds>>,
}

impl ChipMatrix {
    /// Creates a population of `n_chips` chips for `predictor`'s planned
    /// tested set; fill every chip with [`set_chip`](Self::set_chip).
    pub fn new(predictor: &Predictor, n_chips: usize) -> Self {
        ChipMatrix { planned: predictor.planned.clone(), chips: vec![HashMap::new(); n_chips] }
    }

    /// Stores chip `chip`'s measured bounds.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range or the key set of `tested` is not
    /// exactly the planned tested set (the contract of
    /// [`Predictor::predict_with`]).
    pub fn set_chip(&mut self, chip: usize, tested: &HashMap<usize, DelayBounds>) {
        assert!(
            tested.len() == self.planned.len()
                && self.planned.iter().all(|p| tested.contains_key(p)),
            "tested map diverged from the plan"
        );
        self.chips[chip] = tested.clone();
    }
}

/// Whole-population prediction output in chip-major layout: chip `c`'s
/// per-path bounds live at `[c * n_paths, (c + 1) * n_paths)`.
#[derive(Debug, Clone)]
pub struct BatchPredictedRanges {
    /// Paths per chip.
    n_paths: usize,
    /// Lower bounds, chip-major.
    lower: Vec<f64>,
    /// Upper bounds, chip-major.
    upper: Vec<f64>,
}

impl BatchPredictedRanges {
    /// Chip `chip`'s lower bounds (dense over paths).
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range.
    pub fn chip_lower(&self, chip: usize) -> &[f64] {
        &self.lower[chip * self.n_paths..(chip + 1) * self.n_paths]
    }

    /// Chip `chip`'s upper bounds (dense over paths).
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range.
    pub fn chip_upper(&self, chip: usize) -> &[f64] {
        &self.upper[chip * self.n_paths..(chip + 1) * self.n_paths]
    }
}

impl Predictor {
    /// Predicts every chip of `chips` through
    /// [`predict_with`](Self::predict_with) over `threads` workers, one
    /// [`PredictWorkspace`] per worker; chip `c`'s bounds are bitwise
    /// `predict_with` on chip `c`'s tested map, at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `chips` was built for a different plan or a chip was never
    /// set.
    pub fn predict_population(&self, chips: &ChipMatrix, threads: usize) -> BatchPredictedRanges {
        assert_eq!(chips.planned, self.planned, "chip matrix diverged from the plan");
        let n = chips.chips.len();
        let chunk = effitest_parallel::default_chunk(n, threads);
        let per_chip = effitest_parallel::par_map_scratch(
            threads,
            chunk,
            n,
            PredictWorkspace::new,
            |ws, c| self.predict_with(ws, &chips.chips[c]),
        );
        let (lower, upper) =
            per_chip.iter().flat_map(|r| &r.ranges).map(|b| (b.lower, b.upper)).unzip();
        BatchPredictedRanges { n_paths: self.n_paths, lower, upper }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::{select_paths, SelectConfig};
    use effitest_circuit::{BenchmarkSpec, GeneratedBenchmark};
    use effitest_linalg::{Matrix, MultivariateGaussian};
    use effitest_ssta::VariationConfig;

    fn fixture() -> (GeneratedBenchmark, TimingModel, Vec<PathGroup>) {
        let bench =
            GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s9234().scaled_down(10), 1);
        let model = TimingModel::build(&bench, &VariationConfig::paper());
        let groups = select_paths(&model, &SelectConfig::default(), 1);
        (bench, model, groups)
    }

    /// Measured bounds: a tight window around the chip's true delay.
    fn measure(
        chip: &effitest_ssta::ChipInstance,
        paths: &[usize],
        eps: f64,
    ) -> HashMap<usize, DelayBounds> {
        paths
            .iter()
            .map(|&p| {
                let d = chip.setup_delay(p);
                (p, DelayBounds::new(d - eps / 2.0, d + eps / 2.0))
            })
            .collect()
    }

    fn range_bits(r: &PredictedRanges) -> Vec<(u64, u64)> {
        r.ranges.iter().map(|b| (b.lower.to_bits(), b.upper.to_bits())).collect()
    }

    #[test]
    fn prediction_tightens_ranges() {
        let (_, model, groups) = fixture();
        let chip = model.sample_chip(5);
        let selected = crate::select::all_selected(&groups);
        let tested = measure(&chip, &selected, 0.5);
        let predicted = predict_ranges(&model, &groups, &tested, 3.0);

        // For paths in groups with measured peers, the predicted width must
        // be no wider than the prior 6-sigma window (strictly tighter for
        // correlated peers).
        let mut tightened = 0;
        let mut total_unmeasured = 0;
        for g in &groups {
            let has_measured = g.members.iter().any(|p| tested.contains_key(p));
            for &p in &g.members {
                if tested.contains_key(&p) {
                    continue;
                }
                total_unmeasured += 1;
                let prior = 6.0 * model.path_sigma(p);
                let width = predicted.ranges[p].width();
                assert!(width <= prior + 1e-9, "prediction widened path {p}");
                if has_measured && width < prior * 0.9 {
                    tightened += 1;
                }
            }
        }
        assert!(
            tightened * 2 >= total_unmeasured,
            "too few predictions tightened: {tightened}/{total_unmeasured}"
        );
    }

    #[test]
    fn predicted_ranges_usually_cover_truth() {
        let (_, model, groups) = fixture();
        let mut covered = 0;
        let mut total = 0;
        for seed in 0..10 {
            let chip = model.sample_chip(700 + seed);
            let selected = crate::select::all_selected(&groups);
            let tested = measure(&chip, &selected, 0.5);
            let predicted = predict_ranges(&model, &groups, &tested, 3.0);
            for p in 0..model.path_count() {
                if tested.contains_key(&p) {
                    continue;
                }
                total += 1;
                let d = chip.setup_delay(p);
                if predicted.ranges[p].lower <= d && d <= predicted.ranges[p].upper {
                    covered += 1;
                }
            }
        }
        // Conservative upper-bound conditioning shifts means slightly high,
        // but +-3 sigma' windows should still cover the vast majority.
        let rate = covered as f64 / total as f64;
        assert!(rate > 0.93, "coverage too low: {rate}");
    }

    #[test]
    fn measured_paths_keep_their_bounds() {
        let (_, model, groups) = fixture();
        let chip = model.sample_chip(9);
        let selected = crate::select::all_selected(&groups);
        let tested = measure(&chip, &selected, 0.25);
        let predicted = predict_ranges(&model, &groups, &tested, 3.0);
        for (&p, &b) in &tested {
            assert_eq!(predicted.ranges[p], b);
            assert!(predicted.measured[p]);
        }
        let measured_count = predicted.measured.iter().filter(|&&m| m).count();
        assert_eq!(measured_count, tested.len());
    }

    #[test]
    fn upper_bound_conditioning_is_conservative() {
        // Conditioning at upper bounds must shift predicted means upward
        // relative to conditioning at the interval centers.
        let (_, model, groups) = fixture();
        let chip = model.sample_chip(13);
        let selected = crate::select::all_selected(&groups);
        let eps = 2.0;
        let tested = measure(&chip, &selected, eps);
        let predicted_hi = predict_ranges(&model, &groups, &tested, 3.0);
        // Centers-based variant for comparison.
        let tested_center: HashMap<usize, DelayBounds> = tested
            .iter()
            .map(|(&p, b)| {
                let c = b.center();
                (p, DelayBounds::new(c, c))
            })
            .collect();
        let predicted_center = predict_ranges(&model, &groups, &tested_center, 3.0);
        let mut higher = 0;
        let mut comparable = 0;
        for g in groups.iter().filter(|g| g.members.len() > g.selected.len()) {
            for &p in &g.members {
                if tested.contains_key(&p) {
                    continue;
                }
                comparable += 1;
                if predicted_hi.ranges[p].center() >= predicted_center.ranges[p].center() - 1e-9 {
                    higher += 1;
                }
            }
        }
        // Positive correlations dominate in clustered benchmarks, so the
        // upper-bound conditioning should raise (almost) all means.
        assert!(
            higher as f64 >= comparable as f64 * 0.9,
            "conservative conditioning not conservative: {higher}/{comparable}"
        );
    }

    #[test]
    fn empty_tested_map_returns_priors() {
        let (_, model, groups) = fixture();
        let predicted = predict_ranges(&model, &groups, &HashMap::new(), 3.0);
        for p in 0..model.path_count() {
            let prior = DelayBounds::from_gaussian(model.path_mean(p), model.path_sigma(p), 3.0);
            assert_eq!(predicted.ranges[p], prior);
            assert!(!predicted.measured[p]);
        }
        assert_eq!(predicted.fallbacks, 0);
    }

    #[test]
    fn predictor_matches_reference_bitwise() {
        // The precomputed engine, conditioned straight from the canonical
        // forms, must agree with the from-scratch dense reference path bit
        // for bit, chip after chip — also on an inflated model, whose
        // covariance diagonal carries each path's own extra term.
        let (_, base, _) = fixture();
        for model in [base.clone(), base.with_inflated_sigma(1.1)] {
            let groups = select_paths(&model, &SelectConfig::default(), 1);
            let selected = crate::select::all_selected(&groups);
            let predictor = Predictor::new(&model, &groups, &selected, 3.0, 1);
            assert_eq!(predictor.path_count(), model.path_count());
            assert_eq!(predictor.tested_count(), selected.len());
            assert_eq!(predictor.fallback_count(), 0);
            assert!(!predictor.groups.is_empty(), "no group conditions");
            let mut ws = PredictWorkspace::new();
            for seed in 0..8 {
                let chip = model.sample_chip(2_000 + seed);
                let tested = measure(&chip, &selected, 0.5);
                let engine = predictor.predict_with(&mut ws, &tested);
                let reference = predict_ranges(&model, &groups, &tested, 3.0);
                assert_eq!(range_bits(&engine), range_bits(&reference), "chip {seed} drifted");
                assert_eq!(engine.measured, reference.measured);
                assert_eq!(engine.fallbacks, reference.fallbacks);
            }
        }
    }

    #[test]
    fn threaded_predictor_matches_serial_at_every_thread_count() {
        let (_, model, groups) = fixture();
        let selected = crate::select::all_selected(&groups);
        // At one thread the factorization runs inline: the serial run.
        let serial = Predictor::new(&model, &groups, &selected, 3.0, 1);
        let chips: Vec<_> = (0..4).map(|s| model.sample_chip(6_000 + s)).collect();
        for threads in [4, 8] {
            let threaded = Predictor::new(&model, &groups, &selected, 3.0, threads);
            assert_eq!(threaded.planned, serial.planned, "planned set diverged ({threads})");
            assert_eq!(threaded.fallbacks, serial.fallbacks, "fallbacks diverged ({threads})");
            assert_eq!(threaded.groups.len(), serial.groups.len());
            for (t, s) in threaded.groups.iter().zip(&serial.groups) {
                assert_eq!(t.observed, s.observed, "observed members diverged ({threads})");
                assert_eq!(t.predicted, s.predicted, "predicted members diverged ({threads})");
            }
            for chip in &chips {
                let tested = measure(chip, &selected, 0.5);
                assert_eq!(
                    range_bits(&threaded.predict(&tested)),
                    range_bits(&serial.predict(&tested)),
                    "predictions diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn predictor_workspace_reuse_is_invisible() {
        let (_, model, groups) = fixture();
        let selected = crate::select::all_selected(&groups);
        let predictor = Predictor::new(&model, &groups, &selected, 3.0, 1);
        let mut ws = PredictWorkspace::new();
        for seed in 0..5 {
            let chip = model.sample_chip(3_000 + seed);
            let tested = measure(&chip, &selected, 0.5);
            let reused = predictor.predict_with(&mut ws, &tested);
            let fresh = predictor.predict(&tested);
            assert_eq!(range_bits(&reused), range_bits(&fresh), "workspace leaked state");
        }
    }

    #[test]
    fn degenerate_observed_block_downgrades_instead_of_panicking() {
        // An indefinite "covariance" passes the symmetry check but cannot
        // be factorized even with regularization: the conditioner both the
        // oracle and the plan build on must report the downgrade instead
        // of panicking.
        let cov =
            Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[2.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]).unwrap();
        let gauss = MultivariateGaussian::new(vec![10.0, 11.0, 12.0], cov).unwrap();
        assert!(gauss.conditioner(&[0, 1]).is_err());
        // A healthy block takes the conditioned path.
        let ok =
            Matrix::from_rows(&[&[1.0, 0.5, 0.0], &[0.5, 1.0, 0.0], &[0.0, 0.0, 1.0]]).unwrap();
        let gauss = MultivariateGaussian::new(vec![0.0; 3], ok).unwrap();
        assert!(gauss.conditioner(&[0]).is_ok());
    }

    /// Loads `tested_maps` into a [`ChipMatrix`], one chip per map.
    fn chip_matrix(
        predictor: &Predictor,
        tested_maps: &[HashMap<usize, DelayBounds>],
    ) -> ChipMatrix {
        let mut chips = ChipMatrix::new(predictor, tested_maps.len());
        for (c, tested) in tested_maps.iter().enumerate() {
            chips.set_chip(c, tested);
        }
        chips
    }

    /// Chip `c`'s bounds out of a population prediction, as bit patterns.
    fn chip_bits(batch: &BatchPredictedRanges, c: usize) -> Vec<(u64, u64)> {
        batch
            .chip_lower(c)
            .iter()
            .zip(batch.chip_upper(c))
            .map(|(l, u)| (l.to_bits(), u.to_bits()))
            .collect()
    }

    #[test]
    fn batched_population_matches_per_chip_bitwise_at_any_thread_count() {
        let (_, model, groups) = fixture();
        let selected = crate::select::all_selected(&groups);
        let predictor = Predictor::new(&model, &groups, &selected, 3.0, 1);
        let tested_maps: Vec<HashMap<usize, DelayBounds>> =
            (0..7).map(|seed| measure(&model.sample_chip(4_000 + seed), &selected, 0.5)).collect();
        let chips = chip_matrix(&predictor, &tested_maps);
        let mut ws = PredictWorkspace::new();
        let reference: Vec<PredictedRanges> =
            tested_maps.iter().map(|t| predictor.predict_with(&mut ws, t)).collect();
        for threads in [1, 2, 4, 16] {
            let batch = predictor.predict_population(&chips, threads);
            assert_eq!(batch.lower.len(), tested_maps.len() * model.path_count());
            for (c, r) in reference.iter().enumerate() {
                assert_eq!(
                    chip_bits(&batch, c),
                    range_bits(r),
                    "chip {c} drifted at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn batched_population_degenerate_shapes() {
        let (_, model, groups) = fixture();
        let selected = crate::select::all_selected(&groups);
        let predictor = Predictor::new(&model, &groups, &selected, 3.0, 1);
        // Zero chips: empty output, no panic, at any thread count.
        let empty = chip_matrix(&predictor, &[]);
        for threads in [0, 1, 4] {
            let out = predictor.predict_population(&empty, threads);
            assert!(out.lower.is_empty() && out.upper.is_empty());
        }
        // One chip, including oversubscribed thread counts.
        let tested = measure(&model.sample_chip(4_100), &selected, 0.5);
        let one = chip_matrix(&predictor, std::slice::from_ref(&tested));
        let reference = range_bits(&predictor.predict(&tested));
        for threads in [0, 1, 9] {
            assert_eq!(chip_bits(&predictor.predict_population(&one, threads), 0), reference);
        }
    }

    #[test]
    #[should_panic(expected = "diverged from the plan")]
    fn chip_matrix_rejects_incomplete_tested_map() {
        let (_, model, groups) = fixture();
        let selected = crate::select::all_selected(&groups);
        let predictor = Predictor::new(&model, &groups, &selected, 3.0, 1);
        let mut m = ChipMatrix::new(&predictor, 1);
        m.set_chip(0, &HashMap::new());
    }

    #[test]
    fn fallback_groups_keep_priors_and_are_counted() {
        // A predictor whose only conditioning group was downgraded at plan
        // time: predictions must be exactly the priors (plus measured
        // bounds) and the fallback count must surface in the output.
        let (_, model, groups) = fixture();
        let selected = crate::select::all_selected(&groups);
        let reference = Predictor::new(&model, &groups, &selected, 3.0, 1);
        let downgraded = Predictor {
            n_paths: reference.n_paths,
            planned: reference.planned.clone(),
            sigma_k: reference.sigma_k,
            priors: reference.priors.clone(),
            groups: Vec::new(),
            fallbacks: reference.groups.len() as u64,
        };
        let chip = model.sample_chip(77);
        let tested = measure(&chip, &selected, 0.5);
        let out = downgraded.predict(&tested);
        assert_eq!(out.fallbacks, reference.groups.len() as u64);
        assert!(out.fallbacks > 0, "fixture must have at least one conditioning group");
        for p in 0..model.path_count() {
            if let Some(b) = tested.get(&p) {
                assert_eq!(out.ranges[p], *b);
            } else {
                assert_eq!(out.ranges[p], downgraded.priors[p], "path {p} left the prior");
            }
        }
    }
}
