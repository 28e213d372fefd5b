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
//! [`PredictWorkspace`] — and produces **bitwise identical** ranges to the
//! from-scratch conditioning path, which survives as [`predict_ranges`]
//! (the reference implementation and the entry point for ad-hoc tested
//! sets).
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

use effitest_linalg::GaussianConditioner;
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
/// ranges — the **reference** per-chip path: every group's joint Gaussian
/// is rebuilt and refactorized per call.
///
/// This is the entry point for ad-hoc tested sets (the key set of `tested`
/// may be anything). For a *fixed* tested set applied across a whole chip
/// population, build a [`Predictor`] instead: same results, bitwise, at a
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
        let Ok(cond) = gauss.condition(&obs_pos, &values) else {
            fallbacks += 1;
            continue;
        };
        let remaining = gauss.remaining_indices(&obs_pos);
        for (cpos, &mpos) in remaining.iter().enumerate() {
            let p = group.members[mpos];
            let mu = cond.mean()[cpos];
            let sigma = cond.covariance()[(cpos, cpos)].max(0.0).sqrt();
            ranges[p] = DelayBounds::new(mu - sigma_k * sigma, mu + sigma_k * sigma);
        }
    }

    PredictedRanges { ranges, measured, fallbacks }
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
/// `effitest_linalg::GaussianConditioner`), which is what lets the
/// population engine keep its thread-count-determinism guarantee on top
/// of this engine.
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
            let gauss = model.gaussian(&group.members);
            let obs_pos: Vec<usize> = group
                .members
                .iter()
                .enumerate()
                .filter(|&(_, &p)| is_tested[p])
                .map(|(pos, _)| pos)
                .collect();
            match gauss.conditioner(&obs_pos) {
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
            put_matrix(w, &parts.cond_cov);
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
                cond_cov: get_matrix(r)?,
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

/// The whole population's measured bounds in a structure-of-arrays layout:
/// row `k` holds planned tested path `k`'s bound across every chip
/// (`n_tested x n_chips`, row-major).
///
/// Path-major rows are what make the batched engine's per-group gathers
/// contiguous: collecting one observed path's upper bounds for a block of
/// chips is a single `memcpy` out of a row slice, regardless of how the
/// chips are partitioned across worker threads.
#[derive(Debug, Clone)]
pub struct ChipMatrix {
    /// Planned tested paths, ascending — the row order of the matrix.
    tested: Vec<usize>,
    /// Dense path -> row lookup (`usize::MAX` = not a planned path), so
    /// scattering a chip's map costs O(1) per entry instead of a hash or
    /// binary search.
    row_of: Vec<usize>,
    /// Chips in the population (the column count).
    n_chips: usize,
    /// Measured lower bounds, `n_tested x n_chips` row-major.
    lowers: Vec<f64>,
    /// Measured upper bounds, same layout.
    uppers: Vec<f64>,
}

impl ChipMatrix {
    /// Creates a zeroed matrix sized for `predictor`'s planned tested set
    /// and `n_chips` chips; fill it with [`set_chip`](Self::set_chip).
    pub fn new(predictor: &Predictor, n_chips: usize) -> Self {
        let rows = predictor.planned.len();
        let mut row_of = vec![usize::MAX; predictor.n_paths];
        for (k, &p) in predictor.planned.iter().enumerate() {
            row_of[p] = k;
        }
        ChipMatrix {
            tested: predictor.planned.clone(),
            row_of,
            n_chips,
            lowers: vec![0.0; rows * n_chips],
            uppers: vec![0.0; rows * n_chips],
        }
    }

    /// Scatters one chip's measured bounds into column `chip`.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range or `tested` lacks a planned tested
    /// path (the same contract as [`Predictor::predict_with`]).
    pub fn set_chip(&mut self, chip: usize, tested: &HashMap<usize, DelayBounds>) {
        assert!(chip < self.n_chips, "chip {chip} out of range ({} chips)", self.n_chips);
        // Iterate the map and use the dense row lookup instead of hashing
        // every planned key: map iteration is hash-free, and the
        // equal-length check turns "every key is planned" into "the key
        // sets are equal".
        assert_eq!(tested.len(), self.tested.len(), "tested map diverged from the plan");
        let nc = self.n_chips;
        for (&p, b) in tested {
            let k = *self
                .row_of
                .get(p)
                .filter(|&&k| k != usize::MAX)
                .expect("tested map diverged from the plan");
            self.lowers[k * nc + chip] = b.lower;
            self.uppers[k * nc + chip] = b.upper;
        }
    }

    /// Gathers a whole population's tested maps (one per chip, in chip
    /// order) into the SoA layout.
    ///
    /// # Panics
    ///
    /// Same as [`set_chip`](Self::set_chip) for each map.
    pub fn gather(predictor: &Predictor, chips: &[HashMap<usize, DelayBounds>]) -> Self {
        let mut m = ChipMatrix::new(predictor, chips.len());
        m.fill(chips);
        m
    }

    /// [`gather`](Self::gather) into an existing matrix, so steady-state
    /// callers (benches, repeated populations through one plan) pay no
    /// reallocation: the matrix is resized for `predictor`'s plan and the
    /// new population, then refilled.
    ///
    /// # Panics
    ///
    /// Same as [`gather`](Self::gather).
    pub fn gather_into(
        predictor: &Predictor,
        chips: &[HashMap<usize, DelayBounds>],
        out: &mut ChipMatrix,
    ) {
        out.tested.clear();
        out.tested.extend_from_slice(&predictor.planned);
        out.row_of.clear();
        out.row_of.resize(predictor.n_paths, usize::MAX);
        for (k, &p) in predictor.planned.iter().enumerate() {
            out.row_of[p] = k;
        }
        out.n_chips = chips.len();
        // Every cell is overwritten by `fill` (each map covers the whole
        // planned set), so stale reused contents never survive.
        out.lowers.resize(out.tested.len() * out.n_chips, 0.0);
        out.uppers.resize(out.tested.len() * out.n_chips, 0.0);
        out.fill(chips);
    }

    /// Scatters a whole population into the (already sized) matrix.
    fn fill(&mut self, chips: &[HashMap<usize, DelayBounds>]) {
        let m = self;
        let nc = m.n_chips;
        let rows = m.tested.len();
        // Scatter each [`CHIP_TILE`]-chip block through a small path-major
        // staging buffer, then memcpy whole row slices into place: writing
        // a chip's column directly strides `n_chips` doubles per store
        // (one cache line touched per element), while the staging buffer
        // stays L1-resident and the copies are contiguous. Same values in
        // the same cells as per-chip [`set_chip`](Self::set_chip) calls.
        let mut lo_tile = vec![0.0; rows * CHIP_TILE];
        let mut up_tile = vec![0.0; rows * CHIP_TILE];
        let mut c0 = 0;
        while c0 < nc {
            let tc = CHIP_TILE.min(nc - c0);
            for (ci, tested) in chips[c0..c0 + tc].iter().enumerate() {
                assert_eq!(tested.len(), rows, "tested map diverged from the plan");
                for (&p, b) in tested {
                    let k = *m
                        .row_of
                        .get(p)
                        .filter(|&&k| k != usize::MAX)
                        .expect("tested map diverged from the plan");
                    lo_tile[k * CHIP_TILE + ci] = b.lower;
                    up_tile[k * CHIP_TILE + ci] = b.upper;
                }
            }
            for k in 0..rows {
                m.lowers[k * nc + c0..k * nc + c0 + tc]
                    .copy_from_slice(&lo_tile[k * CHIP_TILE..k * CHIP_TILE + tc]);
                m.uppers[k * nc + c0..k * nc + c0 + tc]
                    .copy_from_slice(&up_tile[k * CHIP_TILE..k * CHIP_TILE + tc]);
            }
            c0 += tc;
        }
    }

    /// Chips in the population.
    pub fn n_chips(&self) -> usize {
        self.n_chips
    }

    /// The planned tested paths (row order), ascending.
    pub fn tested_paths(&self) -> &[usize] {
        &self.tested
    }
}

/// Per-worker scratch for [`Predictor::predict_population`]: the gathered
/// observation block and the batched conditional means.
///
/// Scratch, never results: predictions are bitwise identical whether a
/// workspace is fresh, reused, or shared serially across chip blocks.
#[derive(Debug, Default)]
pub struct BatchPredictWorkspace {
    /// Gathered observed upper bounds (`n_obs x block_chips`, row-major),
    /// consumed as the batch conditioning's solve buffer.
    values: Vec<f64>,
    /// Transposed solve block (`tile_chips x n_obs`) for the chip-major
    /// conditioning GEMM.
    wt: Vec<f64>,
    /// Tile-staged measured lower bounds (`n_tested x tile_chips`): row
    /// slices copied out of the chip matrix so the per-chip scatter reads
    /// an L1-resident block instead of striding `n_chips` doubles.
    plo: Vec<f64>,
    /// Tile-staged measured upper bounds, same layout.
    pup: Vec<f64>,
    /// Batched conditional means, one buffer per group
    /// (`tile_chips x n_rem`, row-major — chip-major), so a whole tile's
    /// means are live at once and each chip's means are contiguous for the
    /// per-chip scatter.
    means: Vec<Vec<f64>>,
}

impl BatchPredictWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Whole-population prediction output in chip-major layout: chip `c`'s
/// per-path bounds live contiguously at `[c * n_paths, (c + 1) * n_paths)`.
///
/// Chip-major output is the counterpart of [`ChipMatrix`]'s path-major
/// input: worker threads own disjoint contiguous chip blocks (safe
/// `chunks_mut` partitioning, no false sharing at block boundaries beyond
/// one cache line), and extracting one chip's ranges afterwards is a
/// contiguous slice.
#[derive(Debug, Clone, Default)]
pub struct BatchPredictedRanges {
    /// Paths per chip.
    n_paths: usize,
    /// Chips in the population.
    n_chips: usize,
    /// Lower bounds, chip-major.
    lower: Vec<f64>,
    /// Upper bounds, chip-major.
    upper: Vec<f64>,
    /// `true` where the range came from silicon measurement — fixed by the
    /// plan, so one vector serves every chip.
    measured: Vec<bool>,
    /// Plan-time prediction fallbacks (same for every chip).
    fallbacks: u64,
}

impl BatchPredictedRanges {
    /// Creates an empty output for
    /// [`Predictor::predict_population_into`]; buffers grow on first use
    /// and are reused (no reallocation) across same-shape populations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Chips in the population.
    pub fn n_chips(&self) -> usize {
        self.n_chips
    }

    /// Paths per chip.
    pub fn path_count(&self) -> usize {
        self.n_paths
    }

    /// Chip `c`'s lower bounds (dense over paths).
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range.
    pub fn chip_lower(&self, chip: usize) -> &[f64] {
        &self.lower[chip * self.n_paths..(chip + 1) * self.n_paths]
    }

    /// Chip `c`'s upper bounds (dense over paths).
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range.
    pub fn chip_upper(&self, chip: usize) -> &[f64] {
        &self.upper[chip * self.n_paths..(chip + 1) * self.n_paths]
    }

    /// Which paths are measured (identical for every chip: the tested set
    /// is fixed by the plan).
    pub fn measured(&self) -> &[bool] {
        &self.measured
    }

    /// Plan-time prediction fallbacks, as surfaced per chip by the
    /// per-chip engine.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Materializes chip `c`'s prediction as a [`PredictedRanges`].
    ///
    /// Bounds are rebuilt with [`DelayBounds::new`], which carries no
    /// proven flags — callers that need the measured paths' proven flags
    /// (the population flow does) overwrite those entries from the aligned
    /// test results, exactly like the per-chip path keeps them.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range.
    pub fn chip_predicted(&self, chip: usize) -> PredictedRanges {
        let lo = self.chip_lower(chip);
        let up = self.chip_upper(chip);
        PredictedRanges {
            ranges: lo.iter().zip(up).map(|(&l, &u)| DelayBounds::new(l, u)).collect(),
            measured: self.measured.clone(),
            fallbacks: self.fallbacks,
        }
    }
}

impl Predictor {
    /// Predicts all ranges for a whole chip population at once: one
    /// cache-blocked GEMM per correlation group
    /// ([`GaussianConditioner::condition_mean_batch_into`]) instead of
    /// `n_chips` matvecs, with the chip matrix partitioned across `threads`
    /// worker threads in contiguous column blocks.
    ///
    /// Every chip's column is **bitwise identical** to
    /// [`predict_with`](Self::predict_with) on that chip's tested map, at
    /// any thread count: the batch kernels accumulate per column in the
    /// same order as their vector counterparts, and each column's
    /// arithmetic is independent of which block (and therefore which
    /// worker) it lands in.
    ///
    /// # Panics
    ///
    /// Panics if `chips` was built for a different predictor (its tested
    /// rows must be exactly this plan's tested set).
    pub fn predict_population(&self, chips: &ChipMatrix, threads: usize) -> BatchPredictedRanges {
        let mut out = BatchPredictedRanges::new();
        self.predict_population_into(chips, threads, &mut out);
        out
    }

    /// [`predict_population`](Self::predict_population) into a reusable
    /// output, so steady-state callers (benches, repeated populations) pay
    /// no allocation or page-faulting for the two `n_paths x n_chips`
    /// bound arrays after the first call.
    ///
    /// # Panics
    ///
    /// Same as [`predict_population`](Self::predict_population).
    pub fn predict_population_into(
        &self,
        chips: &ChipMatrix,
        threads: usize,
        out: &mut BatchPredictedRanges,
    ) {
        assert_eq!(chips.tested, self.planned, "chip matrix's tested rows diverged from the plan");
        let np = self.n_paths;
        let nc = chips.n_chips;
        out.n_paths = np;
        out.n_chips = nc;
        out.fallbacks = self.fallbacks;
        out.measured.clear();
        out.measured.resize(np, false);
        for &p in &self.planned {
            out.measured[p] = true;
        }
        // Every element of `lower`/`upper` is written exactly once below
        // (prior rows, measured rows, or a group scatter), so stale reused
        // contents never survive.
        out.lower.resize(np * nc, 0.0);
        out.upper.resize(np * nc, 0.0);
        if np == 0 || nc == 0 {
            return;
        }
        // Plan-derived constants shared (read-only) by every worker: the
        // prior bounds as dense arrays, the rows that keep their priors
        // (no group predicts them, so nobody else writes them), and each
        // group's observed rows in the chip matrix (planned is sorted, so
        // positions come from binary search).
        let prior_lower: Vec<f64> = self.priors.iter().map(|b| b.lower).collect();
        let prior_upper: Vec<f64> = self.priors.iter().map(|b| b.upper).collect();
        let mut written = vec![false; np];
        for &p in &self.planned {
            written[p] = true;
        }
        for group in &self.groups {
            for &p in &group.predicted {
                written[p] = true;
            }
        }
        let prior_rows: Vec<usize> = (0..np).filter(|&p| !written[p]).collect();
        let obs_rows: Vec<Vec<usize>> = self
            .groups
            .iter()
            .map(|g| {
                g.observed
                    .iter()
                    .map(|p| self.planned.binary_search(p).expect("observed paths are planned"))
                    .collect()
            })
            .collect();
        let halfs: Vec<Vec<f64>> = self
            .groups
            .iter()
            .map(|g| g.conditioner.conditional_sigmas().iter().map(|&s| self.sigma_k * s).collect())
            .collect();
        let plan = BatchPlan {
            prior_lower: &prior_lower,
            prior_upper: &prior_upper,
            prior_rows: &prior_rows,
            obs_rows: &obs_rows,
            halfs: &halfs,
        };

        let workers = threads.min(nc).max(1);
        // Contiguous chip blocks, as even as possible; the last block may
        // be short. Which block a chip lands in never changes its column's
        // arithmetic, so the partition is invisible in the results.
        let block = nc.div_ceil(workers);
        if workers == 1 {
            let mut ws = BatchPredictWorkspace::new();
            self.predict_block(chips, 0, nc, &plan, &mut out.lower, &mut out.upper, &mut ws);
            return;
        }
        std::thread::scope(|scope| {
            let chunks = out.lower.chunks_mut(block * np).zip(out.upper.chunks_mut(block * np));
            for (b, (lo_chunk, up_chunk)) in chunks.enumerate() {
                let plan = &plan;
                scope.spawn(move || {
                    let bc = lo_chunk.len() / np;
                    let mut ws = BatchPredictWorkspace::new();
                    self.predict_block(chips, b * block, bc, plan, lo_chunk, up_chunk, &mut ws);
                });
            }
        });
    }

    /// Predicts one contiguous block of `bc` chips starting at chip `c0`,
    /// writing into the block-local chip-major `lower`/`upper` slices.
    ///
    /// Internally iterates [`CHIP_TILE`]-sized sub-blocks: the per-group
    /// scatter writes one element per (path, chip), which in chip-major
    /// layout is a `n_paths`-strided access — tiling keeps the touched
    /// output window small enough to stay cache-resident across all groups
    /// instead of re-missing on every predicted row. Each column's
    /// arithmetic is independent of the tile it lands in, so tiling (like
    /// the thread partition) is invisible in the results.
    #[allow(clippy::too_many_arguments)]
    fn predict_block(
        &self,
        chips: &ChipMatrix,
        c0: usize,
        bc: usize,
        plan: &BatchPlan<'_>,
        lower: &mut [f64],
        upper: &mut [f64],
        ws: &mut BatchPredictWorkspace,
    ) {
        let np = self.n_paths;
        let mut t0 = 0;
        while t0 < bc {
            let tc = CHIP_TILE.min(bc - t0);
            self.predict_tile(
                chips,
                c0 + t0,
                tc,
                plan,
                &mut lower[t0 * np..(t0 + tc) * np],
                &mut upper[t0 * np..(t0 + tc) * np],
                ws,
            );
            t0 += tc;
        }
    }

    /// One cache-resident tile of `tc` chips starting at chip `c0`.
    #[allow(clippy::too_many_arguments)]
    fn predict_tile(
        &self,
        chips: &ChipMatrix,
        c0: usize,
        tc: usize,
        plan: &BatchPlan<'_>,
        lower: &mut [f64],
        upper: &mut [f64],
        ws: &mut BatchPredictWorkspace,
    ) {
        let np = self.n_paths;
        let nc = chips.n_chips;
        // Phase 1 — condition every group over the whole tile: contiguous
        // row gathers out of the path-major matrix, then one batched
        // conditioning per group. All groups' means stay live (one buffer
        // per group) so phase 2 can scatter chip by chip.
        ws.means.resize_with(self.groups.len(), Vec::new);
        for ((group, rows), mean) in self.groups.iter().zip(plan.obs_rows).zip(&mut ws.means) {
            ws.values.clear();
            for &row in rows {
                ws.values.extend_from_slice(&chips.uppers[row * nc + c0..row * nc + c0 + tc]);
            }
            group
                .conditioner
                .condition_mean_batch_chipmajor_into(&mut ws.values, tc, &mut ws.wt, mean)
                .expect("observation rows are fixed by the plan");
        }
        // Stage the tile's measured bounds: contiguous row-slice copies
        // here, L1-resident column reads in phase 2 (reading the chip
        // matrix directly per chip would stride `n_chips` doubles — one
        // cache line touched per element).
        ws.plo.clear();
        ws.pup.clear();
        for k in 0..self.planned.len() {
            ws.plo.extend_from_slice(&chips.lowers[k * nc + c0..k * nc + c0 + tc]);
            ws.pup.extend_from_slice(&chips.uppers[k * nc + c0..k * nc + c0 + tc]);
        }
        // Phase 2 — one pass per chip over its contiguous `n_paths` output
        // window (small enough to sit in L1): sparse prior rows (paths no
        // group predicts), measured rows, then every group's predicted
        // rows, in plan group order — the same write order and the same
        // `mu ± k sigma` arithmetic as the per-chip loop, so overlaps
        // resolve identically. Writing per chip window instead of per
        // group row means consecutive stores share cache lines rather
        // than touching one line each `n_paths` stride apart; every
        // element is still written exactly once per owner.
        for ci in 0..tc {
            let lo = &mut lower[ci * np..(ci + 1) * np];
            let up = &mut upper[ci * np..(ci + 1) * np];
            for &p in plan.prior_rows {
                lo[p] = plan.prior_lower[p];
                up[p] = plan.prior_upper[p];
            }
            for (k, &p) in self.planned.iter().enumerate() {
                lo[p] = ws.plo[k * tc + ci];
                up[p] = ws.pup[k * tc + ci];
            }
            for ((group, mean), halfs) in self.groups.iter().zip(&ws.means).zip(plan.halfs) {
                let rem = group.predicted.len();
                let mrow = &mean[ci * rem..(ci + 1) * rem];
                for ((&p, &half), &mu) in group.predicted.iter().zip(halfs).zip(mrow) {
                    lo[p] = mu - half;
                    up[p] = mu + half;
                }
            }
        }
    }
}

/// Read-only plan-derived inputs shared by every batched-prediction
/// worker: dense prior bounds, the rows whose priors survive (no group
/// predicts them), and each group's observed-row indices in the chip
/// matrix.
struct BatchPlan<'a> {
    prior_lower: &'a [f64],
    prior_upper: &'a [f64],
    prior_rows: &'a [usize],
    obs_rows: &'a [Vec<usize>],
    /// Per group, per predicted path: `sigma_k * conditional_sigma` — the
    /// half-width added around every conditional mean, hoisted because it
    /// is chip-independent.
    halfs: &'a [Vec<f64>],
}

/// Chips per scatter tile of the batched engine: 32 chips keep the
/// chip-major output window (`32 x n_paths x 2` doubles) inside L2 for
/// every circuit size the flow meets, which is what makes the
/// `n_paths`-strided per-group scatter writes cache hits.
const CHIP_TILE: usize = 32;

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
        // The precomputed engine must agree with the from-scratch
        // reference path bit for bit, chip after chip.
        let (_, model, groups) = fixture();
        let selected = crate::select::all_selected(&groups);
        let predictor = Predictor::new(&model, &groups, &selected, 3.0, 1);
        assert_eq!(predictor.path_count(), model.path_count());
        assert_eq!(predictor.tested_count(), selected.len());
        assert_eq!(predictor.fallback_count(), 0);
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
        // be factorized even with regularization: both the per-chip
        // reference helper and the plan-time conditioner must report the
        // downgrade instead of panicking.
        let cov =
            Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[2.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]).unwrap();
        let gauss = MultivariateGaussian::new(vec![10.0, 11.0, 12.0], cov).unwrap();
        assert!(gauss.condition(&[0, 1], &[10.5, 11.5]).is_err());
        assert!(gauss.conditioner(&[0, 1]).is_err());
        // A healthy block takes the conditioned path.
        let ok =
            Matrix::from_rows(&[&[1.0, 0.5, 0.0], &[0.5, 1.0, 0.0], &[0.0, 0.0, 1.0]]).unwrap();
        let gauss = MultivariateGaussian::new(vec![0.0; 3], ok).unwrap();
        assert!(gauss.condition(&[0], &[0.5]).is_ok());
        assert!(gauss.conditioner(&[0]).is_ok());
    }

    #[test]
    fn batched_population_matches_per_chip_bitwise_at_any_thread_count() {
        let (_, model, groups) = fixture();
        let selected = crate::select::all_selected(&groups);
        let predictor = Predictor::new(&model, &groups, &selected, 3.0, 1);
        let tested_maps: Vec<HashMap<usize, DelayBounds>> =
            (0..7).map(|seed| measure(&model.sample_chip(4_000 + seed), &selected, 0.5)).collect();
        let chips = ChipMatrix::gather(&predictor, &tested_maps);
        assert_eq!(chips.n_chips(), tested_maps.len());
        assert_eq!(chips.tested_paths().len(), selected.len());
        let mut ws = PredictWorkspace::new();
        let reference: Vec<PredictedRanges> =
            tested_maps.iter().map(|t| predictor.predict_with(&mut ws, t)).collect();
        for threads in [1, 2, 4, 16] {
            let batch = predictor.predict_population(&chips, threads);
            assert_eq!(batch.n_chips(), tested_maps.len());
            assert_eq!(batch.path_count(), model.path_count());
            assert_eq!(batch.fallbacks(), predictor.fallback_count());
            for (c, r) in reference.iter().enumerate() {
                assert_eq!(batch.measured(), r.measured.as_slice());
                for (p, b) in r.ranges.iter().enumerate() {
                    assert_eq!(
                        batch.chip_lower(c)[p].to_bits(),
                        b.lower.to_bits(),
                        "chip {c} path {p} lower drifted at {threads} threads"
                    );
                    assert_eq!(
                        batch.chip_upper(c)[p].to_bits(),
                        b.upper.to_bits(),
                        "chip {c} path {p} upper drifted at {threads} threads"
                    );
                }
                // The materialized form round-trips (measured bounds in
                // this fixture carry no proven flags, so full equality).
                assert_eq!(batch.chip_predicted(c).ranges, r.ranges);
            }
        }
    }

    #[test]
    fn batched_population_degenerate_shapes() {
        let (_, model, groups) = fixture();
        let selected = crate::select::all_selected(&groups);
        let predictor = Predictor::new(&model, &groups, &selected, 3.0, 1);
        // Zero chips: empty output, no panic, at any thread count.
        let empty = ChipMatrix::gather(&predictor, &[]);
        for threads in [0, 1, 4] {
            let out = predictor.predict_population(&empty, threads);
            assert_eq!(out.n_chips(), 0);
            assert_eq!(out.fallbacks(), predictor.fallback_count());
        }
        // One chip, including oversubscribed thread counts.
        let tested = measure(&model.sample_chip(4_100), &selected, 0.5);
        let one = ChipMatrix::gather(&predictor, std::slice::from_ref(&tested));
        let reference = predictor.predict(&tested);
        for threads in [0, 1, 9] {
            let out = predictor.predict_population(&one, threads);
            assert_eq!(out.n_chips(), 1);
            assert_eq!(out.chip_predicted(0).ranges, reference.ranges);
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
