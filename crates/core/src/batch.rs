//! Path test multiplexing (paper §3.2).
//!
//! Paths measured in the same frequency step must be attributable: a
//! latching failure at a flip-flop shared by two paths cannot be blamed on
//! either, so paths sharing a source or sink flip-flop conflict. Logic
//! masking adds further mutual exclusions (computed by
//! `effitest_circuit::sensitize`). Batching is then graph coloring on the
//! conflict graph, by a greedy first fit (the paper deems a simple
//! heuristic sufficient: "a depth-first search or a simple ILP"). Paths
//! are placed widest initial range first, each into the conflict-free
//! batch whose mean width is closest to its own (see [`build_batches`]).
//!
//! After the batches are formed, unselected paths with the largest
//! *predicted* variance (paper eq. 5 — independent of any measured value)
//! are slotted into batches they do not conflict with, so the otherwise
//! idle test slots also produce delay information.
//!
//! # Sparse placement
//!
//! The conflict graph is never materialized densely. Endpoint conflicts
//! form cliques over the paths sharing a flip-flop, so they are resolved
//! through per-endpoint lists; sensitization exclusions are read from the
//! symmetric CSR of [`MutualExclusions`], stored once. Placement then only
//! visits a path's actual neighbors (to stamp their batches as forbidden)
//! instead of probing every batch member, which drops coloring from
//! quadratic to O(paths + conflict edges + batches). The quadratic loops
//! survive in the unit tests as `build_batches_dense` /
//! `fill_slots_dense`, the reference oracles the sparse placement is
//! pinned against.

use std::collections::HashMap;

use effitest_circuit::sensitize::MutualExclusions;
use effitest_circuit::{FlipFlopId, GeneratedBenchmark, PathId, PathView};
use effitest_linalg::{GaussianConditioner, LinalgError};
use effitest_ssta::TimingModel;

/// The batching outcome.
#[derive(Debug, Clone)]
pub struct Batches {
    /// Path indices per batch; every listed path is tested.
    pub batches: Vec<Vec<usize>>,
    /// Paths added as slot fillers (subset of the batched paths).
    pub slot_filled: Vec<usize>,
}

impl Batches {
    /// All tested paths (selected + slot-filled), sorted and deduplicated.
    pub fn tested_paths(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.batches.iter().flatten().copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Number of batches.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// `true` if there are no batches.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Serializes the schedule for the plan codec.
    pub(crate) fn encode(&self, w: &mut crate::codec::Writer) {
        w.put_usize(self.batches.len());
        for b in &self.batches {
            w.put_usize_slice(b);
        }
        w.put_usize_slice(&self.slot_filled);
    }

    /// Inverse of [`encode`](Self::encode); `n_paths` bounds every index.
    pub(crate) fn decode(
        r: &mut crate::codec::Reader<'_>,
        n_paths: usize,
    ) -> Result<Self, crate::codec::CodecError> {
        let n_batches = r.get_usize()?;
        let mut batches = Vec::with_capacity(n_batches.min(1 << 20));
        for _ in 0..n_batches {
            let b = r.get_usize_vec()?;
            if b.iter().any(|&p| p >= n_paths) {
                return Err(crate::codec::CodecError::Invalid("batch path index out of range"));
            }
            batches.push(b);
        }
        let slot_filled = r.get_usize_vec()?;
        if slot_filled.iter().any(|&p| p >= n_paths) {
            return Err(crate::codec::CodecError::Invalid("slot-filled path index out of range"));
        }
        Ok(Batches { batches, slot_filled })
    }
}

/// The conflict relation over a benchmark's paths: shared endpoint
/// flip-flops or sensitization mutual exclusion.
#[derive(Debug)]
pub struct ConflictOracle<'a> {
    bench: &'a GeneratedBenchmark,
    /// Sensitization exclusions over every path, indexed by path index.
    exclusions: MutualExclusions,
}

impl<'a> ConflictOracle<'a> {
    /// Computes the sensitization exclusions of every path of `bench` on
    /// `threads` workers ([`MutualExclusions::build`]); the oracle is
    /// bitwise identical at every thread count.
    pub fn new(bench: &'a GeneratedBenchmark, threads: usize) -> Self {
        let views: Vec<PathView<'_>> = bench.paths.iter().collect();
        let exclusions = MutualExclusions::build(&bench.netlist, &views, threads)
            .expect("generated paths are valid");
        ConflictOracle { bench, exclusions }
    }

    /// `true` if the two paths cannot share a test batch.
    ///
    /// # Panics
    ///
    /// Panics if either path is out of range for the benchmark.
    pub fn conflicts(&self, a: usize, b: usize) -> bool {
        if a == b {
            return true;
        }
        let pa = self.bench.paths.path(PathId::new(a as u32));
        let pb = self.bench.paths.path(PathId::new(b as u32));
        pa.conflicts_with(pb) || self.exclusions.excludes(a, b)
    }

    /// Path indices whose sensitization exclusion involves `p`, ascending.
    /// Endpoint conflicts are cliques over shared flip-flops and are *not*
    /// stored; resolve them through the endpoints.
    pub fn sens_neighbors(&self, p: usize) -> &[u32] {
        self.exclusions.neighbors(p)
    }
}

/// Distance between a path's range width and a batch's mean member width,
/// the slotting criterion of [`build_batches`] and [`fill_slots`].
///
/// An empty batch has no members to diverge from, so its distance is 0.0:
/// it is a first-claim home for any width. The `count == 0` guard also
/// keeps the `0.0 / 0` NaN out of the `min_by` comparators, where it would
/// silently sort after every finite distance under `total_cmp`.
fn mean_width_distance(width_sum: f64, count: usize, width: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    (width_sum / count as f64 - width).abs()
}

/// Per-endpoint lists of already-placed paths, the sparse stand-in for
/// probing every batch member during placement.
#[derive(Default)]
struct EndpointIndex {
    by_source: HashMap<FlipFlopId, Vec<u32>>,
    by_sink: HashMap<FlipFlopId, Vec<u32>>,
}

impl EndpointIndex {
    fn insert(&mut self, view: PathView<'_>) {
        self.by_source.entry(view.source).or_default().push(view.id.index() as u32);
        self.by_sink.entry(view.sink).or_default().push(view.id.index() as u32);
    }

    /// Stamps the batches of every placed path conflicting with `view` as
    /// forbidden for the current placement step.
    fn stamp_forbidden(
        &self,
        oracle: &ConflictOracle<'_>,
        view: PathView<'_>,
        batch_of: &[u32],
        forbidden: &mut [u64],
        stamp: u64,
    ) {
        for list in [self.by_source.get(&view.source), self.by_sink.get(&view.sink)] {
            for &q in list.into_iter().flatten() {
                forbidden[batch_of[q as usize] as usize] = stamp;
            }
        }
        for &q in oracle.sens_neighbors(view.id.index()) {
            let b = batch_of[q as usize];
            if b != u32::MAX {
                forbidden[b as usize] = stamp;
            }
        }
    }
}

/// Packs the selected paths into batches by greedy first-fit coloring.
///
/// `widths` holds one initial range width per entry of `selected`, in the
/// same order. Paths are placed in descending width order (ties by path
/// index), and each path prefers the conflict-free batch whose members'
/// mean width is closest to its own, the first such batch in index order.
/// Width-homogeneous batches matter for test efficiency: a continuous
/// clock period bisects *all* aligned ranges of a batch simultaneously
/// only while the ranges keep similar widths (the discrete buffers cannot
/// compensate sub-step divergence), so mixing wide and narrow ranges
/// wastes probes on the narrow ones. With uniform widths every batch is
/// equally close, so placement is plain first fit in path index order.
///
/// Placement walks each path's conflict neighborhood (endpoint lists plus
/// the stored sensitization adjacency) to stamp forbidden batches, then
/// takes the first best feasible batch in index order — bitwise the same
/// batches as the quadratic `build_batches_dense` test oracle.
///
/// # Panics
///
/// Panics if `widths` and `selected` differ in length, or a path is listed
/// twice or is out of range for the oracle's benchmark.
pub fn build_batches(
    oracle: &ConflictOracle<'_>,
    selected: &[usize],
    widths: &[f64],
) -> Vec<Vec<usize>> {
    assert_eq!(widths.len(), selected.len(), "one width per selected path required");
    let mut order: Vec<usize> = (0..selected.len()).collect();
    order.sort_by(|&a, &b| widths[b].total_cmp(&widths[a]).then(selected[a].cmp(&selected[b])));

    let mut batches: Vec<Vec<usize>> = Vec::new();
    let mut batch_widths: Vec<(f64, usize)> = Vec::new(); // (sum, count)
    let mut batch_of = vec![u32::MAX; oracle.bench.paths.len()];
    let mut placed = EndpointIndex::default();
    let mut forbidden: Vec<u64> = Vec::new();
    let mut stamp = 0_u64;
    for &pos in &order {
        let p = selected[pos];
        assert!(batch_of[p] == u32::MAX, "duplicate path {p} in `selected`");
        let view = oracle.bench.paths.path(PathId::new(p as u32));
        stamp += 1;
        placed.stamp_forbidden(oracle, view, &batch_of, &mut forbidden, stamp);
        let width = widths[pos];
        // First strict minimum in batch index order — the same batch
        // `Iterator::min_by` returns over the feasible set.
        let mut best: Option<(usize, f64)> = None;
        for b in 0..batches.len() {
            if forbidden[b] == stamp {
                continue;
            }
            let d = mean_width_distance(batch_widths[b].0, batch_widths[b].1, width);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((b, d));
            }
        }
        let b = match best {
            Some((b, _)) => {
                batches[b].push(p);
                batch_widths[b].0 += width;
                batch_widths[b].1 += 1;
                b
            }
            None => {
                batches.push(vec![p]);
                batch_widths.push((width, 1));
                forbidden.push(0);
                batches.len() - 1
            }
        };
        batch_of[p] = b as u32;
        placed.insert(view);
    }
    batches
}

/// Fills empty slots with the highest-predicted-variance unselected paths.
///
/// Candidates are `(path, predicted_sigma, initial_width)` triples; they
/// are consumed in descending `predicted_sigma` order, each placed in the
/// conflict-free batch with fewer than `capacity` members whose members'
/// mean width best matches the candidate's (see [`build_batches`] for why
/// width homogeneity matters). Every candidate is used at most once.
///
/// Like [`build_batches`], feasibility is resolved through the sparse
/// conflict neighborhood; `fill_slots_dense` is the quadratic test oracle.
pub fn fill_slots(
    oracle: &ConflictOracle<'_>,
    batches: &mut [Vec<usize>],
    candidates: &[(usize, f64, f64)],
    capacity: usize,
    widths_of_batched: &dyn Fn(usize) -> f64,
) -> Vec<usize> {
    let mut ranked: Vec<(usize, f64, f64)> = candidates.to_vec();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut filled = Vec::new();
    let mut means: Vec<(f64, usize)> =
        batches.iter().map(|b| (b.iter().map(|&p| widths_of_batched(p)).sum(), b.len())).collect();
    let mut batch_of = vec![u32::MAX; oracle.bench.paths.len()];
    let mut placed = EndpointIndex::default();
    for (b, batch) in batches.iter().enumerate() {
        for &q in batch.iter() {
            batch_of[q] = b as u32;
            placed.insert(oracle.bench.paths.path(PathId::new(q as u32)));
        }
    }
    let mut forbidden = vec![0_u64; batches.len()];
    let mut stamp = 0_u64;

    for (p, _sigma, width) in ranked {
        if batch_of[p] != u32::MAX {
            continue; // already batched, or already used as a filler
        }
        let view = oracle.bench.paths.path(PathId::new(p as u32));
        stamp += 1;
        placed.stamp_forbidden(oracle, view, &batch_of, &mut forbidden, stamp);
        let mut best: Option<(usize, f64)> = None;
        for b in 0..batches.len() {
            if batches[b].len() >= capacity || forbidden[b] == stamp {
                continue;
            }
            let d = mean_width_distance(means[b].0, means[b].1, width);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((b, d));
            }
        }
        if let Some((b, _)) = best {
            batches[b].push(p);
            means[b].0 += width;
            means[b].1 += 1;
            batch_of[p] = b as u32;
            placed.insert(view);
            filled.push(p);
        }
    }
    filled
}

/// One group's predicted sigmas (paper eq. 5), plus whether the group
/// fell back to the prior.
///
/// A group whose selected-member covariance block cannot be factorized
/// even after regularization is *downgraded to the prior*: its unselected
/// members keep their prior `sigma_p` as the slot-filling priority and the
/// downgrade is counted — never a panic. These are the same fallback
/// semantics the prediction engine applies
/// ([`crate::predict::Predictor::fallback_count`]).
fn group_predicted_sigmas(
    model: &TimingModel,
    g: &crate::select::PathGroup,
) -> (Vec<(usize, f64)>, u64) {
    if g.members.len() == g.selected.len() {
        return (Vec::new(), 0); // everything measured, nothing predicted
    }
    group_sigmas_conditioned(
        &g.members,
        &g.selected,
        |p| model.path_sigma(p),
        |observed| crate::predict::group_conditioner(model, &g.members, observed),
    )
}

/// The conditioning core of [`group_predicted_sigmas`], taking the
/// conditioner's construction as an argument so the downgrade branch is
/// testable with a doctored (indefinite) covariance that a
/// [`TimingModel`] can never produce through its public API. Eq. 5 does
/// not depend on the observed values, so only the conditioner's sigmas
/// are read.
fn group_sigmas_conditioned(
    members: &[usize],
    selected: &[usize],
    prior_sigma: impl Fn(usize) -> f64,
    conditioner: impl FnOnce(&[usize]) -> effitest_linalg::Result<GaussianConditioner>,
) -> (Vec<(usize, f64)>, u64) {
    let sel_pos: Vec<usize> = members
        .iter()
        .enumerate()
        .filter(|(_, p)| selected.contains(p))
        .map(|(pos, _)| pos)
        .collect();
    let priors =
        || members.iter().filter(|p| !selected.contains(p)).map(|&p| (p, prior_sigma(p))).collect();
    match conditioner(&sel_pos) {
        Ok(cond) => {
            let sigmas = cond
                .remaining_indices()
                .iter()
                .zip(cond.conditional_sigmas())
                .map(|(&mpos, &sigma)| (members[mpos], sigma))
                .collect();
            (sigmas, 0)
        }
        // Nothing selected: eq. 5 leaves every prior sigma as it is.
        Err(LinalgError::Empty) => (priors(), 0),
        Err(_) => (priors(), 1),
    }
}

/// Predicted standard deviation of every unselected path after the
/// selected set is measured (paper eq. 5) — the slot-filling priority —
/// plus the number of groups downgraded to their prior sigmas because the
/// observed covariance block could not be factorized: such a group's
/// unselected members keep their prior sigmas, and the downgrade is
/// counted, never a panic.
///
/// Computed group-locally: conditioning path `k` on the selected members
/// of its own group (cross-group correlations are below the group's
/// extraction threshold and contribute little). Groups are independent,
/// so each one conditions on its own work item over `threads` workers and
/// the per-group results are concatenated in group order — bitwise
/// identical at every thread count.
pub fn predicted_sigmas(
    model: &TimingModel,
    groups: &[crate::select::PathGroup],
    threads: usize,
) -> (Vec<(usize, f64)>, u64) {
    let per_group = effitest_parallel::par_map(threads, groups.len(), |gi| {
        group_predicted_sigmas(model, &groups[gi])
    });
    let mut out = Vec::new();
    let mut fallbacks = 0_u64;
    for (sigmas, fell_back) in per_group {
        out.extend(sigmas);
        fallbacks += fell_back;
    }
    (out, fallbacks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::{select_paths, SelectConfig};
    use effitest_circuit::sensitize::PathRequirements;
    use effitest_circuit::{BenchmarkSpec, GeneratedBenchmark, Netlist, Signal, Topology};
    use effitest_ssta::VariationConfig;

    include!("../../circuit/tests/support/dense_exclusions.rs");

    /// Large enough that batches hold several paths and slot filling has
    /// real work (batch size is capped near `2 * nb` by the source/sink
    /// conflict rule).
    fn fixture() -> (GeneratedBenchmark, TimingModel) {
        let bench =
            GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s13207().scaled_down(8), 1);
        let model = TimingModel::build(&bench, &VariationConfig::paper());
        (bench, model)
    }

    /// The original quadratic coloring, kept as the reference oracle for the
    /// sparse [`build_batches`]: identical order keys, identical first-min
    /// placement, but every feasibility check probes every member of every
    /// batch through [`ConflictOracle::conflicts`].
    fn build_batches_dense(
        oracle: &ConflictOracle<'_>,
        selected: &[usize],
        widths: &[f64],
    ) -> Vec<Vec<usize>> {
        let mut order: Vec<usize> = (0..selected.len()).collect();
        order.sort_by(|&a, &b| widths[b].total_cmp(&widths[a]).then(selected[a].cmp(&selected[b])));

        let mut batches: Vec<Vec<usize>> = Vec::new();
        let mut batch_widths: Vec<(f64, usize)> = Vec::new(); // (sum, count)
        for &pos in &order {
            let p = selected[pos];
            let width = widths[pos];
            let slot = batches
                .iter()
                .enumerate()
                .filter(|(_, batch)| batch.iter().all(|&q| !oracle.conflicts(p, q)))
                .min_by(|(a, _), (b, _)| {
                    let da = mean_width_distance(batch_widths[*a].0, batch_widths[*a].1, width);
                    let db = mean_width_distance(batch_widths[*b].0, batch_widths[*b].1, width);
                    da.total_cmp(&db)
                })
                .map(|(i, _)| i);
            match slot {
                Some(b) => {
                    batches[b].push(p);
                    batch_widths[b].0 += width;
                    batch_widths[b].1 += 1;
                }
                None => {
                    batches.push(vec![p]);
                    batch_widths.push((width, 1));
                }
            }
        }
        batches
    }

    /// The original quadratic slot filler, kept as the reference oracle for
    /// the sparse [`fill_slots`].
    fn fill_slots_dense(
        oracle: &ConflictOracle<'_>,
        batches: &mut [Vec<usize>],
        candidates: &[(usize, f64, f64)],
        capacity: usize,
        widths_of_batched: &dyn Fn(usize) -> f64,
    ) -> Vec<usize> {
        let mut ranked: Vec<(usize, f64, f64)> = candidates.to_vec();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut used: std::collections::HashSet<usize> =
            batches.iter().flatten().copied().collect();
        let mut filled = Vec::new();
        let mut means: Vec<(f64, usize)> = batches
            .iter()
            .map(|b| (b.iter().map(|&p| widths_of_batched(p)).sum(), b.len()))
            .collect();

        for (p, _sigma, width) in ranked {
            if used.contains(&p) {
                continue;
            }
            let slot = batches
                .iter()
                .enumerate()
                .filter(|(_, batch)| {
                    batch.len() < capacity && batch.iter().all(|&q| !oracle.conflicts(p, q))
                })
                .min_by(|(a, _), (b, _)| {
                    let da = mean_width_distance(means[*a].0, means[*a].1, width);
                    let db = mean_width_distance(means[*b].0, means[*b].1, width);
                    da.total_cmp(&db)
                })
                .map(|(i, _)| i);
            if let Some(b) = slot {
                batches[b].push(p);
                means[b].0 += width;
                means[b].1 += 1;
                used.insert(p);
                filled.push(p);
            }
        }
        filled
    }

    fn widths_for(model: &TimingModel, paths: &[usize]) -> Vec<f64> {
        paths.iter().map(|&p| 6.0 * model.path_sigma(p)).collect()
    }

    #[test]
    fn batches_contain_no_conflicts() {
        let (bench, model) = fixture();
        let groups = select_paths(&model, &SelectConfig::default(), 1);
        let selected = crate::select::all_selected(&groups);
        let oracle = ConflictOracle::new(&bench, 1);
        let batches = build_batches(&oracle, &selected, &widths_for(&model, &selected));
        for batch in &batches {
            for (i, &a) in batch.iter().enumerate() {
                for &b in &batch[i + 1..] {
                    assert!(!oracle.conflicts(a, b), "conflicting pair ({a}, {b}) in batch");
                }
            }
        }
        // Every selected path batched exactly once.
        let mut seen: Vec<usize> = batches.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, selected);
    }

    #[test]
    fn sparse_placement_matches_dense_reference() {
        let (bench, model) = fixture();
        let groups = select_paths(&model, &SelectConfig::default(), 1);
        let selected = crate::select::all_selected(&groups);
        let oracle = ConflictOracle::new(&bench, 1);
        let widths = widths_for(&model, &selected);
        let sparse = build_batches(&oracle, &selected, &widths);
        assert_eq!(sparse, build_batches_dense(&oracle, &selected, &widths), "coloring diverged");

        // Slot filling must also agree, including the capacity limit.
        let candidates: Vec<(usize, f64, f64)> = predicted_sigmas(&model, &groups, 1)
            .0
            .into_iter()
            .map(|(p, s)| (p, s, 6.0 * model.path_sigma(p)))
            .collect();
        let width_of = |p: usize| 6.0 * model.path_sigma(p);
        let cap = sparse.iter().map(Vec::len).max().unwrap_or(1).max(4);
        let mut dense = sparse.clone();
        let mut sparse = sparse;
        let fs = fill_slots(&oracle, &mut sparse, &candidates, cap, &width_of);
        let fd = fill_slots_dense(&oracle, &mut dense, &candidates, cap, &width_of);
        assert_eq!(fs, fd, "fill order diverged");
        assert_eq!(sparse, dense, "filled batches diverged");
        assert!(!fs.is_empty(), "differential exercised no fills");
    }

    #[test]
    fn sparse_placement_matches_dense_on_every_topology() {
        for &topology in Topology::all().iter() {
            let spec = BenchmarkSpec::iscas89_s9234().scaled_down(6).with_topology(topology);
            let bench = GeneratedBenchmark::generate(&spec, 1);
            let model = TimingModel::build(&bench, &VariationConfig::paper());
            let all: Vec<usize> = (0..model.path_count()).collect();
            let oracle = ConflictOracle::new(&bench, 1);
            let widths = widths_for(&model, &all);
            let sparse = build_batches(&oracle, &all, &widths);
            let dense = build_batches_dense(&oracle, &all, &widths);
            assert_eq!(sparse, dense, "coloring diverged on {}", topology.name());
        }
    }

    #[test]
    fn large_tier_batches_match_dense_reference() {
        // A reduced `large` circuit: pairwise merge-gate exclusions plus
        // hub endpoint cliques, the exact shape the sparse path targets.
        let bench = GeneratedBenchmark::generate(&BenchmarkSpec::large(256), 7);
        let all: Vec<usize> = (0..bench.paths.len()).collect();
        let oracle = ConflictOracle::new(&bench, 1);
        // Uniform widths: first fit in path index order.
        let uniform = vec![1.0; all.len()];
        let sparse = build_batches(&oracle, &all, &uniform);
        let dense = build_batches_dense(&oracle, &all, &uniform);
        assert_eq!(sparse, dense);
        for batch in &sparse {
            for (i, &a) in batch.iter().enumerate() {
                for &b in &batch[i + 1..] {
                    assert!(!oracle.conflicts(a, b));
                }
            }
        }
    }

    #[test]
    fn criticality_cut_large_tier_placement_and_fill_match_dense() {
        // The large-tier sweep's configuration on 2,000 paths: a 4x4
        // variation grid and the 0.93 criticality cut that keeps exactly
        // the planted critical population. Sparse placement and slot
        // filling must match the dense oracles.
        let np = 2_000;
        let bench = GeneratedBenchmark::generate(&BenchmarkSpec::large(np), 7);
        let variation = VariationConfig { grid_dim: 4, ..VariationConfig::paper() };
        let model = TimingModel::build(&bench, &variation);
        let select = SelectConfig { criticality_fraction: Some(0.93), ..SelectConfig::default() };
        let selected = crate::select::all_selected(&select_paths(&model, &select, 1));
        assert!(!selected.is_empty(), "criticality cut selected nothing");
        let oracle = ConflictOracle::new(&bench, 1);
        // Filler candidates spread across the index space: paths are laid
        // out hub by hub, so a prefix would share one sink hub and conflict
        // with every batch.
        let candidates: Vec<(usize, f64, f64)> = (0..model.path_count())
            .step_by(np / 512)
            .filter(|p| !selected.contains(p))
            .map(|p| (p, model.path_sigma(p), 6.0 * model.path_sigma(p)))
            .collect();
        let width_of = |p: usize| 6.0 * model.path_sigma(p);
        let widths = widths_for(&model, &selected);
        let mut sparse = build_batches(&oracle, &selected, &widths);
        let mut dense = build_batches_dense(&oracle, &selected, &widths);
        assert_eq!(sparse, dense, "placement diverged");
        let cap = sparse.iter().map(Vec::len).max().unwrap_or(1) + 4;
        let fs = fill_slots(&oracle, &mut sparse, &candidates, cap, &width_of);
        let fd = fill_slots_dense(&oracle, &mut dense, &candidates, cap, &width_of);
        assert_eq!(fs, fd, "fill order diverged");
        assert_eq!(sparse, dense, "filled batches diverged");
        assert!(!fs.is_empty(), "no slot was filled");
    }

    /// Checks the oracle's sensitization rows against the all-pairs oracle
    /// at threads 1, 4 and 8: row `p` lists the paths before `p` that
    /// exclude it, then those after it, ascending. Returns the number of
    /// stored adjacency entries.
    fn check_csr_is_predecessors_then_exclusions(bench: &GeneratedBenchmark) -> usize {
        let views: Vec<PathView<'_>> = bench.paths.iter().collect();
        let dense = dense_exclusion_rows(&bench.netlist, &views);
        for threads in [1, 4, 8] {
            let oracle = ConflictOracle::new(bench, threads);
            for (p, row) in dense.iter().enumerate() {
                assert_eq!(oracle.sens_neighbors(p), row, "path {p} at {threads} threads");
            }
        }
        dense.iter().map(Vec::len).sum()
    }

    #[test]
    fn oracle_csr_is_predecessors_then_exclusions_on_every_topology() {
        let mut entries = 0;
        for &topology in Topology::all().iter() {
            let spec = BenchmarkSpec::iscas89_s9234().scaled_down(10).with_topology(topology);
            entries +=
                check_csr_is_predecessors_then_exclusions(&GeneratedBenchmark::generate(&spec, 1));
        }
        assert!(entries > 0, "no topology has sensitization exclusions to check");
    }

    #[test]
    fn oracle_csr_is_predecessors_then_exclusions_on_large_tier() {
        let bench = GeneratedBenchmark::generate(&BenchmarkSpec::large(256), 7);
        // One exclusion per fan-in pair, stored once in each direction.
        assert_eq!(check_csr_is_predecessors_then_exclusions(&bench), bench.paths.len());
    }

    #[test]
    fn endpoint_conflicts_respected() {
        let (bench, _) = fixture();
        let oracle = ConflictOracle::new(&bench, 1);
        // Find two paths sharing an endpoint and confirm the oracle flags
        // them.
        let mut found = false;
        'outer: for i in 0..bench.paths.len() {
            for j in (i + 1)..bench.paths.len() {
                let pi = bench.paths.path(PathId::new(i as u32));
                let pj = bench.paths.path(PathId::new(j as u32));
                if pi.conflicts_with(pj) {
                    assert!(oracle.conflicts(i, j));
                    found = true;
                    break 'outer;
                }
            }
        }
        assert!(found, "benchmark has no endpoint conflicts to test");
    }

    #[test]
    fn sens_neighbors_agree_with_exclusions() {
        // Rows are ascending and symmetric, and every stored exclusion is a
        // conflict.
        let (bench, _) = fixture();
        let oracle = ConflictOracle::new(&bench, 1);
        let mut edges = 0_usize;
        for i in 0..bench.paths.len() {
            let row = oracle.sens_neighbors(i);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {i} is not ascending");
            for &j in row {
                let j = j as usize;
                assert!(oracle.sens_neighbors(j).contains(&(i as u32)), "({i}, {j}) is one-sided");
                assert!(oracle.exclusions.excludes(i, j) && oracle.conflicts(i, j));
            }
            edges += row.len();
        }
        assert!(edges > 0, "fixture has no sensitization exclusions to test");
    }

    #[test]
    fn slot_filling_respects_conflicts_and_capacity() {
        let (bench, model) = fixture();
        let groups = select_paths(&model, &SelectConfig::default(), 1);
        let selected = crate::select::all_selected(&groups);
        let oracle = ConflictOracle::new(&bench, 1);
        let widths = widths_for(&model, &selected);
        let mut batches = build_batches(&oracle, &selected, &widths);
        let candidates: Vec<(usize, f64, f64)> = predicted_sigmas(&model, &groups, 1)
            .0
            .into_iter()
            .map(|(p, s)| (p, s, 6.0 * model.path_sigma(p)))
            .collect();
        let cap = batches.iter().map(Vec::len).max().unwrap_or(1).max(4);
        let width_of = |p: usize| 6.0 * model.path_sigma(p);
        let filled = fill_slots(&oracle, &mut batches, &candidates, cap, &width_of);
        for batch in &batches {
            assert!(batch.len() <= cap);
            for (i, &a) in batch.iter().enumerate() {
                for &b in &batch[i + 1..] {
                    assert!(!oracle.conflicts(a, b));
                }
            }
        }
        // Fillers are unique and disjoint from the selected set.
        let mut f = filled.clone();
        f.sort_unstable();
        f.dedup();
        assert_eq!(f.len(), filled.len());
        for p in &filled {
            assert!(!selected.contains(p));
        }
        assert!(!filled.is_empty(), "no slots were filled");
    }

    #[test]
    fn empty_batches_receive_fillers() {
        // Regression: the mean-width comparator divided 0.0 by a zero
        // member count, and the NaN guard (`count > 0` filter) excluded
        // empty batches from slot filling entirely, silently wasting their
        // capacity.
        let (bench, _) = fixture();
        let oracle = ConflictOracle::new(&bench, 1);
        let candidates: Vec<(usize, f64, f64)> = vec![(0, 2.0, 1.0), (1, 1.5, 1.0), (2, 1.0, 1.0)];
        for fill in [fill_slots, fill_slots_dense] {
            let mut batches: Vec<Vec<usize>> = vec![vec![], vec![]];
            let filled = fill(&oracle, &mut batches, &candidates, 2, &|_| 1.0);
            assert!(!filled.is_empty(), "empty batches must be eligible fill targets");
            let placed: usize = batches.iter().map(Vec::len).sum();
            assert_eq!(placed, filled.len());
            for batch in &batches {
                for (i, &a) in batch.iter().enumerate() {
                    for &b in &batch[i + 1..] {
                        assert!(!oracle.conflicts(a, b));
                    }
                }
            }
        }
        // Distances stay finite and well-ordered for empty batches.
        assert_eq!(mean_width_distance(0.0, 0, 5.0), 0.0);
        assert_eq!(mean_width_distance(6.0, 2, 5.0), 2.0);
    }

    #[test]
    fn predicted_sigmas_cover_unselected_members() {
        let (_, model) = fixture();
        let groups = select_paths(&model, &SelectConfig::default(), 1);
        let sigmas = predicted_sigmas(&model, &groups, 1).0;
        let selected = crate::select::all_selected(&groups);
        let expected = model.path_count() - selected.len();
        assert_eq!(sigmas.len(), expected);
        for &(p, s) in &sigmas {
            assert!(!selected.contains(&p));
            assert!(s >= 0.0);
            // Prediction shrinks variance relative to the prior.
            assert!(s <= model.path_sigma(p) + 1e-9);
        }
    }

    #[test]
    fn batches_shrink_with_fewer_conflicts() {
        // Sanity: batching k mutually-compatible outlier-ish paths should
        // need far fewer than k batches.
        let (bench, model) = fixture();
        let groups = select_paths(&model, &SelectConfig::default(), 1);
        let selected = crate::select::all_selected(&groups);
        let oracle = ConflictOracle::new(&bench, 1);
        // Uniform widths: first fit in path index order.
        let batches = build_batches(&oracle, &selected, &vec![1.0; selected.len()]);
        assert!(batches.len() <= selected.len(), "coloring can never exceed one batch per path");
    }

    #[test]
    fn width_stratified_batches_are_homogeneous() {
        let (bench, model) = fixture();
        let all: Vec<usize> = (0..model.path_count()).collect();
        let oracle = ConflictOracle::new(&bench, 1);
        let widths = widths_for(&model, &all);
        let batches = build_batches(&oracle, &all, &widths);
        // Mean within-batch width spread should be clearly below the
        // global width spread.
        let global_spread = {
            let max = widths.iter().cloned().fold(f64::MIN, f64::max);
            let min = widths.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        let mut spreads = Vec::new();
        for batch in batches.iter().filter(|b| b.len() >= 2) {
            let ws: Vec<f64> = batch.iter().map(|&p| 6.0 * model.path_sigma(p)).collect();
            let max = ws.iter().cloned().fold(f64::MIN, f64::max);
            let min = ws.iter().cloned().fold(f64::MAX, f64::min);
            spreads.push(max - min);
        }
        if !spreads.is_empty() && global_spread > 0.0 {
            let mean_spread = spreads.iter().sum::<f64>() / spreads.len() as f64;
            assert!(
                mean_spread < global_spread * 0.7,
                "batches not width-stratified: {mean_spread} vs global {global_spread}"
            );
        }
    }

    #[test]
    fn tested_paths_dedup() {
        let b = Batches { batches: vec![vec![3, 1], vec![2, 1]], slot_filled: vec![] };
        assert_eq!(b.tested_paths(), vec![1, 2, 3]);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn rank_deficient_group_downgrades_to_prior_sigmas_instead_of_panicking() {
        use effitest_linalg::{Matrix, MultivariateGaussian};
        // An indefinite "covariance" passes the gaussian's symmetry check
        // but its observed block (members 0 and 1) cannot be factorized
        // even with regularization — the shape of a numerically broken
        // correlation group. Conditioning must not panic; the unselected
        // member falls back to its prior sigma and the downgrade is
        // counted.
        let cov =
            Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[2.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]).unwrap();
        let gauss = MultivariateGaussian::new(vec![10.0, 11.0, 12.0], cov).unwrap();
        let members = [7_usize, 8, 9];
        let selected = [7_usize, 8];
        let (sigmas, fallbacks) = super::group_sigmas_conditioned(
            &members,
            &selected,
            |p| p as f64 * 0.5,
            |obs| gauss.conditioner(obs),
        );
        assert_eq!(fallbacks, 1);
        assert_eq!(sigmas, vec![(9, 4.5)]);

        // A healthy group conditions normally and counts nothing.
        let ok =
            Matrix::from_rows(&[&[1.0, 0.5, 0.0], &[0.5, 1.0, 0.0], &[0.0, 0.0, 1.0]]).unwrap();
        let gauss = MultivariateGaussian::new(vec![0.0; 3], ok).unwrap();
        let (sigmas, fallbacks) = super::group_sigmas_conditioned(
            &members,
            &selected,
            |_| f64::NAN,
            |obs| gauss.conditioner(obs),
        );
        assert_eq!(fallbacks, 0);
        assert_eq!(sigmas.len(), 1);
        assert!(sigmas.iter().all(|&(p, s)| p == 9 && s.is_finite() && s > 0.0 && s <= 1.0));

        // A group without representatives predicts its priors, uncounted.
        let (sigmas, fallbacks) = super::group_sigmas_conditioned(
            &members,
            &[],
            |p| p as f64,
            |obs| gauss.conditioner(obs),
        );
        assert_eq!(fallbacks, 0);
        assert_eq!(sigmas, vec![(7, 7.0), (8, 8.0), (9, 9.0)]);
    }

    #[test]
    fn predicted_sigmas_are_thread_count_independent() {
        let (_bench, model) = fixture();
        let groups = select_paths(&model, &SelectConfig::default(), 1);
        let bits =
            |v: &[(usize, f64)]| v.iter().map(|&(p, s)| (p, s.to_bits())).collect::<Vec<_>>();
        let (serial, fallbacks) = predicted_sigmas(&model, &groups, 1);
        assert_eq!(fallbacks, 0, "real timing-model groups are PSD");
        assert!(!serial.is_empty(), "fixture predicts no sigmas");
        for threads in [2, 4, 8] {
            let (threaded, tf) = predicted_sigmas(&model, &groups, threads);
            assert_eq!(tf, fallbacks);
            assert_eq!(bits(&threaded), bits(&serial), "drift at {threads} threads");
        }
    }
}
