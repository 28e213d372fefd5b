//! Scan test with delay alignment (paper §3.3, Procedure 2).
//!
//! For each test batch, every frequency-stepping iteration:
//!
//! 1. solves the alignment problem — pick a clock period `T` and temporary
//!    buffer values that align the active paths' delay-range centers
//!    (weights per the paper's sorted-center rule, hold bounds respected);
//! 2. applies `(T, configuration)` through the virtual tester — one
//!    iteration, regardless of how many paths the batch holds;
//! 3. updates each active path's bounds from its pass/fail and retires
//!    paths whose range is narrower than `epsilon`.
//!
//! Setting [`AlignedTestConfig::use_alignment`] to `false` freezes all
//! buffers at zero, which is the paper's "path multiplexing without delay
//! alignment" ablation (Fig. 8, middle bars).
//!
//! # Incremental frequency stepping
//!
//! The production loop ([`AlignedTestConfig::incremental`], the default)
//! keeps batch-local *slot arrays*: per tested path its bounds, cached
//! range center, buffer hookups and hold bound, all resolved **once per
//! batch**. Each frequency step then touches dense arrays only, and range
//! centers are recomputed solely for the paths whose bounds the previous
//! probe actually narrowed (tracked by
//! [`effitest_ssta::ChangeTracker`]) — an incremental timing update
//! instead of a full re-derivation per step. The original per-iteration
//! HashMap implementation survives as the reference the differential
//! tests pin the incremental loop against, bitwise.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use effitest_circuit::FlipFlopId;
use effitest_solver::align::{
    sorted_center_weights, sorted_center_weights_into, AlignPath, AlignmentEngine,
    AlignmentProblem, BufferVar,
};
use effitest_solver::weighted_median_in_place;
use effitest_ssta::{ChangeTracker, TimingModel};
use effitest_tester::{ContradictionPolicy, DelayBounds, Observation, VirtualTester};

use crate::hold::HoldBounds;

/// Knobs of the aligned-test loop.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignedTestConfig {
    /// Convergence threshold `epsilon` on range width (ps).
    pub epsilon: f64,
    /// Initial bounds half-width in sigmas (paper: 3).
    pub bound_sigma: f64,
    /// Sorted-center base weight `k0` (paper: `k0 >> kd`).
    pub k0: f64,
    /// Sorted-center weight decrement `kd`.
    pub kd: f64,
    /// `false` pins all buffers to zero (multiplexing-only ablation).
    pub use_alignment: bool,
    /// `true` solves each alignment exactly (MILP) instead of coordinate
    /// descent.
    pub exact_alignment: bool,
    /// Branch-and-bound node cap per exact alignment solve. A solve that
    /// exhausts it ([`effitest_solver::MilpStatus::NodeLimitReached`])
    /// returns no solution and the iteration falls back to the
    /// coordinate-descent heuristic — never a silently suboptimal
    /// "exact" alignment.
    pub exact_node_limit: usize,
    /// Hard cap on iterations per batch (defensive; generous).
    pub max_iterations_per_batch: usize,
    /// `true` (the default) runs the slot-array loop with incremental
    /// center updates; `false` routes through the original per-iteration
    /// HashMap implementation, kept as the bitwise reference. The two
    /// produce identical bounds, iteration counts, and contradiction
    /// counts on every chip (proven differentially in the test suite).
    pub incremental: bool,
    /// `true` runs every bounds update under
    /// [`ContradictionPolicy::Widen`]: observations contradicting a
    /// *proven* bound — which a noisy tester produces legitimately —
    /// conservatively re-open the interval and are counted
    /// ([`AlignedTestResult::widenings`]) instead of firing a debug
    /// assertion. Regardless of this flag, a tester with a non-ideal
    /// [`effitest_tester::TesterModel`] always gets the widening policy;
    /// the flag exists to opt hostile handling in for an ideal tester
    /// (e.g. out-of-model chips probed through doctored batches).
    pub tolerate_contradictions: bool,
}

impl Default for AlignedTestConfig {
    fn default() -> Self {
        AlignedTestConfig {
            epsilon: 1.0,
            bound_sigma: 3.0,
            k0: 1000.0,
            kd: 1.0,
            use_alignment: true,
            exact_alignment: false,
            exact_node_limit: effitest_solver::DEFAULT_NODE_LIMIT,
            max_iterations_per_batch: 10_000,
            incremental: true,
            tolerate_contradictions: false,
        }
    }
}

/// Result of testing all batches on one chip.
#[derive(Debug, Clone)]
pub struct AlignedTestResult {
    /// Final bounds per tested path index.
    pub bounds: HashMap<usize, DelayBounds>,
    /// Frequency-stepping iterations consumed.
    pub iterations: u64,
    /// Wall-clock time spent solving alignment problems (the paper's `T_t`
    /// accounts this separately because it runs concurrently with the scan
    /// test).
    pub align_time: Duration,
    /// Observations that contradicted a path's assumed `mu ± k sigma`
    /// window (out-of-model chips; the range saturates to zero width at
    /// the contradicted endpoint). Nonzero counts deserve scrutiny —
    /// silent saturation is exactly what this counter surfaces.
    pub contradictions: u64,
    /// Observations that contradicted a *proven* bound and were absorbed
    /// by conservatively re-opening the interval (only possible under
    /// [`ContradictionPolicy::Widen`], i.e. a noisy tester or
    /// [`AlignedTestConfig::tolerate_contradictions`]). Always zero for an
    /// ideal tester under the strict policy.
    pub widenings: u64,
}

/// Reusable per-worker scratch for the aligned-test loop: the warm-started
/// [`AlignmentEngine`] plus every per-batch collection (buffer indexing,
/// centers, weights, probes, bounds). A workspace carries **no results
/// across calls** — every field is rebuilt from scratch per batch — so a
/// long-lived workspace returns bitwise-identical results to a fresh one;
/// what it saves is the allocation churn, which dominated the
/// per-iteration alignment solve before the engine existed.
///
/// Population workers hold one workspace per thread (see
/// [`crate::population`]); single-chip callers can let
/// [`run_aligned_test`] create a throwaway one.
#[derive(Debug, Default)]
pub struct AlignedTestWorkspace {
    engine: AlignmentEngine,
    buffered: HashSet<FlipFlopId>,
    buffer_index: HashMap<FlipFlopId, usize>,
    buffers: Vec<BufferVar>,
    zeros: Vec<f64>,
    active: Vec<usize>,
    centers: Vec<f64>,
    weights: Vec<f64>,
    order: Vec<usize>,
    pts: Vec<(f64, f64)>,
    probes: Vec<(usize, f64)>,
    results: Vec<bool>,
    bounds: HashMap<usize, DelayBounds>,
    // Batch-local slot arrays of the incremental loop: one entry per
    // batch position, resolved once per batch (see the module docs).
    slot_paths: Vec<usize>,
    slot_bounds: Vec<DelayBounds>,
    slot_center: Vec<f64>,
    slot_src: Vec<Option<usize>>,
    slot_snk: Vec<Option<usize>>,
    slot_hold: Vec<Option<f64>>,
    active_slots: Vec<usize>,
    tracker: ChangeTracker,
}

impl AlignedTestWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Dense buffer indexing for a batch: every buffered flip-flop touched by
/// a batch endpoint, numbered in first-touch order. Shared between the
/// frequency-stepping loop and [`batch_alignment_problem`] so the two can
/// never index buffers differently.
fn index_batch_buffers(
    model: &TimingModel,
    batch: &[usize],
    buffered: &HashSet<FlipFlopId>,
    index: &mut HashMap<FlipFlopId, usize>,
) {
    index.clear();
    for &p in batch {
        let (src, snk) = model.endpoints(p);
        for ff in [src, snk] {
            if buffered.contains(&ff) {
                let next = index.len();
                index.entry(ff).or_insert(next);
            }
        }
    }
}

/// One path of the per-batch alignment problem. Shared by the in-place
/// frequency-stepping loop and [`batch_alignment_problem`] — the single
/// place deciding how a tested path maps onto the solver's view.
fn align_path_for(
    model: &TimingModel,
    buffer_index: &HashMap<FlipFlopId, usize>,
    lambda: &HoldBounds,
    path: usize,
    center: f64,
    weight: f64,
) -> AlignPath {
    let (src, snk) = model.endpoints(path);
    AlignPath {
        center,
        weight,
        source_buffer: buffer_index.get(&src).copied(),
        sink_buffer: buffer_index.get(&snk).copied(),
        hold_lower_bound: lambda.lambda(path),
    }
}

/// The alignment problem a batch poses for the given range centers: the
/// same buffer indexing, per-path construction, sorted-center weighting,
/// and hold bounds the frequency-stepping loop builds in place every
/// iteration. The differential conformance suite
/// (`tests/conformance.rs`) solves this construction with both the exact
/// MILP and the production heuristic — it is assembled from the loop's
/// own building blocks ([`align_path_for`], `index_batch_buffers`) so
/// the oracle cannot drift from what production actually solves.
///
/// # Panics
///
/// Panics if `centers.len() != batch.len()`.
pub fn batch_alignment_problem(
    model: &TimingModel,
    lambda: &HoldBounds,
    batch: &[usize],
    centers: &[f64],
    config: &AlignedTestConfig,
) -> AlignmentProblem {
    assert_eq!(batch.len(), centers.len(), "one range center per batch path");
    let buffered: HashSet<FlipFlopId> = model.buffered_ffs().iter().copied().collect();
    let mut buffer_index = HashMap::new();
    index_batch_buffers(model, batch, &buffered, &mut buffer_index);
    let spec = model.buffer_spec();
    let buffers = vec![
        BufferVar { min: spec.min(), max: spec.max(), steps: spec.steps() };
        buffer_index.len()
    ];
    let weights = sorted_center_weights(centers, config.k0, config.kd);
    let paths = batch
        .iter()
        .zip(centers)
        .zip(&weights)
        .map(|((&p, &center), &weight)| {
            align_path_for(model, &buffer_index, lambda, p, center, weight)
        })
        .collect();
    AlignmentProblem { paths, buffers }
}

/// Runs Procedure 2 over the given batches with a throwaway workspace.
///
/// `lambda` supplies the hold bounds added to the alignment constraints
/// (paper eq. 21). Callers testing many chips should hold an
/// [`AlignedTestWorkspace`] and use [`run_aligned_test_with`] — results
/// are identical, allocations are not.
pub fn run_aligned_test(
    model: &TimingModel,
    tester: &mut VirtualTester<'_>,
    batches: &[Vec<usize>],
    lambda: &HoldBounds,
    config: &AlignedTestConfig,
) -> AlignedTestResult {
    run_aligned_test_with(&mut AlignedTestWorkspace::new(), model, tester, batches, lambda, config)
}

/// Runs Procedure 2 over the given batches, reusing `ws` across calls.
pub fn run_aligned_test_with(
    ws: &mut AlignedTestWorkspace,
    model: &TimingModel,
    tester: &mut VirtualTester<'_>,
    batches: &[Vec<usize>],
    lambda: &HoldBounds,
    config: &AlignedTestConfig,
) -> AlignedTestResult {
    let start_iterations = tester.iterations();
    let mut all_bounds: HashMap<usize, DelayBounds> = HashMap::new();
    let mut align_time = Duration::ZERO;
    let mut contradictions = 0_u64;
    let mut widenings = 0_u64;

    ws.buffered.clear();
    ws.buffered.extend(model.buffered_ffs().iter().copied());

    for batch in batches {
        let (t, c, w) = if config.incremental {
            test_one_batch_incremental(ws, model, tester, batch, lambda, config, &mut all_bounds)
        } else {
            test_one_batch_reference(ws, model, tester, batch, lambda, config, &mut all_bounds)
        };
        align_time += t;
        contradictions += c;
        widenings += w;
    }

    AlignedTestResult {
        bounds: all_bounds,
        iterations: tester.iterations() - start_iterations,
        align_time,
        contradictions,
        widenings,
    }
}

/// The contradiction policy one aligned-test run applies: widen when the
/// caller opted in *or* the mounted tester is noisy — a non-ideal tester
/// must never hit the strict policy's debug assertions.
fn update_policy(config: &AlignedTestConfig, tester: &VirtualTester<'_>) -> ContradictionPolicy {
    if config.tolerate_contradictions {
        ContradictionPolicy::Widen
    } else {
        tester.model().policy()
    }
}

/// Tests one batch to convergence with batch-local slot arrays and
/// incremental center updates; returns the alignment solve time and the
/// numbers of contradictory and widened observations.
///
/// Bitwise identical to [`test_one_batch_reference`]: the slot arrays
/// cache pure functions of state the reference recomputes each iteration
/// (endpoint buffer hookups, hold bounds, range centers), and the
/// [`ChangeTracker`] only skips center recomputations whose inputs did
/// not change.
fn test_one_batch_incremental(
    ws: &mut AlignedTestWorkspace,
    model: &TimingModel,
    tester: &mut VirtualTester<'_>,
    batch: &[usize],
    lambda: &HoldBounds,
    config: &AlignedTestConfig,
    all_bounds: &mut HashMap<usize, DelayBounds>,
) -> (Duration, u64, u64) {
    let policy = update_policy(config, tester);
    let mut align_time = Duration::ZERO;
    let mut contradictions = 0_u64;
    let mut widenings = 0_u64;
    // Dense buffer indexing over the buffered flip-flops touched by this
    // batch.
    let spec = model.buffer_spec();
    index_batch_buffers(model, batch, &ws.buffered, &mut ws.buffer_index);
    ws.buffers.clear();
    ws.buffers.extend((0..ws.buffer_index.len()).map(|_| BufferVar {
        min: spec.min(),
        max: spec.max(),
        steps: spec.steps(),
    }));
    ws.zeros.clear();
    ws.zeros.resize(ws.buffers.len(), 0.0);
    ws.engine.set_node_limit(config.exact_node_limit);
    ws.engine
        .begin_batch(&ws.buffers)
        .expect("the model's buffer spec is finite with two or more steps");

    // Resolve per-slot constants once per batch: initial bounds, buffer
    // hookups, hold bounds. The reference loop re-derives all of these
    // every iteration.
    let n = batch.len();
    ws.slot_paths.clear();
    ws.slot_paths.extend_from_slice(batch);
    ws.slot_bounds.clear();
    ws.slot_bounds.extend(batch.iter().map(|&p| {
        DelayBounds::from_gaussian(model.path_mean(p), model.path_sigma(p), config.bound_sigma)
    }));
    ws.slot_src.clear();
    ws.slot_snk.clear();
    ws.slot_hold.clear();
    for &p in batch {
        let (src, snk) = model.endpoints(p);
        ws.slot_src.push(ws.buffer_index.get(&src).copied());
        ws.slot_snk.push(ws.buffer_index.get(&snk).copied());
        ws.slot_hold.push(lambda.lambda(p));
    }
    ws.slot_center.clear();
    ws.slot_center.resize(n, 0.0);
    ws.tracker.reset(n); // every center is stale before the first step
    ws.active_slots.clear();
    ws.active_slots.extend(0..n);
    let (active_slots, slot_bounds) = (&mut ws.active_slots, &ws.slot_bounds);
    active_slots.retain(|&s| !slot_bounds[s].converged(config.epsilon));

    let mut iterations = 0_usize;

    while !ws.active_slots.is_empty() && iterations < config.max_iterations_per_batch {
        iterations += 1;
        // --- Incremental timing update: refresh only the centers whose
        // bounds the previous probe actually moved. ---
        for &s in &ws.active_slots {
            if ws.tracker.changed_in_current_step(s) {
                ws.slot_center[s] = ws.slot_bounds[s].center();
            }
        }
        ws.tracker.advance();
        ws.centers.clear();
        ws.centers.extend(ws.active_slots.iter().map(|&s| ws.slot_center[s]));
        sorted_center_weights_into(
            &ws.centers,
            config.k0,
            config.kd,
            &mut ws.order,
            &mut ws.weights,
        );

        let solve_started = Instant::now();
        let (period, buffer_values): (f64, &[f64]) = if config.use_alignment {
            let paths = ws.engine.paths_mut();
            paths.clear();
            paths.extend(ws.active_slots.iter().zip(&ws.weights).map(|(&s, &w)| AlignPath {
                center: ws.slot_center[s],
                weight: w,
                source_buffer: ws.slot_src[s],
                sink_buffer: ws.slot_snk[s],
                hold_lower_bound: ws.slot_hold[s],
            }));
            let solved_exact = config.exact_alignment && ws.engine.solve_exact().is_some();
            let sol = if solved_exact { ws.engine.last_solution() } else { ws.engine.solve() };
            (sol.period, &sol.buffer_values)
        } else {
            ws.pts.clear();
            ws.pts.extend(ws.centers.iter().copied().zip(ws.weights.iter().copied()));
            let period = weighted_median_in_place(&mut ws.pts).unwrap_or(0.0);
            (period, &ws.zeros)
        };
        align_time += solve_started.elapsed();

        // --- One frequency step over the whole batch. ---
        ws.probes.clear();
        ws.probes.extend(ws.active_slots.iter().map(|&s| {
            let xi = ws.slot_src[s].map_or(0.0, |b| buffer_values[b]);
            let xj = ws.slot_snk[s].map_or(0.0, |b| buffer_values[b]);
            (ws.slot_paths[s], xi - xj)
        }));
        tester.apply_batch_into(period, &ws.probes, &mut ws.results);

        // --- Update bounds; mark moved slots dirty; retire converged. ---
        let mut progressed = false;
        for ((&s, &(_, shift)), &passed) in ws.active_slots.iter().zip(&ws.probes).zip(&ws.results)
        {
            let b = &mut ws.slot_bounds[s];
            let before = *b;
            match b.update_with_policy(period, shift, passed, policy) {
                Observation::Contradictory => contradictions += 1,
                Observation::Widened => widenings += 1,
                Observation::Tightened | Observation::Uninformative => {}
            }
            if b.lower.to_bits() != before.lower.to_bits()
                || b.upper.to_bits() != before.upper.to_bits()
            {
                ws.tracker.mark(s);
            }
            if b.width() < before.width() - 1e-15 {
                progressed = true;
            }
        }
        let (active_slots, slot_bounds) = (&mut ws.active_slots, &ws.slot_bounds);
        active_slots.retain(|&s| !slot_bounds[s].converged(config.epsilon));

        // Degenerate stall: same fallback as the reference (see there).
        if !progressed && !ws.active_slots.is_empty() {
            let &widest = ws
                .active_slots
                .iter()
                .max_by(|&&a, &&b| ws.slot_bounds[a].width().total_cmp(&ws.slot_bounds[b].width()))
                .expect("non-empty active set");
            let period = ws.slot_bounds[widest].center();
            let passed = tester.apply_single(period, ws.slot_paths[widest], 0.0);
            // With an ideal tester a center probe sits strictly inside the
            // interval and always tightens. A noisy tester can return
            // anything here — count the hostile outcomes and let the
            // iteration cap bound the loop.
            match ws.slot_bounds[widest].update_with_policy(period, 0.0, passed, policy) {
                Observation::Contradictory => contradictions += 1,
                Observation::Widened => widenings += 1,
                Observation::Tightened | Observation::Uninformative => {}
            }
            ws.tracker.mark(widest);
            let (active_slots, slot_bounds) = (&mut ws.active_slots, &ws.slot_bounds);
            active_slots.retain(|&s| !slot_bounds[s].converged(config.epsilon));
        }
    }

    all_bounds.extend(ws.slot_paths.iter().copied().zip(ws.slot_bounds.iter().copied()));
    (align_time, contradictions, widenings)
}

/// Tests one batch to convergence; returns the alignment solve time and
/// the numbers of contradictory and widened observations.
///
/// This is the original HashMap-per-iteration implementation, kept as the
/// bitwise reference for [`test_one_batch_incremental`] (selected by
/// [`AlignedTestConfig::incremental`] `= false`).
fn test_one_batch_reference(
    ws: &mut AlignedTestWorkspace,
    model: &TimingModel,
    tester: &mut VirtualTester<'_>,
    batch: &[usize],
    lambda: &HoldBounds,
    config: &AlignedTestConfig,
    all_bounds: &mut HashMap<usize, DelayBounds>,
) -> (Duration, u64, u64) {
    let policy = update_policy(config, tester);
    let mut align_time = Duration::ZERO;
    let mut contradictions = 0_u64;
    let mut widenings = 0_u64;
    // Dense buffer indexing over the buffered flip-flops touched by this
    // batch.
    let spec = model.buffer_spec();
    index_batch_buffers(model, batch, &ws.buffered, &mut ws.buffer_index);
    ws.buffers.clear();
    ws.buffers.extend((0..ws.buffer_index.len()).map(|_| BufferVar {
        min: spec.min(),
        max: spec.max(),
        steps: spec.steps(),
    }));
    ws.zeros.clear();
    ws.zeros.resize(ws.buffers.len(), 0.0);
    // The engine resets its warm start here: nothing carries over from
    // the previous batch (or chip), by construction.
    ws.engine.set_node_limit(config.exact_node_limit);
    ws.engine
        .begin_batch(&ws.buffers)
        .expect("the model's buffer spec is finite with two or more steps");

    ws.bounds.clear();
    ws.bounds.extend(batch.iter().map(|&p| {
        (p, DelayBounds::from_gaussian(model.path_mean(p), model.path_sigma(p), config.bound_sigma))
    }));
    ws.active.clear();
    ws.active.extend(batch.iter().copied());
    let (active, bounds) = (&mut ws.active, &mut ws.bounds);
    active.retain(|&p| !bounds[&p].converged(config.epsilon));

    let mut iterations = 0_usize;

    while !ws.active.is_empty() && iterations < config.max_iterations_per_batch {
        iterations += 1;
        // --- Rebuild the alignment problem in place and solve it. ---
        ws.centers.clear();
        ws.centers.extend(ws.active.iter().map(|&p| ws.bounds[&p].center()));
        sorted_center_weights_into(
            &ws.centers,
            config.k0,
            config.kd,
            &mut ws.order,
            &mut ws.weights,
        );

        let solve_started = Instant::now();
        let (period, buffer_values): (f64, &[f64]) = if config.use_alignment {
            let paths = ws.engine.paths_mut();
            paths.clear();
            paths.extend(ws.active.iter().zip(&ws.weights).map(|(&p, &w)| {
                align_path_for(model, &ws.buffer_index, lambda, p, ws.bounds[&p].center(), w)
            }));
            let solved_exact = config.exact_alignment && ws.engine.solve_exact().is_some();
            let sol = if solved_exact { ws.engine.last_solution() } else { ws.engine.solve() };
            (sol.period, &sol.buffer_values)
        } else {
            // Multiplexing-only ablation (paper Fig. 8, middle bars): "all
            // the buffer values were set to zero". Exact zero, not the
            // nearest grid point — the probe must bisect the median range
            // precisely.
            ws.pts.clear();
            ws.pts.extend(ws.centers.iter().copied().zip(ws.weights.iter().copied()));
            let period = weighted_median_in_place(&mut ws.pts).unwrap_or(0.0);
            (period, &ws.zeros)
        };
        align_time += solve_started.elapsed();

        // --- One frequency step over the whole batch. ---
        ws.probes.clear();
        ws.probes.extend(ws.active.iter().map(|&p| {
            let (src, snk) = model.endpoints(p);
            let xi = ws.buffer_index.get(&src).map_or(0.0, |&b| buffer_values[b]);
            let xj = ws.buffer_index.get(&snk).map_or(0.0, |&b| buffer_values[b]);
            (p, xi - xj)
        }));
        tester.apply_batch_into(period, &ws.probes, &mut ws.results);

        // --- Update bounds; retire converged paths. ---
        let mut progressed = false;
        for ((&p, &(_, shift)), &passed) in ws.active.iter().zip(&ws.probes).zip(&ws.results) {
            let b = ws.bounds.get_mut(&p).expect("bounds exist for active path");
            let before = b.width();
            match b.update_with_policy(period, shift, passed, policy) {
                // Out-of-model chip: the range saturated to zero width and
                // the retain() below retires the path as converged.
                Observation::Contradictory => contradictions += 1,
                // Noisy tester contradicting a proven bound: the range
                // conservatively re-opened.
                Observation::Widened => widenings += 1,
                Observation::Tightened | Observation::Uninformative => {}
            }
            if b.width() < before - 1e-15 {
                progressed = true;
            }
        }
        let (active, bounds) = (&mut ws.active, &mut ws.bounds);
        active.retain(|&p| !bounds[&p].converged(config.epsilon));

        // Degenerate stall (period landed outside every active range):
        // bisect the widest range directly next time by collapsing the
        // weights to that single path. Simplest robust fallback: probe the
        // widest path's center with zero shifts.
        if !progressed && !active.is_empty() {
            let &widest = active
                .iter()
                .max_by(|&&a, &&b| bounds[&a].width().total_cmp(&bounds[&b].width()))
                .expect("non-empty active set");
            let period = bounds[&widest].center();
            let passed = tester.apply_single(period, widest, 0.0);
            // With an ideal tester a center probe sits strictly inside the
            // interval and always tightens. A noisy tester can return
            // anything here — count the hostile outcomes and let the
            // iteration cap bound the loop.
            match bounds
                .get_mut(&widest)
                .expect("exists")
                .update_with_policy(period, 0.0, passed, policy)
            {
                Observation::Contradictory => contradictions += 1,
                Observation::Widened => widenings += 1,
                Observation::Tightened | Observation::Uninformative => {}
            }
            active.retain(|&p| !bounds[&p].converged(config.epsilon));
        }
    }

    all_bounds.extend(ws.bounds.drain());
    (align_time, contradictions, widenings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{build_batches, ConflictOracle};
    use crate::select::{all_selected, select_paths, SelectConfig};
    use effitest_circuit::{BenchmarkSpec, GeneratedBenchmark};
    use effitest_ssta::VariationConfig;

    /// A fixture large enough for multiplexing to matter: batch sizes are
    /// capped near `2 * nb` by the paper's source/sink conflict rule, so
    /// the benchmark needs several buffers and paths.
    fn fixture() -> (GeneratedBenchmark, TimingModel) {
        let bench =
            GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s13207().scaled_down(8), 1);
        let model = TimingModel::build(&bench, &VariationConfig::paper());
        (bench, model)
    }

    fn default_epsilon(model: &TimingModel) -> f64 {
        let max_width =
            (0..model.path_count()).map(|p| 6.0 * model.path_sigma(p)).fold(0.0_f64, f64::max);
        max_width / 512.0
    }

    #[test]
    fn bounds_converge_and_bracket_true_delays() {
        let (bench, model) = fixture();
        let groups = select_paths(&model, &SelectConfig::default(), 1);
        let selected = all_selected(&groups);
        let all: Vec<usize> = (0..model.path_count()).collect();
        let oracle = ConflictOracle::new(&bench, &all, 1);
        let widths: Vec<f64> = selected.iter().map(|&p| 6.0 * model.path_sigma(p)).collect();
        let batches = build_batches(&oracle, &selected, Some(&widths));

        let chip = model.sample_chip(7);
        let mut tester = VirtualTester::new(&chip);
        let config =
            AlignedTestConfig { epsilon: default_epsilon(&model), ..AlignedTestConfig::default() };
        let result =
            run_aligned_test(&model, &mut tester, &batches, &HoldBounds::default(), &config);

        assert_eq!(result.bounds.len(), selected.len());
        for (&p, b) in &result.bounds {
            assert!(b.converged(config.epsilon), "path {p} did not converge");
            let truth = chip.setup_delay(p);
            // If the truth was inside the initial +-3 sigma window, the
            // final bounds must bracket it.
            let init = DelayBounds::from_gaussian(
                model.path_mean(p),
                model.path_sigma(p),
                config.bound_sigma,
            );
            if truth >= init.lower && truth <= init.upper {
                assert!(
                    b.lower - 1e-9 <= truth && truth <= b.upper + 1e-9,
                    "path {p}: bounds [{}, {}] miss true delay {truth}",
                    b.lower,
                    b.upper
                );
            }
        }
        assert!(result.iterations > 0);
    }

    #[test]
    fn out_of_model_chips_are_counted_as_contradictions() {
        // A chip whose true delay lies far outside its assumed mu ± 3 sigma
        // window fails a probe above that window; the bound saturates to
        // zero width and the run reports it — never silently.
        let (_, model) = fixture();
        let mut idx: Vec<usize> = (0..model.path_count()).collect();
        idx.sort_by(|&a, &b| model.path_mean(a).total_cmp(&model.path_mean(b)));
        let (a, b, c) = (idx[0], idx[idx.len() / 2], idx[idx.len() - 1]);
        // Without alignment the first probe lands at the middle center
        // (sorted-center weights), which must clear path a's window.
        let upper_a = model.path_mean(a) + 3.0 * model.path_sigma(a);
        assert!(
            model.path_mean(b) > upper_a,
            "fixture lacks mean separation: {} vs {upper_a}",
            model.path_mean(b)
        );
        let mut delays: Vec<f64> = (0..model.path_count()).map(|p| model.path_mean(p)).collect();
        delays[a] = model.path_mean(c) + 100.0; // far beyond every probe
        let chip = effitest_ssta::ChipInstance::new(0, delays, vec![None; model.path_count()]);
        let mut tester = VirtualTester::new(&chip);
        let config = AlignedTestConfig {
            epsilon: default_epsilon(&model),
            use_alignment: false,
            ..AlignedTestConfig::default()
        };
        let result = run_aligned_test(
            &model,
            &mut tester,
            &[vec![a, b, c]],
            &HoldBounds::default(),
            &config,
        );
        assert!(result.contradictions > 0, "out-of-model chip must be counted");
        // The contradicted path saturated at its assumed window boundary.
        assert_eq!(result.bounds[&a].width(), 0.0);
        assert!((result.bounds[&a].upper - upper_a).abs() < 1e-9);
    }

    #[test]
    fn alignment_beats_no_alignment() {
        let (bench, model) = fixture();
        let groups = select_paths(&model, &SelectConfig::default(), 1);
        let selected = all_selected(&groups);
        let all: Vec<usize> = (0..model.path_count()).collect();
        let oracle = ConflictOracle::new(&bench, &all, 1);
        let widths: Vec<f64> = selected.iter().map(|&p| 6.0 * model.path_sigma(p)).collect();
        let batches = build_batches(&oracle, &selected, Some(&widths));
        let epsilon = default_epsilon(&model);

        let mut total_aligned = 0_u64;
        let mut total_plain = 0_u64;
        for seed in 0..5 {
            let chip = model.sample_chip(100 + seed);
            let mut tester = VirtualTester::new(&chip);
            let aligned = run_aligned_test(
                &model,
                &mut tester,
                &batches,
                &HoldBounds::default(),
                &AlignedTestConfig { epsilon, ..AlignedTestConfig::default() },
            );
            total_aligned += aligned.iterations;

            let mut tester2 = VirtualTester::new(&chip);
            let plain = run_aligned_test(
                &model,
                &mut tester2,
                &batches,
                &HoldBounds::default(),
                &AlignedTestConfig {
                    epsilon,
                    use_alignment: false,
                    ..AlignedTestConfig::default()
                },
            );
            total_plain += plain.iterations;
        }
        assert!(
            total_aligned <= total_plain,
            "alignment used more iterations ({total_aligned}) than none ({total_plain})"
        );
    }

    #[test]
    fn batching_beats_path_wise() {
        // Use the *filled* batches (selected + slot fills), as the real
        // flow does: multiplexing gains come from batches holding several
        // paths.
        let (bench, model) = fixture();
        let groups = select_paths(&model, &SelectConfig::default(), 1);
        let selected = all_selected(&groups);
        let all: Vec<usize> = (0..model.path_count()).collect();
        let oracle = ConflictOracle::new(&bench, &all, 1);
        let widths: Vec<f64> = selected.iter().map(|&p| 6.0 * model.path_sigma(p)).collect();
        let mut batches = build_batches(&oracle, &selected, Some(&widths));
        let candidates: Vec<(usize, f64, f64)> = crate::batch::predicted_sigmas(&model, &groups, 1)
            .0
            .into_iter()
            .map(|(p, s)| (p, s, 6.0 * model.path_sigma(p)))
            .collect();
        // Give every batch room for several paths.
        let width_of = |p: usize| 6.0 * model.path_sigma(p);
        crate::batch::fill_slots(&oracle, &mut batches, &candidates, Some(6), &width_of);
        let tested: Vec<usize> = batches.iter().flatten().copied().collect();
        assert!(batches.iter().any(|b| b.len() >= 2), "fixture produced only singleton batches");
        let epsilon = default_epsilon(&model);

        let chip = model.sample_chip(11);
        let mut tester = VirtualTester::new(&chip);
        let aligned = run_aligned_test(
            &model,
            &mut tester,
            &batches,
            &HoldBounds::default(),
            &AlignedTestConfig { epsilon, ..AlignedTestConfig::default() },
        );

        // Path-wise baseline on the same tested paths.
        let mut tester2 = VirtualTester::new(&chip);
        let mut pw_iters = 0;
        for &p in &tested {
            let mut b = DelayBounds::from_gaussian(model.path_mean(p), model.path_sigma(p), 3.0);
            pw_iters += effitest_tester::path_wise_binary_search(&mut tester2, p, &mut b, epsilon);
        }
        assert!(
            aligned.iterations < pw_iters,
            "batched {} >= path-wise {pw_iters}",
            aligned.iterations
        );
    }

    #[test]
    fn incremental_loop_matches_reference_bitwise() {
        // The slot-array loop must reproduce the HashMap reference
        // *exactly* — bounds bits, iteration counts, contradiction counts
        // — across chips, alignment modes, and workspace reuse.
        let (bench, model) = fixture();
        let groups = select_paths(&model, &SelectConfig::default(), 1);
        let selected = all_selected(&groups);
        let all: Vec<usize> = (0..model.path_count()).collect();
        let oracle = ConflictOracle::new(&bench, &all, 1);
        let widths: Vec<f64> = selected.iter().map(|&p| 6.0 * model.path_sigma(p)).collect();
        let batches = build_batches(&oracle, &selected, Some(&widths));
        let epsilon = default_epsilon(&model);

        let mut ws_inc = AlignedTestWorkspace::new();
        let mut ws_ref = AlignedTestWorkspace::new();
        for use_alignment in [true, false] {
            for seed in 0..4 {
                let chip = model.sample_chip(40 + seed);
                let base =
                    AlignedTestConfig { epsilon, use_alignment, ..AlignedTestConfig::default() };
                let mut t1 = VirtualTester::new(&chip);
                let inc = run_aligned_test_with(
                    &mut ws_inc,
                    &model,
                    &mut t1,
                    &batches,
                    &HoldBounds::default(),
                    &AlignedTestConfig { incremental: true, ..base.clone() },
                );
                let mut t2 = VirtualTester::new(&chip);
                let refr = run_aligned_test_with(
                    &mut ws_ref,
                    &model,
                    &mut t2,
                    &batches,
                    &HoldBounds::default(),
                    &AlignedTestConfig { incremental: false, ..base },
                );
                assert_eq!(inc.iterations, refr.iterations, "iteration drift (seed {seed})");
                assert_eq!(inc.contradictions, refr.contradictions);
                assert_eq!(inc.bounds.len(), refr.bounds.len());
                for (p, b) in &inc.bounds {
                    let r = &refr.bounds[p];
                    assert_eq!(
                        (b.lower.to_bits(), b.upper.to_bits()),
                        (r.lower.to_bits(), r.upper.to_bits()),
                        "bounds drift on path {p} (seed {seed}, alignment {use_alignment})"
                    );
                }
            }
        }
    }

    #[test]
    fn exhausted_exact_node_limit_falls_back_to_the_heuristic_bitwise() {
        // With a zero node budget every exact solve reports
        // NodeLimitReached and the loop must take the heuristic branch —
        // producing *exactly* the run a heuristic-only config produces,
        // not a degraded hybrid.
        let (bench, model) = fixture();
        let groups = select_paths(&model, &SelectConfig::default(), 1);
        let selected: Vec<usize> = all_selected(&groups).into_iter().take(6).collect();
        let all: Vec<usize> = (0..model.path_count()).collect();
        let oracle = ConflictOracle::new(&bench, &all, 1);
        let widths: Vec<f64> = selected.iter().map(|&p| 6.0 * model.path_sigma(p)).collect();
        let batches = build_batches(&oracle, &selected, Some(&widths));
        let epsilon = default_epsilon(&model);

        let chip = model.sample_chip(21);
        let mut t1 = VirtualTester::new(&chip);
        let starved = run_aligned_test(
            &model,
            &mut t1,
            &batches,
            &HoldBounds::default(),
            &AlignedTestConfig {
                epsilon,
                exact_alignment: true,
                exact_node_limit: 0,
                ..AlignedTestConfig::default()
            },
        );
        let mut t2 = VirtualTester::new(&chip);
        let heuristic = run_aligned_test(
            &model,
            &mut t2,
            &batches,
            &HoldBounds::default(),
            &AlignedTestConfig { epsilon, ..AlignedTestConfig::default() },
        );
        assert_eq!(starved.iterations, heuristic.iterations);
        assert_eq!(starved.bounds.len(), heuristic.bounds.len());
        for (p, b) in &starved.bounds {
            let h = &heuristic.bounds[p];
            assert_eq!(
                (b.lower.to_bits(), b.upper.to_bits()),
                (h.lower.to_bits(), h.upper.to_bits()),
                "fallback drifted from the pure heuristic on path {p}"
            );
        }
    }

    #[test]
    fn noisy_tester_widens_and_never_fires_debug_asserts() {
        // Regression for the historical `debug_assert_eq!(obs, Tightened)`
        // sites: a noisy tester injects contradictory probe sequences —
        // passes below proven lower bounds, fails above proven upper
        // bounds — all over the run. In a debug build this test passing at
        // all proves the loop absorbs them (widen + count) instead of
        // asserting.
        let (bench, model) = fixture();
        let groups = select_paths(&model, &SelectConfig::default(), 1);
        let selected = all_selected(&groups);
        let all: Vec<usize> = (0..model.path_count()).collect();
        let oracle = ConflictOracle::new(&bench, &all, 1);
        let widths: Vec<f64> = selected.iter().map(|&p| 6.0 * model.path_sigma(p)).collect();
        let batches = build_batches(&oracle, &selected, Some(&widths));
        let epsilon = default_epsilon(&model);
        let sigma_scale = selected.iter().map(|&p| model.path_sigma(p)).fold(0.0_f64, f64::max);

        let mut saw_widening = false;
        for seed in 0..4 {
            let chip = model.sample_chip(70 + seed);
            let noise = effitest_tester::TesterModel {
                noise_sigma: 2.0 * sigma_scale,
                quantization_lsb: epsilon / 4.0,
                noise_seed: 17 + seed,
            };
            let mut tester = VirtualTester::with_model(&chip, noise);
            let result = run_aligned_test(
                &model,
                &mut tester,
                &batches,
                &HoldBounds::default(),
                &AlignedTestConfig { epsilon, ..AlignedTestConfig::default() },
            );
            saw_widening |= result.widenings > 0;
            for (&p, b) in &result.bounds {
                assert!(b.lower <= b.upper, "path {p} interval inverted under noise");
                assert!(b.lower.is_finite() && b.upper.is_finite());
            }
        }
        assert!(saw_widening, "2-sigma noise should produce at least one widening");
    }

    #[test]
    fn noisy_incremental_loop_matches_reference_bitwise() {
        // The bitwise parity contract must survive hostile testers: both
        // loops issue identical probe sequences, so they draw identical
        // noise and must report identical bounds and hostile counters.
        let (bench, model) = fixture();
        let groups = select_paths(&model, &SelectConfig::default(), 1);
        let selected = all_selected(&groups);
        let all: Vec<usize> = (0..model.path_count()).collect();
        let oracle = ConflictOracle::new(&bench, &all, 1);
        let widths: Vec<f64> = selected.iter().map(|&p| 6.0 * model.path_sigma(p)).collect();
        let batches = build_batches(&oracle, &selected, Some(&widths));
        let epsilon = default_epsilon(&model);
        let noise = effitest_tester::TesterModel {
            noise_sigma: epsilon,
            quantization_lsb: epsilon / 8.0,
            noise_seed: 5,
        };

        for seed in 0..3 {
            let chip = model.sample_chip(80 + seed);
            let base = AlignedTestConfig { epsilon, ..AlignedTestConfig::default() };
            let mut t1 = VirtualTester::with_model(&chip, noise);
            let inc = run_aligned_test(
                &model,
                &mut t1,
                &batches,
                &HoldBounds::default(),
                &AlignedTestConfig { incremental: true, ..base.clone() },
            );
            let mut t2 = VirtualTester::with_model(&chip, noise);
            let refr = run_aligned_test(
                &model,
                &mut t2,
                &batches,
                &HoldBounds::default(),
                &AlignedTestConfig { incremental: false, ..base },
            );
            assert_eq!(inc.iterations, refr.iterations, "iteration drift (seed {seed})");
            assert_eq!(inc.contradictions, refr.contradictions);
            assert_eq!(inc.widenings, refr.widenings);
            assert_eq!(inc.bounds.len(), refr.bounds.len());
            for (p, b) in &inc.bounds {
                let r = &refr.bounds[p];
                assert_eq!(
                    (b.lower.to_bits(), b.upper.to_bits()),
                    (r.lower.to_bits(), r.upper.to_bits()),
                    "noisy bounds drift on path {p} (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn exact_alignment_agrees_or_beats_descent_on_iterations() {
        let (bench, model) = fixture();
        let groups = select_paths(&model, &SelectConfig::default(), 1);
        let selected: Vec<usize> = all_selected(&groups).into_iter().take(6).collect();
        let all: Vec<usize> = (0..model.path_count()).collect();
        let oracle = ConflictOracle::new(&bench, &all, 1);
        let widths: Vec<f64> = selected.iter().map(|&p| 6.0 * model.path_sigma(p)).collect();
        let batches = build_batches(&oracle, &selected, Some(&widths));
        let epsilon = default_epsilon(&model) * 4.0; // keep the MILP cheap

        let chip = model.sample_chip(13);
        let mut t1 = VirtualTester::new(&chip);
        let fast = run_aligned_test(
            &model,
            &mut t1,
            &batches,
            &HoldBounds::default(),
            &AlignedTestConfig { epsilon, ..AlignedTestConfig::default() },
        );
        let mut t2 = VirtualTester::new(&chip);
        let exact = run_aligned_test(
            &model,
            &mut t2,
            &batches,
            &HoldBounds::default(),
            &AlignedTestConfig { epsilon, exact_alignment: true, ..AlignedTestConfig::default() },
        );
        // Both must converge; iteration counts should be comparable.
        assert_eq!(fast.bounds.len(), exact.bounds.len());
        let ratio = exact.iterations as f64 / fast.iterations.max(1) as f64;
        assert!(
            (0.4..=2.5).contains(&ratio),
            "exact {} vs fast {} iterations",
            exact.iterations,
            fast.iterations
        );
    }
}
