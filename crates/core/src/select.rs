//! Path grouping and representative selection (paper §3.1, Procedure 1).
//!
//! Paths whose delays correlate strongly can predict each other: only a few
//! of them need silicon measurements. Procedure 1 extracts groups at a
//! descending sequence of correlation thresholds (0.95, 0.90, ...), runs
//! PCA on each group's covariance, and selects one representative path per
//! retained principal component — the path with the largest absolute
//! loading on that component.

use effitest_linalg::Pca;
use effitest_ssta::TimingModel;

/// One correlation group with its selected representatives.
#[derive(Debug, Clone, PartialEq)]
pub struct PathGroup {
    /// Member path indices (positions in the benchmark's path set).
    pub members: Vec<usize>,
    /// Representatives chosen for silicon measurement (subset of
    /// `members`).
    pub selected: Vec<usize>,
    /// Correlation threshold at which the group was extracted.
    pub threshold: f64,
    /// Number of principal components retained.
    pub n_pcs: usize,
}

/// Configuration of the grouping/selection step.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectConfig {
    /// Starting correlation threshold (paper: 0.95).
    pub threshold_start: f64,
    /// Threshold decrement per round (paper: 0.05).
    pub threshold_step: f64,
    /// Threshold below which singleton groups are accepted.
    pub threshold_floor: f64,
    /// Cumulative-variance fraction in `[0, 1]` a group's retained PCs
    /// must reach. Only the retained components' directions are computed.
    pub pca_energy: f64,
    /// Oversized groups are chunked to at most this many members before
    /// PCA. The PCA is O(n^3), about 55 ms at 470 members (s13207's
    /// largest group) on one core of a 2-vCPU host, nearly all of it the
    /// Householder reduction. Chunking a high-correlation group costs at
    /// most a few extra representatives.
    pub max_group_size: usize,
    /// Criticality pre-selection: when set, only paths whose criticality
    /// score (`mu + criticality_sigma * sigma`) reaches this fraction of
    /// the maximum score over all paths enter correlation grouping. Cold
    /// paths appear in no group; prediction falls back to their prior
    /// range, which is safe because they are far from the designated
    /// period anyway. `None` (the default) groups every path — the paper's
    /// behavior on its benchmark sizes, and bitwise identical to the
    /// pre-filter code.
    pub criticality_fraction: Option<f64>,
    /// Sigma multiplier `k` in the criticality score `mu + k * sigma`.
    pub criticality_sigma: f64,
}

impl Default for SelectConfig {
    fn default() -> Self {
        SelectConfig {
            threshold_start: 0.95,
            threshold_step: 0.05,
            threshold_floor: 0.30,
            pca_energy: 0.95,
            max_group_size: 500,
            criticality_fraction: None,
            criticality_sigma: 3.0,
        }
    }
}

/// Most threshold rounds [`SelectConfig::validate`] accepts between
/// `threshold_start` and the floor. The paper's descent (0.95 to 0.30 in
/// steps of 0.05) takes 13; even a 0.001 step across the whole
/// correlation range [-1, 1] fits.
const MAX_THRESHOLD_ROUNDS: usize = 10_000;

impl SelectConfig {
    /// Checks that Procedure 1 terminates under this configuration:
    /// finite thresholds, a criticality fraction in `[0, 1]` with a finite
    /// sigma multiplier, and a threshold step that reaches the floor (or
    /// the correlation bound -1) in at most 10 000 strictly decreasing
    /// rounds. Without these checks a NaN or infinite start, or a step
    /// too small to move the threshold, defers every seed forever. It
    /// also checks that `pca_energy` lies in `[0, 1]`: a NaN would retain
    /// every component, so every path would be tested.
    ///
    /// # Errors
    ///
    /// A message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if !self.threshold_start.is_finite() {
            return Err(format!("threshold_start must be finite, got {}", self.threshold_start));
        }
        if self.threshold_floor.is_nan() {
            return Err("threshold_floor must not be NaN".into());
        }
        if !(self.threshold_step.is_finite() && self.threshold_step > 0.0) {
            return Err(format!(
                "threshold_step must be positive and finite, got {}",
                self.threshold_step
            ));
        }
        if !(0.0..=1.0).contains(&self.pca_energy) {
            return Err(format!("pca_energy must lie in [0, 1], got {}", self.pca_energy));
        }
        if let Some(fraction) = self.criticality_fraction {
            if !(0.0..=1.0).contains(&fraction) {
                return Err(format!("criticality_fraction must lie in [0, 1], got {fraction}"));
            }
            if !self.criticality_sigma.is_finite() {
                return Err(format!(
                    "criticality_sigma must be finite, got {}",
                    self.criticality_sigma
                ));
            }
        }
        // Replay the threshold sequence of `group_paths`, which depends
        // on nothing but these three fields.
        let mut threshold = self.threshold_start;
        let mut rounds = 0;
        while threshold > self.threshold_floor + 1e-12 && threshold >= -1.0 {
            let next = threshold - self.threshold_step;
            rounds += 1;
            if next >= threshold || rounds > MAX_THRESHOLD_ROUNDS {
                return Err(format!(
                    "threshold_step {} does not descend from {} to the floor {} within \
                     {MAX_THRESHOLD_ROUNDS} rounds",
                    self.threshold_step, self.threshold_start, self.threshold_floor
                ));
            }
            threshold = next;
        }
        Ok(())
    }
}

/// Criticality score of a path: its delay mean plus `k` standard
/// deviations — the upper tail the frequency-stepped test probes first.
pub fn criticality_score(model: &TimingModel, path: usize, k: f64) -> f64 {
    model.path_mean(path) + k * model.path_sigma(path)
}

/// Paths surviving the criticality cut at `fraction` of the maximum
/// score, in path-index order. The maximum-score path always survives.
///
/// Each path is scored once, on whichever worker claims it, and the
/// survivors are committed in path order, so the set does not depend on
/// the thread count.
fn critical_paths(model: &TimingModel, fraction: f64, k: f64, threads: usize) -> Vec<usize> {
    let scores =
        effitest_parallel::par_map(threads, model.path_count(), |p| criticality_score(model, p, k));
    let max_score = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let cut = fraction * max_score;
    (0..model.path_count()).filter(|&p| scores[p] >= cut).collect()
}

/// Runs Procedure 1 over all required paths of a timing model, scoring
/// criticality on `threads` workers.
///
/// Returns the groups in extraction order; with the default configuration
/// every path index appears in exactly one group, and every group has at
/// least one selected representative. With `criticality_fraction` set,
/// only the surviving paths are grouped (see [`SelectConfig`]). The
/// groups are bitwise identical at every thread count.
///
/// # Panics
///
/// Panics if the model has no paths or the configuration fails
/// [`SelectConfig::validate`] (which is what guarantees that the
/// threshold descent terminates).
pub fn select_paths(model: &TimingModel, config: &SelectConfig, threads: usize) -> Vec<PathGroup> {
    assert!(model.path_count() > 0, "no paths to select from");
    if let Err(e) = config.validate() {
        panic!("invalid SelectConfig: {e}");
    }

    let remaining: Vec<usize> = match config.criticality_fraction {
        None => (0..model.path_count()).collect(),
        Some(fraction) => critical_paths(model, fraction, config.criticality_sigma, threads),
    };
    group_paths(model, config, remaining)
}

/// The correlation-grouping loop (Procedure 1's threshold descent).
fn group_paths(
    model: &TimingModel,
    config: &SelectConfig,
    mut remaining: Vec<usize>,
) -> Vec<PathGroup> {
    let mut groups = Vec::new();
    let mut threshold = config.threshold_start;

    while !remaining.is_empty() {
        let at_floor = threshold <= config.threshold_floor + 1e-12;
        // Extract as many groups as possible at this threshold.
        let mut deferred: Vec<usize> = Vec::new();
        while let Some(&seed) = remaining.first() {
            let (mut members, rest): (Vec<usize>, Vec<usize>) = remaining
                .iter()
                .partition(|&&p| p == seed || model.correlation(seed, p) >= threshold);
            if members.len() == 1 && !at_floor {
                // Singleton at a high threshold: defer to a lower one.
                deferred.push(seed);
                remaining = rest;
                continue;
            }
            members.sort_unstable();
            // Chunk oversized groups to keep the PCA tractable.
            let cap = config.max_group_size.max(2);
            for chunk in members.chunks(cap) {
                groups.push(make_group(model, chunk.to_vec(), threshold, config.pca_energy));
            }
            remaining = rest;
        }
        remaining = deferred;
        threshold -= config.threshold_step;
        if remaining.is_empty() {
            break;
        }
        // Below the floor everything goes out as singletons next round.
        if threshold < -1.0 {
            // Defensive: cannot happen, floor handling extracts everything.
            for p in remaining.drain(..) {
                groups.push(make_group(model, vec![p], threshold, config.pca_energy));
            }
        }
    }
    groups
}

fn make_group(
    model: &TimingModel,
    members: Vec<usize>,
    threshold: f64,
    pca_energy: f64,
) -> PathGroup {
    if members.len() == 1 {
        return PathGroup { selected: members.clone(), members, threshold, n_pcs: 1 };
    }
    let cov = model.covariance_matrix(&members);
    let pca = Pca::from_covariance(&cov, pca_energy).expect("model covariances are symmetric");
    let n_pcs = pca.components().len();
    // Select, per retained PC, the member with the largest |loading| not
    // yet selected (paper §3.1, last paragraph).
    let mut selected_local: Vec<usize> = Vec::with_capacity(n_pcs);
    for c in 0..n_pcs {
        if let Some(var) = pca.dominant_variable(c, &selected_local) {
            selected_local.push(var);
        }
    }
    let selected: Vec<usize> = selected_local.iter().map(|&v| members[v]).collect();
    PathGroup { members, selected, threshold, n_pcs }
}

/// Total number of selected representatives across groups.
pub fn selected_count(groups: &[PathGroup]) -> usize {
    groups.iter().map(|g| g.selected.len()).sum()
}

/// Flat list of all selected path indices.
pub fn all_selected(groups: &[PathGroup]) -> Vec<usize> {
    let mut v: Vec<usize> = groups.iter().flat_map(|g| g.selected.iter().copied()).collect();
    v.sort_unstable();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use effitest_circuit::{BenchmarkSpec, GeneratedBenchmark};
    use effitest_ssta::VariationConfig;

    fn model() -> TimingModel {
        let bench =
            GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s9234().scaled_down(10), 1);
        TimingModel::build(&bench, &VariationConfig::paper())
    }

    #[test]
    fn every_path_lands_in_exactly_one_group() {
        let m = model();
        let groups = select_paths(&m, &SelectConfig::default(), 1);
        let mut seen = vec![false; m.path_count()];
        for g in &groups {
            for &p in &g.members {
                assert!(!seen[p], "path {p} in two groups");
                seen[p] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some path was never grouped");
    }

    #[test]
    fn selected_are_members_and_nonempty() {
        let m = model();
        let groups = select_paths(&m, &SelectConfig::default(), 1);
        for g in &groups {
            assert!(!g.selected.is_empty());
            assert!(g.n_pcs >= 1);
            for &s in &g.selected {
                assert!(g.members.contains(&s));
            }
            // No duplicate representatives.
            let mut sel = g.selected.clone();
            sel.sort_unstable();
            sel.dedup();
            assert_eq!(sel.len(), g.selected.len());
        }
    }

    #[test]
    fn far_fewer_paths_selected_than_total() {
        // The paper's headline: ~10% of paths need measurement. Clustered
        // synthetic benchmarks should show a clear reduction.
        let m = model();
        let groups = select_paths(&m, &SelectConfig::default(), 1);
        let selected = selected_count(&groups);
        assert!(
            selected * 2 <= m.path_count(),
            "selected {selected} of {} paths — prediction saves nothing",
            m.path_count()
        );
    }

    #[test]
    fn first_groups_have_highest_threshold() {
        let m = model();
        let groups = select_paths(&m, &SelectConfig::default(), 1);
        for w in groups.windows(2) {
            assert!(w[0].threshold >= w[1].threshold - 1e-12);
        }
        assert!(groups[0].threshold <= 0.95 + 1e-12);
    }

    #[test]
    fn highly_correlated_members_share_groups() {
        let m = model();
        let groups = select_paths(&m, &SelectConfig::default(), 1);
        // Within a group extracted at threshold th, every member
        // correlates with the seed at >= th; spot-check pairwise corr is
        // high-ish for the first (tightest) group.
        let g = &groups[0];
        if g.members.len() >= 2 {
            let seed = g.members[0];
            for &p in &g.members[1..] {
                assert!(
                    m.correlation(seed, p) >= g.threshold - 1e-9,
                    "member {p} under-correlated with seed"
                );
            }
        }
    }

    #[test]
    fn energy_threshold_controls_selection_size() {
        let m = model();
        let tight =
            select_paths(&m, &SelectConfig { pca_energy: 0.999, ..SelectConfig::default() }, 1);
        let loose =
            select_paths(&m, &SelectConfig { pca_energy: 0.5, ..SelectConfig::default() }, 1);
        assert!(selected_count(&loose) <= selected_count(&tight));
    }

    #[test]
    fn zero_criticality_fraction_matches_unfiltered_grouping() {
        // `Some(0.0)` admits every path, so the result must be *identical*
        // to the default — the filter is a pure pre-pass, not a reorder.
        let m = model();
        let unfiltered = select_paths(&m, &SelectConfig::default(), 1);
        let zero = select_paths(
            &m,
            &SelectConfig { criticality_fraction: Some(0.0), ..SelectConfig::default() },
            1,
        );
        assert_eq!(unfiltered, zero);
    }

    #[test]
    fn criticality_filter_groups_exactly_the_surviving_paths() {
        let m = model();
        let k = SelectConfig::default().criticality_sigma;
        let scores: Vec<f64> = (0..m.path_count()).map(|p| criticality_score(&m, p, k)).collect();
        let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Cut at the median score so the filter provably drops paths.
        let mut sorted = scores.clone();
        sorted.sort_by(f64::total_cmp);
        let fraction = sorted[sorted.len() / 2] / max;
        let groups = select_paths(
            &m,
            &SelectConfig { criticality_fraction: Some(fraction), ..SelectConfig::default() },
            1,
        );
        let mut grouped: Vec<usize> =
            groups.iter().flat_map(|g| g.members.iter().copied()).collect();
        grouped.sort_unstable();
        let expected: Vec<usize> =
            (0..m.path_count()).filter(|&p| scores[p] >= fraction * max).collect();
        assert_eq!(grouped, expected, "grouped set is not the surviving set");
        assert!(grouped.len() < m.path_count(), "filter dropped nothing");
        assert!(!grouped.is_empty(), "filter dropped everything");
    }

    #[test]
    fn oversized_groups_are_chunked_with_no_member_lost() {
        let m = model();
        let default_groups = select_paths(&m, &SelectConfig::default(), 1);
        let largest = default_groups.iter().map(|g| g.members.len()).max().unwrap();
        assert!(largest > 3, "fixture has no group large enough to exercise chunking");
        let cfg = SelectConfig { max_group_size: 3, ..SelectConfig::default() };
        let chunked = select_paths(&m, &cfg, 1);
        for g in &chunked {
            assert!(g.members.len() <= 3, "chunk cap violated: {} members", g.members.len());
            assert!(!g.selected.is_empty());
        }
        // Every path still lands in exactly one group.
        let mut seen = vec![false; m.path_count()];
        for g in &chunked {
            for &p in &g.members {
                assert!(!seen[p], "path {p} in two chunks");
                seen[p] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "chunking lost a path");
        assert!(chunked.len() > default_groups.len(), "no group was actually split");
    }

    #[test]
    fn chunked_selection_is_deterministic_across_reruns() {
        let m = model();
        let cfg = SelectConfig { max_group_size: 3, ..SelectConfig::default() };
        let a = select_paths(&m, &cfg, 1);
        let b = select_paths(&m, &cfg, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn threaded_selection_matches_serial_at_every_thread_count() {
        let m = model();
        for cfg in [
            SelectConfig::default(),
            SelectConfig { criticality_fraction: Some(0.9), ..SelectConfig::default() },
        ] {
            // At one thread the scoring runs inline: the serial run.
            let serial = select_paths(&m, &cfg, 1);
            for threads in [4, 8] {
                let threaded = select_paths(&m, &cfg, threads);
                assert_eq!(threaded, serial, "threads {threads}");
            }
        }
    }

    /// The six configurations that used to hang (the first three) or
    /// panic (the last three) inside Procedure 1.
    fn non_terminating_configs() -> Vec<SelectConfig> {
        let base = SelectConfig::default();
        vec![
            SelectConfig { threshold_start: f64::NAN, ..base.clone() },
            SelectConfig { threshold_start: f64::INFINITY, ..base.clone() },
            SelectConfig { threshold_step: 1e-300, ..base.clone() },
            SelectConfig { threshold_step: 0.0, ..base.clone() },
            SelectConfig { criticality_fraction: Some(1.5), ..base.clone() },
            SelectConfig { criticality_fraction: Some(f64::NAN), ..base },
        ]
    }

    #[test]
    fn validate_rejects_configs_that_cannot_terminate() {
        for cfg in non_terminating_configs() {
            assert!(cfg.validate().is_err(), "accepted {cfg:?}");
        }
        let base = SelectConfig::default();
        for bad in [
            SelectConfig { threshold_floor: f64::NAN, ..base.clone() },
            SelectConfig { threshold_step: -0.05, ..base.clone() },
            SelectConfig { threshold_step: f64::INFINITY, ..base.clone() },
            // Moves the threshold, but would take ~1e8 rounds.
            SelectConfig { threshold_step: 1e-8, ..base.clone() },
            SelectConfig {
                criticality_fraction: Some(0.5),
                criticality_sigma: f64::NAN,
                ..base.clone()
            },
        ] {
            assert!(bad.validate().is_err(), "accepted {bad:?}");
        }
        for good in [
            base.clone(),
            SelectConfig { criticality_fraction: Some(0.0), ..base.clone() },
            SelectConfig { criticality_fraction: Some(1.0), ..base.clone() },
            // Starting at or below the floor groups everything at once.
            SelectConfig { threshold_start: 0.1, ..base.clone() },
            // A floor below -1 ends at the correlation bound instead.
            SelectConfig { threshold_floor: f64::NEG_INFINITY, ..base.clone() },
            SelectConfig { threshold_start: 5.0, threshold_step: 0.001, ..base },
        ] {
            assert_eq!(good.validate(), Ok(()), "rejected {good:?}");
        }
    }

    #[test]
    fn validate_rejects_a_nan_or_out_of_range_pca_energy() {
        let base = SelectConfig::default();
        for energy in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.01, 1.01] {
            let cfg = SelectConfig { pca_energy: energy, ..base.clone() };
            let err = cfg.validate().expect_err("accepted a bad pca_energy");
            assert!(err.contains("pca_energy"), "{err}");
        }
        for energy in [0.0, 0.5, 0.95, 1.0] {
            let cfg = SelectConfig { pca_energy: energy, ..base.clone() };
            assert_eq!(cfg.validate(), Ok(()), "rejected pca_energy {energy}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid SelectConfig")]
    fn select_paths_asserts_a_valid_config() {
        let cfg = SelectConfig { threshold_step: 1e-300, ..SelectConfig::default() };
        let _ = select_paths(&model(), &cfg, 1);
    }

    #[test]
    fn all_selected_is_sorted_and_unique() {
        let m = model();
        let groups = select_paths(&m, &SelectConfig::default(), 1);
        let sel = all_selected(&groups);
        for w in sel.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(sel.len(), selected_count(&groups));
    }
}
