//! Hold-time tuning bounds (paper §3.5).
//!
//! Configured buffers shift clock edges and can break hold constraints
//! (eq. 2). Instead of testing hold after configuration, the paper derives
//! a lower bound `lambda_ij` for every `x_i - x_j` from Monte-Carlo samples
//! of the short-path hold bounds, such that a target fraction `Y` of chips
//! satisfies hold whenever the bounds are respected (eqs. 19–20), while
//! `sum lambda_ij` is minimized to leave the buffers maximal freedom.
//!
//! The exact formulation is a MILP over the samples; this module uses the
//! equivalent *sample discard* view: start from
//! `lambda_ij = max_k sample_k(ij)` (yield 1.0) and greedily discard the
//! `floor((1 - Y) M)` samples whose removal shrinks `sum lambda` the most.
//! For small instances, an exhaustive oracle validates the greedy choice
//! in tests.

use effitest_ssta::TimingModel;

/// Configuration of the hold-bound computation.
#[derive(Debug, Clone, PartialEq)]
pub struct HoldConfig {
    /// Target hold yield `Y` (paper: 0.99).
    pub yield_target: f64,
    /// Number of Monte-Carlo samples `M` (paper leaves it open; 512 keeps
    /// the discard granularity fine enough for Y = 0.99).
    pub samples: usize,
    /// Seed for the sampling.
    pub seed: u64,
}

impl Default for HoldConfig {
    fn default() -> Self {
        HoldConfig { yield_target: 0.99, samples: 512, seed: 0x601d }
    }
}

/// Computed hold bounds: per path index, the lower bound `lambda_ij` on
/// `x_i - x_j`.
#[derive(Debug, Clone, Default)]
pub struct HoldBounds {
    /// Indexed by path, up to the last bounded one.
    lambda: Vec<Option<f64>>,
}

impl HoldBounds {
    /// The bound for a path, if its pair has short paths.
    pub fn lambda(&self, path: usize) -> Option<f64> {
        self.lambda.get(path).copied().flatten()
    }

    /// Number of bounded paths.
    pub fn len(&self) -> usize {
        self.lambda.iter().flatten().count()
    }

    /// `true` if no bounds were derived.
    pub fn is_empty(&self) -> bool {
        self.lambda.iter().all(Option::is_none)
    }

    /// Sum of all bounds in path order (the objective the greedy minimizes).
    pub fn total(&self) -> f64 {
        self.iter().map(|(_, l)| l).sum()
    }

    /// Iterates over `(path index, lambda)` in path order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.lambda.iter().enumerate().filter_map(|(p, l)| l.map(|l| (p, l)))
    }

    /// Serializes the bounds as a path-ordered pair list.
    pub(crate) fn encode(&self, w: &mut crate::codec::Writer) {
        w.put_usize(self.len());
        for (p, l) in self.iter() {
            w.put_usize(p);
            w.put_f64(l);
        }
    }

    /// Inverse of [`encode`](Self::encode), for a model of `n_paths` paths.
    pub(crate) fn decode(
        r: &mut crate::codec::Reader<'_>,
        n_paths: usize,
    ) -> Result<Self, crate::codec::CodecError> {
        use crate::codec::CodecError::Invalid;
        let n = r.get_usize()?;
        let mut lambda = Vec::new();
        for _ in 0..n {
            let p = r.get_usize()?;
            let l = r.get_f64()?;
            if p >= n_paths {
                return Err(Invalid("hold-bound path index out of range"));
            }
            if lambda.len() <= p {
                lambda.resize(p + 1, None);
            }
            if lambda[p].replace(l).is_some() {
                return Err(Invalid("duplicate hold-bound path"));
            }
        }
        Ok(HoldBounds { lambda })
    }
}

/// Computes hold bounds by sampling and greedy discard.
///
/// Samples `M` realizations of every short path's hold bound
/// `underline(d)_ij` (the model's hold forms on chip `seed + k`, without
/// the setup forms and the normals only they read), then discards the
/// allowed `floor((1 - Y) M)` worst samples greedily and sets
/// `lambda_ij` to the per-path maximum over the kept samples.
///
/// The `M` chip samples are independent (chip `k` is seeded with
/// `seed + k`), so each runs on its own work item over `threads` workers,
/// producing a column of hold bounds; the columns are transposed in `k`
/// order before the greedy discard, so the bounds are bitwise identical at
/// every thread count.
pub fn compute_hold_bounds(model: &TimingModel, config: &HoldConfig, threads: usize) -> HoldBounds {
    let hold_paths: Vec<usize> =
        (0..model.path_count()).filter(|&i| model.hold_form(i).is_some()).collect();
    if hold_paths.is_empty() || config.samples == 0 {
        return HoldBounds::default();
    }
    let m = config.samples;
    let columns = effitest_parallel::par_map(threads, m, |k| {
        model.sample_hold_bounds(config.seed.wrapping_add(k as u64), &hold_paths)
    });
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(m); hold_paths.len()];
    for column in &columns {
        for (pi, v) in column.iter().enumerate() {
            samples[pi].push(v.expect("hold form exists"));
        }
    }
    let discards = allowed_discards(config.yield_target, m);
    let kept = greedy_discard(&samples, discards);

    let mut lambda = vec![None; hold_paths.last().map_or(0, |&p| p + 1)];
    for (pi, &p) in hold_paths.iter().enumerate() {
        let lam = samples[pi]
            .iter()
            .enumerate()
            .filter(|(k, _)| kept[*k])
            .map(|(_, &v)| v)
            .fold(f64::NEG_INFINITY, f64::max);
        lambda[p] = Some(lam);
    }
    HoldBounds { lambda }
}

/// Number of samples the yield target permits discarding:
/// `floor((1 - Y) M)`, clamped so at least one sample is always kept.
///
/// `m == 0` must short-circuit before the `m - 1` clamp — the expression
/// underflows `usize` on an empty sample set.
fn allowed_discards(yield_target: f64, m: usize) -> usize {
    if m == 0 {
        return 0;
    }
    (((1.0 - yield_target) * m as f64).floor() as usize).min(m - 1)
}

/// Greedy sample discard: repeatedly removes the sample whose removal
/// reduces `sum_p max_k kept` the most. Returns the keep mask.
fn greedy_discard(samples: &[Vec<f64>], discards: usize) -> Vec<bool> {
    let n_paths = samples.len();
    let m = samples.first().map_or(0, Vec::len);
    let mut kept = vec![true; m];
    if discards == 0 || m == 0 {
        return kept;
    }
    // Per path: sample indices sorted by value descending.
    let orders: Vec<Vec<usize>> = samples
        .iter()
        .map(|vals| {
            let mut idx: Vec<usize> = (0..m).collect();
            idx.sort_by(|&a, &b| vals[b].total_cmp(&vals[a]));
            idx
        })
        .collect();

    // Reduction per candidate sample: the sum, in path order, of
    // (max - runner_up) over the paths where it is the current maximum.
    // `None` marks a sample that is no path's maximum this round, which is
    // not the same as a zero gain.
    let mut reduction: Vec<Option<f64>> = vec![None; m];
    for _round in 0..discards {
        reduction.fill(None);
        for p in 0..n_paths {
            let mut top = None;
            let mut second = None;
            for &k in &orders[p] {
                if kept[k] {
                    if top.is_none() {
                        top = Some(k);
                    } else {
                        second = Some(k);
                        break;
                    }
                }
            }
            if let (Some(t), Some(s)) = (top, second) {
                *reduction[t].get_or_insert(0.0) += samples[p][t] - samples[p][s];
            }
        }
        // Discard the best candidate, the lowest sample index on a tie.
        // With no candidate at all (no path has two kept samples), discard
        // the first kept sample.
        let victim = reduction
            .iter()
            .enumerate()
            .filter_map(|(k, r)| r.map(|r| (k, r)))
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(k, _)| k)
            .or_else(|| kept.iter().position(|&b| b));
        match victim {
            Some(k) => kept[k] = false,
            None => break,
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use effitest_circuit::{BenchmarkSpec, GeneratedBenchmark};
    use effitest_ssta::VariationConfig;

    impl HoldBounds {
        /// Bounds from a per-path list, for tests that need bounds the
        /// sampler does not produce.
        pub(crate) fn from_lambdas(lambda: Vec<Option<f64>>) -> Self {
            HoldBounds { lambda }
        }
    }

    fn model() -> TimingModel {
        let bench =
            GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s9234().scaled_down(10), 1);
        TimingModel::build(&bench, &VariationConfig::paper())
    }

    /// Exhaustive oracle for tiny instances: the smallest total over all
    /// discard subsets of the given size.
    fn exhaustive_discard_total(samples: &[Vec<f64>], discards: usize) -> f64 {
        let m = samples.first().map_or(0, Vec::len);
        let mut best = f64::INFINITY;
        let mut combo: Vec<usize> = (0..discards).collect();
        loop {
            let mut kept = vec![true; m];
            for &k in &combo {
                kept[k] = false;
            }
            let total: f64 = samples
                .iter()
                .map(|vals| {
                    vals.iter()
                        .enumerate()
                        .filter(|(k, _)| kept[*k])
                        .map(|(_, &v)| v)
                        .fold(f64::NEG_INFINITY, f64::max)
                })
                .sum();
            best = best.min(total);
            // Next combination.
            let mut i = discards;
            loop {
                if i == 0 {
                    return best;
                }
                i -= 1;
                if combo[i] + (discards - i) < m {
                    combo[i] += 1;
                    for j in (i + 1)..discards {
                        combo[j] = combo[j - 1] + 1;
                    }
                    break;
                }
            }
        }
    }

    #[test]
    fn bounds_cover_target_yield() {
        let m = model();
        let config = HoldConfig { yield_target: 0.95, samples: 200, seed: 3 };
        let bounds = compute_hold_bounds(&m, &config, 1);
        assert!(!bounds.is_empty());
        // Fresh chips: the fraction where every hold bound <= lambda must
        // land near (or above) the target.
        let n = 400;
        let mut pass = 0;
        for c in 0..n {
            let chip = m.sample_chip(10_000 + c);
            let ok =
                bounds.iter().all(|(p, lam)| chip.hold_bound(p).expect("hold path") <= lam + 1e-12);
            if ok {
                pass += 1;
            }
        }
        let achieved = pass as f64 / n as f64;
        assert!(
            achieved >= config.yield_target - 0.07,
            "hold yield {achieved} far below target {}",
            config.yield_target
        );
    }

    #[test]
    fn discards_reduce_total() {
        let m = model();
        let strict =
            compute_hold_bounds(&m, &HoldConfig { yield_target: 1.0, samples: 128, seed: 5 }, 1);
        let relaxed =
            compute_hold_bounds(&m, &HoldConfig { yield_target: 0.9, samples: 128, seed: 5 }, 1);
        assert!(relaxed.total() <= strict.total() + 1e-9);
    }

    #[test]
    fn greedy_matches_exhaustive_on_tiny_instances() {
        let mut state = 0xBEEF_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as f64 / 100.0 - 5.0
        };
        let mut worse = 0;
        for _case in 0..20 {
            let n_paths = 3;
            let m = 8;
            let samples: Vec<Vec<f64>> =
                (0..n_paths).map(|_| (0..m).map(|_| next()).collect()).collect();
            let discards = 2;
            let kept = greedy_discard(&samples, discards);
            let greedy_total: f64 = samples
                .iter()
                .map(|vals| {
                    vals.iter()
                        .enumerate()
                        .filter(|(k, _)| kept[*k])
                        .map(|(_, &v)| v)
                        .fold(f64::NEG_INFINITY, f64::max)
                })
                .sum();
            let best = exhaustive_discard_total(&samples, discards);
            if greedy_total > best + 1e-9 {
                worse += 1;
            }
            assert!(kept.iter().filter(|&&b| !b).count() == discards);
        }
        // The greedy is a heuristic; it should hit the optimum on the
        // clear majority of random tiny instances.
        assert!(worse <= 5, "greedy missed exhaustive optimum {worse}/20 times");
    }

    #[test]
    fn tied_reductions_discard_the_lowest_sample_index() {
        // Samples 0 and 1 are identical columns, and so are 2 and 3. In
        // each path one pair shares the maximum, so samples 0 and 2 both
        // reduce the total by exactly 0.0: a tie that sample order, never
        // hash order, must break. Repeat to catch a per-call random order.
        let samples = vec![vec![5.0, 5.0, 0.0, 0.0], vec![0.0, 0.0, 5.0, 5.0]];
        for _run in 0..64 {
            assert_eq!(greedy_discard(&samples, 1), vec![false, true, true, true]);
        }
    }

    #[test]
    fn threaded_bounds_match_serial_at_every_thread_count() {
        let m = model();
        let config = HoldConfig { yield_target: 0.95, samples: 96, seed: 3 };
        // At one thread the sampling runs inline: the serial run.
        let serial = compute_hold_bounds(&m, &config, 1);
        let mut expect: Vec<(usize, u64)> = serial.iter().map(|(p, l)| (p, l.to_bits())).collect();
        expect.sort_unstable();
        assert!(!expect.is_empty(), "differential exercised no bounds");
        for threads in [4, 8] {
            let threaded = compute_hold_bounds(&m, &config, threads);
            let mut got: Vec<(usize, u64)> =
                threaded.iter().map(|(p, l)| (p, l.to_bits())).collect();
            got.sort_unstable();
            assert_eq!(got, expect, "hold bounds diverged at {threads} threads");
        }
    }

    /// `total` adds the bounds in path order, so its bits do not depend on
    /// how the bounds are stored; `iter` visits them in that order.
    #[test]
    fn total_is_the_path_order_sum_on_full_size_s13207() {
        let bench = GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s13207(), 1);
        let model = TimingModel::build(&bench, &VariationConfig::paper());
        let bounds = compute_hold_bounds(&model, &HoldConfig::default(), 2);
        let in_order: f64 = (0..model.path_count()).filter_map(|p| bounds.lambda(p)).sum();
        assert!(bounds.len() > 100, "s13207 has {} hold bounds", bounds.len());
        assert_eq!(bounds.total().to_bits(), in_order.to_bits());
        let paths: Vec<usize> = bounds.iter().map(|(p, _)| p).collect();
        assert!(paths.windows(2).all(|w| w[0] < w[1]), "iter is not in path order");
    }

    /// Decoding keeps path order and refuses a path outside the model
    /// (the bounds are indexed by path) or a path given twice.
    #[test]
    fn decode_round_trips_and_rejects_bad_paths() {
        use crate::codec::{CodecError, Reader, Writer};
        let encoded = |pairs: &[(usize, f64)]| {
            let mut w = Writer::new();
            w.put_usize(pairs.len());
            for &(p, l) in pairs {
                w.put_usize(p);
                w.put_f64(l);
            }
            w.into_bytes()
        };
        let bytes = encoded(&[(1, -2.0), (4, 0.5)]);
        let bounds = HoldBounds::decode(&mut Reader::new(&bytes), 5).expect("valid bounds");
        assert_eq!(bounds.iter().collect::<Vec<_>>(), [(1, -2.0), (4, 0.5)]);
        assert_eq!((bounds.lambda(0), bounds.lambda(4), bounds.lambda(9)), (None, Some(0.5), None));
        let mut w = Writer::new();
        bounds.encode(&mut w);
        assert_eq!(w.into_bytes(), bytes);
        for bad in [&[(5, 0.0)][..], &[(usize::MAX, 0.0)], &[(2, 0.0), (2, 1.0)]] {
            let decoded = HoldBounds::decode(&mut Reader::new(&encoded(bad)), 5);
            assert!(matches!(decoded, Err(CodecError::Invalid(_))), "{bad:?} decoded");
        }
    }

    #[test]
    fn zero_samples_and_no_hold_paths_are_safe() {
        let m = model();
        let empty =
            compute_hold_bounds(&m, &HoldConfig { yield_target: 0.99, samples: 0, seed: 1 }, 1);
        assert!(empty.is_empty());
        assert_eq!(empty.lambda(0), None);
        assert_eq!(empty.total(), 0.0);
    }

    #[test]
    fn allowed_discards_handles_empty_sample_sets() {
        // Regression: `min(m - 1)` underflowed when m == 0.
        assert_eq!(allowed_discards(0.99, 0), 0);
        assert_eq!(allowed_discards(0.0, 0), 0);
        // Normal cases: floor((1 - Y) M), always keeping one sample.
        assert_eq!(allowed_discards(0.99, 512), 5);
        assert_eq!(allowed_discards(1.0, 512), 0);
        assert_eq!(allowed_discards(0.0, 4), 3);
        assert_eq!(allowed_discards(0.5, 1), 0);
    }

    #[test]
    fn lambda_values_are_attained_sample_maxima() {
        let m = model();
        let config = HoldConfig { yield_target: 0.99, samples: 64, seed: 9 };
        let bounds = compute_hold_bounds(&m, &config, 1);
        for (p, lam) in bounds.iter() {
            // Every lambda must be one of the sampled hold bounds.
            let mut attained = false;
            for k in 0..config.samples {
                let chip = m.sample_chip(config.seed.wrapping_add(k as u64));
                if (chip.hold_bound(p).expect("hold path") - lam).abs() < 1e-12 {
                    attained = true;
                    break;
                }
            }
            assert!(attained, "lambda for path {p} is not an attained sample value");
        }
    }
}
