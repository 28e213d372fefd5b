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

use std::collections::HashMap;

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
    lambda: HashMap<usize, f64>,
}

impl HoldBounds {
    /// The bound for a path, if its pair has short paths.
    pub fn lambda(&self, path: usize) -> Option<f64> {
        self.lambda.get(&path).copied()
    }

    /// Number of bounded paths.
    pub fn len(&self) -> usize {
        self.lambda.len()
    }

    /// `true` if no bounds were derived.
    pub fn is_empty(&self) -> bool {
        self.lambda.is_empty()
    }

    /// Sum of all bounds (the objective the greedy minimizes).
    pub fn total(&self) -> f64 {
        self.lambda.values().sum()
    }

    /// Iterates over `(path index, lambda)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.lambda.iter().map(|(&p, &l)| (p, l))
    }

    /// Serializes the bounds as a canonical (path-sorted) pair list — the
    /// sort makes the byte image independent of hash-map iteration order,
    /// which the plan fingerprint relies on.
    pub(crate) fn encode(&self, w: &mut crate::codec::Writer) {
        let mut pairs: Vec<(usize, f64)> = self.iter().collect();
        pairs.sort_unstable_by_key(|&(p, _)| p);
        w.put_usize(pairs.len());
        for (p, l) in pairs {
            w.put_usize(p);
            w.put_f64(l);
        }
    }

    /// Inverse of [`encode`](Self::encode).
    pub(crate) fn decode(
        r: &mut crate::codec::Reader<'_>,
    ) -> Result<Self, crate::codec::CodecError> {
        let n = r.get_usize()?;
        let mut lambda = HashMap::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let p = r.get_usize()?;
            let l = r.get_f64()?;
            if lambda.insert(p, l).is_some() {
                return Err(crate::codec::CodecError::Invalid("duplicate hold-bound path"));
            }
        }
        Ok(HoldBounds { lambda })
    }
}

/// Computes hold bounds by sampling and greedy discard.
///
/// Samples `M` realizations of every short path's hold bound
/// `underline(d)_ij` (via the model's hold forms), then discards the
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
        let chip = model.sample_chip(config.seed.wrapping_add(k as u64));
        hold_paths
            .iter()
            .map(|&p| chip.hold_bound(p).expect("hold form exists"))
            .collect::<Vec<f64>>()
    });
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(m); hold_paths.len()];
    for column in &columns {
        for (pi, &v) in column.iter().enumerate() {
            samples[pi].push(v);
        }
    }
    let discards = allowed_discards(config.yield_target, m);
    let kept = greedy_discard(&samples, discards);

    let mut lambda = HashMap::new();
    for (pi, &p) in hold_paths.iter().enumerate() {
        let lam = samples[pi]
            .iter()
            .enumerate()
            .filter(|(k, _)| kept[*k])
            .map(|(_, &v)| v)
            .fold(f64::NEG_INFINITY, f64::max);
        lambda.insert(p, lam);
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

    for _round in 0..discards {
        // Reduction per candidate sample: sum over paths where it is the
        // current maximum of (max - runner_up).
        let mut reduction: HashMap<usize, f64> = HashMap::new();
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
                let gain = samples[p][t] - samples[p][s];
                *reduction.entry(t).or_insert(0.0) += gain;
            }
        }
        // Discard the best candidate; if no sample is a unique maximum
        // anywhere (all gains zero), discard any kept sample — it changes
        // nothing.
        let victim = reduction
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(&k, _)| k)
            .or_else(|| kept.iter().position(|&b| b));
        match victim {
            Some(k) => kept[k] = false,
            None => break,
        }
    }
    kept
}

/// Exhaustive oracle for tiny instances: best keep mask over all discard
/// subsets of the given size. Exposed for tests and benches only.
pub fn exhaustive_discard_total(samples: &[Vec<f64>], discards: usize) -> f64 {
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
