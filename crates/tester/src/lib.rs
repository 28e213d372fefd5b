//! Virtual tester substrate for the EffiTest reproduction.
//!
//! The paper's delay measurements run on automatic test equipment that can
//! apply an arbitrary clock period to a chip, scan in test vectors and
//! tuning-buffer configuration bits, and observe per-flip-flop pass/fail.
//! This crate simulates that equipment against frozen Monte-Carlo
//! [`ChipInstance`]s:
//!
//! * [`VirtualTester`] — applies `(period, shift)` probes and reports
//!   pass/fail per path while counting *frequency-stepping iterations*,
//!   the paper's central cost metric (`t_a`, `t_v` in Table 1), plus scan
//!   loads.
//! * [`DelayBounds`] — the `[l_ij, u_ij]` interval a path's delay is known
//!   to lie in, with the paper's update rule: a pass at period `T` with
//!   shift `x_i - x_j` proves `D_ij <= T - (x_i - x_j)`; a fail proves the
//!   opposite bound.
//! * [`path_wise_binary_search`] — the baseline the paper compares against
//!   (refs. [2, 6, 8, 9] therein): per-path frequency stepping, one path
//!   at a time, buffers untouched.
//! * [`TesterModel`] — hostile-silicon measurement error: deterministic
//!   quantization plus seeded Gaussian noise, hashed per
//!   `(chip, path, probe)` so every noisy measurement is bitwise
//!   reproducible at any thread count. [`ContradictionPolicy::Widen`]
//!   lets bounds updates absorb the contradictions noise produces instead
//!   of asserting.
//! * [`chip_passes`] — the final pass/fail test after buffer configuration
//!   (setup at the designated period plus hold).
//!
//! # Example
//!
//! ```
//! use effitest_circuit::{BenchmarkSpec, GeneratedBenchmark};
//! use effitest_ssta::{TimingModel, VariationConfig};
//! use effitest_tester::{path_wise_binary_search, DelayBounds, VirtualTester};
//!
//! let bench = GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s9234().scaled_down(20), 1);
//! let model = TimingModel::build(&bench, &VariationConfig::paper());
//! let chip = model.sample_chip(0);
//! let mut tester = VirtualTester::new(&chip);
//! let mut bounds = DelayBounds::from_gaussian(model.path_mean(0), model.path_sigma(0), 3.0);
//! let eps = bounds.width() / 250.0;
//! path_wise_binary_search(&mut tester, 0, &mut bounds, eps);
//! assert!(bounds.width() <= eps);
//! assert_eq!(tester.iterations(), 8); // ceil(log2(250)) halvings
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use effitest_ssta::{hash_normal, mix_stream, ChipInstance};

/// What one frequency-stepping observation did to a [`DelayBounds`]
/// interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observation {
    /// The observation moved one of the bounds inward.
    Tightened,
    /// The observation lies outside the interval on the side it cannot
    /// tighten; the interval is unchanged.
    Uninformative,
    /// The observation contradicts the *opposite* bound: a pass below
    /// `lower` or a fail above `upper`. The interval saturates to zero
    /// width at the contradicted endpoint (see [`DelayBounds::update`]).
    Contradictory,
    /// Under [`ContradictionPolicy::Widen`] only: the observation
    /// contradicted a *proven* bound, which a noisy tester can legitimately
    /// produce, and the interval was conservatively re-opened to cover the
    /// measured value (see
    /// [`DelayBounds::update_with_policy`]).
    Widened,
}

/// How [`DelayBounds::update_with_policy`] treats an observation that
/// contradicts a bound *proven* by an earlier observation.
///
/// With an ideal tester such a contradiction is physically impossible for
/// frozen silicon — it indicates a caller bug, so [`Strict`](Self::Strict)
/// (the [`DelayBounds::update`] behavior) fires a debug assertion. A noisy
/// or quantizing [`TesterModel`] produces them legitimately;
/// [`Widen`](Self::Widen) absorbs them conservatively instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContradictionPolicy {
    /// Contradicting a proven bound fires a debug assertion (and saturates
    /// in release builds). The historical and default behavior.
    #[default]
    Strict,
    /// Contradicting a proven bound conservatively **re-opens** the
    /// interval to cover the measured value: the contradicted bound moves
    /// to the measurement and loses its proven status. A pass below a
    /// proven `lower` drops `lower`; a fail above a proven `upper` raises
    /// `upper`. Either way the interval still contains every delay any
    /// observation so far is consistent with, and the setup-critical
    /// `upper` never silently shrinks.
    Widen,
}

/// A delay interval `[lower, upper]` being narrowed by frequency stepping.
///
/// The initial bounds (from [`new`](Self::new) or
/// [`from_gaussian`](Self::from_gaussian)) are *assumed*: the paper
/// initializes at `mu ± 3 sigma` without any silicon evidence. Each call to
/// [`update`](Self::update) that tightens a bound marks that side *proven*
/// — backed by an actual pass/fail observation. The distinction matters
/// for contradiction handling: see [`update`](Self::update).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayBounds {
    /// Lower bound `l_ij` (assumed until a fail proves it).
    pub lower: f64,
    /// Upper bound `u_ij` (assumed until a pass proves it).
    pub upper: f64,
    /// `true` once a fail observation established `lower`.
    lower_proven: bool,
    /// `true` once a pass observation established `upper`.
    upper_proven: bool,
}

impl DelayBounds {
    /// Creates bounds from explicit endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper`.
    pub fn new(lower: f64, upper: f64) -> Self {
        assert!(lower <= upper, "inverted delay bounds");
        DelayBounds { lower, upper, lower_proven: false, upper_proven: false }
    }

    /// The paper's initialization: `mu +- k sigma` (k = 3 in §3.3).
    pub fn from_gaussian(mu: f64, sigma: f64, k: f64) -> Self {
        DelayBounds::new(mu - k * sigma, mu + k * sigma)
    }

    /// `true` once a fail observation has established the lower bound.
    pub fn lower_proven(&self) -> bool {
        self.lower_proven
    }

    /// `true` once a pass observation has established the upper bound.
    pub fn upper_proven(&self) -> bool {
        self.upper_proven
    }

    /// Interval midpoint (the "center" the alignment step targets).
    pub fn center(&self) -> f64 {
        0.5 * (self.lower + self.upper)
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }

    /// `true` once the interval is at most `epsilon` wide.
    pub fn converged(&self, epsilon: f64) -> bool {
        self.width() <= epsilon
    }

    /// Applies one frequency-stepping observation: the tester ran period
    /// `period` with buffer shift `shift = x_i - x_j` on this path.
    ///
    /// Pass (`passed == true`) proves `D <= period - shift`, tightening the
    /// upper bound; fail proves `D > period - shift`, raising the lower
    /// bound (paper Procedure 2, lines 8–12). The return value reports what
    /// the observation did — see [`Observation`].
    ///
    /// # Contradictions
    ///
    /// A pass below `lower` or a fail above `upper` contradicts the
    /// opposite bound. The interval **saturates** to zero width at the
    /// contradicted endpoint (`[lower, lower]` respectively
    /// `[upper, upper]`) instead of inverting, and the call returns
    /// [`Observation::Contradictory`] so callers can count or reject the
    /// chip. Against the initial *assumed* `mu ± k sigma` window this is
    /// the paper's accepted out-of-model inaccuracy (a chip beyond
    /// 3 sigma converges to the window boundary). Against a bound that was
    /// *proven* by an earlier observation it is physically impossible for a
    /// chip with frozen delays — it indicates an inconsistent tester or
    /// caller bug, and fires a debug assertion. A nominal contradiction of
    /// a *proven* bound within a relative slack of ~1e-9 is treated as
    /// rounding noise and reported [`Observation::Uninformative`] with the
    /// interval untouched: the tester evaluates `D + shift <= period`
    /// while this method reconstructs `period - shift`, and the two
    /// roundings can disagree by a few ulps on a perfectly consistent
    /// chip.
    #[must_use = "check for Observation::Contradictory — in release builds a contradiction \
                  saturates the interval silently otherwise"]
    pub fn update(&mut self, period: f64, shift: f64, passed: bool) -> Observation {
        self.update_with_policy(period, shift, passed, ContradictionPolicy::Strict)
    }

    /// [`update`](Self::update) with an explicit [`ContradictionPolicy`]
    /// for observations that contradict a *proven* bound.
    ///
    /// `Strict` is exactly [`update`](Self::update). `Widen` never
    /// asserts: a contradiction of a proven bound re-opens the interval to
    /// cover the measurement (the contradicted bound moves to the measured
    /// value and loses its proven status) and returns
    /// [`Observation::Widened`]. Contradictions of *assumed* bounds
    /// saturate identically under both policies — that is the paper's
    /// accepted out-of-model behavior, and keeping it bounds convergence.
    #[must_use = "check for Observation::Contradictory / Observation::Widened — callers must \
                  count hostile observations"]
    pub fn update_with_policy(
        &mut self,
        period: f64,
        shift: f64,
        passed: bool,
        policy: ContradictionPolicy,
    ) -> Observation {
        // Tolerance against a *proven* bound only (never for the interval
        // arithmetic itself): rounding noise between the tester's
        // `D + shift <= period` and our `period - shift` stays many orders
        // of magnitude below this.
        let slack = self.lower.abs().max(self.upper.abs()).max(1.0) * 1e-9;
        let measured = period - shift;
        if passed {
            if measured < self.lower {
                if self.lower_proven && measured > self.lower - slack {
                    // Rounding noise against a proven bound: no information.
                    return Observation::Uninformative;
                }
                if self.lower_proven && policy == ContradictionPolicy::Widen {
                    // Noisy pass below a proven lower bound: re-open the
                    // bottom of the interval to cover the measurement. The
                    // setup-critical upper bound is untouched.
                    self.lower = measured;
                    self.lower_proven = false;
                    return Observation::Widened;
                }
                debug_assert!(
                    !self.lower_proven,
                    "contradictory pass: proves delay <= {measured}, but an earlier fail \
                     proved delay > {}",
                    self.lower
                );
                self.upper = self.lower;
                Observation::Contradictory
            } else if measured < self.upper {
                self.upper = measured;
                self.upper_proven = true;
                Observation::Tightened
            } else {
                Observation::Uninformative
            }
        } else if measured > self.upper {
            if self.upper_proven && measured < self.upper + slack {
                return Observation::Uninformative;
            }
            if self.upper_proven && policy == ContradictionPolicy::Widen {
                // Noisy fail above a proven upper bound: raise the upper
                // bound to the measurement. Conservative for setup — the
                // delay estimate only grows.
                self.upper = measured;
                self.upper_proven = false;
                return Observation::Widened;
            }
            debug_assert!(
                !self.upper_proven,
                "contradictory fail: proves delay > {measured}, but an earlier pass \
                 proved delay <= {}",
                self.upper
            );
            self.lower = self.upper;
            Observation::Contradictory
        } else if measured > self.lower {
            self.lower = measured;
            self.lower_proven = true;
            Observation::Tightened
        } else {
            Observation::Uninformative
        }
    }
}

/// A deterministic model of tester imperfection: quantization plus seeded
/// Gaussian measurement noise.
///
/// An ideal tester compares the chip's frozen delay directly:
/// `D + shift <= period`. A real tester observes `D` through a noisy,
/// quantized measurement chain. This model perturbs the *observed* delay
/// per probe:
///
/// 1. add `noise_sigma * g`, where `g` is a standard-normal draw hashed
///    statelessly from `(noise_seed, chip die id, path, probe index)`;
/// 2. round the result to the nearest multiple of `quantization_lsb`.
///
/// The probe index is the count of noisy probes this tester has applied to
/// that path on that chip, so repeated probes see fresh noise — but the
/// whole stream is a pure function of the identifying tuple, making every
/// noisy measurement **bitwise reproducible at any thread count** (the
/// same per-chip/per-path sequence no matter which worker runs the chip or
/// in which order chips are tested). Both perturbations are skipped
/// entirely when their parameter is zero; [`TesterModel::ideal`] is
/// guaranteed bit-identical to the historical noise-free tester.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TesterModel {
    /// Standard deviation of the additive Gaussian measurement noise, in
    /// delay units. Zero disables noise.
    pub noise_sigma: f64,
    /// Least significant bit of the measurement chain: observed delays are
    /// rounded to the nearest multiple. Zero disables quantization.
    pub quantization_lsb: f64,
    /// Seed of the noise stream (combined with chip die id, path and probe
    /// index).
    pub noise_seed: u64,
}

impl Default for TesterModel {
    fn default() -> Self {
        TesterModel::ideal()
    }
}

impl TesterModel {
    /// The perfect tester: no noise, no quantization.
    pub fn ideal() -> Self {
        TesterModel { noise_sigma: 0.0, quantization_lsb: 0.0, noise_seed: 0 }
    }

    /// `true` when this model never perturbs a measurement.
    pub fn is_ideal(&self) -> bool {
        self.noise_sigma == 0.0 && self.quantization_lsb == 0.0
    }

    /// The contradiction policy a bounds-update loop should use with this
    /// tester: [`Widen`](ContradictionPolicy::Widen) as soon as any
    /// perturbation is enabled, [`Strict`](ContradictionPolicy::Strict)
    /// otherwise.
    pub fn policy(&self) -> ContradictionPolicy {
        if self.is_ideal() {
            ContradictionPolicy::Strict
        } else {
            ContradictionPolicy::Widen
        }
    }

    /// The delay the tester *observes* for probe number `probe_index` of
    /// `path` on the chip with die id `chip_seed`, given the frozen true
    /// delay.
    pub fn observed_delay(
        &self,
        chip_seed: u64,
        path: usize,
        probe_index: u64,
        true_delay: f64,
    ) -> f64 {
        let mut d = true_delay;
        if self.noise_sigma > 0.0 {
            let stream = mix_stream(
                mix_stream(mix_stream(self.noise_seed, chip_seed), path as u64),
                probe_index,
            );
            d += self.noise_sigma * hash_normal(stream);
        }
        if self.quantization_lsb > 0.0 {
            d = (d / self.quantization_lsb).round() * self.quantization_lsb;
        }
        d
    }
}

/// The virtual automatic test equipment.
///
/// Holds a chip under test and counts every frequency-stepping iteration
/// (one applied `(period, configuration)` probe, with its scan load). One
/// probe may test a whole batch of paths — that is exactly the
/// multiplexing advantage the paper exploits.
#[derive(Debug)]
pub struct VirtualTester<'a> {
    chip: &'a ChipInstance,
    model: TesterModel,
    /// Per-path count of noisy probes applied so far (empty for an ideal
    /// model — the noise stream needs it, the ideal fast path does not).
    probe_counts: Vec<u64>,
    iterations: u64,
}

impl<'a> VirtualTester<'a> {
    /// Mounts a chip on an ideal tester.
    pub fn new(chip: &'a ChipInstance) -> Self {
        VirtualTester::with_model(chip, TesterModel::ideal())
    }

    /// Mounts a chip on a tester with the given measurement-error model.
    pub fn with_model(chip: &'a ChipInstance, model: TesterModel) -> Self {
        let probe_counts = if model.is_ideal() { Vec::new() } else { vec![0; chip.path_count()] };
        VirtualTester { chip, model, probe_counts, iterations: 0 }
    }

    /// The chip under test.
    pub fn chip(&self) -> &ChipInstance {
        self.chip
    }

    /// The tester's measurement-error model.
    pub fn model(&self) -> TesterModel {
        self.model
    }

    /// Applies one clock period to a batch of paths, each with its buffer
    /// shift `x_i - x_j`, and reports pass/fail per path.
    ///
    /// Counts as **one** frequency-stepping iteration regardless of the
    /// batch size, which includes the one scan load of its configuration
    /// bits and test vectors.
    ///
    /// A path passes when its frozen effective delay satisfies the setup
    /// constraint (paper eq. 1): `D_ij + shift <= period`.
    ///
    /// # Panics
    ///
    /// Panics if any path index is out of range for the chip.
    pub fn apply_batch(&mut self, period: f64, probes: &[(usize, f64)]) -> Vec<bool> {
        let mut results = Vec::new();
        self.apply_batch_into(period, probes, &mut results);
        results
    }

    /// Allocation-free variant of [`apply_batch`](Self::apply_batch):
    /// `results` is cleared and refilled with one pass/fail per probe,
    /// reusing its capacity. This is the entry point of the aligned-test
    /// hot loop, which applies one probe batch per frequency-stepping
    /// iteration.
    ///
    /// # Panics
    ///
    /// Panics if any path index is out of range for the chip.
    pub fn apply_batch_into(
        &mut self,
        period: f64,
        probes: &[(usize, f64)],
        results: &mut Vec<bool>,
    ) {
        self.iterations += 1;
        results.clear();
        if self.model.is_ideal() {
            // Bit-identical to the historical noise-free tester: no extra
            // arithmetic on this path.
            results.extend(
                probes.iter().map(|&(idx, shift)| self.chip.setup_delay(idx) + shift <= period),
            );
            return;
        }
        for &(idx, shift) in probes {
            let k = self.probe_counts[idx];
            self.probe_counts[idx] += 1;
            let observed =
                self.model.observed_delay(self.chip.seed(), idx, k, self.chip.setup_delay(idx));
            results.push(observed + shift <= period);
        }
    }

    /// Applies one clock period to a single path (the path-wise baseline).
    ///
    /// # Panics
    ///
    /// Panics if `path` is out of range.
    pub fn apply_single(&mut self, period: f64, path: usize, shift: f64) -> bool {
        self.apply_batch(period, &[(path, shift)])[0]
    }

    /// Total frequency-stepping iterations so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }
}

/// Consecutive non-shrinking probes a binary search tolerates before
/// giving up on a path (noisy testers can widen or stall; an ideal tester
/// can stall only on a floating-point-degenerate interval).
const MAX_STALLED_PROBES: u32 = 32;

/// Total probe budget per path for the binary search: a hard backstop
/// against tighten/widen oscillation under adversarial noise. Halving
/// across the entire f64 exponent range takes ~2100 probes, so the clean
/// path never comes close.
const MAX_PROBES_PER_PATH: u64 = 8192;

/// The baseline: narrow one path's bounds by binary search on the clock
/// period with all buffers at zero. Returns the iterations consumed.
///
/// This is the per-path frequency stepping of the paper's comparison
/// methods [2, 6, 8, 9]: `t'_v = ceil(log2(width / epsilon))` iterations
/// per path.
///
/// With an ideal tester every interior probe tightens and the count is
/// exact. With a noisy [`TesterModel`] the loop runs under
/// [`ContradictionPolicy::Widen`]: contradictory observations re-open the
/// interval instead of asserting, and the search gives up — leaving the
/// current (conservative) interval in place — after a fixed budget of
/// consecutive probes without a width reduction (`MAX_STALLED_PROBES`) or
/// of probes in total (`MAX_PROBES_PER_PATH`).
pub fn path_wise_binary_search(
    tester: &mut VirtualTester<'_>,
    path: usize,
    bounds: &mut DelayBounds,
    epsilon: f64,
) -> u64 {
    let policy = tester.model().policy();
    let start = tester.iterations();
    let mut stalled = 0_u32;
    while !bounds.converged(epsilon) {
        if tester.iterations() - start >= MAX_PROBES_PER_PATH {
            break;
        }
        let period = bounds.center();
        let passed = tester.apply_single(period, path, 0.0);
        let before = bounds.width();
        let obs = bounds.update_with_policy(period, 0.0, passed, policy);
        if obs == Observation::Tightened && bounds.width() < before {
            stalled = 0;
        } else {
            // An interior probe that failed to shrink the interval: a
            // widening or saturating contradiction under noise, or an
            // uninformative probe on an interval too narrow for its center
            // to be strictly interior. None make progress, so budget them
            // to guarantee termination.
            stalled += 1;
            if stalled >= MAX_STALLED_PROBES {
                break;
            }
        }
    }
    tester.iterations() - start
}

/// The final pass/fail test after buffer configuration (paper Fig. 4,
/// bottom): the chip must meet setup at the designated period and hold,
/// given the per-path buffer shifts `x_i - x_j`.
///
/// # Panics
///
/// Panics if `shifts.len()` differs from the chip's path count.
pub fn chip_passes(chip: &ChipInstance, period: f64, shifts: &[f64]) -> bool {
    assert_eq!(shifts.len(), chip.path_count(), "one shift per path required");
    for (idx, &shift) in shifts.iter().enumerate() {
        if chip.setup_delay(idx) + shift > period {
            return false;
        }
        if let Some(hold_bound) = chip.hold_bound(idx) {
            if shift < hold_bound {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip(delays: &[f64]) -> ChipInstance {
        ChipInstance::new(0, delays.to_vec(), vec![None; delays.len()])
    }

    #[test]
    fn bounds_update_rules() {
        let mut b = DelayBounds::new(0.0, 10.0);
        // Pass at T=6, shift 0: delay <= 6.
        assert_eq!(b.update(6.0, 0.0, true), Observation::Tightened);
        assert_eq!(b.upper, 6.0);
        // Fail at T=3: delay > 3.
        assert_eq!(b.update(3.0, 0.0, false), Observation::Tightened);
        assert_eq!(b.lower, 3.0);
        // Shifted probe: pass at T=7 with shift +2 proves delay <= 5.
        assert_eq!(b.update(7.0, 2.0, true), Observation::Tightened);
        assert_eq!(b.upper, 5.0);
        // Uninformative observations are clamped.
        assert_eq!(b.update(100.0, 0.0, true), Observation::Uninformative);
        assert_eq!(b.upper, 5.0);
        assert_eq!(b.update(-100.0, 0.0, false), Observation::Uninformative);
        assert_eq!(b.lower, 3.0);
    }

    #[test]
    fn bounds_never_invert() {
        let mut b = DelayBounds::new(4.0, 6.0);
        // A fail above the *assumed* upper bound saturates to upper and is
        // reported as contradictory (documented saturating behavior).
        assert_eq!(b.update(100.0, 0.0, false), Observation::Contradictory);
        assert!(b.lower <= b.upper);
        assert_eq!(b.lower, 6.0);
        assert_eq!(b.width(), 0.0);
        let mut b2 = DelayBounds::new(4.0, 6.0);
        assert_eq!(b2.update(-50.0, 0.0, true), Observation::Contradictory);
        assert!(b2.lower <= b2.upper);
        assert_eq!(b2.upper, 4.0);
    }

    #[test]
    fn update_classifies_observations() {
        let mut b = DelayBounds::new(0.0, 10.0);
        assert!(!b.lower_proven() && !b.upper_proven());
        assert_eq!(b.update(6.0, 0.0, true), Observation::Tightened);
        assert!(b.upper_proven() && !b.lower_proven());
        assert_eq!(b.update(2.0, 0.0, false), Observation::Tightened);
        assert!(b.lower_proven());
        // Outside the interval on the uninformative side: no change.
        assert_eq!(b.update(9.0, 0.0, true), Observation::Uninformative);
        assert_eq!(b.update(1.0, 0.0, false), Observation::Uninformative);
        assert_eq!((b.lower, b.upper), (2.0, 6.0));
    }

    #[test]
    fn saturated_interval_stays_collapsed_and_consistent() {
        // After a contradiction saturates the interval, further
        // observations must keep it a valid zero-width point — no
        // inversion, no resurrection of the contradicted side.
        let mut b = DelayBounds::new(4.0, 6.0);
        assert_eq!(b.update(100.0, 0.0, false), Observation::Contradictory);
        assert_eq!((b.lower, b.upper), (6.0, 6.0));
        // Another fail above the collapsed point contradicts again...
        assert_eq!(b.update(50.0, 0.0, false), Observation::Contradictory);
        assert_eq!((b.lower, b.upper), (6.0, 6.0));
        assert_eq!(b.width(), 0.0);
        // ...while a pass at the point itself proves the (degenerate)
        // upper bound and is simply uninformative afterwards.
        assert_eq!(b.update(6.0, 0.0, true), Observation::Uninformative);
        assert!(b.lower <= b.upper);
        assert!(b.converged(0.0));
    }

    #[test]
    fn rounding_noise_against_a_proven_bound_is_uninformative() {
        // The tester evaluates `D + shift <= period` while the bounds
        // reconstruct `period - shift`; the two roundings can disagree by
        // a few ulps. Within the documented ~1e-9 relative slack a
        // nominal contradiction of a *proven* bound must be dismissed as
        // noise, leaving the interval untouched.
        let mut b = DelayBounds::new(0.0, 10.0);
        assert_eq!(b.update(6.0, 0.0, true), Observation::Tightened);
        assert!(b.upper_proven());
        // Fail "proving" delay > 6 + 1e-12: inside the slack band.
        assert_eq!(b.update(6.0 + 1e-12, 0.0, false), Observation::Uninformative);
        assert_eq!((b.lower, b.upper), (0.0, 6.0));
        // Same on the lower side.
        assert_eq!(b.update(2.0, 0.0, false), Observation::Tightened);
        assert!(b.lower_proven());
        assert_eq!(b.update(2.0 - 1e-12, 0.0, true), Observation::Uninformative);
        assert_eq!((b.lower, b.upper), (2.0, 6.0));
    }

    #[test]
    fn slack_scales_with_the_bound_magnitude() {
        // The tolerance is relative: at magnitude 1e6 an absolute 1e-5
        // disagreement is still rounding noise, while the same absolute
        // disagreement at magnitude 1 is a real contradiction (and fires
        // the debug assertion — exercised release-only here).
        let mut big = DelayBounds::new(0.0, 2.0e6);
        assert_eq!(big.update(1.0e6, 0.0, true), Observation::Tightened);
        assert_eq!(big.update(1.0e6 + 1e-5, 0.0, false), Observation::Uninformative);
        assert_eq!(big.upper, 1.0e6);
        if cfg!(not(debug_assertions)) {
            let mut small = DelayBounds::new(0.0, 2.0);
            assert_eq!(small.update(1.0, 0.0, true), Observation::Tightened);
            assert_eq!(small.update(1.0 + 1e-5, 0.0, false), Observation::Contradictory);
            assert_eq!((small.lower, small.upper), (1.0, 1.0));
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "contradictory fail")]
    fn contradicting_a_proven_upper_bound_asserts_in_debug() {
        let mut b = DelayBounds::new(0.0, 10.0);
        // A pass at 6 proves delay <= 6 ...
        assert_eq!(b.update(6.0, 0.0, true), Observation::Tightened);
        // ... so a fail at 8 (delay > 8) is impossible for a frozen chip.
        let _ = b.update(8.0, 0.0, false);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "contradictory pass")]
    fn contradicting_a_proven_lower_bound_asserts_in_debug() {
        let mut b = DelayBounds::new(0.0, 10.0);
        // A fail at 5 proves delay > 5 ...
        assert_eq!(b.update(5.0, 0.0, false), Observation::Tightened);
        // ... so a pass at 3 (delay <= 3) is impossible for a frozen chip.
        let _ = b.update(3.0, 0.0, true);
    }

    #[test]
    fn widen_policy_reopens_a_proven_lower_bound() {
        let mut b = DelayBounds::new(0.0, 10.0);
        // A fail at 5 proves delay > 5.
        assert_eq!(b.update(5.0, 0.0, false), Observation::Tightened);
        assert!(b.lower_proven());
        // A noisy pass at 3 contradicts it; Widen drops the lower bound to
        // the measurement and revokes its proven status.
        assert_eq!(
            b.update_with_policy(3.0, 0.0, true, ContradictionPolicy::Widen),
            Observation::Widened
        );
        assert_eq!((b.lower, b.upper), (3.0, 10.0));
        assert!(!b.lower_proven());
        // The re-opened side can be proven again afterwards.
        assert_eq!(b.update(4.0, 0.0, false), Observation::Tightened);
        assert!(b.lower_proven());
    }

    #[test]
    fn widen_policy_reopens_a_proven_upper_bound() {
        let mut b = DelayBounds::new(0.0, 10.0);
        // A pass at 6 proves delay <= 6.
        assert_eq!(b.update(6.0, 0.0, true), Observation::Tightened);
        assert!(b.upper_proven());
        // A noisy fail at 8 contradicts it; Widen raises the upper bound —
        // the delay estimate only ever grows, which is setup-conservative.
        assert_eq!(
            b.update_with_policy(8.0, 0.0, false, ContradictionPolicy::Widen),
            Observation::Widened
        );
        assert_eq!((b.lower, b.upper), (0.0, 8.0));
        assert!(!b.upper_proven());
        assert!(b.lower <= b.upper);
    }

    #[test]
    fn widen_policy_still_saturates_assumed_bounds() {
        // Contradictions of *assumed* bounds are the paper's out-of-model
        // case and must behave identically under both policies.
        let mut strict = DelayBounds::new(4.0, 6.0);
        let mut widen = DelayBounds::new(4.0, 6.0);
        assert_eq!(strict.update(100.0, 0.0, false), Observation::Contradictory);
        assert_eq!(
            widen.update_with_policy(100.0, 0.0, false, ContradictionPolicy::Widen),
            Observation::Contradictory
        );
        assert_eq!((strict.lower, strict.upper), (widen.lower, widen.upper));
        assert_eq!(widen.width(), 0.0);
    }

    // The `#[should_panic]` twins above cover debug builds; this is the
    // `cfg(not(debug_assertions))`-safe counterpart pinning the *release*
    // behavior of `update` on a proven-bound contradiction: silent
    // saturation to zero width at the contradicted endpoint, reported
    // `Contradictory`.
    #[cfg(not(debug_assertions))]
    #[test]
    fn proven_bound_contradiction_saturates_in_release() {
        let mut b = DelayBounds::new(0.0, 10.0);
        assert_eq!(b.update(6.0, 0.0, true), Observation::Tightened);
        // Fail at 8 contradicts the proven upper bound: saturate [6, 6].
        assert_eq!(b.update(8.0, 0.0, false), Observation::Contradictory);
        assert_eq!((b.lower, b.upper), (6.0, 6.0));
        assert_eq!(b.width(), 0.0);
        let mut b2 = DelayBounds::new(0.0, 10.0);
        assert_eq!(b2.update(5.0, 0.0, false), Observation::Tightened);
        // Pass at 3 contradicts the proven lower bound: saturate [5, 5].
        assert_eq!(b2.update(3.0, 0.0, true), Observation::Contradictory);
        assert_eq!((b2.lower, b2.upper), (5.0, 5.0));
        assert!(b2.converged(0.0));
    }

    #[test]
    fn tester_model_noise_is_reproducible_and_per_probe() {
        let m = TesterModel { noise_sigma: 0.1, quantization_lsb: 0.0, noise_seed: 7 };
        let a = m.observed_delay(3, 5, 0, 10.0);
        assert_eq!(a, m.observed_delay(3, 5, 0, 10.0));
        // Fresh noise per probe index, per path, per chip, per seed.
        assert_ne!(a, m.observed_delay(3, 5, 1, 10.0));
        assert_ne!(a, m.observed_delay(3, 6, 0, 10.0));
        assert_ne!(a, m.observed_delay(4, 5, 0, 10.0));
        let m2 = TesterModel { noise_seed: 8, ..m };
        assert_ne!(a, m2.observed_delay(3, 5, 0, 10.0));
    }

    #[test]
    fn tester_model_quantizes_to_the_lsb() {
        let m = TesterModel { noise_sigma: 0.0, quantization_lsb: 0.25, noise_seed: 0 };
        assert_eq!(m.observed_delay(0, 0, 0, 10.06), 10.0);
        assert_eq!(m.observed_delay(0, 0, 0, 10.13), 10.25);
        assert!(!m.is_ideal());
        assert_eq!(m.policy(), ContradictionPolicy::Widen);
        assert!(TesterModel::ideal().is_ideal());
        assert_eq!(TesterModel::ideal().policy(), ContradictionPolicy::Strict);
        assert_eq!(TesterModel::default(), TesterModel::ideal());
    }

    #[test]
    fn ideal_model_tester_matches_plain_tester_bitwise() {
        let c = chip(&[5.0, 7.0, 9.0]);
        let mut plain = VirtualTester::new(&c);
        let mut modeled = VirtualTester::with_model(&c, TesterModel::ideal());
        for period in [4.0, 6.5, 8.0, 10.0] {
            let probes = [(0, 0.5), (1, -0.25), (2, 0.0)];
            assert_eq!(plain.apply_batch(period, &probes), modeled.apply_batch(period, &probes));
        }
    }

    #[test]
    fn noisy_probes_redraw_noise_per_repeat() {
        // A delay sitting right at the period flips pass/fail under fresh
        // noise; with sigma far larger than the margin, 64 identical
        // probes virtually surely disagree at least once.
        let c = chip(&[5.0]);
        let m = TesterModel { noise_sigma: 1.0, quantization_lsb: 0.0, noise_seed: 3 };
        let mut t = VirtualTester::with_model(&c, m);
        let results: Vec<bool> = (0..64).map(|_| t.apply_single(5.0, 0, 0.0)).collect();
        assert!(results.iter().any(|&r| r) && results.iter().any(|&r| !r));
        // And the whole sequence is reproducible from scratch.
        let mut t2 = VirtualTester::with_model(&c, m);
        let again: Vec<bool> = (0..64).map(|_| t2.apply_single(5.0, 0, 0.0)).collect();
        assert_eq!(results, again);
    }

    #[test]
    fn noisy_binary_search_terminates_with_a_valid_interval() {
        let true_delay = 7.37;
        let c = chip(&[true_delay]);
        let m = TesterModel { noise_sigma: 0.5, quantization_lsb: 0.01, noise_seed: 21 };
        let mut t = VirtualTester::with_model(&c, m);
        let mut b = DelayBounds::new(0.0, 16.0);
        let iters = path_wise_binary_search(&mut t, 0, &mut b, 0.01);
        assert!(iters <= MAX_PROBES_PER_PATH);
        assert!(b.lower <= b.upper, "interval inverted: [{}, {}]", b.lower, b.upper);
        assert!(b.lower.is_finite() && b.upper.is_finite());
        // Deterministic rerun, bit for bit.
        let mut t2 = VirtualTester::with_model(&c, m);
        let mut b2 = DelayBounds::new(0.0, 16.0);
        let iters2 = path_wise_binary_search(&mut t2, 0, &mut b2, 0.01);
        assert_eq!((iters, b.lower, b.upper), (iters2, b2.lower, b2.upper));
    }

    #[test]
    fn degenerate_zero_epsilon_search_terminates() {
        // eps = 0 on an ideal tester: the interval narrows until its
        // center collides with an endpoint in floating point; the stall
        // guard must end the loop rather than hang.
        let c = chip(&[5.0]);
        let mut t = VirtualTester::new(&c);
        let mut b = DelayBounds::new(4.0, 6.0);
        let iters = path_wise_binary_search(&mut t, 0, &mut b, 0.0);
        assert!(iters < MAX_PROBES_PER_PATH);
        assert!(b.lower <= b.upper);
        assert!(b.width() <= 1e-12);
    }

    #[test]
    fn tester_types_are_send_and_sync_clean() {
        // The population engine shares chips across worker threads and
        // moves testers into them; keep these bounds load-bearing.
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<ChipInstance>();
        assert_sync::<ChipInstance>();
        assert_send::<VirtualTester<'static>>();
        assert_sync::<VirtualTester<'static>>();
        assert_send::<DelayBounds>();
        assert_sync::<DelayBounds>();
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn new_rejects_inverted() {
        DelayBounds::new(2.0, 1.0);
    }

    #[test]
    fn from_gaussian_covers_three_sigma() {
        let b = DelayBounds::from_gaussian(100.0, 5.0, 3.0);
        assert_eq!(b.lower, 85.0);
        assert_eq!(b.upper, 115.0);
        assert_eq!(b.center(), 100.0);
        assert_eq!(b.width(), 30.0);
    }

    #[test]
    fn tester_counts_iterations_per_probe_not_per_path() {
        let c = chip(&[5.0, 7.0, 9.0]);
        let mut t = VirtualTester::new(&c);
        let r = t.apply_batch(8.0, &[(0, 0.0), (1, 0.0), (2, 0.0)]);
        assert_eq!(r, vec![true, true, false]);
        assert_eq!(t.iterations(), 1);
        t.apply_single(6.0, 2, -4.0);
        assert_eq!(t.iterations(), 2);
    }

    #[test]
    fn shifts_affect_pass_fail() {
        let c = chip(&[5.0]);
        let mut t = VirtualTester::new(&c);
        // D + shift <= T: 5 + 2 <= 6 is false, 5 - 2 <= 6 is true.
        assert!(!t.apply_single(6.0, 0, 2.0));
        assert!(t.apply_single(6.0, 0, -2.0));
    }

    #[test]
    fn binary_search_brackets_the_true_delay() {
        let true_delay = 7.37;
        let c = chip(&[true_delay]);
        let mut t = VirtualTester::new(&c);
        let mut b = DelayBounds::new(0.0, 16.0);
        let eps = 0.01;
        let iters = path_wise_binary_search(&mut t, 0, &mut b, eps);
        assert!(b.converged(eps));
        assert!(
            b.lower <= true_delay && true_delay <= b.upper + 1e-12,
            "bounds [{}, {}] miss {true_delay}",
            b.lower,
            b.upper
        );
        // log2(16 / 0.01) ~ 10.6 -> 11 iterations.
        assert_eq!(iters, 11);
    }

    #[test]
    fn binary_search_iteration_count_matches_log2() {
        let c = chip(&[5.0]);
        for k in [4_u32, 6, 8, 10] {
            let mut t = VirtualTester::new(&c);
            let mut b = DelayBounds::new(1.0, 9.0);
            let eps = 8.0 / (1u64 << k) as f64;
            let iters = path_wise_binary_search(&mut t, 0, &mut b, eps);
            assert_eq!(iters, k as u64, "width 8, eps 8/2^{k}");
        }
    }

    #[test]
    fn out_of_range_delay_converges_to_boundary() {
        // True delay above the initial upper bound: every probe fails and
        // the interval collapses at the top; the resulting "measured" value
        // underestimates the true delay (the paper's accepted inaccuracy).
        let c = chip(&[20.0]);
        let mut t = VirtualTester::new(&c);
        let mut b = DelayBounds::new(0.0, 10.0);
        path_wise_binary_search(&mut t, 0, &mut b, 0.1);
        assert!(b.upper <= 10.0 + 1e-12);
        assert!(b.width() <= 0.1);
        assert!(b.upper > 9.8);
    }

    #[test]
    fn chip_passes_checks_setup_and_hold() {
        let c = ChipInstance::new(0, vec![5.0, 7.0], vec![Some(-1.0), None]);
        // Setup OK at period 8 with zero shifts; hold bound -1 <= 0 OK.
        assert!(chip_passes(&c, 8.0, &[0.0, 0.0]));
        // Setup violation on path 1 at period 6.
        assert!(!chip_passes(&c, 6.0, &[0.0, 0.0]));
        // Path 1 rescued by negative shift.
        assert!(chip_passes(&c, 6.0, &[0.0, -1.5]));
        // Hold violation: shift on path 0 below its hold bound.
        assert!(!chip_passes(&c, 8.0, &[-1.5, 0.0]));
    }

    #[test]
    #[should_panic(expected = "one shift per path")]
    fn chip_passes_validates_lengths() {
        let c = chip(&[1.0]);
        chip_passes(&c, 2.0, &[]);
    }
}
