//! Final buffer configuration from tested/predicted delay ranges
//! (paper §3.4, eqs. 15–18, plus the hold bounds of §3.5, eq. 21).
//!
//! After testing and statistical prediction, every required path has a
//! delay range `[l_ij, u_ij]`. A conservative configuration would assume
//! `D'_ij = u_ij`, but that over-rejects chips; the paper instead finds the
//! buffer setting that lets the *assumed* delays sit as close to their
//! upper bounds as possible:
//!
//! ```text
//! minimize xi
//! s.t.  T_d >= D'_ij + x_i - x_j          (16)
//!       l_ij <= D'_ij <= u_ij,  xi >= u_ij - D'_ij   (17)
//!       x in buffer ranges (discrete)      (18)
//!       x_i - x_j >= lambda_ij             (21)
//! ```
//!
//! For a fixed `xi` the assumed delays can be set to
//! `D'(xi) = max(l, u - xi)` without loss, leaving a pure system of
//! difference constraints over the buffer delays. On the uniform discrete
//! buffer lattice the constraints integerize exactly (difference systems
//! are totally unimodular), so [`ConfigProblem::solve`] binary-searches
//! `xi` and certifies each probe with Bellman–Ford — exact and fast. A
//! MILP formulation ([`ConfigProblem::solve_exact_milp`]) serves as the
//! oracle in tests and solves problems whose buffers differ in step size.

use crate::align::BufferVar;
use crate::{ConstraintOp, DifferenceSystem, LinearProgram, MixedIntegerProgram};

/// One path's data in the configuration problem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfigPath {
    /// Lower delay bound `l_ij` from test/prediction.
    pub lower: f64,
    /// Upper delay bound `u_ij` from test/prediction.
    pub upper: f64,
    /// Index of the source buffer in the problem's buffer list, if any.
    pub source_buffer: Option<usize>,
    /// Index of the sink buffer, if any.
    pub sink_buffer: Option<usize>,
    /// Hold-time tuning bound `lambda_ij`, if applicable.
    pub hold_lower_bound: Option<f64>,
}

impl ConfigPath {
    fn shift(&self, x: &[f64]) -> f64 {
        let xi = self.source_buffer.map_or(0.0, |b| x[b]);
        let xj = self.sink_buffer.map_or(0.0, |b| x[b]);
        xi - xj
    }
}

/// The buffer-configuration problem for one chip.
#[derive(Debug, Clone, Default)]
pub struct ConfigProblem {
    /// The designated clock period `T_d`.
    pub clock_period: f64,
    /// Paths with their tested/predicted ranges.
    pub paths: Vec<ConfigPath>,
    /// The chip's tunable buffers.
    pub buffers: Vec<BufferVar>,
}

/// Solution of a configuration problem.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigSolution {
    /// Optimal slack `xi` (max distance of assumed delays from their upper
    /// bounds).
    pub xi: f64,
    /// Discrete buffer values.
    pub buffer_values: Vec<f64>,
    /// The assumed delays `D'_ij = max(l_ij, u_ij - xi)`.
    pub assumed_delays: Vec<f64>,
}

impl ConfigProblem {
    /// Solves the configuration problem exactly on the discrete buffer
    /// lattice.
    ///
    /// Returns `None` if no discrete buffer assignment satisfies the setup
    /// constraints even with fully conservative slack (`xi` large enough
    /// that `D' = l`), i.e. the chip cannot be configured to run at
    /// `clock_period`. It also returns `None` for a malformed problem: a
    /// buffer that is not [well formed](BufferVar::is_well_formed) (no
    /// settings, a non-finite bound or `min > max`), or a path whose buffer
    /// index is out of range.
    ///
    /// The lattice probes need one step size shared by every buffer (the
    /// EffiTest flow always uses uniform buffer specs, per the paper's
    /// setup). Buffers with different step sizes are solved by
    /// [`solve_exact_milp`](Self::solve_exact_milp) instead, which also
    /// returns `None` if branch and bound hits its node limit.
    pub fn solve(&self) -> Option<ConfigSolution> {
        if !self.is_well_formed() {
            return None;
        }
        let Some(delta) = self.common_step() else {
            return self.solve_exact_milp();
        };
        // xi = 0: assumed delays at their upper bounds (best case).
        if let Some(x) = self.feasible(0.0, delta) {
            return Some(self.finish(0.0, x));
        }
        let xi_max = self.paths.iter().map(|p| p.upper - p.lower).fold(0.0_f64, f64::max);
        let x_at_max = self.feasible(xi_max, delta)?;
        // Binary search the smallest feasible xi.
        let mut lo = 0.0;
        let mut hi = xi_max;
        let mut best = x_at_max;
        let tol = (xi_max * 1e-9).max(1e-12);
        for _ in 0..64 {
            if hi - lo <= tol {
                break;
            }
            let mid = 0.5 * (lo + hi);
            match self.feasible(mid, delta) {
                Some(x) => {
                    hi = mid;
                    best = x;
                }
                None => lo = mid,
            }
        }
        Some(self.finish(hi, best))
    }

    /// Exact MILP formulation (test oracle): variables `xi`, `D'_p`, and
    /// integer buffer steps.
    ///
    /// Returns `None` if infeasible, if the branch-and-bound node limit is
    /// hit, or for a malformed problem (see [`solve`](Self::solve)).
    pub fn solve_exact_milp(&self) -> Option<ConfigSolution> {
        if !self.is_well_formed() {
            return None;
        }
        let nb = self.buffers.len();
        let np = self.paths.len();
        // Layout: 0 = xi, 1..=nb = k_b, nb+1..=nb+np = D'_p.
        let n_vars = 1 + nb + np;
        let mut lp = LinearProgram::new(n_vars);
        let mut obj = vec![0.0; n_vars];
        obj[0] = 1.0;
        lp.set_objective(&obj);
        lp.set_bounds(0, 0.0, f64::INFINITY);
        for (b, buf) in self.buffers.iter().enumerate() {
            lp.set_bounds(1 + b, 0.0, (buf.steps - 1) as f64);
        }
        for (p, path) in self.paths.iter().enumerate() {
            let dvar = 1 + nb + p;
            lp.set_bounds(dvar, path.lower, path.upper);
            // xi >= u - D'  ->  xi + D' >= u.
            lp.add_constraint(&[(0, 1.0), (dvar, 1.0)], ConstraintOp::Ge, path.upper);
            // T_d >= D' + x_i - x_j.
            let mut terms: Vec<(usize, f64)> = vec![(dvar, 1.0)];
            let mut rhs = self.clock_period;
            if let Some(b) = path.source_buffer {
                let buf = &self.buffers[b];
                terms.push((1 + b, buf.step_size()));
                rhs -= buf.min;
            }
            if let Some(b) = path.sink_buffer {
                let buf = &self.buffers[b];
                terms.push((1 + b, -buf.step_size()));
                rhs += buf.min;
            }
            lp.add_constraint(&terms, ConstraintOp::Le, rhs);
            // Hold bound.
            if let Some(lambda) = path.hold_lower_bound {
                let mut terms: Vec<(usize, f64)> = Vec::new();
                let mut rhs = lambda;
                if let Some(b) = path.source_buffer {
                    let buf = &self.buffers[b];
                    terms.push((1 + b, buf.step_size()));
                    rhs -= buf.min;
                }
                if let Some(b) = path.sink_buffer {
                    let buf = &self.buffers[b];
                    terms.push((1 + b, -buf.step_size()));
                    rhs += buf.min;
                }
                if terms.is_empty() {
                    if rhs > 1e-9 {
                        return None;
                    }
                } else {
                    lp.add_constraint(&terms, ConstraintOp::Ge, rhs);
                }
            }
        }
        let sol = MixedIntegerProgram::new(lp, (1..=nb).collect()).solve();
        if !sol.is_optimal() {
            return None;
        }
        let buffer_values: Vec<f64> = self
            .buffers
            .iter()
            .enumerate()
            .map(|(b, buf)| buf.value(sol.values[1 + b].round() as u32))
            .collect();
        let xi = sol.values[0];
        Some(ConfigSolution {
            xi,
            assumed_delays: self
                .paths
                .iter()
                .map(|p| p.upper.min(p.lower.max(p.upper - xi)))
                .collect(),
            buffer_values,
        })
    }

    /// Verifies that a buffer assignment works for assumed delays at slack
    /// `xi`: setup, hold, range, and grid membership. A malformed problem
    /// (see [`solve`](Self::solve)) has no feasible assignment.
    pub fn is_feasible_config(&self, x: &[f64], xi: f64, tol: f64) -> bool {
        if x.len() != self.buffers.len() || !self.is_well_formed() {
            return false;
        }
        for (buf, &v) in self.buffers.iter().zip(x) {
            if v < buf.min - tol || v > buf.max + tol {
                return false;
            }
            if (buf.value(buf.nearest(v)) - v).abs() > tol {
                return false;
            }
        }
        self.paths.iter().all(|p| {
            let assumed = p.lower.max(p.upper - xi);
            let setup = assumed + p.shift(x) <= self.clock_period + tol;
            let hold = p.hold_lower_bound.is_none_or(|lambda| p.shift(x) >= lambda - tol);
            setup && hold
        })
    }

    /// `true` if every buffer is [well formed](BufferVar::is_well_formed)
    /// and every path's buffer indices are in range.
    fn is_well_formed(&self) -> bool {
        let nb = self.buffers.len();
        self.buffers.iter().all(BufferVar::is_well_formed)
            && self.paths.iter().all(|p| {
                p.source_buffer.is_none_or(|b| b < nb) && p.sink_buffer.is_none_or(|b| b < nb)
            })
    }

    /// Common buffer step size (1 without buffers), or `None` if the
    /// buffers' step sizes differ.
    fn common_step(&self) -> Option<f64> {
        let Some(first) = self.buffers.first() else {
            return Some(1.0);
        };
        let delta = first.step_size();
        self.buffers.iter().all(|b| (b.step_size() - delta).abs() < 1e-12).then_some(delta)
    }

    /// Feasibility probe at slack `xi`: integerized difference constraints.
    fn feasible(&self, xi: f64, delta: f64) -> Option<Vec<f64>> {
        let nb = self.buffers.len();
        // Node 0 = reference (unbuffered flip-flops, k = 0); 1..=nb = k_b.
        let mut sys = DifferenceSystem::new(nb + 1);
        for (b, buf) in self.buffers.iter().enumerate() {
            // 0 <= k_b <= steps-1, relative to reference.
            sys.add_range(1 + b, 0, 0.0, (buf.steps - 1) as f64);
        }
        let tol = 1e-9;
        for path in &self.paths {
            let assumed = path.lower.max(path.upper - xi);
            // Setup: x_i - x_j <= T_d - D'.
            let margin = self.clock_period - assumed;
            let (ni, mi) = self.node_of(path.source_buffer);
            let (nj, mj) = self.node_of(path.sink_buffer);
            if delta > 0.0 {
                // delta*(k_i - k_j) <= margin - m_i + m_j.
                let w = ((margin - mi + mj) / delta + tol).floor();
                if ni == nj {
                    if w < 0.0 {
                        return None; // 0 <= negative: unconditionally infeasible
                    }
                } else {
                    sys.add(ni, nj, w);
                }
            } else if mi - mj > margin + tol {
                return None;
            }
            // Hold: x_i - x_j >= lambda  ->  k_j - k_i <= (m_i - m_j - lambda)/delta.
            if let Some(lambda) = path.hold_lower_bound {
                if delta > 0.0 {
                    let w = ((mi - mj - lambda) / delta + tol).floor();
                    if ni == nj {
                        if w < 0.0 {
                            return None;
                        }
                    } else {
                        sys.add(nj, ni, w);
                    }
                } else if mi - mj < lambda - tol {
                    return None;
                }
            }
        }
        let k = sys.solve_with_reference(0)?;
        Some(
            self.buffers
                .iter()
                .enumerate()
                .map(|(b, buf)| {
                    buf.value(k[1 + b].round().clamp(0.0, (buf.steps - 1) as f64) as u32)
                })
                .collect(),
        )
    }

    /// Maps a buffer option to its constraint-graph node and delay offset.
    fn node_of(&self, buffer: Option<usize>) -> (usize, f64) {
        match buffer {
            Some(b) => (1 + b, self.buffers[b].min),
            None => (0, 0.0),
        }
    }

    fn finish(&self, xi: f64, buffer_values: Vec<f64>) -> ConfigSolution {
        ConfigSolution {
            xi,
            assumed_delays: self.paths.iter().map(|p| p.lower.max(p.upper - xi)).collect(),
            buffer_values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(min: f64, max: f64, steps: u32) -> BufferVar {
        BufferVar { min, max, steps }
    }

    fn cpath(lower: f64, upper: f64, src: Option<usize>, snk: Option<usize>) -> ConfigPath {
        ConfigPath { lower, upper, source_buffer: src, sink_buffer: snk, hold_lower_bound: None }
    }

    #[test]
    fn unconstrained_chip_configures_with_zero_xi() {
        // All upper bounds below the period: xi = 0, x = anything valid.
        let problem = ConfigProblem {
            clock_period: 10.0,
            paths: vec![cpath(5.0, 8.0, Some(0), None), cpath(4.0, 9.0, None, Some(0))],
            buffers: vec![buf(-1.0, 1.0, 21)],
        };
        let sol = problem.solve().expect("feasible");
        assert_eq!(sol.xi, 0.0);
        assert!(problem.is_feasible_config(&sol.buffer_values, sol.xi, 1e-9));
        assert_eq!(sol.assumed_delays, vec![8.0, 9.0]);
    }

    #[test]
    fn buffers_rescue_over_budget_path() {
        // Path A: upper 12 > period 10, sink has a buffer: x_j = +2 gives
        // D + 0 - 2 <= 10. Path B keeps the same buffer as source:
        // upper 7.9: 7.9 + 2 <= 10 OK.
        let problem = ConfigProblem {
            clock_period: 10.0,
            paths: vec![cpath(11.0, 12.0, None, Some(0)), cpath(5.0, 7.9, Some(0), None)],
            buffers: vec![buf(-2.0, 2.0, 21)],
        };
        let sol = problem.solve().expect("feasible");
        assert!(sol.xi < 1e-6, "xi should be 0, got {}", sol.xi);
        assert!(sol.buffer_values[0] >= 2.0 - 1e-9);
        assert!(problem.is_feasible_config(&sol.buffer_values, sol.xi, 1e-9));
    }

    #[test]
    fn xi_grows_when_ranges_are_wide() {
        // One path, no buffers: upper 12 > period 10, lower 9 < 10: must
        // assume D' = 10 => xi = 2.
        let problem = ConfigProblem {
            clock_period: 10.0,
            paths: vec![cpath(9.0, 12.0, None, None)],
            buffers: vec![],
        };
        let sol = problem.solve().expect("feasible");
        assert!((sol.xi - 2.0).abs() < 1e-6, "xi = {}", sol.xi);
        assert!((sol.assumed_delays[0] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_when_lower_bound_exceeds_period() {
        let problem = ConfigProblem {
            clock_period: 10.0,
            paths: vec![cpath(11.0, 12.0, None, None)],
            buffers: vec![],
        };
        assert!(problem.solve().is_none());
        assert!(problem.solve_exact_milp().is_none());
    }

    #[test]
    fn hold_bounds_constrain_the_rescue() {
        // As in buffers_rescue_over_budget_path, but the sink-buffered path
        // carries a hold bound x_i - x_j >= -1 (x_i = 0) => x_j <= 1, so
        // the rescue is capped and xi must absorb the rest.
        let problem = ConfigProblem {
            clock_period: 10.0,
            paths: vec![ConfigPath {
                lower: 9.0,
                upper: 12.0,
                source_buffer: None,
                sink_buffer: Some(0),
                hold_lower_bound: Some(-1.0),
            }],
            buffers: vec![buf(-2.0, 2.0, 21)],
        };
        let sol = problem.solve().expect("feasible");
        // Best: x_j = 1 => D' <= 11 => xi = 1.
        assert!((sol.xi - 1.0).abs() < 1e-6, "xi = {}", sol.xi);
        assert!(sol.buffer_values[0] <= 1.0 + 1e-9);
        assert!(problem.is_feasible_config(&sol.buffer_values, sol.xi, 1e-9));
    }

    #[test]
    fn lattice_matches_milp_oracle() {
        let mut state = 0xFACE_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as f64 / 100.0
        };
        for _case in 0..20 {
            let nb = 1 + (next() as usize) % 2;
            let buffers: Vec<BufferVar> = (0..nb).map(|_| buf(-1.0, 1.0, 9)).collect();
            let np = 1 + (next() as usize) % 4;
            let period = 10.0;
            let paths: Vec<ConfigPath> = (0..np)
                .map(|_| {
                    let lower = 6.0 + next() * 0.45; // 6.0 .. 10.5
                    let upper = lower + next() * 0.3;
                    let which = (next() * 10.0) as usize % 3;
                    let b = (next() as usize) % nb;
                    let (src, snk) = match which {
                        0 => (Some(b), None),
                        1 => (None, Some(b)),
                        _ => (None, None),
                    };
                    cpath(lower, upper, src, snk)
                })
                .collect();
            let problem = ConfigProblem { clock_period: period, paths, buffers };
            let lattice = problem.solve();
            let milp = problem.solve_exact_milp();
            match (lattice, milp) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert!((a.xi - b.xi).abs() < 1e-5, "lattice xi {} vs milp xi {}", a.xi, b.xi);
                    assert!(problem.is_feasible_config(&a.buffer_values, a.xi + 1e-9, 1e-6));
                }
                (a, b) => panic!("feasibility disagreement: lattice {a:?} vs milp {b:?}"),
            }
        }
    }

    #[test]
    fn assumed_delays_track_xi() {
        let problem = ConfigProblem {
            clock_period: 10.0,
            paths: vec![cpath(7.0, 12.0, None, Some(0)), cpath(8.0, 9.0, None, None)],
            buffers: vec![buf(-1.0, 1.0, 21)],
        };
        let sol = problem.solve().expect("feasible");
        for (p, d) in problem.paths.iter().zip(&sol.assumed_delays) {
            assert!(*d >= p.lower - 1e-9 && *d <= p.upper + 1e-9);
            assert!(p.upper - d <= sol.xi + 1e-6);
        }
    }

    #[test]
    fn empty_problem_is_trivially_feasible() {
        let problem =
            ConfigProblem { clock_period: 1.0, paths: vec![], buffers: vec![buf(-1.0, 1.0, 5)] };
        let sol = problem.solve().expect("feasible");
        assert_eq!(sol.xi, 0.0);
        assert_eq!(sol.buffer_values.len(), 1);
    }

    #[test]
    fn non_uniform_lattice_falls_back_to_the_milp() {
        // Step sizes 1.0 and 0.5: the lattice probes cannot integerize
        // these constraints, so the solve must not panic but defer to the
        // exact MILP.
        let problem = ConfigProblem {
            clock_period: 10.0,
            paths: vec![
                cpath(10.2, 11.3, None, Some(0)),
                cpath(9.0, 10.6, Some(1), None),
                ConfigPath {
                    lower: 8.0,
                    upper: 9.5,
                    source_buffer: Some(0),
                    sink_buffer: Some(1),
                    hold_lower_bound: Some(-1.5),
                },
            ],
            buffers: vec![buf(-2.0, 2.0, 5), buf(-2.0, 2.0, 9)],
        };
        let sol = problem.solve().expect("feasible");
        assert_eq!(Some(&sol), problem.solve_exact_milp().as_ref());
        assert!(problem.is_feasible_config(&sol.buffer_values, sol.xi, 1e-9));
    }

    #[test]
    fn both_endpoints_buffered() {
        // Path needs 3 units of borrowing: x_i - x_j <= -3 with each
        // buffer limited to +-2: achievable (x_i=-2, x_j=+1 or similar).
        let problem = ConfigProblem {
            clock_period: 10.0,
            paths: vec![cpath(12.5, 13.0, Some(0), Some(1))],
            buffers: vec![buf(-2.0, 2.0, 21), buf(-2.0, 2.0, 21)],
        };
        let sol = problem.solve().expect("feasible");
        assert!(sol.xi < 1e-6);
        let shift = sol.buffer_values[0] - sol.buffer_values[1];
        assert!(shift <= -3.0 + 1e-9);
    }

    #[test]
    fn buffer_without_settings_is_rejected() {
        // `steps - 1` used to underflow: a panic in debug builds, and in
        // release builds a setting of -1 for a buffer that has none. A
        // buffer with `min > max` or a NaN bound is no better formed.
        for bad in [buf(-1.0, 1.0, 0), buf(1.0, -1.0, 5), buf(f64::NAN, 1.0, 5)] {
            let problem = ConfigProblem {
                clock_period: 10.0,
                paths: vec![cpath(8.0, 9.0, Some(0), None)],
                buffers: vec![bad],
            };
            assert_eq!(problem.solve(), None, "{bad:?}");
            assert_eq!(problem.solve_exact_milp(), None, "{bad:?}");
            assert!(!problem.is_feasible_config(&[-1.0], 0.0, 1e-9), "{bad:?}");
        }
    }

    #[test]
    fn out_of_range_buffer_index_is_rejected() {
        // Source and sink indices past the buffer list used to panic on
        // indexing, in both the lattice and the MILP solve.
        for (src, snk) in [(Some(1), None), (None, Some(5)), (Some(0), Some(1))] {
            let problem = ConfigProblem {
                clock_period: 10.0,
                paths: vec![cpath(8.0, 9.0, src, snk)],
                buffers: vec![buf(-1.0, 1.0, 5)],
            };
            assert_eq!(problem.solve(), None, "{src:?} {snk:?}");
            assert_eq!(problem.solve_exact_milp(), None, "{src:?} {snk:?}");
            assert!(!problem.is_feasible_config(&[0.0], 0.0, 1e-9));
        }
    }
}
