//! Property-based tests for the optimization substrate.

use effitest_solver::align::{AlignPath, AlignmentEngine, AlignmentProblem, BufferVar};
use effitest_solver::config::{ConfigPath, ConfigProblem};
use effitest_solver::{
    weighted_l1, weighted_median, weighted_median_in_place, ConstraintOp, DifferenceSystem,
    LinearProgram, LpStatus, MilpWorkspace, MixedIntegerProgram, SimplexWorkspace,
};
use proptest::prelude::*;

/// Applies the `k`-th bound mutation of a generated sequence to variable
/// `var`: cycle through box / free / upper-only / shifted-box shapes so
/// warm solves cross standard-form structure changes, not just RHS edits.
fn apply_bound_tweak(lp: &mut LinearProgram, var: usize, kind: usize, lo: f64, width: f64) {
    match kind % 4 {
        0 => lp.set_bounds(var, lo, lo + width),
        1 => lp.set_free(var),
        2 => lp.set_bounds(var, f64::NEG_INFINITY, lo + width),
        _ => lp.set_bounds(var, 0.0, 6.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// LP solutions are feasible and at least as good as random feasible
    /// points (optimality spot check).
    #[test]
    fn lp_optimal_dominates_random_feasible_points(
        n in 2..5_usize,
        obj in proptest::collection::vec(-3.0_f64..3.0, 5),
        rows in proptest::collection::vec(
            (proptest::collection::vec(0.1_f64..2.0, 5), 1.0_f64..20.0),
            1..5,
        ),
        probes in proptest::collection::vec(
            proptest::collection::vec(0.0_f64..5.0, 5), 8,
        ),
    ) {
        let mut lp = LinearProgram::new(n);
        lp.set_objective(&obj[..n]);
        lp.set_maximize(true);
        for j in 0..n {
            lp.set_bounds(j, 0.0, 6.0);
        }
        for (coeffs, rhs) in &rows {
            let terms: Vec<(usize, f64)> =
                coeffs[..n].iter().enumerate().map(|(j, &a)| (j, a)).collect();
            lp.add_constraint(&terms, ConstraintOp::Le, *rhs);
        }
        let sol = lp.solve();
        prop_assert_eq!(sol.status, LpStatus::Optimal, "box-bounded LP is feasible");
        prop_assert!(lp.is_feasible(&sol.values, 1e-7));
        for probe in &probes {
            let candidate: Vec<f64> = probe[..n].to_vec();
            if lp.is_feasible(&candidate, 0.0) {
                prop_assert!(
                    lp.objective_at(&candidate) <= sol.objective + 1e-6,
                    "random feasible point beats the 'optimum'"
                );
            }
        }
    }

    /// MILP integer solutions are integral, feasible, and never beat the LP
    /// relaxation.
    #[test]
    fn milp_respects_relaxation_bound(
        n in 1..4_usize,
        obj in proptest::collection::vec(-4.0_f64..4.0, 4),
        rows in proptest::collection::vec(
            (proptest::collection::vec(0.2_f64..2.0, 4), 2.0_f64..15.0),
            1..4,
        ),
    ) {
        let mut lp = LinearProgram::new(n);
        lp.set_objective(&obj[..n]);
        lp.set_maximize(true);
        for j in 0..n {
            lp.set_bounds(j, 0.0, 8.0);
        }
        for (coeffs, rhs) in &rows {
            let terms: Vec<(usize, f64)> =
                coeffs[..n].iter().enumerate().map(|(j, &a)| (j, a)).collect();
            lp.add_constraint(&terms, ConstraintOp::Le, *rhs);
        }
        let relax = lp.solve();
        prop_assume!(relax.status == LpStatus::Optimal);
        let milp = MixedIntegerProgram::new(lp.clone(), (0..n).collect()).solve();
        prop_assert!(milp.is_optimal());
        prop_assert!(milp.objective <= relax.objective + 1e-6);
        for &v in &milp.values[..n] {
            prop_assert!((v - v.round()).abs() < 1e-6);
        }
        prop_assert!(lp.is_feasible(&milp.values, 1e-6));
    }

    /// Difference systems: any returned assignment satisfies every
    /// constraint; systems made of non-negative weights are always feasible.
    #[test]
    fn difference_system_assignments_are_valid(
        n in 2..8_usize,
        edges in proptest::collection::vec((0..8_usize, 0..8_usize, -10.0_f64..10.0), 1..16),
    ) {
        let mut sys = DifferenceSystem::new(n);
        let mut nonneg = DifferenceSystem::new(n);
        for &(u, v, w) in &edges {
            let (u, v) = (u % n, v % n);
            if u != v {
                sys.add(u, v, w);
                nonneg.add(u, v, w.abs());
            }
        }
        if let Some(x) = sys.solve() {
            prop_assert!(sys.is_satisfied(&x, 1e-9));
        }
        let x = nonneg.solve().expect("non-negative weights cannot form a negative cycle");
        prop_assert!(nonneg.is_satisfied(&x, 1e-9));
    }

    /// The weighted median minimizes the weighted L1 objective.
    #[test]
    fn weighted_median_minimizes(
        pts in proptest::collection::vec((-50.0_f64..50.0, 0.1_f64..5.0), 1..12),
        probe in -60.0_f64..60.0,
    ) {
        let m = weighted_median(&pts).expect("positive weights");
        prop_assert!(weighted_l1(m, &pts) <= weighted_l1(probe, &pts) + 1e-9);
    }

    /// Alignment: coordinate descent always returns a grid-feasible
    /// solution whose objective the exact MILP can match or beat, and the
    /// exact solution is never worse. Hold bounds lie in `[-3, 0)`, which
    /// the all-zero assignment satisfies, so the exact MILP stays feasible.
    #[test]
    fn alignment_descent_vs_exact(
        centers in proptest::collection::vec(0.0_f64..40.0, 2..5),
        nb in 1..3_usize,
        roles in proptest::collection::vec(0..3_usize, 5),
        holds in proptest::collection::vec(proptest::option::of(-3.0_f64..0.0), 5),
    ) {
        let buffers: Vec<BufferVar> =
            (0..nb).map(|_| BufferVar { min: -3.0, max: 3.0, steps: 7 }).collect();
        let paths: Vec<AlignPath> = centers
            .iter()
            .enumerate()
            .map(|(k, &c)| {
                let b = k % nb;
                let (src, snk) = match roles[k % roles.len()] {
                    0 => (Some(b), None),
                    1 => (None, Some(b)),
                    _ => (None, None),
                };
                AlignPath {
                    center: c,
                    weight: 1.0 + k as f64,
                    source_buffer: src,
                    sink_buffer: snk,
                    hold_lower_bound: holds[k % holds.len()],
                }
            })
            .collect();
        let problem = AlignmentProblem { paths, buffers };
        let fast = problem.solve_coordinate_descent(&vec![0.0; nb]).expect("well-formed buffers");
        prop_assert!(problem.is_feasible(&fast.buffer_values, 1e-9));
        let exact = problem.solve_exact().expect("the all-zero assignment is feasible");
        prop_assert!(exact.objective <= fast.objective + 1e-6);
        // Objectives must be consistent with their assignments.
        prop_assert!(
            (problem.objective(fast.period, &fast.buffer_values) - fast.objective).abs()
                < 1e-9
        );
    }

    /// Warm-start equivalence, LP level: a `SimplexWorkspace` reused
    /// across a randomized sequence of solves (with bounds and RHS edits
    /// between them, including structure flips to free / upper-only
    /// variables) returns **bitwise-identical** solutions to cold solves.
    /// This is what makes workspace reuse safe in branch-and-bound and in
    /// per-thread population workers: no state may leak between solves.
    #[test]
    fn warm_simplex_workspace_matches_cold_bitwise(
        n in 2..5_usize,
        obj in proptest::collection::vec(-3.0_f64..3.0, 5),
        rows in proptest::collection::vec(
            (proptest::collection::vec(0.1_f64..2.0, 5), -5.0_f64..20.0),
            1..5,
        ),
        tweaks in proptest::collection::vec(
            (0..5_usize, 0..4_usize, 0.0_f64..3.0, 0.0_f64..4.0),
            1..8,
        ),
    ) {
        let mut lp = LinearProgram::new(n);
        lp.set_objective(&obj[..n]);
        lp.set_maximize(true);
        for j in 0..n {
            lp.set_bounds(j, 0.0, 6.0);
        }
        for (coeffs, rhs) in &rows {
            let terms: Vec<(usize, f64)> =
                coeffs[..n].iter().enumerate().map(|(j, &a)| (j, a)).collect();
            lp.add_constraint(&terms, ConstraintOp::Le, *rhs);
        }
        let mut warm = SimplexWorkspace::new();
        for &(var, kind, lo, width) in &tweaks {
            apply_bound_tweak(&mut lp, var % n, kind, lo, width);
            let cold = lp.solve();
            let warm_sol = warm.solve(&lp);
            prop_assert_eq!(warm_sol.status, cold.status);
            prop_assert_eq!(warm_sol.objective.to_bits(), cold.objective.to_bits());
            let warm_bits: Vec<u64> = warm_sol.values.iter().map(|v| v.to_bits()).collect();
            let cold_bits: Vec<u64> = cold.values.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(warm_bits, cold_bits);
        }
    }

    /// Warm-start equivalence, MILP level: delta-branching through one
    /// shared `MilpWorkspace` (one working LP mutated by bound push/pop
    /// instead of a clone per node) returns bitwise-identical solutions —
    /// values, objective, status, *and* node count — to cold solves, across
    /// a randomized solve sequence.
    #[test]
    fn warm_milp_workspace_matches_cold_bitwise(
        n in 1..4_usize,
        obj in proptest::collection::vec(-4.0_f64..4.0, 4),
        rows in proptest::collection::vec(
            (proptest::collection::vec(0.2_f64..2.0, 4), 2.0_f64..15.0),
            1..4,
        ),
        bound_edits in proptest::collection::vec(
            (0..4_usize, 0.0_f64..3.0, 0.0_f64..5.0),
            1..6,
        ),
    ) {
        let mut lp = LinearProgram::new(n);
        lp.set_objective(&obj[..n]);
        lp.set_maximize(true);
        for j in 0..n {
            lp.set_bounds(j, 0.0, 8.0);
        }
        for (coeffs, rhs) in &rows {
            let terms: Vec<(usize, f64)> =
                coeffs[..n].iter().enumerate().map(|(j, &a)| (j, a)).collect();
            lp.add_constraint(&terms, ConstraintOp::Le, *rhs);
        }
        let mut warm = MilpWorkspace::new();
        for &(var, lo, width) in &bound_edits {
            lp.set_bounds(var % n, lo.floor(), lo.floor() + width.ceil().max(1.0));
            let milp = MixedIntegerProgram::new(lp.clone(), (0..n).collect());
            let cold = milp.solve();
            let warm_sol = milp.solve_with(&mut warm);
            prop_assert_eq!(warm_sol.status, cold.status);
            prop_assert_eq!(warm_sol.nodes, cold.nodes);
            prop_assert_eq!(warm_sol.objective.to_bits(), cold.objective.to_bits());
            let warm_bits: Vec<u64> = warm_sol.values.iter().map(|v| v.to_bits()).collect();
            let cold_bits: Vec<u64> = cold.values.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(warm_bits, cold_bits);
        }
    }

    /// Warm-start behavior of the `AlignmentEngine` across a batch's
    /// iterations (centers drifting between solves, as in frequency
    /// stepping):
    ///
    /// * the first solve is bitwise-identical to the cold multi-start API;
    /// * later solves descend from the warm seed alone — they must stay
    ///   grid-feasible, report an objective consistent with their values,
    ///   never be worse than the warm seed they started from, and replay
    ///   bitwise-identically on a second engine fed the same sequence (no
    ///   hidden state beyond the documented warm vector).
    ///
    /// Hold bounds lie in `[-3, 0)`, which the all-zero assignment
    /// satisfies.
    #[test]
    fn warm_alignment_engine_tracks_cold_descent(
        centers in proptest::collection::vec(0.0_f64..40.0, 2..5),
        drifts in proptest::collection::vec(
            proptest::collection::vec(-3.0_f64..3.0, 5),
            1..5,
        ),
        nb in 1..3_usize,
        roles in proptest::collection::vec(0..3_usize, 5),
        holds in proptest::collection::vec(proptest::option::of(-3.0_f64..0.0), 5),
    ) {
        let buffers: Vec<BufferVar> =
            (0..nb).map(|_| BufferVar { min: -3.0, max: 3.0, steps: 7 }).collect();
        let base_paths: Vec<AlignPath> = centers
            .iter()
            .enumerate()
            .map(|(k, &c)| {
                let b = k % nb;
                let (src, snk) = match roles[k % roles.len()] {
                    0 => (Some(b), None),
                    1 => (None, Some(b)),
                    _ => (None, None),
                };
                AlignPath {
                    center: c,
                    weight: 1.0 + k as f64,
                    source_buffer: src,
                    sink_buffer: snk,
                    hold_lower_bound: holds[k % holds.len()],
                }
            })
            .collect();
        let iteration_paths: Vec<Vec<AlignPath>> = drifts
            .iter()
            .map(|drift| {
                base_paths
                    .iter()
                    .enumerate()
                    .map(|(k, p)| AlignPath { center: p.center + drift[k % drift.len()], ..*p })
                    .collect()
            })
            .collect();

        let mut engine = AlignmentEngine::new();
        let mut replay = AlignmentEngine::new();
        engine.begin_batch(&buffers).expect("well-formed buffers");
        replay.begin_batch(&buffers).expect("well-formed buffers");
        for (iter, paths) in iteration_paths.iter().enumerate() {
            let warm_before = engine.warm_values().to_vec();
            let e = engine.paths_mut();
            e.clear();
            e.extend_from_slice(paths);
            let engine_sol = engine.solve().clone();
            let problem = AlignmentProblem { paths: paths.clone(), buffers: buffers.clone() };
            prop_assert!(problem.is_feasible(&engine_sol.buffer_values, 1e-9));
            // Objective consistency.
            prop_assert!(
                (problem.objective(engine_sol.period, &engine_sol.buffer_values)
                    - engine_sol.objective)
                    .abs()
                    < 1e-9
            );
            if iter == 0 {
                // First solve: bitwise-identical to the cold multi-start.
                let cold = problem.solve_coordinate_descent(&warm_before).expect("well-formed buffers");
                prop_assert_eq!(engine_sol.period.to_bits(), cold.period.to_bits());
                prop_assert_eq!(engine_sol.objective.to_bits(), cold.objective.to_bits());
                let e_bits: Vec<u64> =
                    engine_sol.buffer_values.iter().map(|v| v.to_bits()).collect();
                let c_bits: Vec<u64> = cold.buffer_values.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(e_bits, c_bits);
            } else {
                // Warm solves never lose to the seed they started from.
                let snapped: Vec<f64> = buffers
                    .iter()
                    .zip(&warm_before)
                    .map(|(b, &w)| b.value(b.nearest(w)))
                    .collect();
                let seed_period = weighted_median(
                    &problem
                        .paths
                        .iter()
                        .map(|p| (p.center + p.shift(&snapped), p.weight))
                        .collect::<Vec<_>>(),
                )
                .unwrap_or(0.0);
                let seed_obj = problem.objective(seed_period, &snapped);
                prop_assert!(engine_sol.objective <= seed_obj + 1e-9);
            }
            // Replay on a second engine: no hidden state.
            let r = replay.paths_mut();
            r.clear();
            r.extend_from_slice(paths);
            let replay_sol = replay.solve();
            prop_assert_eq!(replay_sol.objective.to_bits(), engine_sol.objective.to_bits());
            let r_bits: Vec<u64> = replay_sol.buffer_values.iter().map(|v| v.to_bits()).collect();
            let e_bits: Vec<u64> =
                engine_sol.buffer_values.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(r_bits, e_bits);
        }
    }

    /// The in-place weighted median agrees with the allocating one (the
    /// value is order-independent even though the unstable sort is not).
    #[test]
    fn weighted_median_in_place_matches_allocating(
        pts in proptest::collection::vec((-50.0_f64..50.0, 0.1_f64..5.0), 1..12),
    ) {
        let mut scratch = pts.clone();
        let a = weighted_median_in_place(&mut scratch).expect("positive weights");
        let b = weighted_median(&pts).expect("positive weights");
        prop_assert_eq!(a.to_bits(), b.to_bits());
    }

    /// Configuration: the lattice solver's xi matches the MILP oracle and
    /// its assignment is feasible at that slack.
    #[test]
    fn config_lattice_matches_milp(
        lowers in proptest::collection::vec(6.0_f64..10.5, 1..4),
        widths in proptest::collection::vec(0.0_f64..2.0, 4),
        nb in 1..3_usize,
        roles in proptest::collection::vec(0..3_usize, 4),
    ) {
        let buffers: Vec<BufferVar> =
            (0..nb).map(|_| BufferVar { min: -1.0, max: 1.0, steps: 9 }).collect();
        let paths: Vec<ConfigPath> = lowers
            .iter()
            .enumerate()
            .map(|(k, &lo)| {
                let b = k % nb;
                let (src, snk) = match roles[k % roles.len()] {
                    0 => (Some(b), None),
                    1 => (None, Some(b)),
                    _ => (None, None),
                };
                ConfigPath {
                    lower: lo,
                    upper: lo + widths[k % widths.len()],
                    source_buffer: src,
                    sink_buffer: snk,
                    hold_lower_bound: None,
                }
            })
            .collect();
        let problem = ConfigProblem { clock_period: 10.0, paths, buffers };
        let lattice = problem.solve();
        let milp = problem.solve_exact_milp();
        match (lattice, milp) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                prop_assert!((a.xi - b.xi).abs() < 1e-5, "xi {} vs {}", a.xi, b.xi);
                prop_assert!(problem.is_feasible_config(&a.buffer_values, a.xi + 1e-9, 1e-6));
            }
            (a, b) => prop_assert!(false, "feasibility disagreement: {a:?} vs {b:?}"),
        }
    }
}
