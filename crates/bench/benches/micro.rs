//! Kernel microbenches and design-choice ablations.
//!
//! * `micro/ablation_alignment_*` — the alignment-solver ablation: exact
//!   MILP vs. weighted-median coordinate descent on identical per-batch
//!   alignment problems (the paper used Gurobi; the reproduction defaults
//!   to the heuristic and cross-checks exactness in tests).
//! * `micro/*` — scaling of the statistical kernels the flow leans on:
//!   covariance assembly, group PCA, conditional Gaussian prediction,
//!   Monte-Carlo chip and hold-bound sampling, simplex LP, lattice buffer
//!   configuration, the symmetric eigensolver, and the PCA of full-size
//!   s13207's largest correlation group.

use criterion::{criterion_group, BenchmarkId, Criterion};
use effitest_circuit::{BenchmarkSpec, GeneratedBenchmark};
use effitest_core::select::SelectConfig;
use effitest_linalg::{Matrix, Pca};
use effitest_solver::align::{AlignPath, AlignmentProblem, BufferVar};
use effitest_solver::config::{ConfigPath, ConfigProblem};
use effitest_solver::{ConstraintOp, LinearProgram};
use effitest_ssta::{TimingModel, VariationConfig};
use std::hint::black_box;

fn fixture() -> (GeneratedBenchmark, TimingModel) {
    let bench = GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s13207(), 1);
    let model = TimingModel::build(&bench, &VariationConfig::paper());
    (bench, model)
}

fn alignment_problem(n_paths: usize, n_buffers: usize) -> AlignmentProblem {
    let buffers: Vec<BufferVar> =
        (0..n_buffers).map(|_| BufferVar { min: -8.0, max: 8.0, steps: 20 }).collect();
    let paths: Vec<AlignPath> = (0..n_paths)
        .map(|k| AlignPath {
            center: 100.0 + 7.0 * (k as f64) * if k % 2 == 0 { 1.0 } else { -1.0 },
            weight: 1000.0 - k as f64,
            source_buffer: Some(k % n_buffers),
            sink_buffer: if k % 3 == 0 { None } else { Some((k + 1) % n_buffers) },
            hold_lower_bound: if k % 4 == 0 { Some(-12.0) } else { None },
        })
        .collect();
    AlignmentProblem { paths, buffers }
}

fn bench_ablation_alignment(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/ablation_alignment");
    for (np, nb) in [(4_usize, 2_usize), (8, 3), (12, 4)] {
        let problem = alignment_problem(np, nb);
        let init = vec![0.0; nb];
        group.bench_with_input(
            BenchmarkId::new("coordinate_descent", format!("{np}p{nb}b")),
            &problem,
            |b, p| {
                b.iter(|| {
                    black_box(p.solve_coordinate_descent(&init).expect("well formed").objective)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("exact_milp", format!("{np}p{nb}b")),
            &problem,
            |b, p| b.iter(|| black_box(p.solve_exact().expect("feasible").objective)),
        );
    }
    group.finish();
}

fn bench_statistics(c: &mut Criterion) {
    let (_, model) = fixture();
    let mut group = c.benchmark_group("micro/statistics");
    for n in [32_usize, 128, 256] {
        let idx: Vec<usize> = (0..n.min(model.path_count())).collect();
        group.bench_with_input(BenchmarkId::new("covariance_matrix", n), &idx, |b, idx| {
            b.iter(|| black_box(model.covariance_matrix(idx).trace().expect("square")))
        });
        let cov = model.covariance_matrix(&idx);
        group.bench_with_input(BenchmarkId::new("pca", n), &cov, |b, cov| {
            b.iter(|| black_box(Pca::from_covariance(cov, 0.95).expect("psd").components().len()))
        });
        let gauss = model.gaussian(&idx);
        let observed: Vec<usize> = (0..idx.len() / 4).collect();
        let values: Vec<f64> = observed.iter().map(|&i| gauss.mean()[i] + 1.0).collect();
        group.bench_with_input(BenchmarkId::new("conditional_prediction", n), &gauss, |b, g| {
            b.iter(|| {
                let cond = g.conditioner(&observed).expect("psd");
                black_box(cond.condition_mean(&values).expect("one value per observation")[0])
            })
        });
    }
    group.finish();

    c.bench_function("micro/sample_chip/s13207", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(model.sample_chip(seed).min_period_untuned())
        })
    });

    // The hold-bound sampling of the plan: hold forms only, and only the
    // normals they read.
    let hold_paths: Vec<usize> =
        (0..model.path_count()).filter(|&p| model.hold_form(p).is_some()).collect();
    c.bench_function("micro/sample_hold/s13207", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(model.sample_hold_bounds(seed, &hold_paths))
        })
    });
}

fn bench_solvers(c: &mut Criterion) {
    c.bench_function("micro/simplex_lp/20v40c", |b| {
        b.iter(|| {
            let n = 20;
            let mut lp = LinearProgram::new(n);
            let obj: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
            lp.set_objective(&obj);
            lp.set_maximize(true);
            for r in 0..40 {
                let terms: Vec<(usize, f64)> =
                    (0..n).map(|j| (j, ((r * 7 + j * 3) % 9) as f64 / 4.0 + 0.25)).collect();
                lp.add_constraint(&terms, ConstraintOp::Le, 50.0 + r as f64);
            }
            black_box(lp.solve().objective)
        })
    });

    let (_, model) = fixture();
    let buffers: Vec<BufferVar> = (0..model.buffered_ffs().len())
        .map(|_| {
            let s = model.buffer_spec();
            BufferVar { min: s.min(), max: s.max(), steps: s.steps() }
        })
        .collect();
    let paths: Vec<ConfigPath> = (0..model.path_count())
        .map(|p| {
            let mu = model.path_mean(p);
            let sigma = model.path_sigma(p);
            ConfigPath {
                lower: mu - sigma,
                upper: mu + sigma,
                source_buffer: Some(p % buffers.len()),
                sink_buffer: None,
                hold_lower_bound: None,
            }
        })
        .collect();
    let problem = ConfigProblem { clock_period: model.nominal_period(), paths, buffers };
    c.bench_function("micro/lattice_config/s13207", |b| {
        b.iter(|| black_box(problem.solve().map(|s| s.xi)))
    });
}

/// A symmetric, diagonally dominant (hence SPD) test matrix.
fn spd_matrix(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            n as f64
        } else {
            (((i * 31 + j * 17) + (j * 31 + i * 17)) % 13) as f64 / 13.0
        }
    })
}

fn bench_linalg(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/linalg");
    for n in [32_usize, 96] {
        group.bench_with_input(BenchmarkId::new("cholesky", n), &spd_matrix(n), |b, a| {
            b.iter(|| {
                black_box(
                    effitest_linalg::CholeskyDecomposition::new(a).expect("spd").log_determinant(),
                )
            })
        });
    }
    for n in [32_usize, 96] {
        group.bench_with_input(BenchmarkId::new("symmetric_eigen", n), &spd_matrix(n), |b, a| {
            b.iter(|| {
                black_box(effitest_linalg::SymmetricEigen::new(a).expect("sym").eigenvalues()[0])
            })
        });
    }
    // The biggest PCA Procedure 1 runs on the paper's circuits: full-size
    // s13207's largest correlation group (path 0 and the 469 paths
    // correlated with it at 0.95 or more) at the default energy, which
    // retains one of its 470 components.
    let (_, model) = fixture();
    let members: Vec<usize> =
        (0..model.path_count()).filter(|&p| p == 0 || model.correlation(0, p) >= 0.95).collect();
    let energy = SelectConfig::default().pca_energy;
    group.bench_with_input(
        BenchmarkId::new("pca_s13207_group", members.len()),
        &model.covariance_matrix(&members),
        |b, cov| {
            b.iter(|| black_box(Pca::from_covariance(cov, energy).expect("psd").components().len()))
        },
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ablation_alignment, bench_statistics, bench_solvers, bench_linalg
}

fn main() {
    benches();
    Criterion::default().configure_from_args().final_summary();
}
