//! Per-iteration alignment-solve bench: cold rebuild vs. warm engine.
//!
//! The aligned test (paper §3.3, Procedure 2) solves one alignment problem
//! per frequency-stepping iteration. Before the solver-workspace refactor
//! the inner loop rebuilt an `AlignmentProblem` (cloning the buffer list),
//! re-allocated every descent scratch vector, and threaded the warm start
//! by hand; the [`AlignmentEngine`] keeps all of that alive across
//! iterations and mutates the path list in place, descending from the
//! warm seed alone once the batch is underway (the first solve of a batch
//! is bitwise-identical to the cold path; see the solver crate's property
//! suite). A quality guard below keeps the two paths' summed objectives
//! within a fraction of a percent of each other, so the speedup is not
//! bought with worse alignments.
//!
//! The comparison replays a realistic iteration *trace* — range centers
//! drifting toward convergence the way bisection narrows them — through
//! both implementations and writes the measured per-solve times and the
//! speedup to `BENCH_alignment.json` (override the path with the
//! `BENCH_ALIGNMENT_OUT` environment variable). CI runs this with a tiny
//! sample budget and uploads the JSON to seed the perf trajectory.

use std::hint::black_box;

use criterion::{criterion_group, BenchmarkId, Criterion};
use effitest_solver::align::{
    sorted_center_weights, AlignPath, AlignmentEngine, AlignmentProblem, BufferVar,
};

/// One bench scenario: `np` paths over `nb` buffers, `iters` stepping
/// iterations per trace replay.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    np: usize,
    nb: usize,
    iters: usize,
}

const SCENARIOS: [Scenario; 3] = [
    Scenario { np: 4, nb: 2, iters: 48 },
    Scenario { np: 8, nb: 3, iters: 48 },
    Scenario { np: 12, nb: 4, iters: 48 },
];

/// Builds the iteration trace: per iteration, the active paths with their
/// sorted-center weights, centers converging toward their cluster the way
/// frequency stepping narrows delay ranges.
fn make_trace(s: Scenario) -> (Vec<BufferVar>, Vec<Vec<AlignPath>>) {
    let buffers: Vec<BufferVar> =
        (0..s.nb).map(|_| BufferVar { min: -8.0, max: 8.0, steps: 20 }).collect();
    let mut centers: Vec<f64> =
        (0..s.np).map(|k| 100.0 + 7.0 * (k as f64) * if k % 2 == 0 { 1.0 } else { -1.0 }).collect();
    let targets: Vec<f64> = centers.iter().map(|c| 100.0 + (c - 100.0) * 0.1).collect();
    let mut trace = Vec::with_capacity(s.iters);
    for _ in 0..s.iters {
        let weights = sorted_center_weights(&centers, 1000.0, 1.0);
        trace.push(
            (0..s.np)
                .map(|k| AlignPath {
                    center: centers[k],
                    weight: weights[k],
                    source_buffer: Some(k % s.nb),
                    sink_buffer: if k % 3 == 0 { None } else { Some((k + 1) % s.nb) },
                    hold_lower_bound: if k % 4 == 0 { Some(-12.0) } else { None },
                })
                .collect(),
        );
        // Halve each center's distance to its converged value: the probe
        // trace of a bisection.
        for (c, t) in centers.iter_mut().zip(&targets) {
            *c = 0.5 * (*c + *t);
        }
    }
    (buffers, trace)
}

/// The pre-refactor inner loop: rebuild the problem (cloning the buffers),
/// cold-solve, thread the warm start by hand. Returns the objective sum as
/// an optimization barrier.
fn run_cold(buffers: &[BufferVar], trace: &[Vec<AlignPath>]) -> f64 {
    let mut warm = vec![0.0; buffers.len()];
    let mut acc = 0.0;
    for paths in trace {
        let problem = AlignmentProblem { paths: paths.clone(), buffers: buffers.to_vec() };
        let sol = problem.solve_coordinate_descent(&warm);
        warm.clone_from(&sol.buffer_values);
        acc += sol.objective;
    }
    acc
}

/// The workspace inner loop: one engine per batch, paths mutated in place,
/// warm start carried internally.
fn run_warm(engine: &mut AlignmentEngine, buffers: &[BufferVar], trace: &[Vec<AlignPath>]) -> f64 {
    engine.begin_batch(buffers);
    let mut acc = 0.0;
    for paths in trace {
        let p = engine.paths_mut();
        p.clear();
        p.extend_from_slice(paths);
        acc += engine.solve().objective;
    }
    acc
}

fn measure_and_record() {
    let samples = effitest_bench::sample_count(20);
    println!("\nPer-iteration alignment solve: cold rebuild vs warm engine");
    println!("({samples} samples per measurement; min-of-samples reported)");
    let header = format!(
        "{:>10} {:>14} {:>14} {:>9}",
        "paths/buf", "cold ns/solve", "warm ns/solve", "speedup"
    );
    println!("{header}");
    effitest_bench::rule(&header);

    let mut entries = Vec::new();
    let mut engine = AlignmentEngine::new();
    for s in SCENARIOS {
        let (buffers, trace) = make_trace(s);
        // Quality guard: the warm engine skips the multi-start after the
        // first iteration, which may cost a sliver of objective on some
        // iterations — but never more than a percent over the trace.
        let cold_obj = run_cold(&buffers, &trace);
        let warm_obj = run_warm(&mut engine, &buffers, &trace);
        assert!(
            warm_obj <= cold_obj * 1.01 + 1e-9,
            "warm engine lost too much alignment quality: {warm_obj} vs cold {cold_obj}"
        );
        let cold_ns =
            effitest_bench::best_of(samples, || run_cold(&buffers, &trace)) / s.iters as u64;
        let warm_ns = effitest_bench::best_of(samples, || run_warm(&mut engine, &buffers, &trace))
            / s.iters as u64;
        let speedup = cold_ns as f64 / warm_ns.max(1) as f64;
        println!("{:>7}p{:>2}b {cold_ns:>14} {warm_ns:>14} {speedup:>8.2}x", s.np, s.nb);
        entries.push(format!(
            concat!(
                "    {{\"paths\": {}, \"buffers\": {}, \"iterations\": {}, ",
                "\"cold_ns_per_solve\": {}, \"warm_ns_per_solve\": {}, \"speedup\": {:.3}}}"
            ),
            s.np, s.nb, s.iters, cold_ns, warm_ns, speedup
        ));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"alignment_per_iteration_solve\",\n",
            "  \"description\": \"cold AlignmentProblem rebuild + multi-start solve vs ",
            "warm-started AlignmentEngine (objective within 1% by the quality guard)\",\n",
            "  \"samples\": {},\n",
            "  \"scenarios\": [\n{}\n  ]\n",
            "}}\n"
        ),
        samples,
        entries.join(",\n")
    );
    // Default to the workspace-root record (cargo runs benches from the
    // package dir, which would scatter untracked copies under crates/).
    let path = std::env::var("BENCH_ALIGNMENT_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_alignment.json").into()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nrecorded -> {path}\n"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}\n"),
    }
}

fn bench_alignment(c: &mut Criterion) {
    let mut group = c.benchmark_group("alignment/per_iteration");
    let mut engine = AlignmentEngine::new();
    for s in SCENARIOS {
        let (buffers, trace) = make_trace(s);
        group.bench_with_input(
            BenchmarkId::new("cold_rebuild", format!("{}p{}b", s.np, s.nb)),
            &(&buffers, &trace),
            |b, (buffers, trace)| b.iter(|| black_box(run_cold(buffers, trace))),
        );
        group.bench_with_input(
            BenchmarkId::new("warm_engine", format!("{}p{}b", s.np, s.nb)),
            &(&buffers, &trace),
            |b, (buffers, trace)| b.iter(|| black_box(run_warm(&mut engine, buffers, trace))),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_alignment
}

fn main() {
    measure_and_record();
    benches();
    Criterion::default().configure_from_args().final_summary();
}
