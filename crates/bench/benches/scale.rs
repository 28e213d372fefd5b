//! Industrial-scale scaling bench: ns-per-path curves on the `large`
//! topology tier.
//!
//! The paper's benchmarks top out around 10k required paths (Table 1);
//! this bench drives the flow's offline side across the `large` H-tree
//! tier at 10k and 100k paths (1M with `BENCH_SCALE_1M=1`) and records
//! how the cost *per path* evolves. The quantity under test is the
//! scaling exponent fitted on the total pipeline time,
//! `log(T_b / T_a) / log(np_b / np_a)`: the sparse conflict graph and
//! criticality pre-selection exist precisely so this stays **below
//! 2.0** — the dense pairwise oracle alone is Theta(np^2) and would pin
//! the exponent at 2.
//!
//! Four stages are timed per size: circuit generation, SSTA model
//! build, flow planning (selection + conflict batching + hold bounds +
//! prediction gains), and one full per-chip run (aligned test +
//! prediction + buffer configuration). The sparse batch placement the
//! sweep runs is pinned bitwise against the dense oracles in `batch.rs`'s
//! unit tests, on a 2,000-path `large` circuit with this bench's
//! criticality cut and variation grid.
//!
//! The variation grid is coarsened to 4x4 (51 canonical coefficients
//! per path instead of the paper config's 195) so the 100k- and
//! 1M-path models stay memory-proportional to the path count;
//! criticality pre-selection is set to the fraction that separates the
//! tier's planted critical population (see `Topology::Large`).
//!
//! Results go to `BENCH_scale.json` (override the path with
//! `BENCH_SCALE_OUT`). CI runs this with a tiny sample budget, enforces
//! the sub-quadratic exponent on the recorded JSON, and uploads it as
//! an artifact.

use std::hint::black_box;

use criterion::{criterion_group, BenchmarkId, Criterion};
use effitest_circuit::{BenchmarkSpec, GeneratedBenchmark};
use effitest_core::select::SelectConfig;
use effitest_core::{EffiTestFlow, FlowConfig, FlowWorkspace};
use effitest_ssta::{TimingModel, VariationConfig};

/// Criticality cut for the large tier: the planted critical paths score
/// ~1.0 relative to the maximum, the longest non-critical ones ~0.88
/// (see the `large` generator), so 0.93 keeps exactly the critical
/// population plus nothing.
const CRITICALITY_FRACTION: f64 = 0.93;

/// The sizes to sweep. 1M paths is opt-in (`BENCH_SCALE_1M=1`): the
/// model alone holds ~51 coefficients per path and the full sweep takes
/// minutes, which is beyond a smoke budget.
fn sizes() -> Vec<usize> {
    let mut sizes = vec![10_000, 100_000];
    if std::env::var("BENCH_SCALE_1M").map(|v| v == "1").unwrap_or(false) {
        sizes.push(1_000_000);
    }
    sizes
}

/// Coarsened variation model for the scale sweep: 4x4 grid cells keep
/// the canonical forms at 51 coefficients per path so model memory and
/// correlation dot products stay path-count-proportional.
fn scale_variation() -> VariationConfig {
    VariationConfig { grid_dim: 4, ..VariationConfig::paper() }
}

fn scale_flow_config() -> FlowConfig {
    FlowConfig {
        select: SelectConfig {
            criticality_fraction: Some(CRITICALITY_FRACTION),
            ..SelectConfig::default()
        },
        ..FlowConfig::default()
    }
}

/// Stage timings for one size of the sweep.
struct SizePoint {
    paths: usize,
    survivors: usize,
    tested: usize,
    batches: usize,
    generate_ns: u64,
    model_ns: u64,
    plan_ns: u64,
    chip_ns: u64,
    /// Plan sub-stage split (select / oracle / batch / hold / predictor),
    /// from one representative threaded plan build.
    plan_stage_ns: [u64; 5],
}

impl SizePoint {
    fn total_ns(&self) -> u64 {
        self.generate_ns + self.model_ns + self.plan_ns + self.chip_ns
    }

    fn ns_per_path(&self) -> f64 {
        self.total_ns() as f64 / self.paths as f64
    }
}

fn measure_size(np: usize, samples: usize) -> SizePoint {
    let spec = BenchmarkSpec::large(np);
    let variation = scale_variation();
    let generate_ns = effitest_bench::best_of(samples, || GeneratedBenchmark::generate(&spec, 1));
    let bench = GeneratedBenchmark::generate(&spec, 1);
    let model_ns = effitest_bench::best_of(samples, || TimingModel::build(&bench, &variation));
    let model = TimingModel::build(&bench, &variation);
    let flow = EffiTestFlow::new(scale_flow_config());
    let plan_ns = effitest_bench::best_of(samples, || flow.plan(&bench, &model).expect("plan"));
    let plan = flow.plan(&bench, &model).expect("plan");
    let chip = model.sample_chip(1);
    let period = model.nominal_period();
    let mut ws = FlowWorkspace::new();
    let chip_ns = effitest_bench::best_of(samples, || {
        flow.run_chip_with(&mut ws, &plan, &chip, period).expect("chip")
    });
    let survivors: usize = plan.groups.iter().map(|g| g.members.len()).sum();
    let st = plan.stage_times;
    SizePoint {
        paths: np,
        survivors,
        tested: plan.batches.tested_paths().len(),
        batches: plan.batches.batches.len(),
        generate_ns,
        model_ns,
        plan_ns,
        chip_ns,
        plan_stage_ns: [
            st.select.as_nanos() as u64,
            st.oracle.as_nanos() as u64,
            st.batch.as_nanos() as u64,
            st.hold.as_nanos() as u64,
            st.predictor.as_nanos() as u64,
        ],
    }
}

/// Log-log slope of total time between two sweep points.
fn exponent(a: &SizePoint, b: &SizePoint) -> f64 {
    (b.total_ns() as f64 / a.total_ns() as f64).ln() / (b.paths as f64 / a.paths as f64).ln()
}

fn measure_and_record() {
    let samples = effitest_bench::sample_count(10);
    println!("\nLarge-tier scaling: total pipeline ns per path vs path count");
    println!("({samples} samples per stage; min-of-samples reported)");

    let header = format!(
        "{:>9} {:>9} {:>7} {:>13} {:>13} {:>13} {:>13} {:>11}",
        "paths", "survivors", "tested", "generate ns", "model ns", "plan ns", "chip ns", "ns/path"
    );
    println!("{header}");
    effitest_bench::rule(&header);

    let mut points: Vec<SizePoint> = Vec::new();
    for np in sizes() {
        let p = measure_size(np, samples);
        println!(
            "{:>9} {:>9} {:>7} {:>13} {:>13} {:>13} {:>13} {:>11.1}",
            p.paths,
            p.survivors,
            p.tested,
            p.generate_ns,
            p.model_ns,
            p.plan_ns,
            p.chip_ns,
            p.ns_per_path()
        );
        let [sel, ora, bat, hol, pre] = p.plan_stage_ns;
        println!(
            "          plan split: select {sel} | oracle {ora} | batch {bat} | hold {hol} | \
             predictor {pre}"
        );
        points.push(p);
    }

    let mut exp_entries = Vec::new();
    for w in points.windows(2) {
        let e = exponent(&w[0], &w[1]);
        println!("exponent {} -> {}: {e:.3}", w[0].paths, w[1].paths);
        exp_entries.push(format!(
            "    {{\"from_paths\": {}, \"to_paths\": {}, \"exponent\": {:.4}}}",
            w[0].paths, w[1].paths, e
        ));
    }
    let fitted = exponent(&points[0], &points[points.len() - 1]);
    println!(
        "fitted exponent ({} -> {}): {fitted:.3}",
        points[0].paths,
        points.last().unwrap().paths
    );

    let size_entries: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "    {{\"paths\": {}, \"survivors\": {}, \"tested\": {}, \"batches\": {}, ",
                    "\"generate_ns\": {}, \"model_ns\": {}, \"plan_ns\": {}, \"chip_ns\": {}, ",
                    "\"total_ns\": {}, \"ns_per_path\": {:.2}, \"plan_stages\": ",
                    "{{\"select_ns\": {}, \"oracle_ns\": {}, \"batch_ns\": {}, ",
                    "\"hold_ns\": {}, \"predictor_ns\": {}}}}}"
                ),
                p.paths,
                p.survivors,
                p.tested,
                p.batches,
                p.generate_ns,
                p.model_ns,
                p.plan_ns,
                p.chip_ns,
                p.total_ns(),
                p.ns_per_path(),
                p.plan_stage_ns[0],
                p.plan_stage_ns[1],
                p.plan_stage_ns[2],
                p.plan_stage_ns[3],
                p.plan_stage_ns[4]
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"scale_large_tier\",\n",
            "  \"description\": \"total pipeline time (generate + model + plan + one chip) on ",
            "the large H-tree tier; the fitted log-log exponent must stay below 2.0 — sparse ",
            "conflict graphs and criticality pre-selection are what keep it there\",\n",
            "  \"samples\": {},\n",
            "  \"grid_dim\": {},\n",
            "  \"criticality_fraction\": {},\n",
            "  \"sizes\": [\n{}\n  ],\n",
            "  \"exponents\": [\n{}\n  ],\n",
            "  \"fitted_exponent\": {:.4}\n",
            "}}\n"
        ),
        samples,
        scale_variation().grid_dim,
        CRITICALITY_FRACTION,
        size_entries.join(",\n"),
        exp_entries.join(",\n"),
        fitted
    );
    // Default to the workspace-root record (cargo runs benches from the
    // package dir, which would scatter untracked copies under crates/).
    let path = std::env::var("BENCH_SCALE_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json").into());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nrecorded -> {path}\n"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}\n"),
    }
}

fn bench_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale/plan");
    let np = 2_000;
    let bench = GeneratedBenchmark::generate(&BenchmarkSpec::large(np), 1);
    let model = TimingModel::build(&bench, &scale_variation());
    let flow = EffiTestFlow::new(scale_flow_config());
    group.bench_with_input(BenchmarkId::new("large", np), &np, |b, _| {
        b.iter(|| black_box(flow.plan(&bench, &model).expect("plan")))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_scale
}

fn main() {
    measure_and_record();
    benches();
    Criterion::default().configure_from_args().final_summary();
}
