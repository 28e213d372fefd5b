//! Plan-construction bench: one worker thread vs `EFFITEST_THREADS`.
//!
//! Every plan stage runs on the deterministic parallel-execution utility
//! (`effitest_core::parallel`): per-path criticality scoring, the conflict
//! oracle's counting-sort gather and CSR assembly, predicted sigmas,
//! hold-bound sampling, and the per-group observed-block factorization
//! behind the prediction engine. At one thread each stage runs inline, so
//! `EffiTestFlow::plan_threaded(.., 1)` is the serial plan. This bench
//! records that serial plan against the same code at `EFFITEST_THREADS`
//! workers on the large H-tree tier at 10k and 100k paths: the fastest of
//! N builds per side, each stage's fastest time over the same N builds,
//! and the host's `nproc`. It also records the one-thread plan of
//! full-size s13207, built cold (no plan cache) the way a test floor meets
//! a new circuit: its 470-path correlation group makes Procedure 1's PCA
//! the dominant stage there, which the large tier's small groups never
//! show.
//!
//! A quality guard runs **before** anything is timed: on a reduced
//! 2,000-path circuit the plan fingerprint must equal a golden constant
//! at threads 1, 4 and 8. Speed that changes the answer is a bug, not a
//! win.
//!
//! Results go to `BENCH_plan.json` (override the path with
//! `BENCH_PLAN_OUT`). CI runs this with a tiny sample budget and uploads
//! the JSON as an artifact.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, BenchmarkId, Criterion};
use effitest_circuit::{BenchmarkSpec, GeneratedBenchmark};
use effitest_core::cache::plan_fingerprint;
use effitest_core::select::SelectConfig;
use effitest_core::{EffiTestFlow, FlowConfig, PlanStageTimes};
use effitest_ssta::{TimingModel, VariationConfig};

/// Criticality cut for the large tier (see `benches/scale.rs`).
const CRITICALITY_FRACTION: f64 = 0.93;

/// `plan_fingerprint` of the guard circuit: `large(2_000)`, seed 7, built
/// with [`plan_variation`] and [`plan_flow_config`]. Its correlation groups
/// are exchangeable, so each pick rests on `Pca::dominant_variable`'s
/// lowest-index tie rule rather than on eigensolver round-off.
const GUARD_FINGERPRINT: u64 = 0xacba_b497_4a43_612a;

/// Coarsened variation model, matching the scale sweep: 4x4 grid cells
/// keep model memory path-count-proportional at 100k paths.
fn plan_variation() -> VariationConfig {
    VariationConfig { grid_dim: 4, ..VariationConfig::paper() }
}

fn plan_flow_config() -> FlowConfig {
    FlowConfig {
        select: SelectConfig {
            criticality_fraction: Some(CRITICALITY_FRACTION),
            ..SelectConfig::default()
        },
        ..FlowConfig::default()
    }
}

/// Quality guard: the reduced large-tier plan must match its golden
/// fingerprint at every thread count.
fn assert_plan_matches_golden() {
    let bench = GeneratedBenchmark::generate(&BenchmarkSpec::large(2_000), 7);
    let model = TimingModel::build(&bench, &plan_variation());
    let flow = EffiTestFlow::new(plan_flow_config());
    for threads in [1, 4, 8] {
        let plan = flow.plan_threaded(&bench, &model, threads).expect("plan");
        assert_eq!(
            plan_fingerprint(&plan),
            GUARD_FINGERPRINT,
            "plan diverged from its golden fingerprint at {threads} threads"
        );
    }
}

fn stage_json(st: &PlanStageTimes) -> String {
    format!(
        concat!(
            "{{\"select_ns\": {}, \"oracle_ns\": {}, \"batch_ns\": {}, ",
            "\"hold_ns\": {}, \"predictor_ns\": {}}}"
        ),
        st.select.as_nanos(),
        st.oracle.as_nanos(),
        st.batch.as_nanos(),
        st.hold.as_nanos(),
        st.predictor.as_nanos()
    )
}

struct SizePoint {
    paths: usize,
    tested: usize,
    one_thread_ns: u64,
    threaded_ns: u64,
    one_thread_stages: PlanStageTimes,
    threaded_stages: PlanStageTimes,
}

impl SizePoint {
    fn speedup(&self) -> f64 {
        self.one_thread_ns as f64 / self.threaded_ns as f64
    }
}

/// The fastest of `samples` plan builds at `threads` workers, after one
/// warm-up build, and each stage's fastest time over the same builds.
/// Each stage is timed on its own minimum so that load on the host during
/// another stage of the same build cannot move it; the stage minima may
/// come from different builds and sum to less than the fastest total.
fn fastest_plan(
    flow: &EffiTestFlow,
    bench: &GeneratedBenchmark,
    model: &TimingModel,
    threads: usize,
    samples: usize,
) -> (u64, PlanStageTimes) {
    black_box(flow.plan_threaded(bench, model, threads).expect("plan"));
    let mut total = u64::MAX;
    let mut stages = PlanStageTimes {
        select: Duration::MAX,
        oracle: Duration::MAX,
        batch: Duration::MAX,
        hold: Duration::MAX,
        predictor: Duration::MAX,
    };
    for _ in 0..samples {
        let plan = flow.plan_threaded(bench, model, threads).expect("plan");
        let st = plan.stage_times;
        total = total.min(plan.prep_time.as_nanos() as u64);
        stages.select = stages.select.min(st.select);
        stages.oracle = stages.oracle.min(st.oracle);
        stages.batch = stages.batch.min(st.batch);
        stages.hold = stages.hold.min(st.hold);
        stages.predictor = stages.predictor.min(st.predictor);
    }
    (total, stages)
}

fn measure_size(np: usize, samples: usize, threads: usize) -> SizePoint {
    let bench = GeneratedBenchmark::generate(&BenchmarkSpec::large(np), 1);
    let model = TimingModel::build(&bench, &plan_variation());
    let flow = EffiTestFlow::new(plan_flow_config());
    let tested = flow.plan_threaded(&bench, &model, 1).expect("plan").tested_path_count();
    let (one_thread_ns, one_thread_stages) = fastest_plan(&flow, &bench, &model, 1, samples);
    let (threaded_ns, threaded_stages) = fastest_plan(&flow, &bench, &model, threads, samples);
    SizePoint { paths: np, tested, one_thread_ns, threaded_ns, one_thread_stages, threaded_stages }
}

/// The one-thread plan of full-size s13207 (seed 1, paper variation,
/// default flow config), fastest of `samples` cold builds.
struct PaperPoint {
    paths: usize,
    largest_group: usize,
    tested: usize,
    one_thread_ns: u64,
    one_thread_stages: PlanStageTimes,
}

fn measure_paper(samples: usize) -> PaperPoint {
    let bench = GeneratedBenchmark::generate(&BenchmarkSpec::iscas89_s13207(), 1);
    let model = TimingModel::build(&bench, &VariationConfig::paper());
    let flow = EffiTestFlow::new(FlowConfig::default());
    let plan = flow.plan_threaded(&bench, &model, 1).expect("plan");
    let largest_group = plan.groups.iter().map(|g| g.members.len()).max().unwrap_or(0);
    let (one_thread_ns, one_thread_stages) = fastest_plan(&flow, &bench, &model, 1, samples);
    PaperPoint {
        paths: model.path_count(),
        largest_group,
        tested: plan.tested_path_count(),
        one_thread_ns,
        one_thread_stages,
    }
}

fn measure_and_record() {
    let samples = effitest_bench::sample_count(5);
    let threads = effitest_bench::bench_threads();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!("\nPlan construction: 1 thread vs {threads} threads (nproc {nproc})");
    println!("({samples} samples per side; min-of-samples reported)");
    assert_plan_matches_golden();
    println!("quality guard passed: plan fingerprint matches its golden value at 1/4/8 threads");

    let header = format!(
        "{:>9} {:>7} {:>15} {:>15} {:>9}",
        "paths", "tested", "1-thread ns", "threaded ns", "speedup"
    );
    println!("{header}");
    effitest_bench::rule(&header);

    let mut points = Vec::new();
    for np in [10_000, 100_000] {
        let p = measure_size(np, samples, threads);
        println!(
            "{:>9} {:>7} {:>15} {:>15} {:>8.2}x",
            p.paths,
            p.tested,
            p.one_thread_ns,
            p.threaded_ns,
            p.speedup()
        );
        points.push(p);
    }

    let paper = measure_paper(samples);
    println!(
        "\ns13207 ({} paths, largest group {}, {} tested): {} ns at 1 thread, select {} ns",
        paper.paths,
        paper.largest_group,
        paper.tested,
        paper.one_thread_ns,
        paper.one_thread_stages.select.as_nanos()
    );

    let size_entries: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "    {{\"paths\": {}, \"tested\": {}, \"one_thread_ns\": {}, ",
                    "\"threaded_ns\": {}, \"speedup\": {:.3}, ",
                    "\"one_thread_stages\": {}, \"threaded_stages\": {}}}"
                ),
                p.paths,
                p.tested,
                p.one_thread_ns,
                p.threaded_ns,
                p.speedup(),
                stage_json(&p.one_thread_stages),
                stage_json(&p.threaded_stages)
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"plan_build\",\n",
            "  \"description\": \"chip-independent plan construction on the large H-tree tier: ",
            "plan_threaded at 1 thread (every stage inline) vs at EFFITEST_THREADS workers; ",
            "a golden-fingerprint quality guard at threads 1/4/8 runs before any timing; ",
            "paper_s13207 is the cold one-thread plan of the full-size paper circuit; ",
            "each *_ns total is the fastest build and each stage the fastest over the same ",
            "builds\",\n",
            "  \"samples\": {},\n",
            "  \"threads\": {},\n",
            "  \"nproc\": {},\n",
            "  \"sizes\": [\n{}\n  ],\n",
            "  \"paper_s13207\": {{\"paths\": {}, \"largest_group\": {}, \"tested\": {}, ",
            "\"one_thread_ns\": {}, \"one_thread_stages\": {}}}\n",
            "}}\n"
        ),
        samples,
        threads,
        nproc,
        size_entries.join(",\n"),
        paper.paths,
        paper.largest_group,
        paper.tested,
        paper.one_thread_ns,
        stage_json(&paper.one_thread_stages)
    );
    // Default to the workspace-root record (cargo runs benches from the
    // package dir, which would scatter untracked copies under crates/).
    let path = std::env::var("BENCH_PLAN_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_plan.json").into());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nrecorded -> {path}\n"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}\n"),
    }
}

fn bench_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan/build");
    let np = 2_000;
    let bench = GeneratedBenchmark::generate(&BenchmarkSpec::large(np), 1);
    let model = TimingModel::build(&bench, &plan_variation());
    let flow = EffiTestFlow::new(plan_flow_config());
    let threads = effitest_bench::bench_threads();
    group.bench_with_input(BenchmarkId::new("one_thread", np), &np, |b, _| {
        b.iter(|| black_box(flow.plan_threaded(&bench, &model, 1).expect("plan")))
    });
    group.bench_with_input(BenchmarkId::new("threaded", np), &np, |b, _| {
        b.iter(|| black_box(flow.plan_threaded(&bench, &model, threads).expect("plan")))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_plan
}

fn main() {
    measure_and_record();
    benches();
    Criterion::default().configure_from_args().final_summary();
}
