//! Whole-population prediction bench: the per-chip `Predictor` loop vs
//! the batched chip-matrix engine.
//!
//! The paper's evaluation (Table 2) pushes thousands of chips through one
//! `FlowPlan`. PR 5 made the per-chip step one factored-gain matvec per
//! group; this bench times the next level up — the population. The
//! batched path gathers every chip's observed uppers into a path-major
//! [`ChipMatrix`] and replaces the `n_chips` matvecs per group with one
//! cache-blocked GEMM ([`Predictor::predict_population`]), so each
//! group's gain matrix is streamed through the cache once per 256-chip
//! column block instead of once per chip. A quality guard asserts the two
//! paths agree **bit for bit** on every chip before anything is timed.
//!
//! The gather itself is charged to the batched path (it starts from the
//! same per-chip `HashMap`s the per-chip loop consumes), so the reported
//! speedup is end to end. A second measurement covers the tester-side
//! SoA batching ([`ChipBank`] vs one `VirtualTester` per chip).
//!
//! Results go to `BENCH_population.json` (override the path with
//! `BENCH_POPULATION_OUT`). The floor scenario (first in `SCENARIOS`)
//! runs the batched engine **single-threaded**, so its speedup is pure
//! batching — layout, blocking, and allocation-free reuse — and holds on
//! any machine regardless of core count. CI runs this bench with a tiny
//! sample budget, enforces a conservative speedup floor on that scenario
//! (margin below the recorded value because shared CI runners are noisy),
//! and uploads the JSON as an artifact.

use std::collections::HashMap;
use std::hint::black_box;

use criterion::{criterion_group, BenchmarkId, Criterion};
use effitest_circuit::{BenchmarkSpec, GeneratedBenchmark};
use effitest_core::predict::{
    BatchPredictedRanges, ChipMatrix, PredictWorkspace, PredictedRanges, Predictor,
};
use effitest_core::select::{all_selected, select_paths, SelectConfig};
use effitest_ssta::{ChipInstance, TimingModel, VariationConfig};
use effitest_tester::{ChipBank, DelayBounds, VirtualTester};

/// Which of the paper's ISCAS'89 circuit statistics a scenario scales
/// down from.
#[derive(Debug, Clone, Copy)]
enum Circuit {
    S9234,
    S13207,
    S15850,
    S38584,
}

impl Circuit {
    fn spec(self) -> BenchmarkSpec {
        match self {
            Circuit::S9234 => BenchmarkSpec::iscas89_s9234(),
            Circuit::S13207 => BenchmarkSpec::iscas89_s13207(),
            Circuit::S15850 => BenchmarkSpec::iscas89_s15850(),
            Circuit::S38584 => BenchmarkSpec::iscas89_s38584(),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Circuit::S9234 => "s9234",
            Circuit::S13207 => "s13207",
            Circuit::S15850 => "s15850",
            Circuit::S38584 => "s38584",
        }
    }
}

/// One bench scenario: a paper circuit's statistics at `scale`-fold
/// reduction, a `chips`-strong population, `threads` batched workers.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    circuit: Circuit,
    scale: usize,
    chips: usize,
    threads: usize,
}

/// The first scenario is the CI floor cell (>=1000 chips, single
/// thread): every `threads: 1` scenario isolates the pure batching win —
/// no parallelism credit — so the recorded speedups hold on any machine,
/// including single-core CI runners where extra workers cannot help. The
/// `threads: 4` scenario exercises the contiguous column-block thread
/// partition end to end; its speedup is informational because it depends
/// on how many cores the recording machine actually has.
const SCENARIOS: [Scenario; 6] = [
    Scenario { circuit: Circuit::S38584, scale: 6, chips: 1024, threads: 1 },
    Scenario { circuit: Circuit::S38584, scale: 6, chips: 4096, threads: 1 },
    Scenario { circuit: Circuit::S9234, scale: 2, chips: 1024, threads: 1 },
    Scenario { circuit: Circuit::S13207, scale: 4, chips: 1024, threads: 1 },
    Scenario { circuit: Circuit::S15850, scale: 4, chips: 1024, threads: 1 },
    Scenario { circuit: Circuit::S13207, scale: 4, chips: 1024, threads: 4 },
];

/// One prepared scenario: the prediction engine, the sampled population,
/// and its pinned per-chip measured bounds (tight windows around true
/// delays, the regime the aligned test converges to).
struct Fixture {
    model: TimingModel,
    groups: usize,
    predictor: Predictor,
    chips: Vec<ChipInstance>,
    tested: Vec<HashMap<usize, DelayBounds>>,
    selected: usize,
}

fn make_fixture(s: Scenario) -> Fixture {
    let spec = s.circuit.spec().scaled_down(s.scale);
    let bench = GeneratedBenchmark::generate(&spec, 1);
    let model = TimingModel::build(&bench, &VariationConfig::paper());
    let groups = select_paths(&model, &SelectConfig::default(), 1);
    let selected = all_selected(&groups);
    let predictor = Predictor::new(&model, &groups, &selected, 3.0, 1);
    let chips: Vec<ChipInstance> =
        (0..s.chips).map(|k| model.sample_chip(800 + k as u64)).collect();
    let tested: Vec<HashMap<usize, DelayBounds>> = chips
        .iter()
        .map(|chip| {
            selected
                .iter()
                .map(|&p| {
                    let d = chip.setup_delay(p);
                    (p, DelayBounds::new(d - 0.25, d + 0.25))
                })
                .collect()
        })
        .collect();
    Fixture { model, groups: groups.len(), predictor, chips, tested, selected: selected.len() }
}

/// The per-chip reference: one `predict_with` per chip, the warm
/// workspace reused across the population, every chip's ranges kept —
/// `run_flow_population` materializes a `ChipOutcome` per chip, so the
/// whole population's ranges are the artifact both sides must deliver.
/// The O(1) consumption per chip (first lower + last upper) is the same
/// barrier the batched path uses, so neither side is charged for
/// re-reading its full output.
fn run_per_chip(f: &Fixture, ws: &mut PredictWorkspace, kept: &mut Vec<PredictedRanges>) -> f64 {
    kept.clear();
    for tested in &f.tested {
        kept.push(f.predictor.predict_with(ws, tested));
    }
    let mut acc = 0.0;
    for r in kept.iter() {
        acc += r.ranges[0].lower + r.ranges.last().expect("non-empty circuit").upper;
    }
    acc
}

/// The batched path, end to end: gather the population's observed uppers
/// into the SoA chip matrix, then one blocked GEMM per group. The output
/// buffers are reused across samples (`predict_population_into`), the
/// steady-state shape of a caller pushing populations through one plan —
/// the mirror of the per-chip side's warm `PredictWorkspace`.
fn run_batched(
    f: &Fixture,
    threads: usize,
    chips: &mut ChipMatrix,
    out: &mut BatchPredictedRanges,
) -> f64 {
    ChipMatrix::gather_into(&f.predictor, &f.tested, chips);
    f.predictor.predict_population_into(chips, threads, out);
    let mut acc = 0.0;
    let np = out.path_count();
    for c in 0..out.n_chips() {
        acc += out.chip_lower(c)[0] + out.chip_upper(c)[np - 1];
    }
    acc
}

/// Per-chip tester reference: one `VirtualTester` per chip answering the
/// probe batch.
fn run_testers(chips: &[ChipInstance], period: f64, probes: &[(usize, f64)]) -> usize {
    let mut results = Vec::new();
    let mut passes = 0;
    for chip in chips {
        let mut t = VirtualTester::new(chip);
        t.apply_batch_into(period, probes, &mut results);
        passes += results.iter().filter(|&&b| b).count();
    }
    passes
}

/// Tester-side SoA batching: the whole bank answers the probe batch in
/// one pass.
fn run_bank(bank: &mut ChipBank, period: f64, probes: &[(usize, f64)]) -> usize {
    let mut results = Vec::new();
    bank.apply_batch_into(period, probes, &mut results);
    results.iter().filter(|&&b| b).count()
}

/// Quality guard: the batched engine must agree bit for bit with the
/// per-chip engine on every chip and at every scenario thread count — the
/// speedup is not allowed to change a single range.
fn assert_bitwise_identical(f: &Fixture, threads: usize) {
    let mut ws = PredictWorkspace::new();
    let chips = ChipMatrix::gather(&f.predictor, &f.tested);
    let batch = f.predictor.predict_population(&chips, threads);
    for (c, tested) in f.tested.iter().enumerate() {
        let reference = f.predictor.predict_with(&mut ws, tested);
        let (lo, up) = (batch.chip_lower(c), batch.chip_upper(c));
        for (p, b) in reference.ranges.iter().enumerate() {
            assert_eq!(b.lower.to_bits(), lo[p].to_bits(), "chip {c} path {p} lower diverged");
            assert_eq!(b.upper.to_bits(), up[p].to_bits(), "chip {c} path {p} upper diverged");
        }
        assert_eq!(reference.measured, batch.measured());
    }
}

fn measure_and_record() {
    let samples = effitest_bench::sample_count(10);
    println!("\nWhole-population prediction: per-chip Predictor loop vs batched chip matrix");
    println!("({samples} samples per measurement; min-of-samples reported)");
    let header = format!(
        "{:>22} {:>6} {:>8} {:>14} {:>14} {:>9}",
        "circuit/paths(tested)", "chips", "threads", "per-chip ns", "batched ns", "speedup"
    );
    println!("{header}");
    effitest_bench::rule(&header);

    let mut entries = Vec::new();
    for s in SCENARIOS {
        let f = make_fixture(s);
        assert_bitwise_identical(&f, s.threads);
        let mut ws = PredictWorkspace::new();
        let mut kept = Vec::new();
        let per_chip_ns = effitest_bench::best_of(samples, || run_per_chip(&f, &mut ws, &mut kept));
        let mut out = BatchPredictedRanges::new();
        let mut chip_m = ChipMatrix::new(&f.predictor, 0);
        let batched_ns =
            effitest_bench::best_of(samples, || run_batched(&f, s.threads, &mut chip_m, &mut out));
        let speedup = per_chip_ns as f64 / batched_ns.max(1) as f64;
        let label = format!("{}/{}({})", s.circuit.name(), f.model.path_count(), f.selected);
        println!(
            "{label:>22} {:>6} {:>8} {per_chip_ns:>14} {batched_ns:>14} {speedup:>8.2}x",
            s.chips, s.threads
        );
        entries.push(format!(
            concat!(
                "    {{\"circuit\": \"{}\", \"paths\": {}, \"tested\": {}, \"groups\": {}, ",
                "\"chips\": {}, \"threads\": {}, \"per_chip_ns\": {}, \"batched_ns\": {}, ",
                "\"speedup\": {:.3}}}"
            ),
            s.circuit.name(),
            f.model.path_count(),
            f.selected,
            f.groups,
            s.chips,
            s.threads,
            per_chip_ns,
            batched_ns,
            speedup
        ));
    }

    // Tester-side SoA batching, informational: the whole bank vs one
    // VirtualTester per chip on the same probe batch.
    let s = SCENARIOS[0];
    let f = make_fixture(s);
    let period = f.model.nominal_period();
    let probes: Vec<(usize, f64)> =
        (0..f.model.path_count()).step_by(3).map(|p| (p, 0.125)).collect();
    let mut bank = ChipBank::gather(&f.chips);
    {
        // Guard: every bank column equals the chip's own tester.
        let mut solo = Vec::new();
        let mut banked = Vec::new();
        bank.apply_batch_into(period, &probes, &mut banked);
        for (c, chip) in f.chips.iter().enumerate() {
            VirtualTester::new(chip).apply_batch_into(period, &probes, &mut solo);
            for (i, &expect) in solo.iter().enumerate() {
                assert_eq!(banked[i * f.chips.len() + c], expect, "bank diverged on chip {c}");
            }
        }
    }
    let testers_ns =
        effitest_bench::best_of(samples, || run_testers(&f.chips, period, &probes) as f64);
    let bank_ns = effitest_bench::best_of(samples, || run_bank(&mut bank, period, &probes) as f64);
    let tester_speedup = testers_ns as f64 / bank_ns.max(1) as f64;
    println!(
        "{:>22} {:>6} {:>8} {testers_ns:>14} {bank_ns:>14} {tester_speedup:>8.2}x",
        format!("tester({})", probes.len()),
        s.chips,
        1
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"population_batched\",\n",
            "  \"description\": \"whole-population prediction: per-chip Predictor loop vs the ",
            "batched chip-matrix engine (one blocked GEMM per group; gather charged to the ",
            "batched side; bitwise-identical by the quality guard)\",\n",
            "  \"samples\": {},\n",
            "  \"scenarios\": [\n{}\n  ],\n",
            "  \"tester\": {{\"chips\": {}, \"probes\": {}, \"per_chip_ns\": {}, ",
            "\"bank_ns\": {}, \"speedup\": {:.3}}}\n",
            "}}\n"
        ),
        samples,
        entries.join(",\n"),
        s.chips,
        probes.len(),
        testers_ns,
        bank_ns,
        tester_speedup
    );
    // Default to the workspace-root record (cargo runs benches from the
    // package dir, which would scatter untracked copies under crates/).
    let path = std::env::var("BENCH_POPULATION_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_population.json").into()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nrecorded -> {path}\n"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}\n"),
    }
}

fn bench_population(c: &mut Criterion) {
    let mut group = c.benchmark_group("population/predict");
    let s = Scenario { circuit: Circuit::S13207, scale: 12, chips: 256, threads: 1 };
    let f = make_fixture(s);
    let label = format!("{}p/{}c", f.model.path_count(), s.chips);
    let mut ws = PredictWorkspace::new();
    let mut kept = Vec::new();
    group.bench_with_input(BenchmarkId::new("per_chip", &label), &f, |b, f| {
        b.iter(|| black_box(run_per_chip(f, &mut ws, &mut kept)))
    });
    let mut out = BatchPredictedRanges::new();
    let mut chip_m = ChipMatrix::new(&f.predictor, 0);
    group.bench_with_input(BenchmarkId::new("batched", &label), &f, |b, f| {
        b.iter(|| black_box(run_batched(f, s.threads, &mut chip_m, &mut out)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_population
}

fn main() {
    measure_and_record();
    benches();
    Criterion::default().configure_from_args().final_summary();
}
