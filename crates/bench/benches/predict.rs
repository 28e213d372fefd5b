//! Per-chip statistical prediction bench: from-scratch conditioning vs.
//! the plan-level `Predictor`.
//!
//! The paper's eqs. 4–5 re-estimate every untested path by conditioning
//! its correlation group's joint Gaussian on the measured upper bounds.
//! The from-scratch oracle, `predict_ranges`, rebuilds each group's dense
//! Gaussian, refactorizes the observed covariance block and recomputes the
//! (value-independent!) conditional sigmas for every chip; the
//! [`Predictor`] factors the conditioning gains once per flow plan and
//! reduces the per-chip step to one gain application per group through a
//! reusable [`PredictWorkspace`]. A quality guard asserts the
//! two paths produce **bitwise identical** ranges before anything is
//! timed, so the speedup cannot be bought with different numbers.
//!
//! The comparison replays pinned chip populations through both paths and
//! writes the measured per-chip times and the speedup to
//! `BENCH_predict.json` (override the path with the `BENCH_PREDICT_OUT`
//! environment variable). CI runs this with a tiny sample budget, enforces
//! the >=3x bar, and uploads the JSON to seed the perf trajectory.

use std::collections::HashMap;
use std::hint::black_box;

use criterion::{criterion_group, BenchmarkId, Criterion};
use effitest_circuit::{BenchmarkSpec, GeneratedBenchmark};
use effitest_core::predict::{predict_ranges, PredictWorkspace, Predictor};
use effitest_core::select::{all_selected, select_paths, SelectConfig};
use effitest_ssta::{TimingModel, VariationConfig};
use effitest_tester::DelayBounds;

/// One bench scenario: the paper's s13207 statistics at `scale`-fold
/// reduction, `chips` pinned chips per replay.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    scale: usize,
    chips: u64,
}

const SCENARIOS: [Scenario; 3] = [
    Scenario { scale: 12, chips: 16 },
    Scenario { scale: 8, chips: 16 },
    Scenario { scale: 5, chips: 8 },
];

/// One prepared scenario: the model, its groups, the engine, and the
/// pinned per-chip measured bounds (tight windows around true delays, the
/// regime the aligned test converges to).
struct Fixture {
    model: TimingModel,
    groups: Vec<effitest_core::select::PathGroup>,
    predictor: Predictor,
    tested: Vec<HashMap<usize, DelayBounds>>,
    selected: usize,
}

fn make_fixture(s: Scenario) -> Fixture {
    let spec = BenchmarkSpec::iscas89_s13207().scaled_down(s.scale);
    let bench = GeneratedBenchmark::generate(&spec, 1);
    let model = TimingModel::build(&bench, &VariationConfig::paper());
    let groups = select_paths(&model, &SelectConfig::default(), 1);
    let selected = all_selected(&groups);
    let predictor = Predictor::new(&model, &groups, &selected, 3.0, 1);
    let tested: Vec<HashMap<usize, DelayBounds>> = (0..s.chips)
        .map(|k| {
            let chip = model.sample_chip(800 + k);
            selected
                .iter()
                .map(|&p| {
                    let d = chip.setup_delay(p);
                    (p, DelayBounds::new(d - 0.25, d + 0.25))
                })
                .collect()
        })
        .collect();
    Fixture { model, groups, predictor, tested, selected: selected.len() }
}

/// Checksum barrier over predicted ranges so the optimizer cannot elide
/// either path.
fn checksum(ranges: &[DelayBounds]) -> f64 {
    ranges.iter().map(|b| b.lower + b.upper).sum()
}

/// The from-scratch per-chip loop: rebuild + refactorize every group's
/// conditioning on every chip.
fn run_legacy(f: &Fixture) -> f64 {
    let mut acc = 0.0;
    for tested in &f.tested {
        acc += checksum(&predict_ranges(&f.model, &f.groups, tested, 3.0).ranges);
    }
    acc
}

/// The engine loop: precomputed gains, one workspace across all chips.
fn run_engine(f: &Fixture, ws: &mut PredictWorkspace) -> f64 {
    let mut acc = 0.0;
    for tested in &f.tested {
        acc += checksum(&f.predictor.predict_with(ws, tested).ranges);
    }
    acc
}

fn measure_and_record() {
    let samples = effitest_bench::sample_count(20);
    println!("\nPer-chip statistical prediction: from-scratch conditioning vs Predictor");
    println!("({samples} samples per measurement; min-of-samples reported)");
    let header = format!(
        "{:>16} {:>16} {:>16} {:>9}",
        "paths(tested)", "legacy ns/chip", "engine ns/chip", "speedup"
    );
    println!("{header}");
    effitest_bench::rule(&header);

    let mut entries = Vec::new();
    let mut ws = PredictWorkspace::new();
    for s in SCENARIOS {
        let f = make_fixture(s);
        // Quality guard: the two paths must agree bit for bit on every
        // chip — the speedup is not allowed to change a single range.
        for tested in &f.tested {
            let legacy = predict_ranges(&f.model, &f.groups, tested, 3.0);
            let engine = f.predictor.predict_with(&mut ws, tested);
            let same = legacy.ranges.iter().zip(&engine.ranges).all(|(a, b)| {
                a.lower.to_bits() == b.lower.to_bits() && a.upper.to_bits() == b.upper.to_bits()
            });
            assert!(same, "engine diverged from legacy conditioning");
            assert_eq!(legacy.measured, engine.measured);
        }
        let legacy_ns = effitest_bench::best_of(samples, || run_legacy(&f)) / s.chips;
        let engine_ns = effitest_bench::best_of(samples, || run_engine(&f, &mut ws)) / s.chips;
        let speedup = legacy_ns as f64 / engine_ns.max(1) as f64;
        let label = format!("{}({})", f.model.path_count(), f.selected);
        println!("{label:>16} {legacy_ns:>16} {engine_ns:>16} {speedup:>8.2}x");
        entries.push(format!(
            concat!(
                "    {{\"paths\": {}, \"tested\": {}, \"groups\": {}, \"chips\": {}, ",
                "\"legacy_ns_per_chip\": {}, \"engine_ns_per_chip\": {}, \"speedup\": {:.3}}}"
            ),
            f.model.path_count(),
            f.selected,
            f.groups.len(),
            s.chips,
            legacy_ns,
            engine_ns,
            speedup
        ));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"predict_per_chip\",\n",
            "  \"description\": \"per-chip group conditioning rebuilt+refactorized from scratch ",
            "vs plan-level Predictor with precomputed gains (bitwise-identical by the quality ",
            "guard)\",\n",
            "  \"samples\": {},\n",
            "  \"scenarios\": [\n{}\n  ]\n",
            "}}\n"
        ),
        samples,
        entries.join(",\n")
    );
    // Default to the workspace-root record (cargo runs benches from the
    // package dir, which would scatter untracked copies under crates/).
    let path = std::env::var("BENCH_PREDICT_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_predict.json").into()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nrecorded -> {path}\n"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}\n"),
    }
}

fn bench_predict(c: &mut Criterion) {
    let mut group = c.benchmark_group("predict/per_chip");
    let mut ws = PredictWorkspace::new();
    for s in SCENARIOS {
        let f = make_fixture(s);
        let label = format!("{}p", f.model.path_count());
        group.bench_with_input(BenchmarkId::new("legacy_refactorize", &label), &f, |b, f| {
            b.iter(|| black_box(run_legacy(f)))
        });
        group.bench_with_input(BenchmarkId::new("predictor_engine", &label), &f, |b, f| {
            b.iter(|| black_box(run_engine(f, &mut ws)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_predict
}

fn main() {
    measure_and_record();
    benches();
    Criterion::default().configure_from_args().final_summary();
}
