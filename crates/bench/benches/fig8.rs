//! Regenerates the paper's **Fig. 8** (test iterations per path without
//! statistical prediction: every required path is measured) and benchmarks
//! the multiplexed test loop.
//!
//! Three bars per circuit: path-wise frequency stepping, path multiplexing
//! with all buffers at zero, and multiplexing with delay alignment (the
//! proposed method). Every required path is tested — this isolates the
//! §3.2/§3.3 techniques from the statistical prediction of §3.1. The
//! required paths are batched once per circuit, against a conflict oracle
//! over all of them, and every chip is tested against those batches.

use criterion::{criterion_group, Criterion};
use effitest_bench::bench_config;
use effitest_circuit::{BenchmarkSpec, GeneratedBenchmark};
use effitest_core::batch::ConflictOracle;
use effitest_core::experiments::fig8_row;
use effitest_core::{EffiTestFlow, FlowConfig};
use effitest_ssta::{TimingModel, VariationConfig};
use std::hint::black_box;

fn bar(value: f64, scale: f64) -> String {
    let width = 36;
    let filled = ((value / scale).clamp(0.0, 1.0) * width as f64).round() as usize;
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

fn print_fig8() {
    let mut config = bench_config(3);
    // Iteration counts concentrate tightly; a few chips suffice.
    config.baseline_chips = config.baseline_chips.min(config.n_chips).clamp(1, 3);
    println!("\nFig. 8: Test iterations per path without statistical prediction");
    println!("(chips per circuit: {})", config.baseline_chips.min(config.n_chips));
    let header =
        format!("{:<14} {:>10} {:>12} {:>10}", "circuit", "path-wise", "multiplexed", "proposed");
    println!("{header}");
    effitest_bench::rule(&header);
    for spec in BenchmarkSpec::all_paper_circuits() {
        let r = fig8_row(&spec, &config);
        println!(
            "{:<14} {:>10.2} {:>12.2} {:>10.2}",
            r.name, r.path_wise, r.multiplexed, r.proposed
        );
        let scale = 10.0;
        println!("  path-wise   |{}|", bar(r.path_wise, scale));
        println!("  multiplexed |{}|", bar(r.multiplexed, scale));
        println!("  proposed    |{}|", bar(r.proposed, scale));
    }
    println!();
}

fn bench_multiplexed(c: &mut Criterion) {
    let spec = BenchmarkSpec::iscas89_s9234();
    let bench = GeneratedBenchmark::generate(&spec, 1);
    let model = TimingModel::build(&bench, &VariationConfig::paper());
    let flow = EffiTestFlow::new(FlowConfig::default());
    let prepared = flow.plan(&bench, &model).expect("non-empty benchmark");
    let chip = model.sample_chip(5);
    let paths: Vec<usize> = (0..model.path_count()).collect();
    let oracle = ConflictOracle::new(&bench, 1);
    let batches = flow.batch_paths(&oracle, &model, &paths);

    c.bench_function("fig8/multiplexed_aligned_all_paths/s9234", |b| {
        b.iter(|| {
            black_box(flow.test_paths_multiplexed(&prepared, black_box(&chip), &batches, true).0)
        })
    });
    c.bench_function("fig8/multiplexed_plain_all_paths/s9234", |b| {
        b.iter(|| {
            black_box(flow.test_paths_multiplexed(&prepared, black_box(&chip), &batches, false).0)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_multiplexed
}

fn main() {
    print_fig8();
    benches();
    Criterion::default().configure_from_args().final_summary();
}
