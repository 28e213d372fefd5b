//! `perfbench`: end-to-end and per-layer benchmark of the EffiTest per-chip
//! flow and the test-floor service.
//!
//! Run it through `python3 perfbench/run.py`, which builds this package
//! and runs each workload in its own process on one worker thread; the
//! workloads and metrics are described in `perfbench/README.md`.

mod flow;
mod service;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use stats::{result_json, Metric};

/// End-to-end metrics of an untraced run, in `BENCHMARK.json` order.
const END_TO_END: [&str; 6] =
    ["setup_s", "chips_per_s", "chip_ms_p50", "chip_ms_tail", "yield", "peak_rss_mb"];

/// Per-layer metrics of a traced run, in `BENCHMARK.json` order.
const PER_LAYER: [&str; 39] = [
    "circuit.generate_s",
    "ssta.model_s",
    "core.select_s",
    "core.oracle_s",
    "core.batch_s",
    "core.hold_s",
    "core.predictor_s",
    "core.cache.load_ms",
    "core.cache.hit_frac",
    "ssta.sample_ms",
    "core.aligned_test_ms",
    "solver.align_ms",
    "solver.align_us_per_solve",
    "tester.probe_ms",
    "core.predict_ms",
    "core.config_build_ms",
    "solver.config_ms",
    "tester.check_ms",
    "tester.iters_per_chip",
    "core.contradictions",
    "core.widenings",
    "solver.config_feasible_frac",
    "core.config_pass_frac",
    "core.predict.population_ms",
    "core.tested_paths",
    "core.batches",
    "core.groups",
    "core.predict_fallbacks",
    "core.sigma_fallbacks",
    "core.service.ingest_ns",
    "core.service.drain_ms_p50",
    "core.service.drain_ms_tail",
    "core.service.chips_per_drain",
    "core.service.events",
    "core.service.duplicates",
    "core.service.rejected",
    "core.service.decisions",
    "core.service.max_pending_chips",
    "trace_overhead_frac",
];

const USAGE: &str = "usage: perfbench --workload <population_s13207|service_stream> \
                     --seed <n> --seconds <s> --trace <0|1> --scratch <dir>";

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for the run's plan cache.
    pub scratch: PathBuf,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut scratch) =
            (None, None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
                "--seconds" => match value.parse::<f64>() {
                    Ok(s) if s > 0.0 && s.is_finite() => seconds = Some(s),
                    _ => return Err(bad("a positive number")),
                },
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(bad("0 or 1")),
                },
                "--scratch" => scratch = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let missing = |f: &str| format!("missing {f}");
        Ok(Args {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            scratch: scratch.ok_or_else(|| missing("--scratch"))?,
        })
    }
}

/// What one workload run hands back.
#[derive(Debug, Default)]
pub struct Report {
    /// Chips attempted.
    pub attempted: u64,
    /// Chips that errored, got no decision, or failed a check.
    pub failed: u64,
    /// Failed checks, one line each; any makes the run incorrect.
    pub failures: Vec<String>,
    /// The result line's metrics: end-to-end, or per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Context printed for people only.
    pub info: Vec<String>,
}

/// Orders `metrics` as `names` lists them.
///
/// # Panics
///
/// Panics unless the metric names are exactly `names` — a workload that
/// drops or invents a metric is a bug in this program.
fn in_contract_order(metrics: &mut [Metric], names: &[&str]) {
    let position = |m: &Metric| names.iter().position(|&n| n == m.name);
    metrics.sort_by_key(|m| position(m).unwrap_or(usize::MAX));
    let got: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(got, names, "workload metrics differ from the contract");
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Thread scaling is out of scope: every layer runs at width 1.
    match effitest_core::parallel::threads::threads_from_env() {
        Ok(1) => {}
        other => {
            eprintln!("EFFITEST_THREADS must be 1 (got {other:?}); run through perfbench/run.py");
            return ExitCode::from(2);
        }
    }
    let result = match args.workload.as_str() {
        "population_s13207" => flow::run(&args),
        "service_stream" => service::run(&args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    in_contract_order(&mut report.metrics, if args.trace { &PER_LAYER } else { &END_TO_END });

    let mode = if args.trace { "traced" } else { "untraced" };
    println!("# {} seed {} ({mode}, {} s)", args.workload, args.seed, args.seconds);
    for line in &report.info {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("{}", m.line());
    }
    for f in report.failures.iter().take(20) {
        println!("CHECK FAILED: {f}");
    }
    let correct = report.failures.is_empty() && report.failed == 0;
    println!("{}", result_json(correct, report.attempted, report.failed, &report.metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
