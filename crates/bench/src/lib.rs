//! Shared helpers for the EffiTest benchmark harness.
//!
//! Each bench binary regenerates one table or figure of the paper (printing
//! the rows in the paper's format) and then runs Criterion measurements of
//! the underlying kernels. Chip counts default to bench-friendly values;
//! set `EFFITEST_CHIPS` to raise them (the paper used 10 000).

use std::hint::black_box;
use std::time::Instant;

use effitest_core::experiments::{ExperimentConfig, CHIPS_ENV};

/// Experiment configuration for benches: `EFFITEST_CHIPS` override with a
/// bench-appropriate default.
pub fn bench_config(default_chips: usize) -> ExperimentConfig {
    let mut config = ExperimentConfig::from_env();
    if std::env::var(CHIPS_ENV).is_err() {
        config.n_chips = default_chips;
    }
    config
}

/// Prints a horizontal rule sized to a header line.
pub fn rule(header: &str) {
    println!("{}", "-".repeat(header.len()));
}

/// Samples per timed measurement: `BENCH_SAMPLES` when set to a number,
/// else `default`; at least 1.
pub fn sample_count(default: usize) -> usize {
    std::env::var("BENCH_SAMPLES").ok().and_then(|s| s.parse().ok()).unwrap_or(default).max(1)
}

/// Worker count for threaded stages: `EFFITEST_THREADS`, defaulting to
/// the machine's parallelism.
///
/// # Panics
///
/// Panics if `EFFITEST_THREADS` is set but invalid.
pub fn bench_threads() -> usize {
    effitest_core::parallel::threads::threads_from_env().expect("EFFITEST_THREADS")
}

/// Minimum-of-`samples` wall time of `f`, in nanoseconds, after one
/// warm-up call.
pub fn best_of<T>(samples: usize, mut f: impl FnMut() -> T) -> u64 {
    black_box(f());
    let mut best = u64::MAX;
    for _ in 0..samples {
        let t = Instant::now();
        black_box(f());
        best = best.min(t.elapsed().as_nanos() as u64);
    }
    best
}
