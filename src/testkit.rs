//! Shared test harness for the workspace's integration tests and for
//! downstream PRs that need fast, reproducible regression fixtures.
//!
//! Everything here is deterministic: fixtures are generated from pinned
//! [`BenchmarkSpec`]s and pinned seeds, so two runs (or two machines)
//! always see byte-identical benchmarks and chips. The golden-value
//! regression test (`tests/golden.rs`) pins FNV-64 hashes of the generated
//! netlists through [`fnv64`]; any silent drift in the generator or the
//! vendored RNG shows up as a hash mismatch there rather than as a
//! mysterious statistical failure elsewhere.

use crate::prelude::*;

/// The shared fallible readback for the workspace's flat JSON reports
/// (scenario matrices, hostile matrices, service decision logs, bench
/// records) — typed errors instead of panicky string splitting.
pub use effitest_core::report::{parse_embedded_reports, FlatReport, FlatValue, ReportError};

/// The seed used by golden-value fixtures throughout the test suite.
pub const GOLDEN_SEED: u64 = 7;

/// A small-but-nontrivial benchmark plus its timing model: the s13207
/// circuit scaled down by `scale`, generated with `seed`.
///
/// `scale = 8` yields a circuit with enough paths (≥ 30) for the
/// multiplexing and prediction machinery to engage, while `prepare` +
/// `run_chip` still complete in tens of milliseconds — the sweet spot for
/// integration tests.
pub fn fixture(scale: usize, seed: u64) -> (GeneratedBenchmark, TimingModel) {
    let spec = BenchmarkSpec::iscas89_s13207().scaled_down(scale);
    let bench = GeneratedBenchmark::generate(&spec, seed);
    let model = TimingModel::build(&bench, &VariationConfig::paper());
    (bench, model)
}

/// The quickstart fixture from the facade doctest and README: s9234
/// scaled down 20x, generated with [`GOLDEN_SEED`].
pub fn quickstart_fixture() -> (GeneratedBenchmark, TimingModel) {
    let spec = BenchmarkSpec::iscas89_s9234().scaled_down(20);
    let bench = GeneratedBenchmark::generate(&spec, GOLDEN_SEED);
    let model = TimingModel::build(&bench, &VariationConfig::paper());
    (bench, model)
}

/// FNV-1a 64-bit hash, used to pin golden netlist dumps compactly.
pub use effitest_circuit::fingerprint::fnv64;

/// Asserts `|actual - expected| <= tol`, with a readable failure message.
#[track_caller]
pub fn assert_close(actual: f64, expected: f64, tol: f64) {
    assert!(
        (actual - expected).abs() <= tol,
        "expected {actual} to be within {tol} of {expected} (off by {})",
        (actual - expected).abs()
    );
}

/// Asserts `|actual - expected| <= rel_tol * max(|expected|, 1)`.
#[track_caller]
pub fn assert_rel_close(actual: f64, expected: f64, rel_tol: f64) {
    let scale = expected.abs().max(1.0);
    assert!(
        (actual - expected).abs() <= rel_tol * scale,
        "expected {actual} to be within {rel_tol:.1e} (relative) of {expected}"
    );
}

/// Asserts `lo <= value <= hi`.
#[track_caller]
pub fn assert_within(value: f64, lo: f64, hi: f64) {
    assert!((lo..=hi).contains(&value), "expected {value} to lie in [{lo}, {hi}]");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        let (a, _) = fixture(8, 3);
        let (b, _) = fixture(8, 3);
        assert_eq!(a.netlist, b.netlist);
        assert_eq!(a.paths, b.paths);
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn tolerance_asserts_accept_in_range_values() {
        assert_close(1.0, 1.05, 0.1);
        assert_rel_close(100.0, 101.0, 0.02);
        assert_within(0.5, 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "to be within")]
    fn assert_close_rejects_out_of_tolerance() {
        assert_close(1.0, 2.0, 0.1);
    }
}
