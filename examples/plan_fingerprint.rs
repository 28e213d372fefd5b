//! Emits a full plan fingerprint for thread-determinism checks.
//!
//! Builds the chip-independent flow plan (through the env-driven entry
//! point, so `EFFITEST_THREADS` governs the worker count) for every paper
//! topology plus a reduced large-tier circuit, and prints every
//! observable component — correlation groups, test batches, slot fills,
//! hold bounds, the convergence threshold, and the predicted sigmas that
//! ranked the slot fills (recomputed from the plan's groups at the same
//! worker count) — with floats as exact bit patterns.
//!
//! CI runs this at `EFFITEST_THREADS=1` and `4` and diffs the outputs:
//! the plan pipeline's contract is that they are **byte identical**. Set
//! `EFFITEST_PLAN_FINGERPRINT_OUT` to write to a file instead of stdout.
//!
//! ```sh
//! EFFITEST_THREADS=1 cargo run --release --example plan_fingerprint
//! ```

use std::fmt::Write as _;

use effitest::circuit::Topology;
use effitest::flow::batch::predicted_sigmas;
use effitest::flow::parallel::threads::threads_from_env;
use effitest::flow::select::SelectConfig;
use effitest::prelude::*;

fn fingerprint(out: &mut String, label: &str, plan: &FlowPlan<'_>, threads: usize) {
    writeln!(out, "[{label}]").unwrap();
    for (i, g) in plan.groups.iter().enumerate() {
        writeln!(
            out,
            "group {i}: members={:?} selected={:?} threshold={:016x} n_pcs={}",
            g.members,
            g.selected,
            g.threshold.to_bits(),
            g.n_pcs
        )
        .unwrap();
    }
    for (i, b) in plan.batches.batches.iter().enumerate() {
        writeln!(out, "batch {i}: {b:?}").unwrap();
    }
    writeln!(out, "slot_filled: {:?}", plan.batches.slot_filled).unwrap();
    let mut lambda: Vec<(usize, u64)> = plan.lambda.iter().map(|(p, l)| (p, l.to_bits())).collect();
    lambda.sort_unstable();
    writeln!(out, "hold_bounds: {lambda:?}").unwrap();
    let (sigmas, _) = predicted_sigmas(plan.model, &plan.groups, threads);
    for (p, s) in sigmas {
        writeln!(out, "sigma {p}: {:016x}", s.to_bits()).unwrap();
    }
    writeln!(out, "epsilon: {:016x}", plan.epsilon.to_bits()).unwrap();
    writeln!(out, "tested: {}", plan.tested_path_count()).unwrap();
}

fn main() {
    let threads = threads_from_env().expect("EFFITEST_THREADS");
    let mut out = String::new();
    let flow = EffiTestFlow::new(FlowConfig::default());
    for &topology in Topology::all().iter() {
        let spec = BenchmarkSpec::iscas89_s9234().scaled_down(10).with_topology(topology);
        let bench = GeneratedBenchmark::generate(&spec, 1);
        let model = TimingModel::build(&bench, &VariationConfig::paper());
        let plan = flow.plan(&bench, &model).expect("plan");
        fingerprint(&mut out, topology.name(), &plan, threads);
    }
    // A reduced large-tier circuit exercises the sparse/threaded paths the
    // paper topologies cannot reach (hub cliques, planted criticality).
    let large_flow = EffiTestFlow::new(FlowConfig {
        select: SelectConfig { criticality_fraction: Some(0.93), ..SelectConfig::default() },
        ..FlowConfig::default()
    });
    let spec = BenchmarkSpec::large(2_000);
    let bench = GeneratedBenchmark::generate(&spec, 1);
    let variation = VariationConfig { grid_dim: 4, ..VariationConfig::paper() };
    let model = TimingModel::build(&bench, &variation);
    let plan = large_flow.plan(&bench, &model).expect("plan");
    fingerprint(&mut out, "large_2000", &plan, threads);

    match std::env::var("EFFITEST_PLAN_FINGERPRINT_OUT") {
        Ok(path) => {
            std::fs::write(&path, &out).expect("write fingerprint");
            println!("plan fingerprint -> {path} ({} bytes)", out.len());
        }
        Err(_) => print!("{out}"),
    }
}
