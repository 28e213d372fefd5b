//! Prints Procedure 1's selection over a sweep of 88 configurations.
//!
//! For every configuration it runs `select_paths` and prints each group's
//! members, selected representatives, threshold (as exact bits) and
//! retained component count. The sweep covers:
//!
//! * s9234, s13207, s15850, s38584, usb_funct and ac97_ctrl at full size,
//!   netlist seeds 1, 2 and 7, under each of the four variation profiles;
//! * pci_bridge32 and mem_ctrl at full size, seed 1;
//! * the large tier at 256 and 2,000 paths, seed 7, on a 4x4 grid with a
//!   0.93 criticality cut;
//! * s9234 scaled down by 10 and by 20 in all six topologies, seed 1.
//!
//! CI pins the sha256 of the output, so any change to grouping, PCA or the
//! tie rule that moves a single pick shows up as a hash mismatch. The run
//! takes a few seconds in release mode.
//!
//! ```sh
//! cargo run --release --example select_sweep > SWEEP.txt
//! sha256sum SWEEP.txt
//! ```

use std::fmt::Write as _;
use std::io::Write as _;

use effitest::flow::select::{select_paths, SelectConfig};
use effitest::prelude::*;

fn sweep(
    out: &mut String,
    label: &str,
    spec: &BenchmarkSpec,
    seed: u64,
    variation: &VariationConfig,
    select: &SelectConfig,
) {
    let bench = GeneratedBenchmark::generate(spec, seed);
    let model = TimingModel::build(&bench, variation);
    let groups = select_paths(&model, select, 1);
    writeln!(out, "[{label} seed={seed}] paths={} groups={}", model.path_count(), groups.len())
        .unwrap();
    for (i, g) in groups.iter().enumerate() {
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
}

fn main() {
    let mut out = String::new();
    let default = SelectConfig::default();
    for spec in [
        BenchmarkSpec::iscas89_s9234(),
        BenchmarkSpec::iscas89_s13207(),
        BenchmarkSpec::iscas89_s15850(),
        BenchmarkSpec::iscas89_s38584(),
        BenchmarkSpec::tau13_usb_funct(),
        BenchmarkSpec::tau13_ac97_ctrl(),
    ] {
        for seed in [1, 2, 7] {
            for profile in VariationProfile::all() {
                let label = format!("{} {profile}", spec.name);
                sweep(&mut out, &label, &spec, seed, &profile.config(), &default);
            }
        }
    }
    for spec in [BenchmarkSpec::tau13_pci_bridge32(), BenchmarkSpec::tau13_mem_ctrl()] {
        sweep(&mut out, &spec.name, &spec, 1, &VariationConfig::paper(), &default);
    }
    let critical = SelectConfig { criticality_fraction: Some(0.93), ..SelectConfig::default() };
    let grid4 = VariationConfig { grid_dim: 4, ..VariationConfig::paper() };
    for paths in [256, 2_000] {
        let spec = BenchmarkSpec::large(paths);
        sweep(&mut out, &spec.name, &spec, 7, &grid4, &critical);
    }
    for factor in [10, 20] {
        for &topology in Topology::all().iter() {
            let spec = BenchmarkSpec::iscas89_s9234().scaled_down(factor).with_topology(topology);
            sweep(&mut out, &spec.name, &spec, 1, &VariationConfig::paper(), &default);
        }
    }
    std::io::stdout().lock().write_all(out.as_bytes()).expect("write sweep");
}
