// The all-pairs mutual-exclusion oracle. The unit tests of the circuit
// crate's `sensitize` module and of the core crate's `batch` module pull
// it in with `include!`, so the sparse `MutualExclusions::build` and the
// conflict oracle built on it are pinned against one independent copy.
// The including scope provides `Netlist`, `PathRequirements`, `PathView`
// and `Signal`.

/// Tests every pair of paths: row `i` lists, ascending, each position
/// `j != i` whose path cannot share a test vector with path `i`, which is
/// row `i` of `MutualExclusions::build`.
fn dense_exclusion_rows(netlist: &Netlist, paths: &[PathView<'_>]) -> Vec<Vec<u32>> {
    let reqs: Vec<PathRequirements> = paths
        .iter()
        .map(|&p| PathRequirements::compute(netlist, p).expect("paths belong to the netlist"))
        .collect();
    // A path that needs a flip-flop stable excludes every path launching
    // from it.
    let blocks_source = |i: usize, j: usize| {
        reqs[i].stable().iter().any(|&(sig, _)| sig == Signal::Ff(paths[j].source))
    };
    (0..paths.len())
        .map(|i| {
            (0..paths.len())
                .filter(|&j| {
                    j != i
                        && (!reqs[i].compatible(&reqs[j])
                            || blocks_source(i, j)
                            || blocks_source(j, i))
                })
                .map(|j| j as u32)
                .collect()
        })
        .collect()
}
