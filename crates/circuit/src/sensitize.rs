//! Lightweight path sensitization: which paths can share a test vector?
//!
//! To measure a path's delay with frequency stepping, ATPG must *sensitize*
//! it: launch a transition at the source flip-flop and justify every side
//! input along the chain to its non-controlling value so the transition
//! propagates to the sink. The paper (§3.2) notes that some paths in a test
//! batch "cannot be activated by ATPG vectors at the same time due to logic
//! masking"; such pairs are marked mutually exclusive and placed in
//! different batches.
//!
//! This module derives those mutual exclusions from netlist structure with a
//! conservative three-rule model. For each path we compute
//! [`PathRequirements`]:
//!
//! * **through** — the gates the transition propagates through;
//! * **stable** — side-input signals that must hold a fixed value
//!   (the non-controlling value for AND/OR-family gates, any stable value
//!   for XOR side inputs).
//!
//! Two paths are incompatible when (1) one needs a signal stable that the
//! other toggles, or (2) both need the same signal stable at *different*
//! values, or (3) their through-gate sets overlap (a shared gate would see
//! two interfering transitions). The model is conservative — real ATPG
//! might still find a vector for some pairs we reject — which only costs a
//! few extra batches, never a wrong measurement.
//!
//! ## Sparse construction
//!
//! Every exclusion rule is of the form "both paths reference the same
//! interned id" (a shared through-gate, a stable signal the other toggles
//! or pins oppositely, a stable flip-flop the other launches from). So
//! instead of testing all `n(n-1)/2` pairs, [`MutualExclusions::build`]
//! inverts the requirements into per-id adjacency lists — counting-sort
//! CSR tables over the netlist's dense gate and flip-flop id spaces — and
//! gathers each path's conflict neighbours from the handful of lists it
//! appears in: `O(n + edges)` instead of `O(n²)`. Every rule files both
//! paths of a pair, so a path's gather finds all of its neighbours, and
//! the result is the symmetric conflict graph as one CSR with a sorted
//! row per path. The per-path requirement computation and the gather fan
//! out over worker threads, with rows committed in path order. The
//! pairwise loop survives as test code
//! (`crates/circuit/tests/support/dense_exclusions.rs`), the independent
//! oracle the sparse build is pinned against at several thread counts.

use std::collections::HashMap;

use effitest_parallel::{default_chunk, par_map_scratch};

use crate::{GateId, Netlist, PathView, Result, Signal};

/// A stability requirement on a side-input signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StableValue {
    /// Must hold logic 0.
    Zero,
    /// Must hold logic 1.
    One,
    /// Must merely be stable (XOR side inputs): any value, no toggling.
    Any,
}

impl StableValue {
    fn from_bool(v: bool) -> Self {
        if v {
            StableValue::One
        } else {
            StableValue::Zero
        }
    }

    /// `true` if the two requirements can be satisfied simultaneously.
    pub fn compatible(self, other: StableValue) -> bool {
        !matches!(
            (self, other),
            (StableValue::Zero, StableValue::One) | (StableValue::One, StableValue::Zero)
        )
    }
}

/// The sensitization requirements of one path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathRequirements {
    /// Gates the transition passes through, ascending by id.
    through: Vec<GateId>,
    /// Signals that must be held stable, with the required value.
    stable: Vec<(Signal, StableValue)>,
}

impl PathRequirements {
    /// Computes the requirements of `path` against `netlist`.
    ///
    /// # Errors
    ///
    /// Propagates id-validation errors for paths that do not belong to the
    /// netlist.
    pub fn compute(netlist: &Netlist, path: PathView<'_>) -> Result<Self> {
        let mut through = path.gates.to_vec();
        through.sort_unstable();
        let mut stable_map: HashMap<Signal, StableValue> = HashMap::new();

        for (pos, &gid) in path.gates.iter().enumerate() {
            let gate = netlist.gate(gid)?;
            // The on-path input: the predecessor gate, or the source
            // flip-flop for the first gate.
            let on_path =
                if pos == 0 { Signal::Ff(path.source) } else { Signal::Gate(path.gates[pos - 1]) };
            for &input in &gate.inputs {
                if input == on_path {
                    continue;
                }
                let req = match gate.kind.non_controlling_value() {
                    Some(v) => StableValue::from_bool(v),
                    // XOR (or any gate without a controlling value): the
                    // side input only needs to be stable.
                    None => StableValue::Any,
                };
                merge_requirement(&mut stable_map, input, req);
            }
        }
        // A path never requires its own through-gates stable (can happen
        // when a side input taps an earlier on-path gate, e.g. a gate
        // feeding both inputs of a successor); propagation wins. Likewise
        // its own source flip-flop: the launch polarity is chosen by the
        // test vector, so a source that also side-feeds a later on-path
        // gate is handled by picking the transition direction, not by
        // holding the source stable.
        let mut stable: Vec<(Signal, StableValue)> = stable_map
            .into_iter()
            .filter(|(sig, _)| match sig {
                Signal::Gate(g) => through.binary_search(g).is_err(),
                Signal::Ff(f) => *f != path.source,
            })
            .collect();
        stable.sort_unstable_by_key(|(sig, _)| signal_key(*sig));
        Ok(PathRequirements { through, stable })
    }

    /// Gates the transition passes through.
    pub fn through(&self) -> &[GateId] {
        &self.through
    }

    /// Stable-signal requirements.
    pub fn stable(&self) -> &[(Signal, StableValue)] {
        &self.stable
    }

    /// `true` if the two paths can be sensitized by one test vector.
    pub fn compatible(&self, other: &PathRequirements) -> bool {
        // Rule 3: shared through-gates interfere.
        if sorted_intersects(&self.through, &other.through) {
            return false;
        }
        // Rules 1 & 2 in both directions.
        if self.stable_conflicts(other) || other.stable_conflicts(self) {
            return false;
        }
        true
    }

    /// Checks whether any of `self`'s stable requirements is violated by
    /// `other` (toggled by its transition, or pinned to the opposite value).
    ///
    /// Flip-flop *source* transitions are not visible at this level (the
    /// requirements do not store the source); [`MutualExclusions::build`]
    /// adds that rule on top.
    fn stable_conflicts(&self, other: &PathRequirements) -> bool {
        for &(sig, val) in &self.stable {
            // Toggled by the other path's transition?
            if let Signal::Gate(g) = sig {
                if other.through.binary_search(&g).is_ok() {
                    return true;
                }
            }
            // Pinned to a different value by the other path?
            if let Some(&(_, other_val)) = other.stable.iter().find(|(s, _)| *s == sig) {
                if !val.compatible(other_val) {
                    return true;
                }
            }
        }
        false
    }
}

fn merge_requirement(map: &mut HashMap<Signal, StableValue>, sig: Signal, req: StableValue) {
    use std::collections::hash_map::Entry;
    match map.entry(sig) {
        Entry::Vacant(e) => {
            e.insert(req);
        }
        Entry::Occupied(mut e) => {
            // A concrete value wins over `Any`; conflicting concrete values
            // make the path unsensitizable on its own — keep the first and
            // let batching treat it conservatively.
            if *e.get() == StableValue::Any {
                e.insert(req);
            }
        }
    }
}

fn signal_key(sig: Signal) -> (u8, usize) {
    match sig {
        Signal::Ff(id) => (0, id.index()),
        Signal::Gate(id) => (1, id.index()),
    }
}

fn sorted_intersects(a: &[GateId], b: &[GateId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Precomputed pairwise mutual exclusions over a set of paths: the
/// symmetric conflict graph as one CSR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutualExclusions {
    /// Row `i` is `neighbors[offsets[i]..offsets[i + 1]]`: the positions
    /// `j != i` (in the input slice, not `PathId`s) incompatible with `i`,
    /// ascending.
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
}

impl MutualExclusions {
    /// Computes requirements for every path and the pairwise exclusions,
    /// in `O(n + edges)` via counting-sort inverted indexes (see the module
    /// docs), with the per-path work distributed over `threads` workers.
    ///
    /// Source flip-flop transitions are accounted for here: a path that
    /// needs signal `Ff(f)` stable excludes any path launching from `f`.
    ///
    /// Output is bitwise identical for every `threads` value; `threads <=
    /// 1` runs inline with no thread machinery.
    ///
    /// # Errors
    ///
    /// Propagates requirement-computation errors.
    pub fn build(netlist: &Netlist, paths: &[PathView<'_>], threads: usize) -> Result<Self> {
        let n = paths.len();
        let reqs: Vec<PathRequirements> =
            par_map_scratch(threads, default_chunk(n, threads), n, Vec::new, |items, i| {
                compute_requirements_fast(netlist, paths[i], items)
            })
            .into_iter()
            .collect::<Result<_>>()?;

        let ix = DenseIndexes::build(netlist, paths, &reqs);
        let ff_count = netlist.flip_flop_count();

        // Gather each path's conflict neighbours from the lists it appears
        // in. Every rule files both participants, so `i`'s side alone finds
        // every `j != i` it conflicts with. Each worker keeps a `mark`
        // stamp vector as scratch (stamps are the path index, unique per
        // path, so stale stamps from other paths never collide) and the
        // rows are committed in index order.
        let rows = par_map_scratch(
            threads,
            default_chunk(n, threads),
            n,
            || vec![u32::MAX; n],
            |mark, i| {
                let req = &reqs[i];
                let mut row: Vec<u32> = Vec::new();
                let mark: &mut [u32] = mark;
                let mut gather = |cands: &[u32]| {
                    for &j in cands {
                        if j as usize != i && mark[j as usize] != i as u32 {
                            mark[j as usize] = i as u32;
                            row.push(j);
                        }
                    }
                };
                for &g in &req.through {
                    // Rule 3: another path through the same gate.
                    gather(ix.by_through.list(g.index()));
                    // Rule 1 (mirrored): another path needs this gate stable.
                    gather(ix.stable_gate.list(g.index()));
                }
                for &(sig, val) in &req.stable {
                    match sig {
                        // Rule 1: this path needs a gate stable that another
                        // path toggles.
                        Signal::Gate(g) => gather(ix.by_through.list(g.index())),
                        // Source rule: this path needs a flip-flop stable
                        // that another path launches from.
                        Signal::Ff(f) => gather(ix.by_source.list(f.index())),
                    }
                    // Rule 2: same signal pinned to the opposite value.
                    match val {
                        StableValue::Zero => {
                            gather(ix.stable_one.list(dense_signal(sig, ff_count)))
                        }
                        StableValue::One => {
                            gather(ix.stable_zero.list(dense_signal(sig, ff_count)))
                        }
                        StableValue::Any => {}
                    }
                }
                // Source rule (mirrored): another path needs our source
                // stable.
                gather(ix.stable_ff.list(paths[i].source.index()));
                row.sort_unstable();
                row
            },
        );
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut neighbors = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        for row in rows {
            neighbors.extend_from_slice(&row);
            offsets.push(neighbors.len());
        }
        Ok(MutualExclusions { offsets, neighbors })
    }

    /// `true` if paths at positions `i` and `j` are mutually exclusive.
    pub fn excludes(&self, i: usize, j: usize) -> bool {
        let n = self.offsets.len() - 1;
        // Rows are ascending, so binary search applies.
        i < n && j < n && self.neighbors(i).binary_search(&(j as u32)).is_ok()
    }

    /// The positions excluded with `i`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.neighbors[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// Allocation-light equivalent of [`PathRequirements::compute`]: collects
/// the raw side-input requirements into the caller's scratch vector and
/// merges per signal with a stable sort instead of a hash map. Produces a
/// value bitwise equal to `compute` (pinned by a differential test) —
/// `merge_requirement`'s rule is "first non-`Any` requirement wins", which
/// a stable sort by signal preserves as "first non-`Any` within the
/// signal's run".
fn compute_requirements_fast(
    netlist: &Netlist,
    path: PathView<'_>,
    items: &mut Vec<(Signal, StableValue)>,
) -> Result<PathRequirements> {
    let mut through = path.gates.to_vec();
    through.sort_unstable();
    items.clear();
    for (pos, &gid) in path.gates.iter().enumerate() {
        let gate = netlist.gate(gid)?;
        let on_path =
            if pos == 0 { Signal::Ff(path.source) } else { Signal::Gate(path.gates[pos - 1]) };
        for &input in &gate.inputs {
            if input == on_path {
                continue;
            }
            let req = match gate.kind.non_controlling_value() {
                Some(v) => StableValue::from_bool(v),
                None => StableValue::Any,
            };
            items.push((input, req));
        }
    }
    items.sort_by_key(|&(sig, _)| signal_key(sig));
    let mut stable: Vec<(Signal, StableValue)> = Vec::new();
    let mut k = 0;
    while k < items.len() {
        let (sig, mut val) = items[k];
        let mut j = k + 1;
        while j < items.len() && items[j].0 == sig {
            if val == StableValue::Any {
                val = items[j].1;
            }
            j += 1;
        }
        k = j;
        let keep = match sig {
            Signal::Gate(g) => through.binary_search(&g).is_err(),
            Signal::Ff(f) => f != path.source,
        };
        if keep {
            stable.push((sig, val));
        }
    }
    Ok(PathRequirements { through, stable })
}

/// Maps a signal into the dense key space `[0, ff_count + gate_count)`:
/// flip-flops first, gates after.
fn dense_signal(sig: Signal, ff_count: usize) -> usize {
    match sig {
        Signal::Ff(f) => f.index(),
        Signal::Gate(g) => ff_count + g.index(),
    }
}

/// One counting-sort CSR adjacency table: `list(k)` is every path index
/// filed under dense key `k`, in ascending path order.
struct CsrLists {
    offsets: Vec<u32>,
    entries: Vec<u32>,
}

impl CsrLists {
    fn from_counts(counts: &[u32]) -> (Self, Vec<u32>) {
        let mut offsets = vec![0_u32; counts.len() + 1];
        for (k, &c) in counts.iter().enumerate() {
            offsets[k + 1] = offsets[k] + c;
        }
        let entries = vec![0_u32; *offsets.last().unwrap_or(&0) as usize];
        let cursor = offsets[..counts.len()].to_vec();
        (CsrLists { offsets, entries }, cursor)
    }

    fn list(&self, key: usize) -> &[u32] {
        &self.entries[self.offsets[key] as usize..self.offsets[key + 1] as usize]
    }
}

/// Per-id inverted indexes over a path set's requirements — six CSR tables
/// over the netlist's dense id spaces, built by one counting pass and one
/// fill pass — so each conflict rule reads as "gather every path filed
/// under the same id".
struct DenseIndexes {
    by_through: CsrLists,
    stable_gate: CsrLists,
    stable_zero: CsrLists,
    stable_one: CsrLists,
    by_source: CsrLists,
    stable_ff: CsrLists,
}

impl DenseIndexes {
    fn build(netlist: &Netlist, paths: &[PathView<'_>], reqs: &[PathRequirements]) -> Self {
        let ff_count = netlist.flip_flop_count();
        let gate_count = netlist.gate_count();
        let sig_count = ff_count + gate_count;
        let mut c_through = vec![0_u32; gate_count];
        let mut c_stable_gate = vec![0_u32; gate_count];
        let mut c_zero = vec![0_u32; sig_count];
        let mut c_one = vec![0_u32; sig_count];
        let mut c_source = vec![0_u32; ff_count];
        let mut c_stable_ff = vec![0_u32; ff_count];
        for (req, path) in reqs.iter().zip(paths) {
            for &g in &req.through {
                c_through[g.index()] += 1;
            }
            for &(sig, val) in &req.stable {
                match sig {
                    Signal::Gate(g) => c_stable_gate[g.index()] += 1,
                    Signal::Ff(f) => c_stable_ff[f.index()] += 1,
                }
                match val {
                    StableValue::Zero => c_zero[dense_signal(sig, ff_count)] += 1,
                    StableValue::One => c_one[dense_signal(sig, ff_count)] += 1,
                    StableValue::Any => {}
                }
            }
            c_source[path.source.index()] += 1;
        }
        let (mut by_through, mut cur_through) = CsrLists::from_counts(&c_through);
        let (mut stable_gate, mut cur_stable_gate) = CsrLists::from_counts(&c_stable_gate);
        let (mut stable_zero, mut cur_zero) = CsrLists::from_counts(&c_zero);
        let (mut stable_one, mut cur_one) = CsrLists::from_counts(&c_one);
        let (mut by_source, mut cur_source) = CsrLists::from_counts(&c_source);
        let (mut stable_ff, mut cur_stable_ff) = CsrLists::from_counts(&c_stable_ff);
        let push = |csr: &mut CsrLists, cur: &mut [u32], key: usize, i: u32| {
            csr.entries[cur[key] as usize] = i;
            cur[key] += 1;
        };
        for (i, (req, path)) in reqs.iter().zip(paths).enumerate() {
            let i = i as u32;
            for &g in &req.through {
                push(&mut by_through, &mut cur_through, g.index(), i);
            }
            for &(sig, val) in &req.stable {
                match sig {
                    Signal::Gate(g) => push(&mut stable_gate, &mut cur_stable_gate, g.index(), i),
                    Signal::Ff(f) => push(&mut stable_ff, &mut cur_stable_ff, f.index(), i),
                }
                match val {
                    StableValue::Zero => {
                        push(&mut stable_zero, &mut cur_zero, dense_signal(sig, ff_count), i);
                    }
                    StableValue::One => {
                        push(&mut stable_one, &mut cur_one, dense_signal(sig, ff_count), i);
                    }
                    StableValue::Any => {}
                }
            }
            push(&mut by_source, &mut cur_source, path.source.index(), i);
        }
        DenseIndexes { by_through, stable_gate, stable_zero, stable_one, by_source, stable_ff }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlipFlop, Gate, GateKind, PathKind, PathSet, Point, Rect};

    include!("../tests/support/dense_exclusions.rs");

    impl MutualExclusions {
        /// The all-pairs construction: the independent oracle the
        /// differential tests pin the sparse [`build`](Self::build) against.
        pub(crate) fn build_dense(netlist: &Netlist, paths: &[PathView<'_>]) -> Self {
            let mut offsets = vec![0];
            let mut neighbors = Vec::new();
            for row in dense_exclusion_rows(netlist, paths) {
                neighbors.extend(row);
                offsets.push(neighbors.len());
            }
            MutualExclusions { offsets, neighbors }
        }
    }

    /// Two disjoint inverter chains (always compatible) and one NAND whose
    /// side input is another chain's gate (conflicts).
    fn fixture() -> (Netlist, PathSet) {
        let die = Rect::new(0.0, 0.0, 10.0, 10.0);
        let mut n = Netlist::new("s", die);
        let f0 = n.add_flip_flop(FlipFlop::new("f0", Point::new(1.0, 1.0)));
        let f1 = n.add_flip_flop(FlipFlop::new("f1", Point::new(2.0, 1.0)));
        let f2 = n.add_flip_flop(FlipFlop::new("f2", Point::new(3.0, 1.0)));
        let f3 = n.add_flip_flop(FlipFlop::new("f3", Point::new(4.0, 1.0)));
        let f4 = n.add_flip_flop(FlipFlop::new("f4", Point::new(5.0, 1.0)));

        // Chain A: f0 -> g0(INV) -> g1(BUF) -> f1.
        let g0 = n.add_gate(Gate::new(GateKind::Inv, Point::new(1.0, 2.0), vec![Signal::Ff(f0)]));
        let g1 = n.add_gate(Gate::new(GateKind::Buf, Point::new(1.5, 2.0), vec![Signal::Gate(g0)]));
        // Chain B: f2 -> g2(INV) -> f3.
        let g2 = n.add_gate(Gate::new(GateKind::Inv, Point::new(3.0, 2.0), vec![Signal::Ff(f2)]));
        // Gate g3: NAND(f3, g1) — side input taps chain A's output.
        let g3 = n.add_gate(Gate::new(
            GateKind::Nand2,
            Point::new(4.0, 2.0),
            vec![Signal::Ff(f3), Signal::Gate(g1)],
        ));

        let mut paths = PathSet::new();
        paths.add(f0, f1, vec![g0, g1], PathKind::Max); // A
        paths.add(f2, f3, vec![g2], PathKind::Max); // B
        paths.add(f3, f4, vec![g3], PathKind::Max); // C (side = g1)
        (n, paths)
    }

    #[test]
    fn disjoint_chains_are_compatible() {
        let (n, paths) = fixture();
        let a = PathRequirements::compute(&n, paths.path(crate::PathId::new(0))).unwrap();
        let b = PathRequirements::compute(&n, paths.path(crate::PathId::new(1))).unwrap();
        assert!(a.compatible(&b));
        assert!(b.compatible(&a));
    }

    #[test]
    fn side_input_toggled_by_other_path_conflicts() {
        let (n, paths) = fixture();
        let a = PathRequirements::compute(&n, paths.path(crate::PathId::new(0))).unwrap();
        let c = PathRequirements::compute(&n, paths.path(crate::PathId::new(2))).unwrap();
        // Path C needs g1 stable (side input of its NAND), but path A
        // toggles g1.
        assert!(!c.compatible(&a));
        assert!(!a.compatible(&c));
    }

    #[test]
    fn requirements_capture_non_controlling_values() {
        let (n, paths) = fixture();
        let c = PathRequirements::compute(&n, paths.path(crate::PathId::new(2))).unwrap();
        // NAND side input must be 1 (non-controlling).
        assert_eq!(c.stable().len(), 1);
        assert_eq!(c.stable()[0], (Signal::Gate(crate::GateId::new(1)), StableValue::One));
        assert_eq!(c.through(), &[crate::GateId::new(3)]);
    }

    #[test]
    fn shared_through_gate_conflicts() {
        let die = Rect::new(0.0, 0.0, 10.0, 10.0);
        let mut n = Netlist::new("s", die);
        let f0 = n.add_flip_flop(FlipFlop::new("f0", Point::new(1.0, 1.0)));
        let f1 = n.add_flip_flop(FlipFlop::new("f1", Point::new(2.0, 1.0)));
        let f2 = n.add_flip_flop(FlipFlop::new("f2", Point::new(3.0, 1.0)));
        let f3 = n.add_flip_flop(FlipFlop::new("f3", Point::new(4.0, 1.0)));
        // Shared gate: AND2(f0, f2) feeds both sinks via separate buffers.
        let shared = n.add_gate(Gate::new(
            GateKind::And2,
            Point::new(2.0, 2.0),
            vec![Signal::Ff(f0), Signal::Ff(f2)],
        ));
        let b1 =
            n.add_gate(Gate::new(GateKind::Buf, Point::new(2.5, 2.0), vec![Signal::Gate(shared)]));
        let b2 =
            n.add_gate(Gate::new(GateKind::Buf, Point::new(2.5, 3.0), vec![Signal::Gate(shared)]));
        let mut paths = PathSet::new();
        paths.add(f0, f1, vec![shared, b1], PathKind::Max);
        paths.add(f2, f3, vec![shared, b2], PathKind::Max);

        let a = PathRequirements::compute(&n, paths.path(crate::PathId::new(0))).unwrap();
        let b = PathRequirements::compute(&n, paths.path(crate::PathId::new(1))).unwrap();
        assert!(!a.compatible(&b));
    }

    #[test]
    fn mutual_exclusions_cover_source_toggling() {
        let (n, paths) = fixture();
        let refs: Vec<PathView<'_>> = paths.iter().collect();
        let mx = MutualExclusions::build(&n, &refs, 1).unwrap();
        // C's NAND takes f3 as its on-path input; path B *ends* at f3 but
        // that is an endpoint conflict, not a sensitization one. A and C
        // conflict through g1.
        assert!(mx.excludes(0, 2));
        assert!(mx.excludes(2, 0));
        assert!(!mx.excludes(0, 1));
        let rows: Vec<&[u32]> = (0..3).map(|i| mx.neighbors(i)).collect();
        assert_eq!(rows, [&[2][..], &[], &[0]]);
    }

    #[test]
    fn own_feedback_side_input_is_not_a_self_conflict() {
        // A gate whose side input taps an earlier gate of the same path.
        let die = Rect::new(0.0, 0.0, 10.0, 10.0);
        let mut n = Netlist::new("s", die);
        let f0 = n.add_flip_flop(FlipFlop::new("f0", Point::new(1.0, 1.0)));
        let f1 = n.add_flip_flop(FlipFlop::new("f1", Point::new(2.0, 1.0)));
        let g0 = n.add_gate(Gate::new(GateKind::Inv, Point::new(1.0, 2.0), vec![Signal::Ff(f0)]));
        let g1 = n.add_gate(Gate::new(
            GateKind::And2,
            Point::new(1.5, 2.0),
            vec![Signal::Gate(g0), Signal::Gate(g0)],
        ));
        let mut paths = PathSet::new();
        paths.add(f0, f1, vec![g0, g1], PathKind::Max);
        let r = PathRequirements::compute(&n, paths.path(crate::PathId::new(0))).unwrap();
        // g0 is on-path; it must not appear as a stable requirement.
        assert!(r.stable().is_empty());
    }

    #[test]
    fn stable_value_compatibility_table() {
        use StableValue::*;
        assert!(Zero.compatible(Zero));
        assert!(One.compatible(One));
        assert!(!Zero.compatible(One));
        assert!(!One.compatible(Zero));
        assert!(Any.compatible(Zero));
        assert!(Any.compatible(One));
        assert!(Any.compatible(Any));
    }

    #[test]
    fn sparse_build_matches_dense_on_fixture() {
        let (n, paths) = fixture();
        let refs: Vec<PathView<'_>> = paths.iter().collect();
        let sparse = MutualExclusions::build(&n, &refs, 1).unwrap();
        assert_eq!(sparse, MutualExclusions::build_dense(&n, &refs));
    }

    #[test]
    fn sparse_build_matches_dense_on_every_topology() {
        use crate::generate::{BenchmarkSpec, GeneratedBenchmark};
        use crate::topology::Topology;
        let base = BenchmarkSpec::iscas89_s9234().scaled_down(10);
        for topology in Topology::all() {
            let spec = base.clone().with_topology(topology);
            let bench = GeneratedBenchmark::generate(&spec, 1);
            let refs: Vec<PathView<'_>> = bench.paths.iter().collect();
            let sparse = MutualExclusions::build(&bench.netlist, &refs, 1).unwrap();
            let dense = MutualExclusions::build_dense(&bench.netlist, &refs);
            assert_eq!(sparse, dense, "topology {}", topology.name());
        }
    }

    #[test]
    fn fast_requirements_match_reference_on_every_topology() {
        use crate::generate::{BenchmarkSpec, GeneratedBenchmark};
        use crate::topology::Topology;
        let base = BenchmarkSpec::iscas89_s9234().scaled_down(10);
        let mut scratch = Vec::new();
        for topology in Topology::all() {
            let spec = base.clone().with_topology(topology);
            let bench = GeneratedBenchmark::generate(&spec, 1);
            for path in bench.paths.iter() {
                let reference = PathRequirements::compute(&bench.netlist, path).unwrap();
                let fast = compute_requirements_fast(&bench.netlist, path, &mut scratch).unwrap();
                assert_eq!(fast, reference, "topology {}", topology.name());
            }
        }
    }

    #[test]
    fn threaded_build_matches_serial_on_every_topology() {
        use crate::generate::{BenchmarkSpec, GeneratedBenchmark};
        use crate::topology::Topology;
        let base = BenchmarkSpec::iscas89_s9234().scaled_down(10);
        for topology in Topology::all() {
            let spec = base.clone().with_topology(topology);
            let bench = GeneratedBenchmark::generate(&spec, 1);
            let refs: Vec<PathView<'_>> = bench.paths.iter().collect();
            // At one thread the gather runs inline: the serial run, which
            // `sparse_build_matches_dense_on_every_topology` pins to the
            // dense oracle.
            let serial = MutualExclusions::build(&bench.netlist, &refs, 1).unwrap();
            for threads in [4, 8] {
                let threaded = MutualExclusions::build(&bench.netlist, &refs, threads).unwrap();
                assert_eq!(threaded, serial, "topology {} threads {threads}", topology.name());
            }
        }
    }

    #[test]
    fn threaded_build_matches_dense_on_fixture() {
        let (n, paths) = fixture();
        let refs: Vec<PathView<'_>> = paths.iter().collect();
        let dense = MutualExclusions::build_dense(&n, &refs);
        for threads in [1, 3, 16] {
            let threaded = MutualExclusions::build(&n, &refs, threads).unwrap();
            assert_eq!(threaded, dense, "threads {threads}");
        }
    }
}
