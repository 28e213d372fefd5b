use std::collections::HashMap;

use crate::{CircuitError, FlipFlopId, GateId, Netlist, PathId, Result, Signal};

/// Whether a path carries a setup-relevant maximum delay or a hold-relevant
/// minimum delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathKind {
    /// Longest (critical) combinational path between the flip-flop pair;
    /// constrains setup timing (paper eq. 1).
    Max,
    /// Shortest combinational path between the flip-flop pair; constrains
    /// hold timing (paper eq. 2).
    Min,
}

/// A register-to-register combinational path, as an owned value.
///
/// The gate chain is ordered from source to sink: gate 0 is fed (directly or
/// through a side input) by the source flip-flop, each later gate is fed by
/// its predecessor, and the sink flip-flop's D input is driven by the last
/// gate.
///
/// Owned paths are the construction / detached-storage currency (short
/// paths, test fixtures). Paths *inside* a [`PathSet`] live in a flat
/// [`PathTable`] and are accessed through the borrowed [`PathView`], which
/// exposes the same fields without a per-path heap allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedPath {
    /// Identifier within the owning [`PathSet`].
    pub id: PathId,
    /// Launching flip-flop `i`.
    pub source: FlipFlopId,
    /// Capturing flip-flop `j`.
    pub sink: FlipFlopId,
    /// Gate chain from source to sink.
    pub gates: Vec<GateId>,
    /// Max (setup) or min (hold) path.
    pub kind: PathKind,
}

impl TimedPath {
    /// Number of gates on the path.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// `true` if the path has no gates (invalid; rejected by validation).
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The `(source, sink)` flip-flop pair this path connects.
    pub fn endpoints(&self) -> (FlipFlopId, FlipFlopId) {
        (self.source, self.sink)
    }

    /// This path as a borrowed [`PathView`].
    pub fn view(&self) -> PathView<'_> {
        PathView {
            id: self.id,
            source: self.source,
            sink: self.sink,
            gates: &self.gates,
            kind: self.kind,
        }
    }
}

/// A borrowed view of one path stored in a [`PathTable`].
///
/// Field-compatible with [`TimedPath`] (`source`, `sink`, `kind`, and
/// `gates` — as a slice into the table's shared gate buffer), `Copy`, and
/// cheap to pass around: looking at a path never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathView<'a> {
    /// Identifier within the owning [`PathSet`].
    pub id: PathId,
    /// Launching flip-flop `i`.
    pub source: FlipFlopId,
    /// Capturing flip-flop `j`.
    pub sink: FlipFlopId,
    /// Gate chain from source to sink (slice into the flat table).
    pub gates: &'a [GateId],
    /// Max (setup) or min (hold) path.
    pub kind: PathKind,
}

impl PathView<'_> {
    /// Number of gates on the path.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// `true` if the path has no gates (invalid; rejected by validation).
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The `(source, sink)` flip-flop pair this path connects.
    pub fn endpoints(&self) -> (FlipFlopId, FlipFlopId) {
        (self.source, self.sink)
    }

    /// `true` if the path touches the given flip-flop as source or sink.
    pub fn touches(&self, ff: FlipFlopId) -> bool {
        self.source == ff || self.sink == ff
    }

    /// `true` if two paths cannot be measured in the same test batch
    /// (paper §3.2): they *converge at* the same flip-flop (shared sink — a
    /// latching failure could not be attributed to either path) or *leave
    /// from* the same flip-flop (shared source — one launch transition
    /// cannot serve two measured paths).
    ///
    /// Chained paths where one path's sink is another's source are fine:
    /// that is exactly the paper's "arranged in series" batch (its Fig. 5
    /// example `p14, p46, p67, ...`), because the launch value is scanned
    /// in while the capture is observed per sink.
    pub fn conflicts_with(&self, other: PathView<'_>) -> bool {
        self.source == other.source || self.sink == other.sink
    }

    /// Copies this view into an owned [`TimedPath`].
    pub fn to_owned(&self) -> TimedPath {
        TimedPath {
            id: self.id,
            source: self.source,
            sink: self.sink,
            gates: self.gates.to_vec(),
            kind: self.kind,
        }
    }
}

/// Compact flat storage for a set of paths: per-path scalars live in
/// parallel arrays and every gate chain is a slice of one shared buffer
/// (CSR layout — `gate_off[i]..gate_off[i + 1]` indexes `gate_data`).
///
/// Industrial-scale circuits carry 10⁴–10⁶ sensitizable paths; a `Vec` of
/// per-path `Vec<GateId>`s costs one heap allocation plus ~3 words of
/// overhead per path and scatters chains across the heap. The flat table
/// stores the same information in five contiguous arrays, so building a
/// million-path set is a handful of amortized `extend`s and iterating
/// chains is sequential memory traffic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PathTable {
    source: Vec<FlipFlopId>,
    sink: Vec<FlipFlopId>,
    kind: Vec<PathKind>,
    /// All gate chains, concatenated in path order.
    gate_data: Vec<GateId>,
    /// `gate_off[i]..gate_off[i + 1]` is path `i`'s chain; always has
    /// `len() + 1` entries (the trailing entry is `gate_data.len()`).
    gate_off: Vec<u32>,
}

impl PathTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        PathTable {
            source: Vec::new(),
            sink: Vec::new(),
            kind: Vec::new(),
            gate_data: Vec::new(),
            gate_off: vec![0],
        }
    }

    /// Pre-allocates room for `paths` paths totalling `gates` chain gates.
    pub fn with_capacity(paths: usize, gates: usize) -> Self {
        let mut t = PathTable {
            source: Vec::with_capacity(paths),
            sink: Vec::with_capacity(paths),
            kind: Vec::with_capacity(paths),
            gate_data: Vec::with_capacity(gates),
            gate_off: Vec::with_capacity(paths + 1),
        };
        t.gate_off.push(0);
        t
    }

    /// Appends a path from a gate slice (no intermediate `Vec` needed) and
    /// returns its dense index.
    pub fn push(
        &mut self,
        source: FlipFlopId,
        sink: FlipFlopId,
        gates: &[GateId],
        kind: PathKind,
    ) -> usize {
        let idx = self.source.len();
        self.source.push(source);
        self.sink.push(sink);
        self.kind.push(kind);
        self.gate_data.extend_from_slice(gates);
        self.gate_off.push(self.gate_data.len() as u32);
        idx
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        self.source.len()
    }

    /// `true` if the table holds no paths.
    pub fn is_empty(&self) -> bool {
        self.source.is_empty()
    }

    /// The view of path `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn view(&self, idx: usize) -> PathView<'_> {
        let (lo, hi) = (self.gate_off[idx] as usize, self.gate_off[idx + 1] as usize);
        PathView {
            id: PathId::new(idx as u32),
            source: self.source[idx],
            sink: self.sink[idx],
            gates: &self.gate_data[lo..hi],
            kind: self.kind[idx],
        }
    }

    /// Source flip-flops, one per path.
    pub fn sources(&self) -> &[FlipFlopId] {
        &self.source
    }

    /// Sink flip-flops, one per path.
    pub fn sinks(&self) -> &[FlipFlopId] {
        &self.sink
    }
}

/// An indexed collection of paths over one netlist, stored in a flat
/// [`PathTable`].
///
/// Provides the per-flip-flop incidence queries used by test multiplexing
/// and validates chain connectivity against the netlist. Lookups return
/// borrowed [`PathView`]s; nothing allocates per path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PathSet {
    table: PathTable,
}

impl PathSet {
    /// Creates an empty path set.
    pub fn new() -> Self {
        PathSet { table: PathTable::new() }
    }

    /// Creates an empty set pre-allocated for `paths` paths totalling
    /// `gates` chain gates.
    pub fn with_capacity(paths: usize, gates: usize) -> Self {
        PathSet { table: PathTable::with_capacity(paths, gates) }
    }

    /// Adds a path, assigning and returning its id.
    pub fn add(
        &mut self,
        source: FlipFlopId,
        sink: FlipFlopId,
        gates: Vec<GateId>,
        kind: PathKind,
    ) -> PathId {
        self.add_slice(source, sink, &gates, kind)
    }

    /// Adds a path from a gate slice (large-scale generators reuse one
    /// scratch buffer across millions of paths), assigning and returning
    /// its id.
    pub fn add_slice(
        &mut self,
        source: FlipFlopId,
        sink: FlipFlopId,
        gates: &[GateId],
        kind: PathKind,
    ) -> PathId {
        PathId::new(self.table.push(source, sink, gates, kind) as u32)
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` if the set contains no paths.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The underlying flat table.
    pub fn table(&self) -> &PathTable {
        &self.table
    }

    /// Looks up a path.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (path ids are only minted by
    /// [`add`](Self::add), so an invalid id is a logic error).
    pub fn path(&self, id: PathId) -> PathView<'_> {
        self.table.view(id.index())
    }

    /// Iterates over all paths.
    pub fn iter(&self) -> impl Iterator<Item = PathView<'_>> {
        (0..self.table.len()).map(|i| self.table.view(i))
    }

    /// Ids of all paths, in insertion order.
    pub fn ids(&self) -> impl Iterator<Item = PathId> + '_ {
        (0..self.table.len() as u32).map(PathId::new)
    }

    /// Map from flip-flop to the paths touching it (as source or sink).
    pub fn incidence(&self) -> HashMap<FlipFlopId, Vec<PathId>> {
        let mut map: HashMap<FlipFlopId, Vec<PathId>> = HashMap::new();
        for p in self.iter() {
            map.entry(p.source).or_default().push(p.id);
            if p.sink != p.source {
                map.entry(p.sink).or_default().push(p.id);
            }
        }
        map
    }

    /// Validates every path against the netlist: non-empty chains, valid
    /// ids, and connectivity (each gate after the first takes its
    /// predecessor as an input; the first gate takes the source flip-flop
    /// as an input).
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self, netlist: &Netlist) -> Result<()> {
        for p in self.iter() {
            if p.gates.is_empty() {
                return Err(CircuitError::EmptyPath { path: p.id });
            }
            netlist.flip_flop(p.source)?;
            netlist.flip_flop(p.sink)?;
            // Source link: first gate must see the source flip-flop.
            let first = netlist.gate(p.gates[0])?;
            if !first.inputs.contains(&Signal::Ff(p.source)) {
                return Err(CircuitError::BrokenPathChain { path: p.id, position: 0 });
            }
            // Internal links.
            for (pos, pair) in p.gates.windows(2).enumerate() {
                let next = netlist.gate(pair[1])?;
                if !next.inputs.contains(&Signal::Gate(pair[0])) {
                    return Err(CircuitError::BrokenPathChain { path: p.id, position: pos + 1 });
                }
            }
        }
        Ok(())
    }
}

impl FromIterator<TimedPath> for PathSet {
    /// Collects paths, reassigning dense ids in iteration order.
    fn from_iter<T: IntoIterator<Item = TimedPath>>(iter: T) -> Self {
        let mut set = PathSet::new();
        for p in iter {
            set.add_slice(p.source, p.sink, &p.gates, p.kind);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlipFlop, Gate, GateKind, Netlist, Point, Rect};

    fn fixture() -> (Netlist, Vec<FlipFlopId>, Vec<GateId>) {
        let mut n = Netlist::new("t", Rect::new(0.0, 0.0, 100.0, 100.0));
        let ffs: Vec<FlipFlopId> = (0..3)
            .map(|i| n.add_flip_flop(FlipFlop::new(format!("ff{i}"), Point::new(i as f64, 0.0))))
            .collect();
        let g0 =
            n.add_gate(Gate::new(GateKind::Inv, Point::new(0.0, 1.0), vec![Signal::Ff(ffs[0])]));
        let g1 = n.add_gate(Gate::new(
            GateKind::Nand2,
            Point::new(1.0, 1.0),
            vec![Signal::Gate(g0), Signal::Ff(ffs[2])],
        ));
        (n, ffs, vec![g0, g1])
    }

    #[test]
    fn add_assigns_dense_ids() {
        let (_, ffs, gates) = fixture();
        let mut set = PathSet::new();
        let p0 = set.add(ffs[0], ffs[1], vec![gates[0]], PathKind::Max);
        let p1 = set.add(ffs[1], ffs[2], vec![gates[1]], PathKind::Max);
        assert_eq!(p0.index(), 0);
        assert_eq!(p1.index(), 1);
        assert_eq!(set.len(), 2);
        assert_eq!(set.path(p1).source, ffs[1]);
    }

    #[test]
    fn table_layout_is_flat_and_contiguous() {
        let (_, ffs, gates) = fixture();
        let mut set = PathSet::with_capacity(2, 3);
        set.add(ffs[0], ffs[1], vec![gates[0], gates[1]], PathKind::Max);
        set.add_slice(ffs[1], ffs[2], &[gates[1]], PathKind::Min);
        let t = set.table();
        assert_eq!(t.len(), 2);
        assert_eq!(t.sources(), &[ffs[0], ffs[1]]);
        assert_eq!(t.sinks(), &[ffs[1], ffs[2]]);
        assert_eq!(t.view(0).gates, &[gates[0], gates[1]]);
        assert_eq!(t.view(1).gates, &[gates[1]]);
        assert_eq!(t.view(1).kind, PathKind::Min);
        // Views of one table share the flat gate buffer: path 1's chain
        // starts right where path 0's ends.
        let (a, b) = (t.view(0), t.view(1));
        assert_eq!(a.gates.as_ptr().wrapping_add(a.gates.len()), b.gates.as_ptr());
    }

    #[test]
    fn views_round_trip_to_owned_paths() {
        let (_, ffs, gates) = fixture();
        let mut set = PathSet::new();
        let id = set.add(ffs[0], ffs[1], vec![gates[0], gates[1]], PathKind::Max);
        let owned = set.path(id).to_owned();
        assert_eq!(owned.source, ffs[0]);
        assert_eq!(owned.gates, vec![gates[0], gates[1]]);
        assert_eq!(owned.len(), 2);
        assert!(!owned.is_empty());
        assert_eq!(owned.endpoints(), (ffs[0], ffs[1]));
        assert_eq!(owned.view(), set.path(id));
    }

    #[test]
    fn conflict_detection_follows_series_rule() {
        let (_, ffs, gates) = fixture();
        let mut set = PathSet::new();
        let a = set.add(ffs[0], ffs[1], vec![gates[0]], PathKind::Max);
        let b = set.add(ffs[1], ffs[2], vec![gates[1]], PathKind::Max);
        let c = set.add(ffs[2], ffs[0], vec![gates[0]], PathKind::Max);
        // A ring of chained paths is a valid series batch: no conflicts.
        assert!(!set.path(a).conflicts_with(set.path(b)));
        assert!(!set.path(b).conflicts_with(set.path(c)));
        assert!(!set.path(a).conflicts_with(set.path(c)));
        // Same sink conflicts (the paper's p14 vs p34 case).
        let d = set.add(ffs[2], ffs[1], vec![gates[1]], PathKind::Max);
        assert!(set.path(a).conflicts_with(set.path(d)));
        // Same source conflicts too (one launch cannot serve two paths).
        let e = set.add(ffs[0], ffs[2], vec![gates[0]], PathKind::Max);
        assert!(set.path(a).conflicts_with(set.path(e)));
        // Identical endpoints conflict trivially.
        let f = set.add(ffs[0], ffs[1], vec![gates[0]], PathKind::Max);
        assert!(set.path(a).conflicts_with(set.path(f)));
    }

    #[test]
    fn validate_accepts_connected_chain() {
        let (n, ffs, gates) = fixture();
        let mut set = PathSet::new();
        set.add(ffs[0], ffs[1], vec![gates[0], gates[1]], PathKind::Max);
        set.validate(&n).unwrap();
    }

    #[test]
    fn validate_rejects_broken_chain() {
        let (n, ffs, gates) = fixture();
        let mut set = PathSet::new();
        // gates[1] does not take ff1 as an input, so starting there breaks
        // the source link.
        set.add(ffs[1], ffs[0], vec![gates[1]], PathKind::Max);
        assert!(matches!(set.validate(&n), Err(CircuitError::BrokenPathChain { position: 0, .. })));
    }

    #[test]
    fn validate_rejects_empty_path() {
        let (n, ffs, _) = fixture();
        let mut set = PathSet::new();
        set.add(ffs[0], ffs[1], vec![], PathKind::Max);
        assert!(matches!(set.validate(&n), Err(CircuitError::EmptyPath { .. })));
    }

    #[test]
    fn incidence_counts_paths_per_ff() {
        let (_, ffs, gates) = fixture();
        let mut set = PathSet::new();
        set.add(ffs[0], ffs[1], vec![gates[0]], PathKind::Max);
        set.add(ffs[0], ffs[2], vec![gates[0]], PathKind::Max);
        let inc = set.incidence();
        assert_eq!(inc[&ffs[0]].len(), 2);
        assert_eq!(inc[&ffs[1]].len(), 1);
        assert_eq!(inc[&ffs[2]].len(), 1);
    }

    #[test]
    fn from_iterator_reassigns_ids() {
        let (_, ffs, gates) = fixture();
        let mut set = PathSet::new();
        set.add(ffs[0], ffs[1], vec![gates[0]], PathKind::Max);
        set.add(ffs[1], ffs[2], vec![gates[1]], PathKind::Max);
        let rebuilt: PathSet = set.iter().skip(1).map(|v| v.to_owned()).collect();
        assert_eq!(rebuilt.len(), 1);
        assert_eq!(rebuilt.path(PathId::new(0)).source, ffs[1]);
    }
}
