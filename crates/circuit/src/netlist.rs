use std::fmt;

use crate::{CircuitError, FlipFlopId, Gate, GateId, Point, Rect, Result, TuningBufferSpec};

/// A signal source: either a flip-flop output or a gate output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Signal {
    /// Output of a flip-flop.
    Ff(FlipFlopId),
    /// Output of a combinational gate.
    Gate(GateId),
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Signal::Ff(id) => write!(f, "{id}"),
            Signal::Gate(id) => write!(f, "{id}"),
        }
    }
}

/// A flip-flop, optionally equipped with a post-silicon tunable clock
/// buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct FlipFlop {
    /// Instance name (unique within a netlist by convention, not enforced).
    pub name: String,
    /// Placement location.
    pub location: Point,
    /// Tunable clock buffer, if this flip-flop has one.
    pub buffer: Option<TuningBufferSpec>,
    /// Setup time `s_j` (ps).
    pub setup: f64,
    /// Hold time `h_j` (ps).
    pub hold: f64,
    /// Signal driving the D input, when modeled (sink flip-flops of
    /// generated paths always have it; background flip-flops may not).
    pub data_input: Option<Signal>,
}

impl FlipFlop {
    /// Creates an ordinary flip-flop with default setup/hold of 2 ps / 1 ps.
    pub fn new(name: impl Into<String>, location: Point) -> Self {
        FlipFlop {
            name: name.into(),
            location,
            buffer: None,
            setup: 2.0,
            hold: 1.0,
            data_input: None,
        }
    }

    /// Adds a tunable buffer to this flip-flop (builder style).
    pub fn with_buffer(mut self, spec: TuningBufferSpec) -> Self {
        self.buffer = Some(spec);
        self
    }

    /// `true` if this flip-flop carries a tunable buffer.
    pub fn has_buffer(&self) -> bool {
        self.buffer.is_some()
    }
}

/// A placed, gate-level sequential netlist.
///
/// Gates are stored in topological order: every gate input must refer to a
/// flip-flop or to a gate with a *smaller* id. [`Netlist::validate`] checks
/// this along with arity and id-range invariants.
///
/// # Example
///
/// ```
/// use effitest_circuit::{FlipFlop, Gate, GateKind, Netlist, Point, Rect, Signal};
///
/// let mut n = Netlist::new("tiny", Rect::new(0.0, 0.0, 100.0, 100.0));
/// let ff = n.add_flip_flop(FlipFlop::new("ff0", Point::new(1.0, 1.0)));
/// let g = n.add_gate(Gate::new(GateKind::Inv, Point::new(2.0, 2.0), vec![Signal::Ff(ff)]));
/// assert_eq!(n.gate(g).unwrap().kind, GateKind::Inv);
/// n.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    name: String,
    die: Rect,
    ffs: Vec<FlipFlop>,
    gates: Vec<Gate>,
}

impl Netlist {
    /// Creates an empty netlist over the given die area.
    pub fn new(name: impl Into<String>, die: Rect) -> Self {
        Netlist { name: name.into(), die, ffs: Vec::new(), gates: Vec::new() }
    }

    /// The netlist name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The die rectangle.
    pub fn die(&self) -> Rect {
        self.die
    }

    /// Appends a flip-flop, returning its id.
    pub fn add_flip_flop(&mut self, ff: FlipFlop) -> FlipFlopId {
        let id = FlipFlopId::new(self.ffs.len() as u32);
        self.ffs.push(ff);
        id
    }

    /// Appends a gate, returning its id.
    pub fn add_gate(&mut self, gate: Gate) -> GateId {
        let id = GateId::new(self.gates.len() as u32);
        self.gates.push(gate);
        id
    }

    /// Number of flip-flops (`ns` in the paper's Table 1).
    pub fn flip_flop_count(&self) -> usize {
        self.ffs.len()
    }

    /// Number of gates (`ng` in the paper's Table 1).
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of flip-flops with tunable buffers (`nb`).
    pub fn buffer_count(&self) -> usize {
        self.ffs.iter().filter(|ff| ff.has_buffer()).count()
    }

    /// Looks up a flip-flop.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownFlipFlop`] for out-of-range ids.
    pub fn flip_flop(&self, id: FlipFlopId) -> Result<&FlipFlop> {
        self.ffs.get(id.index()).ok_or(CircuitError::UnknownFlipFlop { id, count: self.ffs.len() })
    }

    /// Mutable flip-flop lookup.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownFlipFlop`] for out-of-range ids.
    pub fn flip_flop_mut(&mut self, id: FlipFlopId) -> Result<&mut FlipFlop> {
        let count = self.ffs.len();
        self.ffs.get_mut(id.index()).ok_or(CircuitError::UnknownFlipFlop { id, count })
    }

    /// Looks up a gate.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownGate`] for out-of-range ids.
    pub fn gate(&self, id: GateId) -> Result<&Gate> {
        self.gates.get(id.index()).ok_or(CircuitError::UnknownGate { id, count: self.gates.len() })
    }

    /// Iterates over flip-flops with their ids.
    pub fn flip_flops(&self) -> impl Iterator<Item = (FlipFlopId, &FlipFlop)> {
        self.ffs.iter().enumerate().map(|(i, ff)| (FlipFlopId::new(i as u32), ff))
    }

    /// Iterates over gates with their ids.
    pub fn gates(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates.iter().enumerate().map(|(i, g)| (GateId::new(i as u32), g))
    }

    /// Ids of all flip-flops that carry tunable buffers.
    pub fn buffered_flip_flops(&self) -> Vec<FlipFlopId> {
        self.flip_flops().filter(|(_, ff)| ff.has_buffer()).map(|(id, _)| id).collect()
    }

    /// Sets the same buffer range on every buffered flip-flop.
    ///
    /// The paper derives buffer ranges from the design clock period (1/8 of
    /// it, 20 steps); the range is therefore known only after timing
    /// analysis, which calls this to finalize the specs.
    pub fn set_uniform_buffer_ranges(&mut self, spec: TuningBufferSpec) {
        for ff in &mut self.ffs {
            if ff.buffer.is_some() {
                ff.buffer = Some(spec);
            }
        }
    }

    /// Validates structural invariants: signal ids in range, gate arity
    /// matching the kind, topological ordering of gate inputs, placements
    /// on the die.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<()> {
        for (i, ff) in self.ffs.iter().enumerate() {
            if !self.die.contains(&ff.location) {
                return Err(CircuitError::OffDie { ff: FlipFlopId::new(i as u32) });
            }
            match ff.data_input {
                Some(Signal::Gate(g)) if g.index() >= self.gates.len() => {
                    return Err(CircuitError::UnknownGate { id: g, count: self.gates.len() });
                }
                Some(Signal::Ff(f)) if f.index() >= self.ffs.len() => {
                    return Err(CircuitError::UnknownFlipFlop { id: f, count: self.ffs.len() });
                }
                _ => {}
            }
        }
        for (i, gate) in self.gates.iter().enumerate() {
            let id = GateId::new(i as u32);
            let expected = gate.kind.input_count();
            if gate.inputs.len() != expected {
                return Err(CircuitError::BadInputCount {
                    gate: id,
                    expected,
                    found: gate.inputs.len(),
                });
            }
            for input in &gate.inputs {
                match *input {
                    Signal::Ff(ff) => {
                        if ff.index() >= self.ffs.len() {
                            return Err(CircuitError::UnknownFlipFlop {
                                id: ff,
                                count: self.ffs.len(),
                            });
                        }
                    }
                    Signal::Gate(g) => {
                        if g.index() >= self.gates.len() {
                            return Err(CircuitError::UnknownGate {
                                id: g,
                                count: self.gates.len(),
                            });
                        }
                        if g.index() >= i {
                            return Err(CircuitError::ForwardReference { gate: id, input: g });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Replaces the side input (input 1) of a 2-input gate.
    ///
    /// Used by the benchmark generator to carve short (min-delay) paths out
    /// of existing logic cones. Crate-internal: arbitrary rewiring would let
    /// callers violate topological ordering.
    pub(crate) fn replace_gate_side_input(&mut self, id: GateId, signal: Signal) {
        let gate = &mut self.gates[id.index()];
        debug_assert_eq!(gate.kind.input_count(), 2, "side input requires a 2-input gate");
        gate.inputs[1] = signal;
    }

    /// Nominal (mean) propagation delay of a gate chain, in ps.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownGate`] if any id is invalid.
    pub fn nominal_chain_delay(&self, gates: &[GateId]) -> Result<f64> {
        let mut sum = 0.0;
        for &g in gates {
            sum += self.gate(g)?.kind.nominal_delay();
        }
        Ok(sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;

    fn die() -> Rect {
        Rect::new(0.0, 0.0, 100.0, 100.0)
    }

    fn tiny() -> (Netlist, FlipFlopId, GateId) {
        let mut n = Netlist::new("t", die());
        let ff = n.add_flip_flop(FlipFlop::new("ff0", Point::new(1.0, 1.0)));
        let g = n.add_gate(Gate::new(GateKind::Inv, Point::new(2.0, 2.0), vec![Signal::Ff(ff)]));
        (n, ff, g)
    }

    #[test]
    fn add_and_lookup() {
        let (n, ff, g) = tiny();
        assert_eq!(n.flip_flop_count(), 1);
        assert_eq!(n.gate_count(), 1);
        assert_eq!(n.flip_flop(ff).unwrap().name, "ff0");
        assert_eq!(n.gate(g).unwrap().kind, GateKind::Inv);
        assert!(n.flip_flop(FlipFlopId::new(5)).is_err());
        assert!(n.gate(GateId::new(5)).is_err());
    }

    #[test]
    fn validate_accepts_well_formed() {
        let (n, _, _) = tiny();
        n.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_arity() {
        let mut n = Netlist::new("t", die());
        let ff = n.add_flip_flop(FlipFlop::new("ff0", Point::new(1.0, 1.0)));
        n.add_gate(Gate::new(
            GateKind::Nand2,
            Point::new(2.0, 2.0),
            vec![Signal::Ff(ff)], // needs 2 inputs
        ));
        assert!(matches!(n.validate(), Err(CircuitError::BadInputCount { .. })));
    }

    #[test]
    fn validate_rejects_forward_reference() {
        let mut n = Netlist::new("t", die());
        n.add_flip_flop(FlipFlop::new("ff0", Point::new(1.0, 1.0)));
        n.add_gate(Gate::new(
            GateKind::Inv,
            Point::new(2.0, 2.0),
            vec![Signal::Gate(GateId::new(0))], // self-reference
        ));
        assert!(matches!(n.validate(), Err(CircuitError::ForwardReference { .. })));
    }

    #[test]
    fn validate_rejects_unknown_signal() {
        let mut n = Netlist::new("t", die());
        n.add_flip_flop(FlipFlop::new("ff0", Point::new(1.0, 1.0)));
        n.add_gate(Gate::new(
            GateKind::Inv,
            Point::new(2.0, 2.0),
            vec![Signal::Ff(FlipFlopId::new(9))],
        ));
        assert!(matches!(n.validate(), Err(CircuitError::UnknownFlipFlop { .. })));
    }

    #[test]
    fn validate_rejects_off_die_placement() {
        let mut n = Netlist::new("t", die());
        n.add_flip_flop(FlipFlop::new("ff0", Point::new(-1.0, 1.0)));
        assert!(matches!(n.validate(), Err(CircuitError::OffDie { .. })));
    }

    #[test]
    fn buffers_are_tracked() {
        let mut n = Netlist::new("t", die());
        let spec = TuningBufferSpec::centered(2.0, 20);
        n.add_flip_flop(FlipFlop::new("a", Point::new(1.0, 1.0)));
        let b = n.add_flip_flop(FlipFlop::new("b", Point::new(2.0, 2.0)).with_buffer(spec));
        assert_eq!(n.buffer_count(), 1);
        assert_eq!(n.buffered_flip_flops(), vec![b]);

        let wider = TuningBufferSpec::centered(4.0, 20);
        n.set_uniform_buffer_ranges(wider);
        assert_eq!(n.flip_flop(b).unwrap().buffer, Some(wider));
        // Unbuffered flip-flops stay unbuffered.
        assert_eq!(n.buffer_count(), 1);
    }

    #[test]
    fn nominal_chain_delay_sums_kinds() {
        let mut n = Netlist::new("t", die());
        let ff = n.add_flip_flop(FlipFlop::new("a", Point::new(1.0, 1.0)));
        let g0 = n.add_gate(Gate::new(GateKind::Inv, Point::new(2.0, 2.0), vec![Signal::Ff(ff)]));
        let g1 = n.add_gate(Gate::new(GateKind::Buf, Point::new(3.0, 3.0), vec![Signal::Gate(g0)]));
        let d = n.nominal_chain_delay(&[g0, g1]).unwrap();
        assert_eq!(d, GateKind::Inv.nominal_delay() + GateKind::Buf.nominal_delay());
    }
}
