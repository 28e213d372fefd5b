//! Plain-text netlist and path-set serialization.
//!
//! A minimal, line-oriented format in the spirit of the ISCAS `.bench`
//! files, extended with placement, tunable buffers, and timed paths:
//!
//! ```text
//! # effitest netlist v1
//! netlist s9234
//! die 0 0 1000 1000
//! ff hub0 120.5 88.2 2 1 buffer -12.5 25 20 din g41
//! ff ff0 130.1 90.0 2 1
//! gate INV 121.0 89.0 ff0
//! gate NAND2 122.0 89.5 g0 ff1
//! path ff0 ff1 max g0 g1
//! path ff0 ff1 min g1
//! ```
//!
//! Signals are written `ffN` / `gN`. The format round-trips exactly (up to
//! floating-point text representation).

use std::fmt::Write as _;

use crate::{
    CircuitError, FlipFlop, FlipFlopId, Gate, GateId, Netlist, PathKind, PathSet, Point, Rect,
    Result, Signal, TuningBufferSpec,
};

/// Serializes a netlist (and optionally a path set) to the text format.
pub fn to_text(netlist: &Netlist, paths: Option<&PathSet>) -> String {
    let mut out = String::new();
    out.push_str("# effitest netlist v1\n");
    let _ = writeln!(out, "netlist {}", netlist.name());
    let die = netlist.die();
    let _ = writeln!(out, "die {} {} {} {}", die.x0, die.y0, die.x1, die.y1);
    for (_, ff) in netlist.flip_flops() {
        let _ = write!(
            out,
            "ff {} {} {} {} {}",
            ff.name, ff.location.x, ff.location.y, ff.setup, ff.hold
        );
        if let Some(b) = ff.buffer {
            let _ = write!(out, " buffer {} {} {}", b.min(), b.width(), b.steps());
        }
        if let Some(din) = ff.data_input {
            let _ = write!(out, " din {}", signal_text(din));
        }
        out.push('\n');
    }
    for (_, gate) in netlist.gates() {
        let _ = write!(out, "gate {} {} {}", gate.kind, gate.location.x, gate.location.y);
        for &input in &gate.inputs {
            let _ = write!(out, " {}", signal_text(input));
        }
        out.push('\n');
    }
    if let Some(paths) = paths {
        for p in paths.iter() {
            let kind = match p.kind {
                PathKind::Max => "max",
                PathKind::Min => "min",
            };
            let _ = write!(out, "path ff{} ff{} {}", p.source.index(), p.sink.index(), kind);
            for &g in p.gates {
                let _ = write!(out, " g{}", g.index());
            }
            out.push('\n');
        }
    }
    out
}

/// Parses the text format back into a netlist and path set.
///
/// # Errors
///
/// Returns [`CircuitError::Parse`] with a 1-based line number on malformed
/// input. The parsed netlist is *not* validated; call
/// [`Netlist::validate`] afterwards if needed.
pub fn from_text(text: &str) -> Result<(Netlist, PathSet)> {
    let mut name = String::from("unnamed");
    let mut die: Option<Rect> = None;
    let mut ffs: Vec<FlipFlop> = Vec::new();
    let mut gates: Vec<Gate> = Vec::new();
    let mut paths = PathSet::new();
    let mut path_lines: Vec<(usize, Vec<String>)> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = trimmed.split_whitespace().collect();
        match tokens[0] {
            "netlist" => {
                name = tokens
                    .get(1)
                    .ok_or_else(|| parse_err(line, "netlist needs a name"))?
                    .to_string();
            }
            "die" => {
                let v = parse_floats(line, &tokens[1..], 4)?;
                die = Some(Rect::new(v[0], v[1], v[2], v[3]));
            }
            "ff" => {
                if tokens.len() < 6 {
                    return Err(parse_err(line, "ff needs name x y setup hold"));
                }
                let v = parse_floats(line, &tokens[2..6], 4)?;
                let mut ff = FlipFlop::new(tokens[1], Point::new(v[0], v[1]));
                ff.setup = v[2];
                ff.hold = v[3];
                let mut rest = &tokens[6..];
                while !rest.is_empty() {
                    match rest[0] {
                        "buffer" => {
                            if rest.len() < 4 {
                                return Err(parse_err(line, "buffer needs min width steps"));
                            }
                            let b = parse_floats(line, &rest[1..3], 2)?;
                            let steps: u32 =
                                rest[3].parse().map_err(|_| parse_err(line, "bad buffer steps"))?;
                            if steps < 2 {
                                return Err(parse_err(line, "buffer needs >= 2 steps"));
                            }
                            if b[1] < 0.0 {
                                return Err(parse_err(line, "buffer width must be >= 0"));
                            }
                            ff.buffer = Some(TuningBufferSpec::new(b[0], b[1], steps));
                            rest = &rest[4..];
                        }
                        "din" => {
                            if rest.len() < 2 {
                                return Err(parse_err(line, "din needs a signal"));
                            }
                            ff.data_input = Some(parse_signal(line, rest[1])?);
                            rest = &rest[2..];
                        }
                        other => {
                            return Err(parse_err(line, &format!("unknown ff field `{other}`")));
                        }
                    }
                }
                ffs.push(ff);
            }
            "gate" => {
                if tokens.len() < 5 {
                    return Err(parse_err(line, "gate needs kind x y inputs..."));
                }
                let kind: crate::GateKind = tokens[1]
                    .parse()
                    .map_err(|_| parse_err(line, &format!("unknown gate kind `{}`", tokens[1])))?;
                let v = parse_floats(line, &tokens[2..4], 2)?;
                let inputs: Vec<Signal> =
                    tokens[4..].iter().map(|t| parse_signal(line, t)).collect::<Result<_>>()?;
                if inputs.len() != kind.input_count() {
                    return Err(parse_err(
                        line,
                        &format!(
                            "{kind} needs {} inputs, found {}",
                            kind.input_count(),
                            inputs.len()
                        ),
                    ));
                }
                gates.push(Gate::new(kind, Point::new(v[0], v[1]), inputs));
            }
            "path" => {
                path_lines.push((line, tokens.iter().map(|s| s.to_string()).collect()));
            }
            other => return Err(parse_err(line, &format!("unknown directive `{other}`"))),
        }
    }

    let die = die.ok_or_else(|| parse_err(0, "missing die directive"))?;
    let mut netlist = Netlist::new(name, die);
    for ff in ffs {
        netlist.add_flip_flop(ff);
    }
    for gate in gates {
        netlist.add_gate(gate);
    }

    for (line, tokens) in path_lines {
        if tokens.len() < 5 {
            return Err(parse_err(line, "path needs source sink kind gates..."));
        }
        let source = parse_ff_id(line, &tokens[1])?;
        let sink = parse_ff_id(line, &tokens[2])?;
        let kind = match tokens[3].as_str() {
            "max" => PathKind::Max,
            "min" => PathKind::Min,
            other => return Err(parse_err(line, &format!("unknown path kind `{other}`"))),
        };
        let gates: Vec<GateId> =
            tokens[4..].iter().map(|t| parse_gate_id(line, t)).collect::<Result<_>>()?;
        paths.add(source, sink, gates, kind);
    }

    Ok((netlist, paths))
}

fn signal_text(sig: Signal) -> String {
    match sig {
        Signal::Ff(id) => format!("ff{}", id.index()),
        Signal::Gate(id) => format!("g{}", id.index()),
    }
}

fn parse_err(line: usize, message: &str) -> CircuitError {
    CircuitError::Parse { line, message: message.to_owned() }
}

/// Parses the first `n` tokens as finite numbers: a `NaN` or `inf` field
/// is a parse error, never a value that trips a constructor's assertion.
fn parse_floats(line: usize, tokens: &[&str], n: usize) -> Result<Vec<f64>> {
    if tokens.len() < n {
        return Err(parse_err(line, &format!("expected {n} numeric fields")));
    }
    tokens[..n]
        .iter()
        .map(|t| match t.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(parse_err(line, &format!("bad number `{t}`"))),
        })
        .collect()
}

fn parse_signal(line: usize, token: &str) -> Result<Signal> {
    if let Some(rest) = token.strip_prefix("ff") {
        Ok(Signal::Ff(FlipFlopId::new(parse_index(line, rest)?)))
    } else if let Some(rest) = token.strip_prefix('g') {
        Ok(Signal::Gate(GateId::new(parse_index(line, rest)?)))
    } else {
        Err(parse_err(line, &format!("bad signal `{token}`")))
    }
}

fn parse_ff_id(line: usize, token: &str) -> Result<FlipFlopId> {
    match parse_signal(line, token)? {
        Signal::Ff(id) => Ok(id),
        Signal::Gate(_) => Err(parse_err(line, "expected a flip-flop signal")),
    }
}

fn parse_gate_id(line: usize, token: &str) -> Result<GateId> {
    match parse_signal(line, token)? {
        Signal::Gate(id) => Ok(id),
        Signal::Ff(_) => Err(parse_err(line, "expected a gate signal")),
    }
}

fn parse_index(line: usize, s: &str) -> Result<u32> {
    s.parse().map_err(|_| parse_err(line, &format!("bad index `{s}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BenchmarkSpec, GeneratedBenchmark};

    #[test]
    fn roundtrip_generated_benchmark() {
        let spec = BenchmarkSpec::iscas89_s9234().scaled_down(20);
        let bench = GeneratedBenchmark::generate(&spec, 2);
        let text = to_text(&bench.netlist, Some(&bench.paths));
        let (netlist, paths) = from_text(&text).unwrap();
        assert_eq!(netlist.name(), bench.netlist.name());
        assert_eq!(netlist.flip_flop_count(), bench.netlist.flip_flop_count());
        assert_eq!(netlist.gate_count(), bench.netlist.gate_count());
        assert_eq!(netlist.buffer_count(), bench.netlist.buffer_count());
        assert_eq!(paths.len(), bench.paths.len());
        netlist.validate().unwrap();
        paths.validate(&netlist).unwrap();
        // Deep equality of a sample of entries.
        for (a, b) in netlist.gates().zip(bench.netlist.gates()) {
            assert_eq!(a.1.kind, b.1.kind);
            assert_eq!(a.1.inputs, b.1.inputs);
        }
        for (a, b) in paths.iter().zip(bench.paths.iter()) {
            assert_eq!(a.endpoints(), b.endpoints());
            assert_eq!(a.gates, b.gates);
            assert_eq!(a.kind, b.kind);
        }
    }

    #[test]
    fn parse_small_literal() {
        let text = "\
# comment
netlist tiny
die 0 0 10 10
ff a 1 1 2 1 buffer -0.5 1 20
ff b 2 1 2 1 din g0
gate INV 1.5 1 ff0
path ff0 ff1 max g0
";
        let (n, p) = from_text(text).unwrap();
        assert_eq!(n.name(), "tiny");
        assert_eq!(n.flip_flop_count(), 2);
        assert_eq!(n.buffer_count(), 1);
        assert_eq!(p.len(), 1);
        n.validate().unwrap();
        p.validate(&n).unwrap();
        let ff = n.flip_flop(FlipFlopId::new(1)).unwrap();
        assert_eq!(ff.data_input, Some(Signal::Gate(GateId::new(0))));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "netlist x\ndie 0 0 10 10\ngate FOO 1 1 ff0\n";
        match from_text(bad) {
            Err(CircuitError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_wrong_arity() {
        let bad = "netlist x\ndie 0 0 10 10\nff a 1 1 2 1\ngate NAND2 1 1 ff0\n";
        assert!(matches!(from_text(bad), Err(CircuitError::Parse { line: 4, .. })));
    }

    #[test]
    fn rejects_missing_die() {
        let bad = "netlist x\nff a 1 1 2 1\n";
        assert!(from_text(bad).is_err());
    }

    #[test]
    fn rejects_non_finite_buffer_fields() {
        // A NaN width once reached `TuningBufferSpec::new`'s assertion, and
        // a non-finite min parsed into a spec.
        for buffer in ["buffer 0 NaN 20", "buffer NaN 1 20", "buffer inf 1 20"] {
            let text = format!("netlist x\ndie 0 0 10 10\nff a 1 1 2 1 {buffer}\n");
            assert!(
                matches!(from_text(&text), Err(CircuitError::Parse { line: 3, .. })),
                "{buffer} was not refused"
            );
        }
    }

    #[test]
    fn rejects_bad_signal_and_path_tokens() {
        let bad = "netlist x\ndie 0 0 10 10\nff a 1 1 2 1\ngate INV 1 1 zz\n";
        assert!(from_text(bad).is_err());
        let bad2 = "netlist x\ndie 0 0 10 10\nff a 1 1 2 1\npath g0 ff0 max g0\n";
        assert!(from_text(bad2).is_err());
    }
}
