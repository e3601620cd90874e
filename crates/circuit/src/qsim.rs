//! Reading and writing circuits in the qsim text format.
//!
//! The Sycamore random-circuit instances evaluated by the paper (and by
//! cotengra, the Alibaba simulator and the 2021 Gordon Bell work) are
//! distributed as qsim circuit files: a first line with the qubit count,
//! then one gate per line as `<cycle> <gate> <qubits...> [params...]`.
//! Supporting the format means the simulator can consume the *actual*
//! published circuit files when they are available, instead of the
//! statistically equivalent circuits `rqc.rs` generates. The published
//! files are not in this repository: every test, example and figure here
//! runs generated circuits.
//!
//! Supported gate mnemonics (the set used by the Sycamore files plus the
//! common single-qubit set): `x_1_2`, `y_1_2`, `hz_1_2`, `h`, `x`, `y`, `z`,
//! `s`, `t`, `rz <angle>`, `rx <angle>`, `ry <angle>`, `cz`, `cnot`/`cx`,
//! `is`/`iswap`, `fs`/`fsim <theta> <phi>`.

use crate::circuit::Circuit;
use crate::gate::Gate;
use std::fmt::Write as _;

/// Error produced when parsing a qsim file.
#[derive(Debug, Clone, PartialEq)]
pub struct QsimParseError {
    /// 1-based line number the error occurred on.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl std::fmt::Display for QsimParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "qsim parse error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for QsimParseError {}

fn err(line: usize, message: impl Into<String>) -> QsimParseError {
    QsimParseError { line, message: message.into() }
}

/// Parse a circuit from qsim text.
pub fn parse_qsim(text: &str) -> Result<Circuit, QsimParseError> {
    let mut lines = text.lines().enumerate().filter(|(_, l)| {
        let t = l.trim();
        !t.is_empty() && !t.starts_with('#')
    });
    let (first_no, first) = lines.next().ok_or_else(|| err(0, "empty file"))?;
    let num_qubits: usize = first
        .trim()
        .parse()
        .map_err(|_| err(first_no + 1, format!("expected qubit count, found {first:?}")))?;
    let mut circuit = Circuit::new(num_qubits);

    for (no, raw) in lines {
        let line_no = no + 1;
        let mut tok = raw.split_whitespace();
        // Leading cycle number (ignored for simulation, kept for ordering).
        let _cycle: usize = tok
            .next()
            .ok_or_else(|| err(line_no, "missing cycle number"))?
            .parse()
            .map_err(|_| err(line_no, "cycle number is not an integer"))?;
        let name = tok.next().ok_or_else(|| err(line_no, "missing gate name"))?.to_lowercase();
        let rest: Vec<&str> = tok.collect();

        let qubit = |i: usize| -> Result<usize, QsimParseError> {
            let s = rest
                .get(i)
                .ok_or_else(|| err(line_no, format!("gate {name} missing qubit {i}")))?;
            let q: usize = s.parse().map_err(|_| err(line_no, format!("bad qubit index {s:?}")))?;
            if q >= num_qubits {
                return Err(err(line_no, format!("qubit {q} out of range (n = {num_qubits})")));
            }
            Ok(q)
        };
        let param = |i: usize| -> Result<f64, QsimParseError> {
            rest.get(i)
                .ok_or_else(|| err(line_no, format!("gate {name} missing parameter {i}")))?
                .parse()
                .map_err(|_| err(line_no, "bad parameter"))
        };

        match name.as_str() {
            "x_1_2" => {
                circuit.push1(Gate::SqrtX, qubit(0)?);
            }
            "y_1_2" => {
                circuit.push1(Gate::SqrtY, qubit(0)?);
            }
            "hz_1_2" | "w_1_2" => {
                circuit.push1(Gate::SqrtW, qubit(0)?);
            }
            "h" => {
                circuit.push1(Gate::H, qubit(0)?);
            }
            "x" => {
                circuit.push1(Gate::X, qubit(0)?);
            }
            "y" => {
                circuit.push1(Gate::Y, qubit(0)?);
            }
            "z" => {
                circuit.push1(Gate::Z, qubit(0)?);
            }
            "s" => {
                circuit.push1(Gate::S, qubit(0)?);
            }
            "t" => {
                circuit.push1(Gate::T, qubit(0)?);
            }
            "rz" => {
                let q = qubit(0)?;
                circuit.push1(Gate::Rz(param(1)?), q);
            }
            "rx" => {
                let q = qubit(0)?;
                circuit.push1(Gate::Rx(param(1)?), q);
            }
            "ry" => {
                let q = qubit(0)?;
                circuit.push1(Gate::Ry(param(1)?), q);
            }
            "cz" => {
                circuit.push2(Gate::Cz, qubit(0)?, qubit(1)?);
            }
            "cnot" | "cx" => {
                circuit.push2(Gate::Cnot, qubit(0)?, qubit(1)?);
            }
            "is" | "iswap" => {
                circuit.push2(Gate::ISwap, qubit(0)?, qubit(1)?);
            }
            "fs" | "fsim" => {
                let (a, b) = (qubit(0)?, qubit(1)?);
                circuit.push2(Gate::FSim { theta: param(2)?, phi: param(3)? }, a, b);
            }
            other => return Err(err(line_no, format!("unknown gate {other:?}"))),
        }
    }
    Ok(circuit)
}

/// A named rebindable parameter surfaced from a parsed qsim circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct QsimParam {
    /// Canonical slot name — identical to the [`crate::network::ParamSlot`]
    /// name a [`crate::network::circuit_to_network`] build of this circuit
    /// produces, e.g. `g3:rz[1].theta`.
    pub name: String,
    /// Gate index in `Circuit::ops()` order.
    pub op_index: usize,
    /// Which of the gate's parameters this is (see `Gate::param_names`).
    pub param_index: usize,
    /// The parsed value.
    pub value: f64,
}

/// Parse a circuit from qsim text and surface its rotation-gate parameters
/// (`rz`/`rx`/`ry` angles, `fs`/`fsim` theta and phi) as named slots.
///
/// The `k`-th returned parameter corresponds to slot index `k` of
/// `circuit_to_network(&circuit, ..).param_slots()` for any output spec
/// (both walk the gates in program order and use the same canonical names),
/// so text-format circuits are sweepable without reconstruction: parse once,
/// compile once, then drive `rebind_parameters` by slot index or name.
pub fn parse_qsim_with_slots(text: &str) -> Result<(Circuit, Vec<QsimParam>), QsimParseError> {
    let circuit = parse_qsim(text)?;
    let mut params = Vec::new();
    for (op_index, op) in circuit.ops().iter().enumerate() {
        for (param_index, value) in op.gate.params().into_iter().enumerate() {
            params.push(QsimParam {
                name: crate::network::param_slot_name(op_index, &op.gate, &op.qubits, param_index),
                op_index,
                param_index,
                value,
            });
        }
    }
    Ok((circuit, params))
}

/// Serialise a circuit to qsim text. Gates are written one per line with a
/// monotonically increasing cycle derived from the circuit's wire levelling
/// (the same definition `Circuit::depth` uses).
///
/// Returns `None` if the circuit contains a gate the format cannot express
/// (arbitrary `Unitary1`/`Unitary2` matrices).
pub fn write_qsim(circuit: &Circuit) -> Option<String> {
    let mut out = String::new();
    let _ = writeln!(out, "{}", circuit.num_qubits());
    let mut level = vec![0usize; circuit.num_qubits()];
    for op in circuit.ops() {
        let cycle = op.qubits.iter().map(|&q| level[q]).max().unwrap_or(0);
        for &q in &op.qubits {
            level[q] = cycle + 1;
        }
        let qs = op.qubits.clone();
        let line = match (&op.gate, qs.as_slice()) {
            (Gate::SqrtX, [q]) => format!("{cycle} x_1_2 {q}"),
            (Gate::SqrtY, [q]) => format!("{cycle} y_1_2 {q}"),
            (Gate::SqrtW, [q]) => format!("{cycle} hz_1_2 {q}"),
            (Gate::H, [q]) => format!("{cycle} h {q}"),
            (Gate::X, [q]) => format!("{cycle} x {q}"),
            (Gate::Y, [q]) => format!("{cycle} y {q}"),
            (Gate::Z, [q]) => format!("{cycle} z {q}"),
            (Gate::S, [q]) => format!("{cycle} s {q}"),
            (Gate::T, [q]) => format!("{cycle} t {q}"),
            (Gate::I, [q]) => format!("{cycle} rz {q} 0"),
            (Gate::Rz(a), [q]) => format!("{cycle} rz {q} {a}"),
            (Gate::Rx(a), [q]) => format!("{cycle} rx {q} {a}"),
            (Gate::Ry(a), [q]) => format!("{cycle} ry {q} {a}"),
            (Gate::Cz, [a, b]) => format!("{cycle} cz {a} {b}"),
            (Gate::Cnot, [a, b]) => format!("{cycle} cnot {a} {b}"),
            (Gate::ISwap, [a, b]) => format!("{cycle} is {a} {b}"),
            (Gate::FSim { theta, phi }, [a, b]) => format!("{cycle} fs {a} {b} {theta} {phi}"),
            _ => return None,
        };
        let _ = writeln!(out, "{line}");
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rqc::RqcConfig;

    #[test]
    fn parse_minimal_sycamore_style_file() {
        let text = "\
3
0 hz_1_2 0
0 x_1_2 1
0 y_1_2 2
1 fs 0 1 1.4823 0.4892
2 rz 2 0.25
3 cz 1 2
";
        let c = parse_qsim(text).unwrap();
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.len(), 6);
        assert_eq!(c.two_qubit_gate_count(), 2);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# a comment\n\n2\n# another\n0 h 0\n1 cnot 0 1\n";
        let c = parse_qsim(text).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn roundtrip_preserves_the_circuit() {
        let original = RqcConfig::small(3, 3, 6, 4).build();
        let text = write_qsim(&original).expect("RQC gates are all expressible");
        let parsed = parse_qsim(&text).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn full_sycamore_rqc_roundtrips() {
        let original = crate::rqc::sycamore_rqc(12, 3);
        let text = write_qsim(&original).unwrap();
        let parsed = parse_qsim(&text).unwrap();
        assert_eq!(parsed.num_qubits(), 53);
        assert_eq!(parsed, original);
    }

    #[test]
    fn parsed_slots_align_with_the_network_build() {
        let text = "\
3
0 h 0
0 rz 1 0.25
1 fs 0 2 0.5 -0.75
2 ry 1 1.5
";
        let (c, params) = parse_qsim_with_slots(text).unwrap();
        let names: Vec<&str> = params.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            ["g1:rz[1].theta", "g2:fsim[0,2].theta", "g2:fsim[0,2].phi", "g3:ry[1].theta"]
        );
        let values: Vec<f64> = params.iter().map(|p| p.value).collect();
        assert_eq!(values, [0.25, 0.5, -0.75, 1.5]);
        // Slot index k of the network build is parameter k here, by name
        // and by value — the property that makes text circuits sweepable.
        let build = crate::network::circuit_to_network(
            &c,
            &crate::network::OutputSpec::Amplitude(vec![0; 3]),
        );
        assert_eq!(build.param_slots().len(), params.len());
        for (k, (slot, param)) in build.param_slots().iter().zip(&params).enumerate() {
            assert_eq!(slot.name(), param.name);
            assert_eq!(slot.op_index(), param.op_index);
            assert_eq!(slot.param_index(), param.param_index);
            assert_eq!(slot.value(), param.value);
            assert_eq!(build.param_slot_index(&param.name), Some(k));
        }
        // A parameter-free circuit surfaces no slots.
        let (_, none) = parse_qsim_with_slots("2\n0 h 0\n1 cz 0 1\n").unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn unknown_gate_is_an_error() {
        let e = parse_qsim("1\n0 frobnicate 0\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown gate"));
    }

    #[test]
    fn out_of_range_qubit_is_an_error() {
        let e = parse_qsim("2\n0 h 5\n").unwrap_err();
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn missing_fsim_parameters_is_an_error() {
        let e = parse_qsim("2\n0 fs 0 1\n").unwrap_err();
        assert!(e.message.contains("missing parameter"));
    }

    #[test]
    fn bad_header_is_an_error() {
        let e = parse_qsim("not_a_number\n").unwrap_err();
        assert!(e.message.contains("qubit count"));
    }

    #[test]
    fn unitary_gates_cannot_be_serialised() {
        use crate::library::controlled_phase;
        let mut c = Circuit::new(2);
        c.push_op(crate::circuit::GateOp { gate: controlled_phase(0.5), qubits: vec![0, 1] });
        assert!(write_qsim(&c).is_none());
    }
}
