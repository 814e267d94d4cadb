//! OpenQASM 2.0 import/export coverage: round-trips through `to_qasm` /
//! `from_qasm`, typed rejection of malformed input, and golden circuits
//! (GHZ, QAOA, a ripple full adder) checked structurally and — for the
//! adder — against its truth table.

use zz_circuit::qasm::{from_qasm, to_qasm, QasmError};
use zz_circuit::{bench, Circuit, Gate};
use zz_quantum::states::basis_state;

const PI: f64 = std::f64::consts::PI;

// ---------------------------------------------------------------- round-trip

/// Every gate whose QASM spelling is exact (all but `SqrtY`/`SqrtW`,
/// which export as `ry`/`u3` approximations up to global phase).
fn exactly_representable() -> Circuit {
    let mut c = Circuit::new(3);
    for gate in [
        Gate::H,
        Gate::X,
        Gate::Y,
        Gate::Z,
        Gate::S,
        Gate::Sdg,
        Gate::T,
        Gate::Tdg,
        Gate::SqrtX,
        Gate::Rx(0.1),
        Gate::Ry(-0.2),
        Gate::Rz(PI / 2.0),
        Gate::Phase(0.4),
        Gate::U3(0.1, -0.2, 0.3),
    ] {
        c.push(gate, &[1]);
    }
    for gate in [
        Gate::Cnot,
        Gate::Cz,
        Gate::CPhase(0.5),
        Gate::Rzz(-0.625),
        Gate::Swap,
    ] {
        c.push(gate, &[2, 0]);
    }
    c
}

#[test]
fn export_import_round_trip_is_exact() {
    let circuit = exactly_representable();
    let back = from_qasm(&to_qasm(&circuit)).expect("own output parses");
    assert_eq!(back, circuit, "round trip must preserve every op exactly");
    assert_eq!(
        back.content_digest(),
        circuit.content_digest(),
        "angles must survive bit-for-bit"
    );
}

#[test]
fn reexport_is_a_fixed_point() {
    let text = to_qasm(&exactly_representable());
    let again = to_qasm(&from_qasm(&text).expect("parses"));
    assert_eq!(text, again, "export∘import must be idempotent on text");
}

#[test]
fn benchmark_families_round_trip() {
    for kind in [
        bench::BenchmarkKind::HiddenShift,
        bench::BenchmarkKind::Qft,
        bench::BenchmarkKind::Qpe,
        bench::BenchmarkKind::Qaoa,
        bench::BenchmarkKind::Ising,
        bench::BenchmarkKind::Qv,
    ] {
        let circuit = bench::generate(kind, 4, 7);
        let back = from_qasm(&to_qasm(&circuit)).expect("benchmark exports parse");
        assert_eq!(back, circuit, "{kind} must round-trip");
    }
}

#[test]
fn angle_expressions_evaluate() {
    let text = "OPENQASM 2.0;\nqreg q[1];\nrx(pi/2) q[0];\nrz(-3*pi/4) q[0];\nu3(pi/2, -pi/4, (pi+pi)/4) q[0];\nrx(1e-3) q[0];\n";
    let circuit = from_qasm(text).expect("qelib-style angles parse");
    let angles: Vec<Gate> = circuit.ops().iter().map(|op| op.gate).collect();
    assert_eq!(
        angles,
        vec![
            Gate::Rx(PI / 2.0),
            Gate::Rz(-3.0 * PI / 4.0),
            Gate::U3(PI / 2.0, -PI / 4.0, PI / 2.0),
            Gate::Rx(1e-3),
        ]
    );
}

// ------------------------------------------------------------- golden: GHZ

#[test]
fn golden_ghz_parses_to_the_reference_circuit() {
    let text = "\
OPENQASM 2.0;
include \"qelib1.inc\";
qreg q[4];
creg c[4]; // classical register is accepted and ignored
h q[0];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[3];
barrier q[0],q[1],q[2],q[3];
";
    let parsed = from_qasm(text).expect("GHZ parses");
    let mut expected = Circuit::new(4);
    expected.push(Gate::H, &[0]);
    expected.push(Gate::Cnot, &[0, 1]);
    expected.push(Gate::Cnot, &[1, 2]);
    expected.push(Gate::Cnot, &[2, 3]);
    assert_eq!(parsed, expected);

    // |0000⟩ → (|0000⟩ + |1111⟩)/√2.
    let out = parsed.unitary().mul_vec(&zz_quantum::states::zero_state(4));
    let p0 = out.fidelity(&basis_state(&[0, 0, 0, 0]));
    let p1 = out.fidelity(&basis_state(&[1, 1, 1, 1]));
    assert!((p0 - 0.5).abs() < 1e-9 && (p1 - 0.5).abs() < 1e-9);
}

// ------------------------------------------------------------ golden: QAOA

#[test]
fn golden_qaoa_matches_the_generator() {
    // The paper's QAOA family, externalized and re-imported: the QASM
    // text is the interchange format for exactly this circuit.
    let circuit = bench::generate(bench::BenchmarkKind::Qaoa, 6, 3);
    let text = to_qasm(&circuit);
    assert!(text.contains("rzz("), "QAOA must carry its cost layer");
    assert!(text.contains("rx("), "QAOA must carry its mixer layer");
    let parsed = from_qasm(&text).expect("QAOA exports parse");
    assert_eq!(parsed, circuit);
}

// ----------------------------------------------------------- golden: adder

/// Emits the qelib1 `ccx` body (Toffoli over {h, t, tdg, cx}) — gate
/// definitions are outside the importer's subset, so the golden adder
/// inlines them the way a `gate`-free QASM emitter would.
fn push_ccx(out: &mut String, a: usize, b: usize, c: usize) {
    let lines = [
        format!("h q[{c}];"),
        format!("cx q[{b}],q[{c}];"),
        format!("tdg q[{c}];"),
        format!("cx q[{a}],q[{c}];"),
        format!("t q[{c}];"),
        format!("cx q[{b}],q[{c}];"),
        format!("tdg q[{c}];"),
        format!("cx q[{a}],q[{c}];"),
        format!("t q[{b}];"),
        format!("t q[{c}];"),
        format!("h q[{c}];"),
        format!("cx q[{a}],q[{b}];"),
        format!("t q[{a}];"),
        format!("tdg q[{b}];"),
        format!("cx q[{a}],q[{b}];"),
    ];
    for line in lines {
        out.push_str(&line);
        out.push('\n');
    }
}

#[test]
fn golden_adder_implements_its_truth_table() {
    // Full adder on q = [cin, a, b, cout]: after the circuit, b holds
    // a⊕b⊕cin and cout holds the carry; cin and a are unchanged.
    let mut text = String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\n");
    push_ccx(&mut text, 1, 2, 3); // cout ^= a·b
    text.push_str("cx q[1],q[2];\n"); // b = a⊕b
    push_ccx(&mut text, 0, 2, 3); // cout ^= cin·(a⊕b)
    text.push_str("cx q[0],q[2];\n"); // b = a⊕b⊕cin

    let adder = from_qasm(&text).expect("adder parses");
    assert_eq!(adder.qubit_count(), 4);
    assert_eq!(adder.gate_count(), 32, "2 inlined Toffolis + 2 CNOTs");

    let u = adder.unitary();
    for input in 0..8u8 {
        let (cin, a, b) = (input & 1, (input >> 1) & 1, (input >> 2) & 1);
        let sum = a ^ b ^ cin;
        let carry = (a & b) | (cin & (a ^ b));
        let out = u.mul_vec(&basis_state(&[cin, a, b, 0]));
        let expected = basis_state(&[cin, a, sum, carry]);
        assert!(
            out.fidelity(&expected) > 1.0 - 1e-9,
            "adder wrong on cin={cin} a={a} b={b}"
        );
    }
}

// ------------------------------------------------------------ malformed input

#[test]
fn missing_header_is_typed() {
    assert_eq!(
        from_qasm("qreg q[2];\nh q[0];\n").unwrap_err(),
        QasmError::MissingHeader
    );
    assert_eq!(from_qasm("").unwrap_err(), QasmError::MissingHeader);
}

#[test]
fn wrong_version_is_unsupported() {
    match from_qasm("OPENQASM 3.0;\nqreg q[1];\n").unwrap_err() {
        QasmError::Unsupported { line: 1, what } => assert!(what.contains("3.0")),
        other => panic!("expected Unsupported, got {other:?}"),
    }
}

#[test]
fn unknown_gates_are_typed_with_their_line() {
    let text = "OPENQASM 2.0;\nqreg q[2];\nccx q[0],q[1],q[0];\n";
    assert_eq!(
        from_qasm(text).unwrap_err(),
        QasmError::UnknownGate {
            line: 3,
            name: "ccx".into()
        }
    );
}

#[test]
fn out_of_range_and_repeated_qubits_are_typed() {
    assert_eq!(
        from_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[5];\n").unwrap_err(),
        QasmError::QubitOutOfRange {
            line: 3,
            qubit: 5,
            count: 2
        }
    );
    assert_eq!(
        from_qasm("OPENQASM 2.0;\nqreg q[2];\ncx q[1],q[1];\n").unwrap_err(),
        QasmError::RepeatedQubit { line: 3, qubit: 1 }
    );
}

#[test]
fn gate_before_register_is_typed() {
    assert_eq!(
        from_qasm("OPENQASM 2.0;\nh q[0];\n").unwrap_err(),
        QasmError::NoRegister { line: 2 }
    );
}

#[test]
fn statements_must_terminate() {
    match from_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[0]\n").unwrap_err() {
        QasmError::Malformed { line: 3, detail } => assert!(detail.contains(';')),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn malformed_angles_are_typed_not_panicking() {
    for bad in [
        "rx() q[0];",
        "rx(pi/) q[0];",
        "rx((pi) q[0];",
        "rx(1..2) q[0];",
        "rx(banana) q[0];",
        "rx(0.1 0.2) q[0];",
        "u3(0.1) q[0];",
        "h(0.3) q[0];",
        // Angles that evaluate to ±∞ or NaN.
        "rx(1e309) q[0];",
        "rz(1/0) q[0];",
        "u3(0/0,0,0) q[0];",
    ] {
        let text = format!("OPENQASM 2.0;\nqreg q[1];\n{bad}\n");
        assert!(
            matches!(
                from_qasm(&text).unwrap_err(),
                QasmError::Malformed { line: 3, .. }
            ),
            "'{bad}' must be Malformed at line 3"
        );
    }
}

#[test]
fn unsupported_constructs_are_typed() {
    for (stmt, needle) in [
        ("measure q[0] -> c[0];", "measure"),
        ("reset q[0];", "reset"),
        ("if (c == 1) x q[0];", "if"),
        ("gate mine a { h a; };", "gate"),
        ("opaque thing(theta) a,b;", "opaque"),
        ("h q;", "whole-register"),
        ("qreg r[2];", "second"),
    ] {
        let text = format!("OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n{stmt}\n");
        match from_qasm(&text).unwrap_err() {
            QasmError::Unsupported { line: 4, what } => {
                assert!(what.contains(needle), "'{stmt}' → {what}")
            }
            other => panic!("'{stmt}' expected Unsupported, got {other:?}"),
        }
    }
}

#[test]
fn errors_render_their_line_numbers() {
    let err = from_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[9];\n").unwrap_err();
    assert!(err.to_string().contains("line 3"), "{err}");
}
