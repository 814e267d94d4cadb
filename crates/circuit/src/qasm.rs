//! OpenQASM 2.0 export and import.
//!
//! Export lets compiled circuits be inspected with standard tooling
//! (Qiskit, quirk-style visualizers). Import ([`from_qasm`]) parses the
//! flat-circuit subset of OpenQASM 2.0 that [`to_qasm`] emits — one
//! quantum register, qelib gate applications with constant angle
//! expressions (`pi/2`, `-3*pi/4`, numeric literals) — and reports every
//! malformed input as a typed [`QasmError`] carrying the offending line;
//! no input panics.

use std::fmt::Write as _;

use crate::{Circuit, Gate};

/// Serializes a logical circuit as OpenQASM 2.0.
///
/// # Example
///
/// ```
/// use zz_circuit::{Circuit, Gate, qasm::to_qasm};
///
/// let mut bell = Circuit::new(2);
/// bell.push(Gate::H, &[0]).push(Gate::Cnot, &[0, 1]);
/// let text = to_qasm(&bell);
/// assert!(text.contains("h q[0];"));
/// assert!(text.contains("cx q[0],q[1];"));
/// ```
pub fn to_qasm(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    let _ = writeln!(out, "qreg q[{}];", circuit.qubit_count());
    for op in circuit.ops() {
        let qs = &op.qubits;
        let line = match op.gate {
            Gate::H => format!("h q[{}];", qs[0]),
            Gate::X => format!("x q[{}];", qs[0]),
            Gate::Y => format!("y q[{}];", qs[0]),
            Gate::Z => format!("z q[{}];", qs[0]),
            Gate::S => format!("s q[{}];", qs[0]),
            Gate::Sdg => format!("sdg q[{}];", qs[0]),
            Gate::T => format!("t q[{}];", qs[0]),
            Gate::Tdg => format!("tdg q[{}];", qs[0]),
            Gate::Rx(a) => format!("rx({a}) q[{}];", qs[0]),
            Gate::Ry(a) => format!("ry({a}) q[{}];", qs[0]),
            Gate::Rz(a) => format!("rz({a}) q[{}];", qs[0]),
            Gate::Phase(a) => format!("u1({a}) q[{}];", qs[0]),
            Gate::U3(t, p, l) => format!("u3({t},{p},{l}) q[{}];", qs[0]),
            Gate::SqrtX => format!("sx q[{}];", qs[0]),
            Gate::SqrtY => format!("ry(pi/2) q[{}]; // sqrt(Y) up to phase", qs[0]),
            Gate::SqrtW => format!("u3(pi/2,-pi/4,pi/4) q[{}]; // sqrt(W) up to phase", qs[0]),
            Gate::Cnot => format!("cx q[{}],q[{}];", qs[0], qs[1]),
            Gate::Cz => format!("cz q[{}],q[{}];", qs[0], qs[1]),
            Gate::CPhase(a) => format!("cu1({a}) q[{}],q[{}];", qs[0], qs[1]),
            Gate::Rzz(a) => format!("rzz({a}) q[{}],q[{}];", qs[0], qs[1]),
            Gate::Swap => format!("swap q[{}],q[{}];", qs[0], qs[1]),
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Why an OpenQASM 2.0 text could not be parsed. Every variant carries
/// the 1-based source line it was detected on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QasmError {
    /// The text does not start with an `OPENQASM 2.0;` declaration.
    MissingHeader,
    /// A statement uses a feature outside the supported flat-circuit
    /// subset (gate definitions, measurement, classical control,
    /// whole-register broadcast, a second `qreg`, …).
    Unsupported {
        /// 1-based source line.
        line: usize,
        /// The construct that is not supported.
        what: String,
    },
    /// A statement does not parse (bad operand syntax, an unterminated
    /// statement, a malformed or non-finite angle expression, …).
    Malformed {
        /// 1-based source line.
        line: usize,
        /// What went wrong.
        detail: String,
    },
    /// A gate application names a gate the importer does not know.
    UnknownGate {
        /// 1-based source line.
        line: usize,
        /// The unknown gate's name.
        name: String,
    },
    /// A gate application references a qubit outside the register.
    QubitOutOfRange {
        /// 1-based source line.
        line: usize,
        /// The out-of-range index.
        qubit: usize,
        /// The register size.
        count: usize,
    },
    /// A two-qubit gate repeats an operand.
    RepeatedQubit {
        /// 1-based source line.
        line: usize,
        /// The repeated index.
        qubit: usize,
    },
    /// A gate application appears before any `qreg` declaration.
    NoRegister {
        /// 1-based source line.
        line: usize,
    },
}

impl std::fmt::Display for QasmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QasmError::MissingHeader => {
                write!(f, "missing OPENQASM 2.0; header")
            }
            QasmError::Unsupported { line, what } => {
                write!(f, "line {line}: unsupported construct: {what}")
            }
            QasmError::Malformed { line, detail } => {
                write!(f, "line {line}: malformed statement: {detail}")
            }
            QasmError::UnknownGate { line, name } => {
                write!(f, "line {line}: unknown gate '{name}'")
            }
            QasmError::QubitOutOfRange { line, qubit, count } => {
                write!(
                    f,
                    "line {line}: qubit {qubit} out of range (register has {count})"
                )
            }
            QasmError::RepeatedQubit { line, qubit } => {
                write!(f, "line {line}: two-qubit gate repeats qubit {qubit}")
            }
            QasmError::NoRegister { line } => {
                write!(
                    f,
                    "line {line}: gate application before any qreg declaration"
                )
            }
        }
    }
}

impl std::error::Error for QasmError {}

/// Parses the flat-circuit OpenQASM 2.0 subset emitted by [`to_qasm`].
///
/// Supported: the `OPENQASM 2.0;` header, `include`, one `qreg`, `creg`
/// and `barrier` (accepted and ignored), `id` (an explicit identity —
/// accepted and ignored), `//` comments, and applications of the qelib
/// gates [`to_qasm`] writes (`h x y z s sdg t tdg rx ry rz u1/p u3 sx
/// cx cz cu1/cp rzz swap`) with constant angle expressions over numeric
/// literals, `pi`, `+ - * /` and parentheses. Each statement must fit
/// on one line. Everything else — gate definitions, measurement,
/// classical control, whole-register broadcast — is a typed
/// [`QasmError`].
///
/// # Errors
///
/// Returns a [`QasmError`] locating the first offending line; malformed
/// input never panics.
///
/// # Example
///
/// ```
/// use zz_circuit::qasm::{from_qasm, to_qasm};
/// use zz_circuit::{Circuit, Gate};
///
/// let mut bell = Circuit::new(2);
/// bell.push(Gate::H, &[0]).push(Gate::Cnot, &[0, 1]);
/// let back = from_qasm(&to_qasm(&bell)).expect("parses");
/// assert_eq!(back, bell);
/// ```
pub fn from_qasm(text: &str) -> Result<Circuit, QasmError> {
    let mut statements = Vec::new(); // (line, statement text)
    let mut saw_header = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split("//").next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut rest = content;
        while let Some((stmt, tail)) = rest.split_once(';') {
            let stmt = stmt.trim();
            if !stmt.is_empty() {
                statements.push((line, stmt.to_string()));
            }
            rest = tail.trim();
        }
        if !rest.is_empty() {
            // `to_qasm` terminates every statement on its own line; a
            // dangling fragment is either a construct spanning lines
            // (gate bodies) or a truncated file.
            return Err(QasmError::Malformed {
                line,
                detail: format!("statement does not end with ';': '{rest}'"),
            });
        }
    }

    let mut circuit: Option<Circuit> = None;
    for (line, stmt) in statements {
        if !saw_header {
            let version = stmt
                .strip_prefix("OPENQASM")
                .map(str::trim)
                .ok_or(QasmError::MissingHeader)?;
            if version != "2.0" {
                return Err(QasmError::Unsupported {
                    line,
                    what: format!("OPENQASM version {version}"),
                });
            }
            saw_header = true;
            continue;
        }
        let keyword = stmt.split(['(', ' ']).next().unwrap_or("");
        match keyword {
            "include" | "creg" | "barrier" | "id" => continue,
            "OPENQASM" => {
                return Err(QasmError::Malformed {
                    line,
                    detail: "duplicate OPENQASM header".into(),
                })
            }
            "qreg" => {
                if circuit.is_some() {
                    return Err(QasmError::Unsupported {
                        line,
                        what: "a second quantum register".into(),
                    });
                }
                let (_, size) = parse_indexed(stmt["qreg".len()..].trim(), line)?;
                circuit = Some(Circuit::new(size));
            }
            "gate" | "opaque" | "measure" | "reset" | "if" => {
                return Err(QasmError::Unsupported {
                    line,
                    what: format!("'{keyword}' statements"),
                });
            }
            _ => {
                let circuit = circuit.as_mut().ok_or(QasmError::NoRegister { line })?;
                apply_gate(circuit, &stmt, line)?;
            }
        }
    }
    if !saw_header {
        return Err(QasmError::MissingHeader);
    }
    circuit.ok_or(QasmError::NoRegister { line: 1 })
}

/// Parses `name[index]`, returning the name and index.
fn parse_indexed(text: &str, line: usize) -> Result<(&str, usize), QasmError> {
    let malformed = |detail: String| QasmError::Malformed { line, detail };
    let (name, rest) = text
        .split_once('[')
        .ok_or_else(|| malformed(format!("expected name[index], got '{text}'")))?;
    let index = rest
        .strip_suffix(']')
        .and_then(|digits| digits.trim().parse::<usize>().ok())
        .ok_or_else(|| malformed(format!("bad index in '{text}'")))?;
    let name = name.trim();
    if name.is_empty() {
        return Err(malformed(format!("missing register name in '{text}'")));
    }
    Ok((name, index))
}

/// Parses and appends one gate-application statement.
fn apply_gate(circuit: &mut Circuit, stmt: &str, line: usize) -> Result<(), QasmError> {
    let malformed = |detail: String| QasmError::Malformed { line, detail };

    // Split `name(args) operands` / `name operands`.
    let (head, operands) = match stmt.find('(') {
        Some(open) => {
            let close = stmt
                .rfind(')')
                .ok_or_else(|| malformed("unclosed '(' in gate arguments".into()))?;
            if close < open {
                return Err(malformed("')' before '(' in gate arguments".into()));
            }
            (
                (stmt[..open].trim(), Some(&stmt[open + 1..close])),
                stmt[close + 1..].trim(),
            )
        }
        None => {
            let (name, operands) = stmt
                .split_once(' ')
                .ok_or_else(|| malformed(format!("gate '{stmt}' has no operands")))?;
            ((name.trim(), None), operands.trim())
        }
    };
    let (name, args_text) = head;

    let mut args = Vec::new();
    if let Some(args_text) = args_text {
        for arg in args_text.split(',') {
            args.push(eval_expr(arg, line)?);
        }
    }

    let mut qubits = Vec::new();
    if operands.is_empty() {
        return Err(malformed(format!("gate '{name}' has no operands")));
    }
    for operand in operands.split(',') {
        let operand = operand.trim();
        if !operand.contains('[') {
            // `h q;` — whole-register broadcast.
            return Err(QasmError::Unsupported {
                line,
                what: format!("whole-register operand '{operand}'"),
            });
        }
        let (_, index) = parse_indexed(operand, line)?;
        qubits.push(index);
    }

    let gate = gate_of(name, &args, line)?;
    if qubits.len() != gate.arity() {
        return Err(malformed(format!(
            "gate '{name}' expects {} qubit(s), got {}",
            gate.arity(),
            qubits.len()
        )));
    }
    for &q in &qubits {
        if q >= circuit.qubit_count() {
            return Err(QasmError::QubitOutOfRange {
                line,
                qubit: q,
                count: circuit.qubit_count(),
            });
        }
    }
    if qubits.len() == 2 && qubits[0] == qubits[1] {
        return Err(QasmError::RepeatedQubit {
            line,
            qubit: qubits[0],
        });
    }
    circuit.push(gate, &qubits);
    Ok(())
}

/// Maps a qelib gate name plus evaluated arguments to a [`Gate`].
fn gate_of(name: &str, args: &[f64], line: usize) -> Result<Gate, QasmError> {
    let want = |n: usize| -> Result<(), QasmError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(QasmError::Malformed {
                line,
                detail: format!("gate '{name}' expects {n} argument(s), got {}", args.len()),
            })
        }
    };
    let gate = match name {
        "h" => Gate::H,
        "x" => Gate::X,
        "y" => Gate::Y,
        "z" => Gate::Z,
        "s" => Gate::S,
        "sdg" => Gate::Sdg,
        "t" => Gate::T,
        "tdg" => Gate::Tdg,
        "sx" => Gate::SqrtX,
        "rx" => {
            want(1)?;
            Gate::Rx(args[0])
        }
        "ry" => {
            want(1)?;
            Gate::Ry(args[0])
        }
        "rz" => {
            want(1)?;
            Gate::Rz(args[0])
        }
        "u1" | "p" => {
            want(1)?;
            Gate::Phase(args[0])
        }
        "u3" => {
            want(3)?;
            Gate::U3(args[0], args[1], args[2])
        }
        "cx" => Gate::Cnot,
        "cz" => Gate::Cz,
        "cu1" | "cp" => {
            want(1)?;
            Gate::CPhase(args[0])
        }
        "rzz" => {
            want(1)?;
            Gate::Rzz(args[0])
        }
        "swap" => Gate::Swap,
        _ => {
            return Err(QasmError::UnknownGate {
                line,
                name: name.to_string(),
            })
        }
    };
    if args.is_empty()
        || matches!(
            name,
            "rx" | "ry" | "rz" | "u1" | "p" | "u3" | "cu1" | "cp" | "rzz"
        )
    {
        Ok(gate)
    } else {
        Err(QasmError::Malformed {
            line,
            detail: format!("gate '{name}' takes no arguments, got {}", args.len()),
        })
    }
}

/// Evaluates a constant angle expression: numeric literals, `pi`,
/// `+ - * /`, unary minus and parentheses — the grammar qelib headers
/// (and [`to_qasm`]) use for angles. An expression whose value is not
/// finite (`1e309`, `1/0`, `0/0`) is malformed: no gate has such an
/// angle.
fn eval_expr(text: &str, line: usize) -> Result<f64, QasmError> {
    let malformed = |detail: String| QasmError::Malformed { line, detail };
    let tokens = tokenize_expr(text).map_err(&malformed)?;
    if tokens.is_empty() {
        return Err(malformed("empty angle expression".into()));
    }
    let mut parser = ExprParser {
        tokens: &tokens,
        pos: 0,
    };
    let value = parser.sum().map_err(&malformed)?;
    if parser.pos != tokens.len() {
        return Err(malformed(format!(
            "trailing tokens in angle '{}'",
            text.trim()
        )));
    }
    if !value.is_finite() {
        return Err(malformed(format!(
            "angle '{}' is not finite ({value})",
            text.trim()
        )));
    }
    Ok(value)
}

#[derive(Clone, Debug, PartialEq)]
enum ExprToken {
    Number(f64),
    Pi,
    Plus,
    Minus,
    Star,
    Slash,
    Open,
    Close,
}

fn tokenize_expr(text: &str) -> Result<Vec<ExprToken>, String> {
    let bytes = text.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' => i += 1,
            '+' => {
                tokens.push(ExprToken::Plus);
                i += 1;
            }
            '-' => {
                tokens.push(ExprToken::Minus);
                i += 1;
            }
            '*' => {
                tokens.push(ExprToken::Star);
                i += 1;
            }
            '/' => {
                tokens.push(ExprToken::Slash);
                i += 1;
            }
            '(' => {
                tokens.push(ExprToken::Open);
                i += 1;
            }
            ')' => {
                tokens.push(ExprToken::Close);
                i += 1;
            }
            'p' | 'P' => {
                if bytes
                    .get(i + 1)
                    .is_some_and(|b| b.eq_ignore_ascii_case(&b'i'))
                {
                    tokens.push(ExprToken::Pi);
                    i += 2;
                } else {
                    return Err(format!("unexpected character 'p' in angle '{text}'"));
                }
            }
            '0'..='9' | '.' => {
                let start = i;
                while i < bytes.len() {
                    let d = bytes[i] as char;
                    let scientific = (d == '+' || d == '-')
                        && matches!(bytes[i - 1] as char, 'e' | 'E')
                        && i > start;
                    if d.is_ascii_digit() || d == '.' || d == 'e' || d == 'E' || scientific {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let literal = &text[start..i];
                let value = literal
                    .parse::<f64>()
                    .map_err(|_| format!("bad numeric literal '{literal}'"))?;
                tokens.push(ExprToken::Number(value));
            }
            other => return Err(format!("unexpected character '{other}' in angle '{text}'")),
        }
    }
    Ok(tokens)
}

/// Recursive-descent evaluator over [`ExprToken`]s:
/// `sum := product (('+'|'-') product)*`,
/// `product := atom (('*'|'/') atom)*`,
/// `atom := number | pi | '-' atom | '(' sum ')'`.
struct ExprParser<'a> {
    tokens: &'a [ExprToken],
    pos: usize,
}

impl ExprParser<'_> {
    fn peek(&self) -> Option<&ExprToken> {
        self.tokens.get(self.pos)
    }

    fn sum(&mut self) -> Result<f64, String> {
        let mut value = self.product()?;
        while let Some(op) = self.peek() {
            match op {
                ExprToken::Plus => {
                    self.pos += 1;
                    value += self.product()?;
                }
                ExprToken::Minus => {
                    self.pos += 1;
                    value -= self.product()?;
                }
                _ => break,
            }
        }
        Ok(value)
    }

    fn product(&mut self) -> Result<f64, String> {
        let mut value = self.atom()?;
        while let Some(op) = self.peek() {
            match op {
                ExprToken::Star => {
                    self.pos += 1;
                    value *= self.atom()?;
                }
                ExprToken::Slash => {
                    self.pos += 1;
                    value /= self.atom()?;
                }
                _ => break,
            }
        }
        Ok(value)
    }

    fn atom(&mut self) -> Result<f64, String> {
        match self.peek() {
            Some(ExprToken::Number(v)) => {
                let v = *v;
                self.pos += 1;
                Ok(v)
            }
            Some(ExprToken::Pi) => {
                self.pos += 1;
                Ok(PI)
            }
            Some(ExprToken::Minus) => {
                self.pos += 1;
                Ok(-self.atom()?)
            }
            Some(ExprToken::Open) => {
                self.pos += 1;
                let value = self.sum()?;
                match self.peek() {
                    Some(ExprToken::Close) => {
                        self.pos += 1;
                        Ok(value)
                    }
                    _ => Err("unclosed '(' in angle expression".into()),
                }
            }
            _ => Err("expected a number, 'pi', '-' or '('".into()),
        }
    }
}

const PI: f64 = std::f64::consts::PI;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_and_register_are_present() {
        let c = Circuit::new(3);
        let q = to_qasm(&c);
        assert!(q.starts_with("OPENQASM 2.0;"));
        assert!(q.contains("qreg q[3];"));
    }

    #[test]
    fn every_gate_variant_serializes() {
        let mut c = Circuit::new(2);
        for g in [
            Gate::H,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Rx(0.1),
            Gate::Ry(0.2),
            Gate::Rz(0.3),
            Gate::Phase(0.4),
            Gate::U3(0.1, 0.2, 0.3),
            Gate::SqrtX,
            Gate::SqrtY,
            Gate::SqrtW,
        ] {
            c.push(g, &[0]);
        }
        for g in [
            Gate::Cnot,
            Gate::Cz,
            Gate::CPhase(0.5),
            Gate::Rzz(0.6),
            Gate::Swap,
        ] {
            c.push(g, &[0, 1]);
        }
        let q = to_qasm(&c);
        assert_eq!(q.lines().count(), 3 + c.gate_count());
        assert!(q.contains("cu1(0.5)"));
    }

    #[test]
    fn benchmark_circuits_export() {
        let c = crate::bench::generate(crate::bench::BenchmarkKind::Qft, 4, 1);
        let q = to_qasm(&c);
        assert!(q.lines().count() > 10);
    }
}
