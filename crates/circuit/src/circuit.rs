//! Logical circuits.

use std::fmt;

use zz_linalg::Matrix;
use zz_quantum::embed;

use crate::Gate;

/// One gate application: a [`Gate`] plus the qubits it acts on.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    /// The applied gate.
    pub gate: Gate,
    /// Target qubits (length = `gate.arity()`); for [`Gate::Cnot`] the first
    /// entry is the control.
    pub qubits: Vec<usize>,
}

/// A logical quantum circuit: an ordered list of gate applications on
/// `qubit_count` qubits.
///
/// # Example
///
/// ```
/// use zz_circuit::{Circuit, Gate};
///
/// let mut bell = Circuit::new(2);
/// bell.push(Gate::H, &[0]);
/// bell.push(Gate::Cnot, &[0, 1]);
/// assert_eq!(bell.ops().len(), 2);
/// assert_eq!(bell.two_qubit_gate_count(), 1);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Circuit {
    qubit_count: usize,
    ops: Vec<Op>,
}

impl Circuit {
    /// Creates an empty circuit on `qubit_count` qubits.
    pub fn new(qubit_count: usize) -> Self {
        Circuit {
            qubit_count,
            ops: Vec::new(),
        }
    }

    /// Number of qubits.
    pub fn qubit_count(&self) -> usize {
        self.qubit_count
    }

    /// The gate applications in program order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if the qubit list length does not match the gate arity, if any
    /// qubit is out of range, or if a two-qubit gate repeats a qubit.
    pub fn push(&mut self, gate: Gate, qubits: &[usize]) -> &mut Self {
        assert_eq!(
            qubits.len(),
            gate.arity(),
            "gate {gate} expects {} qubit(s), got {}",
            gate.arity(),
            qubits.len()
        );
        for &q in qubits {
            assert!(q < self.qubit_count, "qubit {q} out of range");
        }
        if qubits.len() == 2 {
            assert_ne!(
                qubits[0], qubits[1],
                "two-qubit gate requires distinct qubits"
            );
        }
        self.ops.push(Op {
            gate,
            qubits: qubits.to_vec(),
        });
        self
    }

    /// Appends every op of `other` (qubit counts must match).
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn extend(&mut self, other: &Circuit) -> &mut Self {
        assert_eq!(self.qubit_count, other.qubit_count, "qubit count mismatch");
        self.ops.extend(other.ops.iter().cloned());
        self
    }

    /// Number of two-qubit gates.
    pub fn two_qubit_gate_count(&self) -> usize {
        self.ops.iter().filter(|op| op.gate.arity() == 2).count()
    }

    /// Total gate count.
    pub fn gate_count(&self) -> usize {
        self.ops.len()
    }

    /// Circuit depth: the length of the longest per-qubit dependency chain
    /// (every gate counts 1, regardless of arity).
    pub fn depth(&self) -> usize {
        let mut frontier = vec![0usize; self.qubit_count];
        for op in &self.ops {
            let level = 1 + op.qubits.iter().map(|&q| frontier[q]).max().unwrap_or(0);
            for &q in &op.qubits {
                frontier[q] = level;
            }
        }
        frontier.into_iter().max().unwrap_or(0)
    }

    /// A 64-bit structural digest of the circuit: qubit count, gate kinds,
    /// exact angle bits, and qubit operands, in program order.
    ///
    /// Structurally identical circuits have equal digests, so the digest
    /// can key compilation caches. Equal digests do not imply equal
    /// circuits: the word-wise FNV-1a never carries a difference in a
    /// word's high bits into its low bits, so circuits that differ only
    /// in their angles' signs can collide. Every consumer therefore
    /// compares the circuits before serving a cached result.
    ///
    /// # Example
    ///
    /// ```
    /// use zz_circuit::{Circuit, Gate};
    ///
    /// let mut a = Circuit::new(2);
    /// a.push(Gate::H, &[0]).push(Gate::Cnot, &[0, 1]);
    /// let mut b = Circuit::new(2);
    /// b.push(Gate::H, &[0]).push(Gate::Cnot, &[0, 1]);
    /// assert_eq!(a.content_digest(), b.content_digest());
    /// b.push(Gate::X, &[1]);
    /// assert_ne!(a.content_digest(), b.content_digest());
    /// ```
    pub fn content_digest(&self) -> u64 {
        // FNV-1a over the op stream.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |w: u64| {
            h ^= w;
            h = h.wrapping_mul(PRIME);
        };
        mix(self.qubit_count as u64);
        for op in &self.ops {
            let (kind, params, count) = op.gate.digest_parts();
            mix(kind);
            for p in &params[..count] {
                mix(p.to_bits());
            }
            mix(op.qubits.len() as u64);
            for &q in &op.qubits {
                mix(q as u64);
            }
        }
        h
    }

    /// The circuit's full unitary, built by embedding each gate.
    ///
    /// Dense `2^n × 2^n`; intended for n ≲ 10 (tests and ideal references).
    pub fn unitary(&self) -> Matrix {
        let dim = 1usize << self.qubit_count;
        let mut u = Matrix::identity(dim);
        for op in &self.ops {
            let g = embed(&op.gate.matrix(), &op.qubits, self.qubit_count);
            u = g.matmul(&u);
        }
        u
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "circuit on {} qubits:", self.qubit_count)?;
        for op in &self.ops {
            writeln!(f, "  {} {:?}", op.gate, op.qubits)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zz_linalg::c64;

    #[test]
    fn bell_circuit_unitary() {
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]).push(Gate::Cnot, &[0, 1]);
        let u = c.unitary();
        // |00⟩ → (|00⟩+|11⟩)/√2
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!((u[(0, 0)].re - s).abs() < 1e-12);
        assert!((u[(3, 0)].re - s).abs() < 1e-12);
        assert!(u[(1, 0)].abs() < 1e-12);
        assert!(u[(2, 0)].abs() < 1e-12);
    }

    #[test]
    fn reversed_cnot_differs() {
        let mut a = Circuit::new(2);
        a.push(Gate::Cnot, &[0, 1]);
        let mut b = Circuit::new(2);
        b.push(Gate::Cnot, &[1, 0]);
        assert!(!a.unitary().approx_eq(&b.unitary(), 1e-9));
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Circuit::new(1);
        a.push(Gate::X, &[0]);
        let mut b = Circuit::new(1);
        b.push(Gate::X, &[0]);
        a.extend(&b);
        // X·X = I
        assert!(a.unitary().approx_eq(&Matrix::identity(2), 1e-12));
        let _ = c64::ZERO;
    }

    #[test]
    fn depth_follows_dependency_chains() {
        let mut c = Circuit::new(3);
        assert_eq!(c.depth(), 0);
        c.push(Gate::H, &[0])
            .push(Gate::H, &[1])
            .push(Gate::H, &[2]);
        assert_eq!(c.depth(), 1, "parallel gates share a level");
        c.push(Gate::Cnot, &[0, 1]);
        assert_eq!(c.depth(), 2);
        c.push(Gate::Cnot, &[1, 2]);
        assert_eq!(c.depth(), 3, "chained CNOTs serialize");
        c.push(Gate::T, &[0]);
        assert_eq!(c.depth(), 3, "independent qubit fits in an earlier level");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_qubit() {
        Circuit::new(2).push(Gate::H, &[2]);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn rejects_repeated_qubits() {
        Circuit::new(2).push(Gate::Cnot, &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn rejects_wrong_arity() {
        Circuit::new(2).push(Gate::H, &[0, 1]);
    }
}
