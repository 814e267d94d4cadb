//! [`Encode`]/[`Decode`] implementations for the artifact types that cross
//! process boundaries, plus the generic containers they are built from.
//!
//! Every implementation round-trips bit-identically: `f64` fields are
//! stored as raw IEEE-754 bit patterns, and decoding re-validates the type
//! invariants the in-memory constructors enforce (qubit bounds, arities)
//! so a corrupted payload yields a [`DecodeError`] instead of a panic.

use zz_circuit::native::{NativeCircuit, NativeOp};
use zz_circuit::{Circuit, Gate, Op};
use zz_pulse::library::PulseMethod;
use zz_sched::zzx::Requirement;
use zz_sched::{CutMetrics, GateDurations, Layer, SchedulePlan};
use zz_sim::executor::ResidualTable;
use zz_topology::Topology;

use crate::codec::{Decode, DecodeError, Decoder, Encode, Encoder};

// ---------------------------------------------------------------------------
// Generic containers
// ---------------------------------------------------------------------------

impl Encode for u64 {
    fn encode(&self, out: &mut Encoder) {
        out.u64(*self);
    }
}

impl Decode for u64 {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        r.u64()
    }
}

impl Encode for usize {
    fn encode(&self, out: &mut Encoder) {
        out.usize(*self);
    }
}

impl Decode for usize {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        r.usize()
    }
}

impl Encode for f64 {
    fn encode(&self, out: &mut Encoder) {
        out.f64(*self);
    }
}

impl Decode for f64 {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        r.f64()
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut Encoder) {
        out.bool(*self);
    }
}

impl Decode for bool {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        r.bool()
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Encoder) {
        out.str(self);
    }
}

impl Decode for String {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        r.str()
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Encoder) {
        out.usize(self.len());
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        // Every element consumes at least one byte, so the length check in
        // `seq_len` bounds the allocation by the remaining input size.
        let len = r.seq_len(1)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Encoder) {
        match self {
            None => out.bool(false),
            Some(v) => {
                out.bool(true);
                v.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        if r.bool()? {
            Ok(Some(T::decode(r)?))
        } else {
            Ok(None)
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Encoder) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

// ---------------------------------------------------------------------------
// Pulse / calibration primitives
// ---------------------------------------------------------------------------

impl Encode for PulseMethod {
    fn encode(&self, out: &mut Encoder) {
        out.u8(match self {
            PulseMethod::Gaussian => 0,
            PulseMethod::OptCtrl => 1,
            PulseMethod::Pert => 2,
            PulseMethod::Dcg => 3,
        });
    }
}

impl Decode for PulseMethod {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8()? {
            0 => PulseMethod::Gaussian,
            1 => PulseMethod::OptCtrl,
            2 => PulseMethod::Pert,
            3 => PulseMethod::Dcg,
            _ => return Err(DecodeError::Invalid("pulse method tag")),
        })
    }
}

impl Encode for ResidualTable {
    fn encode(&self, out: &mut Encoder) {
        out.f64(self.x90);
        out.f64(self.id);
        out.f64(self.zx90_control);
        out.f64(self.zx90_target);
    }
}

impl Decode for ResidualTable {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(ResidualTable {
            x90: r.f64()?,
            id: r.f64()?,
            zx90_control: r.f64()?,
            zx90_target: r.f64()?,
        })
    }
}

impl Encode for GateDurations {
    fn encode(&self, out: &mut Encoder) {
        out.f64(self.x90);
        out.f64(self.zx90);
        out.f64(self.id);
    }
}

impl Decode for GateDurations {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(GateDurations {
            x90: r.f64()?,
            zx90: r.f64()?,
            id: r.f64()?,
        })
    }
}

impl Encode for Requirement {
    fn encode(&self, out: &mut Encoder) {
        out.usize(self.nq_limit);
        out.usize(self.nc_limit);
    }
}

impl Decode for Requirement {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Requirement {
            nq_limit: r.usize()?,
            nc_limit: r.usize()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Gates and circuits
// ---------------------------------------------------------------------------

impl Encode for Gate {
    fn encode(&self, out: &mut Encoder) {
        let (tag, params): (u8, &[f64]) = match self {
            Gate::H => (0, &[]),
            Gate::X => (1, &[]),
            Gate::Y => (2, &[]),
            Gate::Z => (3, &[]),
            Gate::S => (4, &[]),
            Gate::Sdg => (5, &[]),
            Gate::T => (6, &[]),
            Gate::Tdg => (7, &[]),
            Gate::Rx(t) => (8, std::slice::from_ref(t)),
            Gate::Ry(t) => (9, std::slice::from_ref(t)),
            Gate::Rz(t) => (10, std::slice::from_ref(t)),
            Gate::Phase(t) => (11, std::slice::from_ref(t)),
            Gate::U3(..) => (12, &[]),
            Gate::Cnot => (13, &[]),
            Gate::Cz => (14, &[]),
            Gate::CPhase(t) => (15, std::slice::from_ref(t)),
            Gate::Rzz(t) => (16, std::slice::from_ref(t)),
            Gate::Swap => (17, &[]),
            Gate::SqrtX => (18, &[]),
            Gate::SqrtY => (19, &[]),
            Gate::SqrtW => (20, &[]),
        };
        out.u8(tag);
        for &p in params {
            out.f64(p);
        }
        if let Gate::U3(t, p, l) = *self {
            out.f64(t);
            out.f64(p);
            out.f64(l);
        }
    }
}

impl Decode for Gate {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8()? {
            0 => Gate::H,
            1 => Gate::X,
            2 => Gate::Y,
            3 => Gate::Z,
            4 => Gate::S,
            5 => Gate::Sdg,
            6 => Gate::T,
            7 => Gate::Tdg,
            8 => Gate::Rx(r.f64()?),
            9 => Gate::Ry(r.f64()?),
            10 => Gate::Rz(r.f64()?),
            11 => Gate::Phase(r.f64()?),
            12 => Gate::U3(r.f64()?, r.f64()?, r.f64()?),
            13 => Gate::Cnot,
            14 => Gate::Cz,
            15 => Gate::CPhase(r.f64()?),
            16 => Gate::Rzz(r.f64()?),
            17 => Gate::Swap,
            18 => Gate::SqrtX,
            19 => Gate::SqrtY,
            20 => Gate::SqrtW,
            _ => return Err(DecodeError::Invalid("gate tag")),
        })
    }
}

impl Encode for Circuit {
    fn encode(&self, out: &mut Encoder) {
        out.usize(self.qubit_count());
        out.usize(self.ops().len());
        for op in self.ops() {
            op.gate.encode(out);
            op.qubits.encode(out);
        }
    }
}

impl Decode for Circuit {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let qubit_count = r.usize()?;
        let op_count = r.seq_len(2)?;
        let mut circuit = Circuit::new(qubit_count);
        for _ in 0..op_count {
            let gate = Gate::decode(r)?;
            let qubits: Vec<usize> = Vec::decode(r)?;
            // Re-check the invariants `Circuit::push` asserts, so corrupt
            // payloads error instead of panicking.
            if qubits.len() != gate.arity() {
                return Err(DecodeError::Invalid("gate arity"));
            }
            if qubits.iter().any(|&q| q >= qubit_count) {
                return Err(DecodeError::Invalid("qubit out of range"));
            }
            if qubits.len() == 2 && qubits[0] == qubits[1] {
                return Err(DecodeError::Invalid("repeated qubit"));
            }
            circuit.push(gate, &qubits);
        }
        Ok(circuit)
    }
}

impl Encode for Op {
    fn encode(&self, out: &mut Encoder) {
        self.gate.encode(out);
        self.qubits.encode(out);
    }
}

impl Encode for NativeOp {
    fn encode(&self, out: &mut Encoder) {
        match *self {
            NativeOp::Rz { qubit, theta } => {
                out.u8(0);
                out.usize(qubit);
                out.f64(theta);
            }
            NativeOp::X90 { qubit } => {
                out.u8(1);
                out.usize(qubit);
            }
            NativeOp::Zx90 { control, target } => {
                out.u8(2);
                out.usize(control);
                out.usize(target);
            }
            NativeOp::Id { qubit } => {
                out.u8(3);
                out.usize(qubit);
            }
        }
    }
}

impl Decode for NativeOp {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8()? {
            0 => NativeOp::Rz {
                qubit: r.usize()?,
                theta: r.f64()?,
            },
            1 => NativeOp::X90 { qubit: r.usize()? },
            2 => NativeOp::Zx90 {
                control: r.usize()?,
                target: r.usize()?,
            },
            3 => NativeOp::Id { qubit: r.usize()? },
            _ => return Err(DecodeError::Invalid("native op tag")),
        })
    }
}

/// Re-checks the invariants `NativeCircuit::push` asserts, for the ops of
/// a decoded schedule layer.
fn check_native_op(op: &NativeOp, qubit_count: usize) -> Result<(), DecodeError> {
    if op.qubits().iter().any(|&q| q >= qubit_count) {
        return Err(DecodeError::Invalid("qubit out of range"));
    }
    if let NativeOp::Zx90 { control, target } = op {
        if control == target {
            return Err(DecodeError::Invalid("repeated qubit"));
        }
    }
    Ok(())
}

/// Encode-only: no library code stores a native translation; zzperf's
/// traced replay writes one under [`crate::ArtifactKind::Native`] to time
/// a store write.
impl Encode for NativeCircuit {
    fn encode(&self, out: &mut Encoder) {
        out.usize(self.qubit_count());
        self.ops().to_vec().encode(out);
    }
}

// ---------------------------------------------------------------------------
// Topologies and schedules
// ---------------------------------------------------------------------------

impl Encode for Topology {
    fn encode(&self, out: &mut Encoder) {
        out.str(self.name());
        let coords: Vec<(f64, f64)> = (0..self.qubit_count()).map(|q| self.coord(q)).collect();
        coords.encode(out);
        self.couplings().to_vec().encode(out);
    }
}

impl Decode for Topology {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let name = r.str()?;
        let coords: Vec<(f64, f64)> = Vec::decode(r)?;
        let edges: Vec<(usize, usize)> = Vec::decode(r)?;
        // `Topology::new` re-validates and deterministically rebuilds the
        // rotation system and faces, so the round-trip compares equal.
        Topology::new(name, coords, edges).map_err(|_| DecodeError::Invalid("topology"))
    }
}

impl Encode for CutMetrics {
    fn encode(&self, out: &mut Encoder) {
        out.usize(self.nc);
        out.usize(self.nq);
        self.suppressed.encode(out);
    }
}

impl Decode for CutMetrics {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(CutMetrics {
            nc: r.usize()?,
            nq: r.usize()?,
            suppressed: Vec::decode(r)?,
        })
    }
}

impl Encode for Layer {
    fn encode(&self, out: &mut Encoder) {
        self.rz_before.encode(out);
        self.ops.encode(out);
        self.pulsed.encode(out);
        self.metrics.encode(out);
    }
}

impl Decode for Layer {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Layer {
            rz_before: Vec::decode(r)?,
            ops: Vec::decode(r)?,
            pulsed: Vec::decode(r)?,
            metrics: CutMetrics::decode(r)?,
        })
    }
}

impl Encode for SchedulePlan {
    fn encode(&self, out: &mut Encoder) {
        out.usize(self.qubit_count());
        self.layers.encode(out);
        self.final_rz.encode(out);
    }
}

impl Decode for SchedulePlan {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let qubit_count = r.usize()?;
        let layers: Vec<Layer> = Vec::decode(r)?;
        let final_rz: Vec<(usize, f64)> = Vec::decode(r)?;
        for layer in &layers {
            for op in &layer.ops {
                check_native_op(op, qubit_count)?;
            }
            if layer.pulsed.len() != qubit_count {
                return Err(DecodeError::Invalid("pulsed vector length"));
            }
            if layer.rz_before.iter().any(|&(q, _)| q >= qubit_count) {
                return Err(DecodeError::Invalid("rz qubit out of range"));
            }
        }
        if final_rz.iter().any(|&(q, _)| q >= qubit_count) {
            return Err(DecodeError::Invalid("rz qubit out of range"));
        }
        Ok(SchedulePlan::from_parts(qubit_count, layers, final_rz))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::roundtrip;

    /// The `f64` edge cases every payload field must survive bit-exactly.
    pub fn weird_f64s() -> Vec<f64> {
        vec![
            0.0,
            -0.0,
            1.5,
            -std::f64::consts::PI,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_dead_beef), // NaN with payload bits
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 1024.0, // denormal
            f64::from_bits(1),          // smallest denormal
            f64::MAX,
        ]
    }

    fn assert_bits_eq(a: f64, b: f64) {
        assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
    }

    #[test]
    fn f64_edge_cases_roundtrip_bit_exactly() {
        for x in weird_f64s() {
            assert_bits_eq(x, roundtrip(&x).unwrap());
        }
    }

    #[test]
    fn gates_roundtrip_including_weird_angles() {
        let mut gates = vec![
            Gate::H,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Cnot,
            Gate::Cz,
            Gate::Swap,
            Gate::SqrtX,
            Gate::SqrtY,
            Gate::SqrtW,
        ];
        for t in weird_f64s() {
            gates.push(Gate::Rx(t));
            gates.push(Gate::Ry(t));
            gates.push(Gate::Rz(t));
            gates.push(Gate::Phase(t));
            gates.push(Gate::CPhase(t));
            gates.push(Gate::Rzz(t));
            gates.push(Gate::U3(t, -t, t * 0.5));
        }
        for g in gates {
            let back = roundtrip(&g).unwrap();
            // PartialEq is false for NaN angles; compare the digest parts'
            // bit patterns via Debug formatting of the raw bits instead.
            assert_eq!(format!("{:?}", raw(g)), format!("{:?}", raw(back)));
        }
    }

    /// Maps a gate to its variant tag plus exact angle bits.
    fn raw(g: Gate) -> (u8, Vec<u64>) {
        let mut enc = Encoder::new();
        g.encode(&mut enc);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        let tag = dec.u8().unwrap();
        let mut bits = Vec::new();
        while dec.remaining() > 0 {
            bits.push(dec.u64().unwrap());
        }
        (tag, bits)
    }

    #[test]
    fn circuits_roundtrip() {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0])
            .push(Gate::Cnot, &[0, 1])
            .push(Gate::Rz(0.7), &[2])
            .push(Gate::Rzz(-1.3), &[1, 2])
            .push(Gate::U3(0.1, 0.2, 0.3), &[0]);
        let back = roundtrip(&c).unwrap();
        assert_eq!(c, back);
        assert_eq!(c.content_digest(), back.content_digest());
    }

    #[test]
    fn corrupt_circuit_errors_instead_of_panicking() {
        let mut enc = Encoder::new();
        Circuit::new(2).encode(&mut enc);
        let mut bytes = enc.finish();
        // Claim one op but supply garbage.
        bytes[8] = 1;
        let mut dec = Decoder::new(&bytes);
        assert!(Circuit::decode(&mut dec).is_err());

        // An op addressing a qubit outside the register.
        let mut c = Circuit::new(9);
        c.push(Gate::X, &[8]);
        let mut enc = Encoder::new();
        c.encode(&mut enc);
        let mut bytes = enc.finish();
        bytes[0] = 2; // shrink the register under the op
        let mut dec = Decoder::new(&bytes);
        assert_eq!(
            Circuit::decode(&mut dec).unwrap_err(),
            DecodeError::Invalid("qubit out of range")
        );
    }

    #[test]
    fn native_circuits_roundtrip() {
        let mut n = NativeCircuit::new(3);
        n.push(NativeOp::Rz {
            qubit: 0,
            theta: -0.0,
        });
        n.push(NativeOp::X90 { qubit: 1 });
        n.push(NativeOp::Zx90 {
            control: 1,
            target: 2,
        });
        n.push(NativeOp::Id { qubit: 0 });
        // The encoding is the qubit count, then the op list.
        let mut out = Encoder::new();
        n.encode(&mut out);
        let bytes = out.finish();
        let mut r = Decoder::new(&bytes);
        let back: (usize, Vec<NativeOp>) = Decode::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, (n.qubit_count(), n.ops().to_vec()));
    }

    #[test]
    fn topologies_roundtrip() {
        for topo in [
            Topology::grid(3, 4),
            Topology::line(5),
            Topology::ibmq_vigo(),
            Topology::heavy_hex_cell(),
            Topology::grid_with_diagonal(),
        ] {
            assert_eq!(topo, roundtrip(&topo).unwrap());
        }
    }

    #[test]
    fn residual_tables_roundtrip() {
        for x in weird_f64s() {
            let t = ResidualTable {
                x90: x,
                id: 0.25,
                zx90_control: -x,
                zx90_target: 1.0,
            };
            let back = roundtrip(&t).unwrap();
            assert_bits_eq(t.x90, back.x90);
            assert_bits_eq(t.id, back.id);
            assert_bits_eq(t.zx90_control, back.zx90_control);
            assert_bits_eq(t.zx90_target, back.zx90_target);
        }
    }

    #[test]
    fn pulse_methods_and_durations_roundtrip() {
        for m in PulseMethod::ALL {
            assert_eq!(m, roundtrip(&m).unwrap());
        }
        for d in [GateDurations::standard(), GateDurations::dcg()] {
            assert_eq!(d, roundtrip(&d).unwrap());
        }
    }
}
