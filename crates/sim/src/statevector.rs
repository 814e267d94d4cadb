//! A dense n-qubit statevector simulator (n ≤ ~20).

use zz_linalg::{c64, Matrix, Vector};

/// An n-qubit pure state with in-place gate application.
///
/// Follows the workspace bit convention: qubit 0 is the most significant
/// bit of the amplitude index.
///
/// # Example
///
/// ```
/// use zz_sim::StateVector;
/// use zz_quantum::gates;
///
/// let mut sv = StateVector::zero(2);
/// sv.apply_single(&gates::h(), 0);
/// sv.apply_two(&gates::cnot(), 0, 1);
/// // Bell state: |00⟩ and |11⟩ with amplitude 1/√2.
/// assert!((sv.probability(0) - 0.5).abs() < 1e-12);
/// assert!((sv.probability(3) - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct StateVector {
    n: usize,
    amps: Vec<c64>,
}

impl StateVector {
    /// The all-zeros state `|0…0⟩` on `n` qubits.
    pub fn zero(n: usize) -> Self {
        let mut amps = vec![c64::ZERO; 1 << n];
        amps[0] = c64::ONE;
        StateVector { n, amps }
    }

    /// Wraps an existing normalized amplitude vector.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two.
    pub fn from_vector(v: Vector) -> Self {
        let len = v.len();
        assert!(
            len.is_power_of_two(),
            "amplitude count must be a power of two"
        );
        StateVector {
            n: len.trailing_zeros() as usize,
            amps: v.into_vec(),
        }
    }

    /// Number of qubits.
    pub fn qubit_count(&self) -> usize {
        self.n
    }

    /// Borrow the amplitudes.
    pub fn amplitudes(&self) -> &[c64] {
        &self.amps
    }

    /// The state as a [`Vector`].
    pub fn to_vector(&self) -> Vector {
        Vector::from_vec(self.amps.clone())
    }

    /// Probability of basis state `index`.
    pub fn probability(&self, index: usize) -> f64 {
        self.amps[index].abs_sq()
    }

    /// `|⟨self|other⟩|²`.
    ///
    /// # Panics
    ///
    /// Panics if qubit counts differ.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        assert_eq!(self.n, other.n, "fidelity qubit-count mismatch");
        self.amps
            .iter()
            .zip(&other.amps)
            .map(|(&a, &b)| a.conj() * b)
            .sum::<c64>()
            .abs_sq()
    }

    /// Euclidean norm of the state.
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.abs_sq()).sum::<f64>().sqrt()
    }

    /// Rescales to unit norm.
    ///
    /// # Panics
    ///
    /// Panics if the state is numerically zero.
    pub fn normalize(&mut self) {
        let norm = self.norm();
        assert!(norm > 1e-300, "cannot normalize a zero state");
        for a in &mut self.amps {
            *a = *a / norm;
        }
    }

    #[inline]
    pub(crate) fn bit(&self, q: usize) -> usize {
        self.n - 1 - q
    }

    /// The amplitude-index bit mask of qubit `q` under the workspace bit
    /// convention (qubit 0 is the most significant bit).
    #[inline]
    pub(crate) fn qubit_mask(&self, q: usize) -> usize {
        1usize << self.bit(q)
    }

    /// Applies a single-qubit gate to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not 2×2 or `q` is out of range.
    pub fn apply_single(&mut self, m: &Matrix, q: usize) {
        assert_eq!(m.rows(), 2, "apply_single expects a 2x2 matrix");
        assert!(q < self.n, "qubit {q} out of range");
        let mk = [m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]];
        self.kernel_single(&mk, self.qubit_mask(q));
    }

    /// Branch-free single-qubit kernel: strides over exactly the
    /// `2^(n-1)` amplitude pairs split by `mask` (row-major 2×2 `m`).
    pub(crate) fn kernel_single(&mut self, m: &[c64; 4], mask: usize) {
        let block = mask << 1;
        let mut base = 0;
        while base < self.amps.len() {
            for i in base..base + mask {
                let j = i | mask;
                let (a0, a1) = (self.amps[i], self.amps[j]);
                self.amps[i] = m[0] * a0 + m[1] * a1;
                self.amps[j] = m[2] * a0 + m[3] * a1;
            }
            base += block;
        }
    }

    /// Applies a two-qubit gate; `qa` is the gate's most significant factor.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not 4×4, a qubit is out of range, or
    /// `qa == qb`.
    pub fn apply_two(&mut self, m: &Matrix, qa: usize, qb: usize) {
        assert_eq!(m.rows(), 4, "apply_two expects a 4x4 matrix");
        assert!(qa < self.n && qb < self.n, "qubit out of range");
        assert_ne!(qa, qb, "two-qubit gate requires distinct qubits");
        let mut mk = [c64::ZERO; 16];
        for r in 0..4 {
            for c in 0..4 {
                mk[4 * r + c] = m[(r, c)];
            }
        }
        self.kernel_two(&mk, self.qubit_mask(qa), self.qubit_mask(qb));
    }

    /// Branch-free two-qubit kernel over the `2^(n-2)` four-amplitude
    /// groups split by the masks `ba` (most significant gate factor) and
    /// `bb` (row-major 4×4 `m`).
    ///
    /// The group bases are enumerated with three nested strided loops —
    /// the bit-expansion arithmetic (inserting zero bits at the two mask
    /// positions) is hoisted into the loop bounds, so the innermost loop
    /// walks a contiguous cache-resident run of `min(ba, bb)` bases with
    /// no per-group index shuffling. Bases are visited in the same
    /// ascending order as the old expand-per-group form, so results are
    /// bit-identical to it.
    pub(crate) fn kernel_two(&mut self, m: &[c64; 16], ba: usize, bb: usize) {
        let (lo, hi) = if ba < bb { (ba, bb) } else { (bb, ba) };
        let len = self.amps.len();
        let mut outer = 0;
        while outer < len {
            let mut mid = outer;
            while mid < outer + hi {
                for base in mid..mid + lo {
                    let (i1, i2, i3) = (base | bb, base | ba, base | ba | bb);
                    let (a0, a1, a2, a3) =
                        (self.amps[base], self.amps[i1], self.amps[i2], self.amps[i3]);
                    self.amps[base] = m[0] * a0 + m[1] * a1 + m[2] * a2 + m[3] * a3;
                    self.amps[i1] = m[4] * a0 + m[5] * a1 + m[6] * a2 + m[7] * a3;
                    self.amps[i2] = m[8] * a0 + m[9] * a1 + m[10] * a2 + m[11] * a3;
                    self.amps[i3] = m[12] * a0 + m[13] * a1 + m[14] * a2 + m[15] * a3;
                }
                mid += lo << 1;
            }
            outer += hi << 1;
        }
    }

    /// Applies the diagonal ZZ phase `exp(−i φ Z_u Z_v)`: basis states where
    /// the two qubits agree get `e^{−iφ}`, others `e^{+iφ}`.
    ///
    /// # Panics
    ///
    /// Panics if a qubit is out of range or `u == v`.
    pub fn apply_zz_phase(&mut self, phi: f64, u: usize, v: usize) {
        assert!(u < self.n && v < self.n, "qubit out of range");
        assert_ne!(u, v, "ZZ phase requires distinct qubits");
        if phi == 0.0 {
            return;
        }
        let (bu, bv) = (1usize << self.bit(u), 1usize << self.bit(v));
        let minus = c64::cis(-phi);
        let plus = c64::cis(phi);
        for (i, a) in self.amps.iter_mut().enumerate() {
            let same = ((i & bu == 0) == (i & bv == 0)) as usize;
            *a *= if same == 1 { minus } else { plus };
        }
    }

    /// Applies `diag(e^{−iθ/2}, e^{iθ/2})` (Rz) on qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_rz(&mut self, theta: f64, q: usize) {
        assert!(q < self.n, "qubit {q} out of range");
        let mask = 1usize << self.bit(q);
        let (lo, hi) = (c64::cis(-theta / 2.0), c64::cis(theta / 2.0));
        for (i, a) in self.amps.iter_mut().enumerate() {
            *a *= if i & mask == 0 { lo } else { hi };
        }
    }

    /// Samples `shots` measurement outcomes in the computational basis.
    ///
    /// Returns `(basis index, count)` pairs sorted by descending count —
    /// what an actual device run would report.
    ///
    /// # Example
    ///
    /// ```
    /// use rand::SeedableRng;
    /// use zz_sim::StateVector;
    /// use zz_quantum::gates;
    ///
    /// let mut sv = StateVector::zero(1);
    /// sv.apply_single(&gates::h(), 0);
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    /// let counts = sv.sample_counts(1000, &mut rng);
    /// // Both outcomes appear with roughly half the shots.
    /// assert_eq!(counts.len(), 2);
    /// assert!(counts[0].1 < 600);
    /// ```
    pub fn sample_counts(&self, shots: usize, rng: &mut impl rand::Rng) -> Vec<(usize, usize)> {
        // Cumulative distribution over basis states.
        let mut cdf = Vec::with_capacity(self.amps.len());
        let mut acc = 0.0;
        for a in &self.amps {
            acc += a.abs_sq();
            cdf.push(acc);
        }
        let total = acc.max(1e-300);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..shots {
            let r: f64 = rng.gen_range(0.0..total);
            let idx = cdf.partition_point(|&c| c < r).min(self.amps.len() - 1);
            *counts.entry(idx).or_insert(0usize) += 1;
        }
        let mut out: Vec<(usize, usize)> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Probability that qubit `q` is `|1⟩`.
    pub fn excited_population(&self, q: usize) -> f64 {
        let mask = self.qubit_mask(q);
        let block = mask << 1;
        let mut total = 0.0;
        let mut base = mask;
        while base < self.amps.len() {
            for i in base..base + mask {
                total += self.amps[i].abs_sq();
            }
            base += block;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchedState;
    use zz_quantum::{embed, gates};

    #[test]
    fn single_gate_matches_embedding() {
        let mut sv = StateVector::zero(3);
        sv.apply_single(&gates::h(), 1);
        sv.apply_single(&gates::t(), 1);
        let direct = embed(&gates::t().matmul(&gates::h()), &[1], 3)
            .mul_vec(&zz_quantum::states::zero_state(3));
        assert!(sv.to_vector().fidelity(&direct.normalized()) > 1.0 - 1e-12);
    }

    #[test]
    fn two_qubit_gate_matches_embedding() {
        let mut sv = StateVector::zero(3);
        sv.apply_single(&gates::h(), 2);
        sv.apply_two(&gates::cnot(), 2, 0);
        let u = embed(&gates::cnot(), &[2, 0], 3).matmul(&embed(&gates::h(), &[2], 3));
        let direct = u.mul_vec(&zz_quantum::states::zero_state(3));
        let f = sv.to_vector().fidelity(&direct.normalized());
        assert!(f > 1.0 - 1e-12, "fidelity {f}");
    }

    #[test]
    fn zz_phase_matches_rzz_gate() {
        let phi = 0.37;
        let mut a = StateVector::zero(2);
        a.apply_single(&gates::h(), 0);
        a.apply_single(&gates::h(), 1);
        let mut b = a.clone();
        a.apply_zz_phase(phi, 0, 1);
        b.apply_two(&gates::rzz(2.0 * phi), 0, 1);
        assert!(a.fidelity(&b) > 1.0 - 1e-12);
    }

    #[test]
    fn rz_matches_gate_matrix() {
        let mut a = StateVector::zero(1);
        a.apply_single(&gates::h(), 0);
        let mut b = a.clone();
        a.apply_rz(1.1, 0);
        b.apply_single(&gates::rz(1.1), 0);
        assert!(a.fidelity(&b) > 1.0 - 1e-12);
    }

    #[test]
    fn excited_population_counts_the_right_bit() {
        let mut sv = StateVector::zero(2);
        sv.apply_single(&gates::x(), 1);
        assert!((sv.excited_population(1) - 1.0).abs() < 1e-12);
        assert!(sv.excited_population(0).abs() < 1e-12);
    }

    #[test]
    fn diagonal_matches_sequential_phases() {
        // One fused diagonal must equal the per-operator phase passes.
        let n = 3;
        let mut reference = StateVector::zero(n);
        let mut fused = BatchedState::zero(n, 1);
        let h: [c64; 4] = gates::h().as_slice().try_into().expect("2x2");
        for q in 0..n {
            reference.apply_single(&gates::h(), q);
            fused.kernel_single(&h, 1 << (n - 1 - q));
        }
        reference.apply_rz(0.7, 1);
        reference.apply_zz_phase(0.31, 0, 2);
        let (diag_re, diag_im): (Vec<f64>, Vec<f64>) = (0..1usize << n)
            .map(|i| {
                let rz = if i & reference.qubit_mask(1) != 0 {
                    0.7 / 2.0
                } else {
                    -0.7 / 2.0
                };
                let same = (i & reference.qubit_mask(0) == 0) == (i & reference.qubit_mask(2) == 0);
                let zz = if same { -0.31 } else { 0.31 };
                let d = c64::cis(rz + zz);
                (d.re, d.im)
            })
            .unzip();
        fused.apply_diagonal(&diag_re, &diag_im);
        let fused = StateVector::from_vector(Vector::from_vec(fused.lane_amplitudes(0)));
        assert!(fused.fidelity(&reference) > 1.0 - 1e-12);
    }

    #[test]
    fn two_qubit_kernel_handles_adjacent_and_distant_masks() {
        for (qa, qb) in [(0, 1), (1, 0), (0, 3), (3, 1)] {
            let mut sv = StateVector::zero(4);
            for q in 0..4 {
                sv.apply_single(&gates::h(), q);
                sv.apply_single(&gates::t(), q);
            }
            let direct = embed(&gates::zx90(), &[qa, qb], 4).mul_vec(&sv.to_vector());
            sv.apply_two(&gates::zx90(), qa, qb);
            let f = sv.to_vector().fidelity(&direct.normalized());
            assert!(f > 1.0 - 1e-12, "({qa},{qb}): fidelity {f}");
        }
    }

    #[test]
    fn unitaries_preserve_norm() {
        let mut sv = StateVector::zero(4);
        sv.apply_single(&gates::h(), 0);
        sv.apply_two(&gates::zx90(), 0, 3);
        sv.apply_zz_phase(0.3, 1, 2);
        sv.apply_rz(0.9, 2);
        assert!((sv.norm() - 1.0).abs() < 1e-12);
    }
}
