//! Piecewise-constant Schrödinger propagation.
//!
//! [`TimeDependentHamiltonian::propagate`] multiplies full-dimension
//! step propagators. A Hamiltonian that never couples some index blocks
//! (a spectator's `Z` commutes with `λ·Z_s Z_q` and every drive, so its
//! `|0⟩` and `|1⟩` halves evolve independently) propagates faster through
//! the crate's block propagation: one block at a time, through
//! `zz_linalg`'s allocation-free Taylor kernel, with every in-block entry
//! bit for bit `propagate`'s.

use zz_linalg::expm::{expm_step, expm_taylor_into};
use zz_linalg::{c64, matmul_into, Matrix};

/// One controlled Hamiltonian term: an operator and its amplitude `u(t)`.
pub type ControlTerm<'a> = (Matrix, Box<dyn Fn(f64) -> f64 + 'a>);

/// A time-dependent Hamiltonian `H(t) = H₀ + Σ_k u_k(t)·H_k` given by a
/// static part and amplitude-controlled terms.
pub struct TimeDependentHamiltonian<'a> {
    /// The drift (static) Hamiltonian.
    pub h_static: Matrix,
    /// Controlled terms: `(operator, amplitude function of t)`.
    pub controls: Vec<ControlTerm<'a>>,
}

impl<'a> TimeDependentHamiltonian<'a> {
    /// Creates a Hamiltonian with only a drift term.
    pub fn new(h_static: Matrix) -> Self {
        TimeDependentHamiltonian {
            h_static,
            controls: Vec::new(),
        }
    }

    /// Adds a controlled term `u(t)·op`.
    ///
    /// # Panics
    ///
    /// Panics if the operator dimension differs from the drift's.
    pub fn add_control(&mut self, op: Matrix, amplitude: impl Fn(f64) -> f64 + 'a) -> &mut Self {
        assert_eq!(
            op.rows(),
            self.h_static.rows(),
            "control dimension mismatch"
        );
        self.controls.push((op, Box::new(amplitude)));
        self
    }

    /// Samples `H(t)`.
    pub fn at(&self, t: f64) -> Matrix {
        let mut h = self.h_static.clone();
        for (op, amp) in &self.controls {
            let a = amp(t);
            if a != 0.0 {
                h.add_scaled(op, c64::real(a));
            }
        }
        h
    }

    /// Propagates `U(T) = Π_k exp(−i H(t_k) dt)` over `[0, duration]` with
    /// midpoint sampling and `steps` uniform steps.
    pub fn propagate(&self, duration: f64, steps: usize) -> Matrix {
        let dt = duration / steps as f64;
        let mut u = Matrix::identity(self.h_static.rows());
        for k in 0..steps {
            let t = (k as f64 + 0.5) * dt;
            let h = self.at(t);
            u = expm_step(&h, dt).matmul(&u);
        }
        u
    }

    /// Propagates like [`propagate`](Self::propagate) a Hamiltonian that
    /// leaves each of `blocks` invariant, one block at a time. Returns one
    /// propagator per block: entry `(r, c)` of the `b`-th is
    /// `U(T)[(blocks[b][r], blocks[b][c])]`, bit for bit `propagate`'s.
    ///
    /// The blocks are extracted once; each step evaluates every control
    /// amplitude once for all blocks and allocates nothing. Each block
    /// goes through [`expm_taylor_into`] with the squaring count
    /// `expm_step` takes for the whole matrix (the largest entry over all
    /// blocks times the full dimension), and the products skip the zeros
    /// between blocks, so the in-block entries match. That holds for a
    /// 2-wide block too: it takes the Taylor path the whole matrix takes,
    /// never `expm_step`'s analytic 2×2 formula.
    ///
    /// # Panics
    ///
    /// Panics if the Hamiltonian is 2-dimensional (`propagate` takes the
    /// analytic 2×2 path there), if `blocks` do not partition the indices
    /// into non-empty, strictly increasing lists, or if the drift or a
    /// control operator has a nonzero entry between two blocks.
    pub(crate) fn propagate_blocks(
        &self,
        duration: f64,
        steps: usize,
        blocks: &[&[usize]],
    ) -> Vec<Matrix> {
        let dim = self.h_static.rows();
        assert_ne!(
            dim, 2,
            "a 2-dim Hamiltonian propagates through expm_step's 2x2 formula"
        );
        let mut owner = vec![None; dim];
        for (b, block) in blocks.iter().enumerate() {
            assert!(
                !block.is_empty() && block.windows(2).all(|w| w[0] < w[1]),
                "block {b} must be non-empty and strictly increasing"
            );
            for &i in *block {
                assert!(
                    i < dim && owner[i].is_none(),
                    "blocks must be disjoint indices below {dim}"
                );
                owner[i] = Some(b);
            }
        }
        assert!(
            owner.iter().all(Option::is_some),
            "blocks must cover all {dim} indices"
        );
        let operators: Vec<&Matrix> = std::iter::once(&self.h_static)
            .chain(self.controls.iter().map(|(op, _)| op))
            .collect();
        for op in &operators {
            for i in 0..dim {
                for j in 0..dim {
                    assert!(
                        owner[i] == owner[j] || op[(i, j)] == c64::ZERO,
                        "an operator couples blocks at ({i}, {j})"
                    );
                }
            }
        }

        let mut states: Vec<BlockState> = blocks
            .iter()
            .map(|block| BlockState::extract(block, &operators))
            .collect();
        let mut amps = vec![0.0; self.controls.len()];
        let dt = duration / steps as f64;
        let factor = c64::new(0.0, -dt);
        for k in 0..steps {
            let t = (k as f64 + 0.5) * dt;
            for (a, (_, amp)) in amps.iter_mut().zip(&self.controls) {
                *a = amp(t);
            }
            let mut largest = 0.0;
            for s in &mut states {
                largest = s.exponent(&amps, factor, largest);
            }
            let norm = largest * dim as f64;
            for s in &mut states {
                s.step(norm);
            }
        }
        states.iter().map(BlockState::propagator).collect()
    }

    /// Propagates while accumulating `∫ U†(t)·A·U(t) dt` for each observable
    /// `A` — the first-order (Magnus/Dyson) crosstalk integrals of the Pert
    /// objective. Returns `(U(T), integrals)`.
    pub fn propagate_with_integrals(
        &self,
        duration: f64,
        steps: usize,
        observables: &[Matrix],
    ) -> (Matrix, Vec<Matrix>) {
        let dim = self.h_static.rows();
        let dt = duration / steps as f64;
        let mut u = Matrix::identity(dim);
        let mut acc: Vec<Matrix> = observables
            .iter()
            .map(|_| Matrix::zeros(dim, dim))
            .collect();
        for k in 0..steps {
            let t = (k as f64 + 0.5) * dt;
            let h = self.at(t);
            u = expm_step(&h, dt).matmul(&u);
            let udag = u.dagger();
            for (a, obs) in acc.iter_mut().zip(observables) {
                let toggled = udag.matmul(obs).matmul(&u);
                a.add_scaled(&toggled, c64::real(dt));
            }
        }
        (u, acc)
    }
}

/// One invariant block of
/// [`propagate_blocks`](TimeDependentHamiltonian::propagate_blocks): its
/// entries of the drift and of every control operator, and the buffers
/// of its steps, all `n × n` row-major.
struct BlockState {
    n: usize,
    /// The drift's in-block entries, then each control operator's.
    operators: Vec<c64>,
    /// The step's `−i·H(t)·dt`, scaled in place by the kernel.
    m: Vec<c64>,
    /// The step's propagator.
    e: Vec<c64>,
    /// The propagator so far.
    u: Vec<c64>,
    tmp: Vec<c64>,
}

impl BlockState {
    fn extract(block: &[usize], operators: &[&Matrix]) -> Self {
        let n = block.len();
        let operators = operators
            .iter()
            .flat_map(|op| {
                block
                    .iter()
                    .flat_map(move |&r| block.iter().map(move |&c| op[(r, c)]))
            })
            .collect();
        BlockState {
            n,
            operators,
            m: vec![c64::ZERO; n * n],
            e: vec![c64::ZERO; n * n],
            u: Matrix::identity(n).as_slice().to_vec(),
            tmp: vec![c64::ZERO; n * n],
        }
    }

    /// Writes the step's `−i·H(t)·dt` to `m`, summing the drift and each
    /// control of nonzero amplitude in order as
    /// [`at`](TimeDependentHamiltonian::at) does, and returns `largest`
    /// raised to its largest entry modulus.
    fn exponent(&mut self, amps: &[f64], factor: c64, largest: f64) -> f64 {
        let (drift, controls) = self.operators.split_at(self.m.len());
        self.m.copy_from_slice(drift);
        for (&a, op) in amps.iter().zip(controls.chunks_exact(self.m.len())) {
            if a != 0.0 {
                for (h, &o) in self.m.iter_mut().zip(op) {
                    *h += c64::real(a) * o;
                }
            }
        }
        for z in &mut self.m {
            *z *= factor;
        }
        self.m.iter().map(|z| z.abs()).fold(largest, f64::max)
    }

    /// `u ← exp(m)·u`, squaring as the full matrix's `norm` bound asks.
    fn step(&mut self, norm: f64) {
        expm_taylor_into(self.n, &mut self.m, norm, &mut self.e, &mut self.tmp);
        matmul_into(self.n, &self.e, &self.u, &mut self.tmp);
        std::mem::swap(&mut self.u, &mut self.tmp);
    }

    fn propagator(&self) -> Matrix {
        Matrix::from_fn(self.n, self.n, |r, c| self.u[r * self.n + c])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zz_quantum::embed;
    use zz_quantum::gates;
    use zz_quantum::pauli::{Pauli, PauliString};

    #[test]
    fn constant_drive_rotates() {
        // H = Ω·X constant for T with Ω·T = π/4 ⇒ Rx(π/2).
        let mut h = TimeDependentHamiltonian::new(Matrix::zeros(2, 2));
        let omega = std::f64::consts::FRAC_PI_4 / 20.0;
        h.add_control(Pauli::X.matrix(), move |_| omega);
        let u = h.propagate(20.0, 100);
        assert!(u.approx_eq(&gates::x90(), 1e-9));
    }

    #[test]
    fn drift_only_evolution() {
        let z = Pauli::Z.matrix();
        let h = TimeDependentHamiltonian::new(z.scale(c64::real(0.3)));
        let u = h.propagate(1.0, 50);
        let expected = zz_linalg::expm::expm_neg_i_h_t(&Pauli::Z.matrix(), 0.3);
        assert!(u.approx_eq(&expected, 1e-10));
    }

    #[test]
    fn integral_of_z_under_no_drive_is_t_z() {
        let h = TimeDependentHamiltonian::new(Matrix::zeros(2, 2));
        let (_, ints) = h.propagate_with_integrals(10.0, 100, &[Pauli::Z.matrix()]);
        assert!(ints[0].approx_eq(&Pauli::Z.matrix().scale(c64::real(10.0)), 1e-9));
    }

    #[test]
    fn echo_cancels_the_z_integral() {
        // A constant π rotation about X over [0, T/2] then a second π over
        // [T/2, T]: the toggling-frame integral of Z averages to ~0.
        let omega = std::f64::consts::PI / 2.0 / 10.0; // π area per 10 ns
        let mut h = TimeDependentHamiltonian::new(Matrix::zeros(2, 2));
        h.add_control(Pauli::X.matrix(), move |_| omega);
        let (u, ints) = h.propagate_with_integrals(20.0, 400, &[Pauli::Z.matrix()]);
        // Full 2π rotation returns to identity (up to phase −1).
        assert!(zz_quantum::gates::equal_up_to_phase(
            &u,
            &Matrix::identity(2),
            1e-8
        ));
        let norm = ints[0].frobenius_norm();
        assert!(
            norm < 0.05,
            "first-order Z integral should cancel, got {norm}"
        );
    }

    /// Asserts that `propagate_blocks` returns exactly the in-block
    /// entries of `propagate`, bit for bit.
    fn assert_blocks_match(h: &TimeDependentHamiltonian<'_>, steps: usize, blocks: &[&[usize]]) {
        let full = h.propagate(20.0, steps);
        let parts = h.propagate_blocks(20.0, steps, blocks);
        assert_eq!(parts.len(), blocks.len());
        for (block, part) in blocks.iter().zip(&parts) {
            for (r, &i) in block.iter().enumerate() {
                for (c, &j) in block.iter().enumerate() {
                    let (want, got) = (full[(i, j)], part[(r, c)]);
                    assert_eq!(
                        (got.re.to_bits(), got.im.to_bits()),
                        (want.re.to_bits(), want.im.to_bits()),
                        "entry ({i}, {j}): {got} vs {want}"
                    );
                }
            }
        }
    }

    /// The largest entry of the step exponent `−i·H(t)·dt` over the steps.
    fn largest_exponent_entry(h: &TimeDependentHamiltonian<'_>, steps: usize) -> f64 {
        let dt = 20.0 / steps as f64;
        (0..steps)
            .map(|k| h.at((k as f64 + 0.5) * dt).max_norm() * dt)
            .fold(0.0, f64::max)
    }

    #[test]
    fn two_wide_blocks_match_the_full_propagation_bit_for_bit() {
        // A driven qubit with a spectator under λ Z⊗Z (driven qubit
        // first): the spectator's |0⟩ and |1⟩ halves are {0, 2} and
        // {1, 3}. The Y drive is off for the first steps.
        let zz = PauliString::zz(2, 0, 1).matrix().scale(c64::real(0.05));
        let mut h = TimeDependentHamiltonian::new(zz);
        h.add_control(embed(&Pauli::X.matrix(), &[0], 2), |t| {
            if t < 12.0 {
                1.0
            } else {
                0.3
            }
        });
        h.add_control(embed(&Pauli::Y.matrix(), &[0], 2), |t| {
            if t < 8.0 {
                0.0
            } else {
                0.02 * t
            }
        });
        // At dt = 0.2 ns the largest entry is 0.2: the full 4-dim bound
        // 0.8 takes one squaring, a 2-wide block's own bound 0.4 none.
        let largest = largest_exponent_entry(&h, 100);
        assert!(largest * 4.0 > 0.5 && largest * 2.0 <= 0.5, "{largest}");
        assert_blocks_match(&h, 100, &[&[0, 2], &[1, 3]]);
    }

    #[test]
    fn spectator_halves_of_a_two_qubit_drive_match_bit_for_bit() {
        // [spectator, a, b] under λ Z_s Z_b with both qubits and the Z⊗X
        // coupling driven: the halves are {0..3} and {4..7}.
        let n = 3;
        let zz = PauliString::zz(n, 0, 2).matrix().scale(c64::real(0.02));
        let mut h = TimeDependentHamiltonian::new(zz);
        h.add_control(embed(&Pauli::X.matrix(), &[1], n), |t| {
            0.4 * (0.3 * t).sin()
        });
        h.add_control(embed(&Pauli::Y.matrix(), &[1], n), |t| {
            0.1 * (0.2 * t).cos()
        });
        h.add_control(embed(&Pauli::X.matrix(), &[2], n), |t| {
            -0.3 * (0.1 * t).sin()
        });
        let zx = embed(&Pauli::Z.matrix().kron(&Pauli::X.matrix()), &[1, 2], n);
        h.add_control(zx, |t| 1.5 * (std::f64::consts::PI * t / 20.0).sin());
        // At dt = 0.1 ns some steps take two squarings on the full 8-dim
        // bound where a 4-wide block's own bound would take one.
        let largest = largest_exponent_entry(&h, 200);
        assert!(largest * 8.0 > 1.0 && largest * 4.0 <= 1.0, "{largest}");
        assert_blocks_match(&h, 200, &[&[0, 1, 2, 3], &[4, 5, 6, 7]]);
    }

    #[test]
    #[should_panic(expected = "couples blocks")]
    fn an_operator_between_blocks_is_rejected() {
        let mut h = TimeDependentHamiltonian::new(Matrix::zeros(4, 4));
        // X on the spectator moves amplitude between the two halves.
        h.add_control(embed(&Pauli::X.matrix(), &[1], 2), |_| 0.1);
        h.propagate_blocks(20.0, 10, &[&[0, 2], &[1, 3]]);
    }
}
