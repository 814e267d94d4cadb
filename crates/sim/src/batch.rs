//! Trajectory-batched amplitude storage: the SIMD-width hot path every
//! precompiled program replays on — Monte-Carlo fans at full width,
//! single runs at width 1.
//!
//! A [`BatchedState`] holds the amplitudes of `lanes` independent
//! trajectories in **structure-of-arrays** form: two `f64` planes (real
//! and imaginary), each laid out amplitude-major —
//!
//! ```text
//! re[i * lanes + t]   = Re(amplitude i of trajectory t)
//! im[i * lanes + t]   = Im(amplitude i of trajectory t)
//! ```
//!
//! Every kernel sweep visits each amplitude index **once** and applies
//! the operation to all `lanes` trajectories in a fixed-width contiguous
//! inner loop over plain `f64`s:
//!
//! * gate matrices and diagonal tables are loaded once per amplitude
//!   visit instead of once per trajectory, and
//! * the innermost loop is a branch-free auto-vectorizable form (no
//!   complex struct shuffling, no per-lane control flow).
//!
//! Per-lane arithmetic is completely independent — amplitudes of lane
//! `t` only ever combine with other amplitudes of lane `t`, in an order
//! that does not depend on `lanes`. That is the property the engine's
//! **batch-width invariance** rests on: running a trajectory in a batch
//! of 1, 3 or 8 produces bit-identical amplitudes, because the same
//! scalar operations execute in the same order either way.

use zz_linalg::c64;

/// The amplitudes of `lanes` trajectories over one `n`-qubit register,
/// stored as separate real/imaginary `f64` planes (see the
/// [module docs](self) for the layout and invariance argument).
#[derive(Clone, Debug)]
pub struct BatchedState {
    n: usize,
    lanes: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl BatchedState {
    /// `lanes` copies of the all-zeros state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn zero(n: usize, lanes: usize) -> Self {
        assert!(lanes > 0, "a batch needs at least one trajectory lane");
        let dim = 1usize << n;
        let mut state = BatchedState {
            n,
            lanes,
            re: vec![0.0; dim * lanes],
            im: vec![0.0; dim * lanes],
        };
        state.re[..lanes].fill(1.0);
        state
    }

    /// Number of qubits.
    pub fn qubit_count(&self) -> usize {
        self.n
    }

    /// Number of trajectory lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of amplitudes per lane (`2^n`).
    pub fn dim(&self) -> usize {
        1usize << self.n
    }

    /// The amplitude of basis state `index` in lane `lane`.
    pub fn amplitude(&self, index: usize, lane: usize) -> c64 {
        let k = index * self.lanes + lane;
        c64::new(self.re[k], self.im[k])
    }

    /// One lane extracted as a dense amplitude vector.
    pub fn lane_amplitudes(&self, lane: usize) -> Vec<c64> {
        (0..self.dim()).map(|i| self.amplitude(i, lane)).collect()
    }

    /// Single-qubit kernel: sweeps the `2^(n-1)` amplitude-row pairs
    /// split by `mask`, applying the row-major 2×2 `m` to every lane.
    ///
    /// Rows with the `mask` bit clear form `mask·lanes`-long contiguous
    /// chunks, so each block needs exactly **one** slice split; the
    /// inner loop runs over the whole chunk of plain `f64`s and
    /// vectorizes across amplitudes as well as lanes. The eight matrix
    /// scalars are hoisted out of the sweep.
    pub fn kernel_single(&mut self, m: &[c64; 4], mask: usize) {
        let (m0r, m0i, m1r, m1i) = (m[0].re, m[0].im, m[1].re, m[1].im);
        let (m2r, m2i, m3r, m3i) = (m[2].re, m[2].im, m[3].re, m[3].im);
        let chunk = mask * self.lanes;
        let stride = chunk << 1;
        let mut off = 0;
        while off < self.re.len() {
            let (r_lo, r_hi) = self.re[off..off + stride].split_at_mut(chunk);
            let (q_lo, q_hi) = self.im[off..off + stride].split_at_mut(chunk);
            for k in 0..chunk {
                let (a0r, a0i) = (r_lo[k], q_lo[k]);
                let (a1r, a1i) = (r_hi[k], q_hi[k]);
                r_lo[k] = (m0r * a0r - m0i * a0i) + (m1r * a1r - m1i * a1i);
                q_lo[k] = (m0r * a0i + m0i * a0r) + (m1r * a1i + m1i * a1r);
                r_hi[k] = (m2r * a0r - m2i * a0i) + (m3r * a1r - m3i * a1i);
                q_hi[k] = (m2r * a0i + m2i * a0r) + (m3r * a1i + m3i * a1r);
            }
            off += stride;
        }
    }

    /// Two-qubit kernel: the four-amplitude groups split by the masks
    /// `ba` (most significant gate factor) and `bb`, row-major 4×4 `m`.
    ///
    /// The rows sharing one `(outer, mid)` cell form four contiguous
    /// `lo·lanes`-long chunks: the two with the `hi` bit clear sit at
    /// row offset `mid`, the two with it set at `mid + hi`. One slice
    /// split per region replaces per-group row surgery, and the 4×4
    /// complex matmul runs fully unrolled over whole chunks — the
    /// compiler vectorizes across amplitudes and lanes at once. The 32
    /// matrix scalars load once per sweep.
    ///
    /// Matrices whose off-diagonal 2×2 blocks are exactly zero — every
    /// `Rzx`-family native gate, which acts as `|0⟩⟨0|⊗U₀ + |1⟩⟨1|⊗U₁`
    /// — take a fast path that applies the two diagonal blocks as
    /// independent 2×2 mixes, halving the arithmetic. The skipped terms
    /// are exact zeros, so the fast path only differs in the sign of
    /// zero results, never in a value.
    pub fn kernel_two(&mut self, m: &[c64; 16], ba: usize, bb: usize) {
        let lanes = self.lanes;
        let (lo, hi) = if ba < bb { (ba, bb) } else { (bb, ba) };
        let block_diag = [2usize, 3, 6, 7, 8, 9, 12, 13]
            .iter()
            .all(|&k| m[k].re == 0.0 && m[k].im == 0.0);
        let mr: [f64; 16] = std::array::from_fn(|k| m[k].re);
        let mi: [f64; 16] = std::array::from_fn(|k| m[k].im);
        let chunk = lo * lanes;
        let dim = self.dim();
        let mut outer = 0;
        while outer < dim {
            let mut mid = outer;
            while mid < outer + hi {
                let row = mid * lanes;
                let top = (mid + hi) * lanes;
                let (head_r, tail_r) = self.re.split_at_mut(top);
                let (head_q, tail_q) = self.im.split_at_mut(top);
                let (s0r, s1r) = head_r[row..row + 2 * chunk].split_at_mut(chunk);
                let (s0q, s1q) = head_q[row..row + 2 * chunk].split_at_mut(chunk);
                let (s2r, s3r) = tail_r[..2 * chunk].split_at_mut(chunk);
                let (s2q, s3q) = tail_q[..2 * chunk].split_at_mut(chunk);
                // Logical row k sits at offset `k_a·ba + k_b·bb` from
                // the group base, so logical row 1 (`bb` set) is the
                // second `mid` chunk when `bb` is the small mask and
                // the first `top` chunk otherwise.
                let (r1, q1, r2, q2) = if ba > bb {
                    (s1r, s1q, s2r, s2q)
                } else {
                    (s2r, s2q, s1r, s1q)
                };
                if block_diag {
                    // Logical rows (0,1) mix through the top-left block,
                    // (2,3) through the bottom-right — two 2×2 sweeps.
                    for k in 0..chunk {
                        let (a0r, a0i) = (s0r[k], s0q[k]);
                        let (a1r, a1i) = (r1[k], q1[k]);
                        s0r[k] = (mr[0] * a0r - mi[0] * a0i) + (mr[1] * a1r - mi[1] * a1i);
                        s0q[k] = (mr[0] * a0i + mi[0] * a0r) + (mr[1] * a1i + mi[1] * a1r);
                        r1[k] = (mr[4] * a0r - mi[4] * a0i) + (mr[5] * a1r - mi[5] * a1i);
                        q1[k] = (mr[4] * a0i + mi[4] * a0r) + (mr[5] * a1i + mi[5] * a1r);
                    }
                    for k in 0..chunk {
                        let (a2r, a2i) = (r2[k], q2[k]);
                        let (a3r, a3i) = (s3r[k], s3q[k]);
                        r2[k] = (mr[10] * a2r - mi[10] * a2i) + (mr[11] * a3r - mi[11] * a3i);
                        q2[k] = (mr[10] * a2i + mi[10] * a2r) + (mr[11] * a3i + mi[11] * a3r);
                        s3r[k] = (mr[14] * a2r - mi[14] * a2i) + (mr[15] * a3r - mi[15] * a3i);
                        s3q[k] = (mr[14] * a2i + mi[14] * a2r) + (mr[15] * a3i + mi[15] * a3r);
                    }
                    mid += lo << 1;
                    continue;
                }
                for k in 0..chunk {
                    let ar = [s0r[k], r1[k], r2[k], s3r[k]];
                    let ai = [s0q[k], q1[k], q2[k], s3q[k]];
                    let mut out = [(0.0f64, 0.0f64); 4];
                    for (rowk, o) in out.iter_mut().enumerate() {
                        let mut acc_r = 0.0;
                        let mut acc_i = 0.0;
                        for col in 0..4 {
                            let (br, bi) = (mr[4 * rowk + col], mi[4 * rowk + col]);
                            acc_r += br * ar[col] - bi * ai[col];
                            acc_i += br * ai[col] + bi * ar[col];
                        }
                        *o = (acc_r, acc_i);
                    }
                    s0r[k] = out[0].0;
                    s0q[k] = out[0].1;
                    r1[k] = out[1].0;
                    q1[k] = out[1].1;
                    r2[k] = out[2].0;
                    q2[k] = out[2].1;
                    s3r[k] = out[3].0;
                    s3q[k] = out[3].1;
                }
                mid += lo << 1;
            }
            outer += hi << 1;
        }
    }

    /// Multiplies every lane pointwise by the shared diagonal whose
    /// entry `i` is `diag_re[i] + i·diag_im[i]` — two planes like the
    /// state's own, so a table folded plane by plane applies as it is.
    /// Each entry loads once and applies to all lanes. A single lane
    /// takes one flat pass over the four planes, which vectorizes across
    /// amplitudes (≈ 4× faster per entry than rows of one lane) with the
    /// same products.
    ///
    /// # Panics
    ///
    /// Panics unless both planes have exactly `2^n` entries.
    pub fn apply_diagonal(&mut self, diag_re: &[f64], diag_im: &[f64]) {
        assert_eq!(diag_re.len(), self.dim(), "diagonal length must be 2^n");
        assert_eq!(diag_im.len(), self.dim(), "diagonal length must be 2^n");
        let lanes = self.lanes;
        if lanes == 1 {
            let amps = self.re.iter_mut().zip(self.im.iter_mut());
            for ((re, im), (&dr, &di)) in amps.zip(diag_re.iter().zip(diag_im)) {
                let (ar, ai) = (*re, *im);
                *re = dr * ar - di * ai;
                *im = dr * ai + di * ar;
            }
            return;
        }
        let rows = self
            .re
            .chunks_exact_mut(lanes)
            .zip(self.im.chunks_exact_mut(lanes));
        for ((re, im), (&dr, &di)) in rows.zip(diag_re.iter().zip(diag_im)) {
            for t in 0..lanes {
                let (ar, ai) = (re[t], im[t]);
                re[t] = dr * ar - di * ai;
                im[t] = dr * ai + di * ar;
            }
        }
    }

    /// Per-lane excited populations of **every** qubit in one read
    /// sweep: `out[q · lanes + t]` receives `P(qubit q = |1⟩)` for lane
    /// `t` (qubit 0 = most significant bit). Each amplitude's
    /// probability is computed once (into the `row` scratch) and added
    /// to the accumulators of the qubits whose bit is set — one pass
    /// over the planes instead of one per qubit. Accumulation visits
    /// amplitudes in ascending index order per lane, so every sum is
    /// batch-width independent.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `n·lanes` long or `row` is not `lanes`
    /// long.
    pub fn excited_populations(&self, out: &mut [f64], row: &mut [f64]) {
        let lanes = self.lanes;
        assert_eq!(out.len(), self.n * lanes, "n accumulators per lane");
        assert_eq!(row.len(), lanes, "one probability slot per lane");
        out.fill(0.0);
        let rows = self.re.chunks_exact(lanes).zip(self.im.chunks_exact(lanes));
        for (i, (re, im)) in rows.enumerate() {
            for t in 0..lanes {
                row[t] = re[t] * re[t] + im[t] * im[t];
            }
            for q in 0..self.n {
                if i & (1 << (self.n - 1 - q)) != 0 {
                    let acc = &mut out[q * lanes..(q + 1) * lanes];
                    for t in 0..lanes {
                        acc[t] += row[t];
                    }
                }
            }
        }
    }

    /// Expands per-qubit noise coefficients into a full per-amplitude
    /// factor table by tensor-product doubling: `coeffs[(q·2 + b) ·
    /// lanes + t]` is qubit `q`'s real factor for bit value `b` in lane
    /// `t`, and on return `out[i · lanes + t] = Π_q coeffs[q, bit_q(i),
    /// t]`. Qubit 0 (the most significant bit) multiplies first, and
    /// the doubling order is fixed, so each lane's products are
    /// batch-width independent. Costs `≈2·2^n` multiplications per lane
    /// — versus one read-modify-write plane sweep per qubit.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` is not `n·2·lanes` long.
    pub fn expand_factors(
        n: usize,
        lanes: usize,
        coeffs: &[f64],
        out: &mut Vec<f64>,
        tmp: &mut Vec<f64>,
    ) {
        assert_eq!(
            coeffs.len(),
            n * 2 * lanes,
            "two factors per qubit per lane"
        );
        out.clear();
        out.resize(lanes, 1.0);
        for q in 0..n {
            let rows = out.len() / lanes;
            tmp.clear();
            tmp.reserve(rows * 2 * lanes);
            for r in 0..rows {
                let src = &out[r * lanes..(r + 1) * lanes];
                for b in 0..2 {
                    let c = &coeffs[(q * 2 + b) * lanes..(q * 2 + b + 1) * lanes];
                    tmp.extend(src.iter().zip(c).map(|(&s, &f)| s * f));
                }
            }
            std::mem::swap(out, tmp);
        }
    }

    /// Applies one whole layer's damping + dephasing in a single pass:
    ///
    /// ```text
    /// amp'[i, t] = factors[i·lanes + t] · amp[i ^ jump_masks[t], t]
    /// ```
    ///
    /// `factors` is the [`Self::expand_factors`] table (damping
    /// normalizations with dephasing signs folded in) and
    /// `jump_masks[t]` is the XOR of the qubit masks that drew an
    /// amplitude-damping jump in lane `t` (a jump moves `|1⟩` weight to
    /// `|0⟩`, i.e. gathers through the bit flip; its set-bit factor is
    /// zero).
    ///
    /// When no lane jumped, this degenerates to an in-place real
    /// scaling of both planes; otherwise amplitudes gather through the
    /// per-lane permutation into the scratch planes, which are swapped
    /// in. Both paths compute the identical product for a lane whose
    /// mask is zero, so which path runs never shows up in the
    /// amplitudes — batch-width invariance survives the cross-lane
    /// branch.
    ///
    /// # Panics
    ///
    /// Panics if `factors` is not `2^n·lanes` long or `jump_masks` is
    /// not `lanes` long.
    pub fn apply_factored_noise(
        &mut self,
        factors: &[f64],
        jump_masks: &[usize],
        scratch_re: &mut Vec<f64>,
        scratch_im: &mut Vec<f64>,
    ) {
        let lanes = self.lanes;
        assert_eq!(
            factors.len(),
            self.re.len(),
            "one factor per amplitude-lane"
        );
        assert_eq!(jump_masks.len(), lanes, "one jump mask per lane");
        if jump_masks.iter().all(|&m| m == 0) {
            for (a, &f) in self.re.iter_mut().zip(factors) {
                *a *= f;
            }
            for (a, &f) in self.im.iter_mut().zip(factors) {
                *a *= f;
            }
            return;
        }
        scratch_re.clear();
        scratch_re.resize(self.re.len(), 0.0);
        scratch_im.clear();
        scratch_im.resize(self.im.len(), 0.0);
        for i in 0..self.dim() {
            let row = i * lanes;
            for t in 0..lanes {
                let src = (i ^ jump_masks[t]) * lanes + t;
                scratch_re[row + t] = factors[row + t] * self.re[src];
                scratch_im[row + t] = factors[row + t] * self.im[src];
            }
        }
        std::mem::swap(&mut self.re, scratch_re);
        std::mem::swap(&mut self.im, scratch_im);
    }

    /// Per-lane fidelity `|⟨ideal|lane⟩|²` against a shared reference
    /// state, written into `out`. The inner products accumulate in
    /// amplitude-index order per lane — batch-width independent.
    ///
    /// # Panics
    ///
    /// Panics if `ideal` is not `2^n` long or `out` is not `lanes` long.
    pub fn fidelity_against(&self, ideal: &[c64], out: &mut [f64]) {
        assert_eq!(ideal.len(), self.dim(), "reference length must be 2^n");
        assert_eq!(out.len(), self.lanes, "one slot per lane");
        let lanes = self.lanes;
        let mut acc_r = vec![0.0f64; lanes];
        let mut acc_i = vec![0.0f64; lanes];
        let rows = self.re.chunks_exact(lanes).zip(self.im.chunks_exact(lanes));
        for ((re, im), b) in rows.zip(ideal) {
            // conj(ideal_i) * amp_i, accumulated per lane.
            let (br, bi) = (b.re, -b.im);
            for t in 0..lanes {
                acc_r[t] += br * re[t] - bi * im[t];
                acc_i[t] += br * im[t] + bi * re[t];
            }
        }
        for t in 0..lanes {
            out[t] = acc_r[t] * acc_r[t] + acc_i[t] * acc_i[t];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StateVector;
    use zz_quantum::gates;

    fn mat4(m: &zz_linalg::Matrix) -> [c64; 4] {
        let s = m.as_slice();
        [s[0], s[1], s[2], s[3]]
    }

    fn mat16(m: &zz_linalg::Matrix) -> [c64; 16] {
        let mut out = [c64::ZERO; 16];
        out.copy_from_slice(m.as_slice());
        out
    }

    fn max_lane_diff(batch: &BatchedState, lane: usize, sv: &StateVector) -> f64 {
        batch
            .lane_amplitudes(lane)
            .iter()
            .zip(sv.amplitudes())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Kernels over a 3-lane batch must agree with three scalar runs.
    #[test]
    fn batched_kernels_match_scalar_statevector() {
        let n = 4;
        let lanes = 3;
        let mut batch = BatchedState::zero(n, lanes);
        let mut scalars: Vec<StateVector> = (0..lanes).map(|_| StateVector::zero(n)).collect();

        let h = mat4(&gates::h());
        let t_gate = mat4(&gates::t());
        let zx = mat16(&gates::zx90());
        let mask = |q: usize| 1usize << (n - 1 - q);

        for q in 0..n {
            batch.kernel_single(&h, mask(q));
            batch.kernel_single(&t_gate, mask(q));
        }
        batch.kernel_two(&zx, mask(0), mask(2));
        batch.kernel_two(&zx, mask(3), mask(1));
        // An Rz on qubit 1 and a ZZ phase on (0, 3) as one diagonal.
        let phases: Vec<c64> = (0..1usize << n)
            .map(|i| {
                let rz = if i & mask(1) != 0 { 0.37 } else { -0.37 };
                let same = (i & mask(0) == 0) == (i & mask(3) == 0);
                c64::cis(rz) * c64::cis(if same { -0.21 } else { 0.21 })
            })
            .collect();
        let (re, im): (Vec<f64>, Vec<f64>) = phases.iter().map(|d| (d.re, d.im)).unzip();
        batch.apply_diagonal(&re, &im);
        let diag: Vec<c64> = (0..1usize << n)
            .map(|i| c64::cis(0.01 * i as f64))
            .collect();
        let (diag_re, diag_im): (Vec<f64>, Vec<f64>) = diag.iter().map(|d| (d.re, d.im)).unzip();
        batch.apply_diagonal(&diag_re, &diag_im);

        for sv in &mut scalars {
            for q in 0..n {
                sv.kernel_single(&h, 1 << (n - 1 - q));
                sv.kernel_single(&t_gate, 1 << (n - 1 - q));
            }
            sv.kernel_two(&zx, mask(0), mask(2));
            sv.kernel_two(&zx, mask(3), mask(1));
            sv.apply_rz(2.0 * 0.37, 1);
            sv.apply_zz_phase(0.21, 0, 3);
            let amps = sv.amplitudes().iter().zip(&diag).map(|(&a, &d)| a * d);
            *sv = StateVector::from_vector(zz_linalg::Vector::from_vec(amps.collect()));
        }

        for (lane, sv) in scalars.iter().enumerate() {
            let d = max_lane_diff(&batch, lane, sv);
            assert!(d < 1e-12, "lane {lane} diverged by {d}");
        }
    }

    /// The per-lane excited populations and fidelities must match the
    /// scalar implementations.
    #[test]
    fn populations_and_fidelities_match_scalar() {
        let n = 3;
        let mut batch = BatchedState::zero(n, 2);
        let mut sv = StateVector::zero(n);
        let h = mat4(&gates::h());
        for q in 0..n {
            batch.kernel_single(&h, 1 << (n - 1 - q));
            sv.kernel_single(&h, 1 << (n - 1 - q));
        }
        // Rz(0.8) on the last qubit, as a diagonal.
        let (lo, hi) = (c64::cis(-0.4), c64::cis(0.4));
        let rz: Vec<c64> = (0..1usize << n)
            .map(|i| if i & 1 != 0 { hi } else { lo })
            .collect();
        let (rz_re, rz_im): (Vec<f64>, Vec<f64>) = rz.iter().map(|d| (d.re, d.im)).unzip();
        batch.apply_diagonal(&rz_re, &rz_im);
        sv.apply_rz(0.8, n - 1);

        let mut all = vec![0.0; n * 2];
        let mut row = vec![0.0; 2];
        batch.excited_populations(&mut all, &mut row);
        for q in 0..n {
            let scalar = sv.excited_population(q);
            for lane in 0..2 {
                // The all-qubits sweep accumulates the same terms in the
                // same order as the scalar per-qubit sum — bit-identical.
                assert_eq!(
                    all[q * 2 + lane].to_bits(),
                    scalar.to_bits(),
                    "q={q} lane={lane}"
                );
            }
        }

        let ideal = StateVector::zero(n);
        let mut fids = vec![0.0; 2];
        batch.fidelity_against(ideal.amplitudes(), &mut fids);
        let scalar_f = ideal.fidelity(&sv);
        for &f in &fids {
            assert!((f - scalar_f).abs() < 1e-14);
        }
    }

    /// The factored noise pass reproduces identity, jump and dephasing
    /// lanes in one sweep, and the gather path is bit-identical to the
    /// in-place path for lanes that did not jump.
    #[test]
    fn factored_noise_selects_per_lane_branches() {
        let n = 2;
        let lanes = 3;
        let mut batch = BatchedState::zero(n, lanes);
        let h = mat4(&gates::h());
        batch.kernel_single(&h, 0b10);
        batch.kernel_single(&h, 0b01);
        // |++⟩ in every lane: both qubits have P(|1⟩) = 1/2.
        let mut pops = vec![0.0; n * lanes];
        let mut row = vec![0.0; lanes];
        batch.excited_populations(&mut pops, &mut row);
        for p in &pops {
            assert!((p - 0.5).abs() < 1e-15);
        }

        // coeffs[q][bit][lane]: lane 0 identity, lane 1 jumps on qubit 0
        // (clear-bit factor 1/√p = √2, set-bit factor 0), lane 2 flips
        // the dephasing sign of qubit 1.
        let mut coeffs = vec![1.0; n * 2 * lanes];
        coeffs[1] = std::f64::consts::SQRT_2; // q0, bit 0, lane 1
        coeffs[lanes + 1] = 0.0; // q0, bit 1, lane 1
        coeffs[3 * lanes + 2] = -1.0; // q1, bit 1, lane 2
        let (mut factors, mut tmp) = (Vec::new(), Vec::new());
        BatchedState::expand_factors(n, lanes, &coeffs, &mut factors, &mut tmp);

        let mut gathered = batch.clone();
        let (mut sr, mut si) = (Vec::new(), Vec::new());
        gathered.apply_factored_noise(&factors, &[0, 0b10, 0], &mut sr, &mut si);
        batch.apply_factored_noise(&factors, &[0, 0, 0], &mut sr, &mut si);

        let sq2 = std::f64::consts::SQRT_2;
        for i in 0..4 {
            // Lane 0 is untouched; lanes that did not jump must agree
            // bit-for-bit between the gather and in-place paths.
            assert_eq!(gathered.amplitude(i, 0), batch.amplitude(i, 0));
            assert_eq!(gathered.amplitude(i, 2), batch.amplitude(i, 2));
            assert!((gathered.amplitude(i, 0).re - 0.5).abs() < 1e-15, "i={i}");
            // Lane 1: |1x⟩ weight moved onto |0x⟩ with scale √2.
            let expect = if i & 0b10 == 0 { 0.5 * sq2 } else { 0.0 };
            assert!(
                (gathered.amplitude(i, 1).re - expect).abs() < 1e-15,
                "i={i}"
            );
            // Lane 2: qubit-1 sign flip.
            let expect = if i & 0b01 == 0 { 0.5 } else { -0.5 };
            assert!(
                (gathered.amplitude(i, 2).re - expect).abs() < 1e-15,
                "i={i}"
            );
        }
    }
}
