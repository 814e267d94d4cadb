//! Precompiled execution programs for schedule plans.
//!
//! Interpreting a plan directly recomputes a lot of invariant work on
//! every run: which couplings a layer drives, which residual factor each
//! suppressed coupling picks up (an `O(ops)` scan per coupling), the gate
//! matrices, the per-layer durations, and — worst of all — one full
//! `O(2^n)` amplitude sweep *per coupling per layer* for the ZZ phases.
//! One private builder resolves all of that once per plan and noise
//! model into a list of steps:
//!
//! * every layer's undriven-coupling ZZ phases and the adjacent virtual
//!   rotations are **fused into a single diagonal** — one `O(2^n)` pass
//!   per layer (tabulated as `2^n` phases for registers up to
//!   [`DIAG_TABLE_MAX_QUBITS`] qubits, evaluated term by term above
//!   that), and phases keep sliding forward across layers until a gate
//!   kernel or an amplitude-damping jump pins them. Folding those tables
//!   is most of an evaluation's cost, so each term is folded only over
//!   the qubits its table depends on so far, bit-identically to a fold
//!   over all `2^n` entries,
//! * gate matrices are resolved to branch-free kernels with precomputed
//!   bit masks,
//! * with decoherence, each layer also carries its damping and
//!   phase-flip probabilities.
//!
//! The steps act on the **driven register**: the `k` qubits some `X90`
//! or `ZX90` acts on, in device order. Every other qubit stays in `|0⟩`
//! (virtual rotations and ZZ phases are diagonal, identity pulses
//! vanish), so its phase terms keep their places at mask 0 — a bit that
//! is always clear — and it never jumps. It still makes its decoherence
//! draws, so each trajectory's stream is the device register's. A sweep
//! costs `2^k` amplitudes per lane instead of `2^n`, and every fidelity
//! is bit-identical to a replay of the whole device register; the runs
//! scatter their result back into it.
//!
//! One replay loop runs those steps on [`BatchedState`]. A
//! [`PlanProgram`] is the decoherence-free case: its layers never draw,
//! and [`PlanProgram::run`] replays them on one lane. A
//! [`TrajectoryProgram`] samples Kraus jumps with analytic
//! renormalization (no separate norm pass); [`TrajectoryProgram::run`]
//! replays one trajectory on one lane, and
//! [`TrajectoryProgram::mean_fidelity`] fans batches of
//! [`DEFAULT_BATCH_LANES`] trajectories over a thread pool with
//! **deterministic per-trajectory seeds**, so Monte-Carlo results are
//! bit-identical regardless of the thread count and batch width.
//!
//! Compile one program per plan and error model. A [`PlanProgram`] keeps
//! only each diagonal's phase terms and folds the diagonal when the
//! replay reaches it, into one table buffer the whole run reuses and
//! applies while it is still in cache, so its memory does not grow with
//! its layer count; running it again folds again. A
//! [`TrajectoryProgram`] tabulates every diagonal once at compile time
//! instead, through the same fold, because its fan replays each step once
//! per batch.
//!
//! The engine publishes no metrics. Each program reports how many
//! diagonal sweeps its compilation fused away, and the trajectory fan
//! returns its batches' counts and wall times as [`EngineStats`]; the
//! caller records them wherever it keeps its metrics.
//!
//! # Example
//!
//! ```
//! use zz_circuit::{bench, native::compile_to_native, route};
//! use zz_sched::{par_schedule, GateDurations};
//! use zz_sim::executor::ZzErrorModel;
//! use zz_sim::program::PlanProgram;
//! use zz_topology::Topology;
//!
//! let topo = Topology::grid(2, 2);
//! let circuit = bench::generate(bench::BenchmarkKind::Qft, 4, 1);
//! let native = compile_to_native(&route(&circuit, &topo));
//! let plan = par_schedule(&topo, &native);
//!
//! let ideal = PlanProgram::ideal(&plan).run();
//! let model = ZzErrorModel::uniform(&topo, zz_sim::khz(200.0));
//! let noisy = PlanProgram::compile(&plan, &topo, &model, &GateDurations::standard());
//! // The program is reusable: every `run()` replays the precompiled steps.
//! let f = ideal.fidelity(&noisy.run());
//! assert!(f > 0.0 && f <= 1.0 + 1e-9);
//! ```

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use zz_circuit::native::NativeOp;
use zz_linalg::{c64, Matrix, Vector};
use zz_sched::{GateDurations, Layer, SchedulePlan};
use zz_topology::Topology;

use crate::batch::BatchedState;
use crate::density::Decoherence;
use crate::executor::{coupling_residual, driven_couplings, ZzErrorModel};
use crate::StateVector;
use zz_pool::parallel_map;

/// Largest replayed (driven) register whose fused layer diagonals are
/// tabulated as dense `2^k` complex tables. A [`TrajectoryProgram`]
/// keeps one table per diagonal (16 qubits = 1 MiB per layer); a
/// [`PlanProgram`] run folds each into the same one buffer. Larger
/// registers apply the fused phase terms one strided pass per term
/// instead of one lookup pass per diagonal.
pub const DIAG_TABLE_MAX_QUBITS: usize = 16;

/// Default trajectory-batch width for [`TrajectoryProgram::mean_fidelity`]:
/// sixteen lanes is two cache lines of `f64` per amplitude plane — wide
/// enough to keep 4-lane AVX2 FMA pipes saturated with independent
/// vectors across the strided chunk boundaries, small enough that a
/// 9-qubit batch (2 × 16 × 512 doubles = 128 KiB) still fits in L2
/// alongside its diagonal tables. Measured on the 9-qubit QAOA
/// Monte-Carlo workload, throughput improves steadily up to 16 lanes
/// and is flat beyond.
pub const DEFAULT_BATCH_LANES: usize = 16;

/// What the engine did for one caller — returned to it, never recorded
/// globally, so each caller counts only its own work.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// Monte-Carlo trajectories run.
    pub trajectories: u64,
    /// Kernel sweeps the trajectory batches executed, each over the
    /// driven register (`2^k` amplitudes per lane for `k` driven qubits).
    pub kernel_sweeps: u64,
    /// Diagonal sweeps removed by fusion in the programs compiled.
    pub fused_diags: u64,
    /// Wall time of each trajectory batch, in batch order.
    pub batch_walls: Vec<Duration>,
}

/// One resolved gate application: matrix entries unpacked into a fixed
/// array and qubit indices pre-translated to amplitude bit masks.
/// Virtual rotations never appear here — [`resolve_gates`] returns them
/// as diagonal phase terms, fused into the layer's pre-gate diagonal.
#[derive(Clone, Debug)]
enum GateApp {
    /// A single-qubit pulse.
    Single { mask: usize, m: [c64; 4] },
    /// A two-qubit pulse; `ba` is the gate's most significant factor.
    Two { ba: usize, bb: usize, m: [c64; 16] },
}

impl GateApp {
    #[inline]
    fn apply(&self, batch: &mut BatchedState) {
        match self {
            GateApp::Single { mask, m } => batch.kernel_single(m, *mask),
            GateApp::Two { ba, bb, m } => batch.kernel_two(m, *ba, *bb),
        }
    }
}

/// A fused diagonal tabulated as `e^{i·phase}` per basis state, one
/// `f64` plane per component like [`BatchedState`]'s amplitudes.
#[derive(Clone, Debug, Default)]
struct Table {
    re: Vec<f64>,
    im: Vec<f64>,
}

/// A fused diagonal: the sum of a set of commuting Rz and ZZ phases,
/// applied in one amplitude sweep.
#[derive(Clone, Debug)]
struct Diag {
    /// `(mask, θ/2)` — adds `+θ/2` where the bit is set, `−θ/2` where
    /// it is clear (the `diag(e^{−iθ/2}, e^{iθ/2})` convention of
    /// [`StateVector::apply_rz`]).
    rz: Vec<(usize, f64)>,
    /// `(mask_u, mask_v, φ)` — adds `−φ` where the two bits agree, `+φ`
    /// where they differ ([`StateVector::apply_zz_phase`]).
    zz: Vec<(usize, usize, f64)>,
    /// The diagonal tabulated once at compile time, kept only by a
    /// [`TrajectoryProgram`], whose fan replays every step once per
    /// batch. Without it, a tabulable diagonal is folded at replay time
    /// into the replay's one table buffer.
    table: Option<Table>,
}

impl Diag {
    /// Builds a fused diagonal, or `None` when there is nothing to apply.
    fn build(rz: Vec<(usize, f64)>, zz: Vec<(usize, usize, f64)>) -> Option<Diag> {
        if rz.is_empty() && zz.is_empty() {
            return None;
        }
        Some(Diag {
            rz,
            zz,
            table: None,
        })
    }

    /// Tabulates the fused diagonal of a `k`-qubit register into `table`
    /// (any earlier contents are overwritten), multiplicatively. Each
    /// term contributes a two-valued `e^{±iφ}` pattern (two `cis`
    /// evaluations per term, no per-entry sin/cos), so after the first
    /// terms the product depends only on the qubits those terms touch —
    /// its *support*. The partial product is kept compact in the first
    /// `len = 2^|support|` entries, indexed by the support bits in
    /// full-index order: a term touching a new qubit first doubles the
    /// table in that bit, then folds over `len` entries only. Qubits no
    /// term touches are doubled in last, so the table comes out at full
    /// size.
    ///
    /// Every entry still receives the ordered product of its factors —
    /// Rz terms in order, then ZZ terms in order — so the table is
    /// bit-identical to a per-entry fold over all `2^k` entries. The
    /// product starts from 1: `1·e^{iφ}` is `e^{iφ}` bit for bit, since
    /// neither component of `cis(φ)` is zero for the nonzero `φ` the
    /// builder keeps.
    fn fold(&self, k: usize, table: &mut Table) {
        let dim = 1usize << k;
        table.re.resize(dim, 0.0);
        table.im.resize(dim, 0.0);
        (table.re[0], table.im[0]) = (1.0, 0.0);
        let mut support = 0usize;
        let terms = self.rz.iter().map(|&(mask, half)| (mask, 0, half));
        for (mu, mv, phi) in terms.chain(self.zz.iter().copied()) {
            widen(table, &mut support, mu);
            widen(table, &mut support, mv);
            let len = 1usize << support.count_ones();
            let (cu, cv) = (compact_mask(support, mu), compact_mask(support, mv));
            fold_term(&mut table.re[..len], &mut table.im[..len], cu, cv, phi);
        }
        for q in 0..k {
            widen(table, &mut support, 1 << q);
        }
    }

    /// Total phase accumulated by basis state `i` — the reference
    /// semantics both apply paths are pinned against in tests.
    #[cfg(test)]
    fn phase_at(&self, i: usize) -> f64 {
        let mut phase = 0.0;
        for &(mask, half) in &self.rz {
            phase += if i & mask != 0 { half } else { -half };
        }
        for &(mu, mv, phi) in &self.zz {
            let same = (i & mu == 0) == (i & mv == 0);
            phase += if same { -phi } else { phi };
        }
        phase
    }

    /// Applies the diagonal to every lane and returns the number of
    /// full-statevector sweeps it executed (for the engine counters).
    /// A tabulable register takes one lookup sweep, through the table
    /// tabulated at compile time or, without one, through `buffer`,
    /// folded right before the sweep reads it; above
    /// [`DIAG_TABLE_MAX_QUBITS`] the terms run one by one.
    fn apply(&self, batch: &mut BatchedState, buffer: &mut Table) -> u64 {
        let table = match &self.table {
            Some(table) => table,
            None if batch.qubit_count() <= DIAG_TABLE_MAX_QUBITS => {
                self.fold(batch.qubit_count(), buffer);
                buffer
            }
            None => return self.apply_terms(batch),
        };
        batch.apply_diagonal(&table.re, &table.im);
        1
    }

    /// Applies each term as its own strided branch-free pass with only
    /// two `cis` evaluations per term — no per-amplitude sin/cos — and
    /// returns the number of passes.
    fn apply_terms(&self, batch: &mut BatchedState) -> u64 {
        for &(mask, half) in &self.rz {
            batch.apply_rz_term(mask, half);
        }
        for &(mu, mv, phi) in &self.zz {
            batch.apply_zz_term(mu, mv, phi);
        }
        (self.rz.len() + self.zz.len()) as u64
    }
}

/// The compact-table bit of full-index bit `mask` (zero for `mask` 0):
/// its rank among the `support` bits below it.
#[inline]
fn compact_mask(support: usize, mask: usize) -> usize {
    if mask == 0 {
        0
    } else {
        1 << (support & (mask - 1)).count_ones()
    }
}

/// Adds full-index bit `mask` to the `support` of the compact table in
/// `table` (nothing to do for mask 0 or a bit already in it) and doubles
/// the table in that bit: entry `j` of the doubled table is entry `j`
/// with the new compact bit removed, so each run of entries below that
/// bit is written twice. Runs are copied back to front, so no source is
/// overwritten before it is read.
fn widen(table: &mut Table, support: &mut usize, mask: usize) {
    if mask == 0 || *support & mask != 0 {
        return;
    }
    let len = 1usize << support.count_ones();
    let bit = compact_mask(*support, mask);
    *support |= mask;
    for plane in [&mut table.re, &mut table.im] {
        let plane = &mut plane[..2 * len];
        if bit == 1 {
            for j in (0..len).rev() {
                let t = plane[j];
                plane[2 * j] = t;
                plane[2 * j + 1] = t;
            }
            continue;
        }
        for run in (0..len / bit).rev() {
            let src = run * bit..(run + 1) * bit;
            plane.copy_within(src.clone(), (2 * run + 1) * bit);
            plane.copy_within(src, 2 * run * bit);
        }
    }
}

/// Entries of one factor pattern in [`fold_term`]: a whole period of
/// every term whose period `2·hi` is at most this, and a whole number
/// of periods of every `hi`-long segment's pattern above that.
const PATTERN: usize = 16;

/// Multiplies one phase term into a compact table: entry `j` by
/// `e^{−iφ}` where compact bits `cu` and `cv` agree and by `e^{+iφ}`
/// where they differ. An Rz term `(mask, θ/2)` is the term against mask
/// 0. When the lowest set mask is at least 4, runs of that many entries
/// share one factor and are scaled as contiguous chunks. Below that the
/// factors repeat with period `2·hi` (`hi` the higher mask, 0 for a term
/// whose masks are both 0): a [`PATTERN`]-entry pattern covers the whole
/// table when the period fits in it, and each `hi`-long segment — whose
/// `hi` bit is fixed — when it does not, so every entry is multiplied
/// branch-free by its own factor. A table no longer than one pattern
/// takes each entry's factor directly.
fn fold_term(re: &mut [f64], im: &mut [f64], cu: usize, cv: usize, phi: f64) {
    let factors = [c64::cis(-phi), c64::cis(phi)];
    let factor = |i: usize| factors[((i & cu != 0) != (i & cv != 0)) as usize];
    let hi = cu.max(cv);
    let run = match cu.min(cv) {
        0 => hi,
        lo => lo,
    };
    if run >= 4 {
        let chunks = re.chunks_exact_mut(run).zip(im.chunks_exact_mut(run));
        for (c, (r, q)) in chunks.enumerate() {
            let f = factor(c * run);
            for (r, q) in r.iter_mut().zip(q.iter_mut()) {
                mul_assign(r, q, f.re, f.im);
            }
        }
        return;
    }
    if re.len() <= PATTERN {
        // No longer than one pattern: each entry takes its own factor.
        for (i, (r, q)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
            let f = factor(i);
            mul_assign(r, q, f.re, f.im);
        }
        return;
    }
    let pattern = |offset: usize| -> ([f64; PATTERN], [f64; PATTERN]) {
        (
            std::array::from_fn(|j| factor(offset + j).re),
            std::array::from_fn(|j| factor(offset + j).im),
        )
    };
    if 2 * hi <= PATTERN {
        let (pr, pi) = pattern(0);
        multiply_periodic(re, im, &pr, &pi);
    } else {
        let patterns = [pattern(0), pattern(hi)];
        let segments = re.chunks_exact_mut(hi).zip(im.chunks_exact_mut(hi));
        for (s, (r, q)) in segments.enumerate() {
            let (pr, pi) = &patterns[s & 1];
            multiply_periodic(r, q, pr, pi);
        }
    }
}

/// `r + i·q ← (r + i·q)·(fr + i·fi)`, in the operation order of
/// `c64`'s product, so a plane-wise fold is bit-identical to a `c64` one.
#[inline(always)]
fn mul_assign(r: &mut f64, q: &mut f64, fr: f64, fi: f64) {
    let (ar, ai) = (*r, *q);
    *r = ar * fr - ai * fi;
    *q = ar * fi + ai * fr;
}

/// Multiplies `(re, im)` entry by entry by the pattern `(pr, pi)`,
/// repeated over its whole length (a multiple of the pattern's).
#[inline]
fn multiply_periodic(re: &mut [f64], im: &mut [f64], pr: &[f64; PATTERN], pi: &[f64; PATTERN]) {
    let (re_chunks, _) = re.as_chunks_mut::<PATTERN>();
    let (im_chunks, _) = im.as_chunks_mut::<PATTERN>();
    for (r, q) in re_chunks.iter_mut().zip(im_chunks.iter_mut()) {
        for j in 0..PATTERN {
            mul_assign(&mut r[j], &mut q[j], pr[j], pi[j]);
        }
    }
}

#[inline]
fn mask_of(n: usize, q: usize) -> usize {
    1usize << (n - 1 - q)
}

fn mat4(m: &Matrix) -> [c64; 4] {
    let s = m.as_slice();
    [s[0], s[1], s[2], s[3]]
}

fn mat16(m: &Matrix) -> [c64; 16] {
    let mut out = [c64::ZERO; 16];
    out.copy_from_slice(m.as_slice());
    out
}

/// Resolves a layer's physical ops to kernels (identity pulses vanish —
/// they only matter for suppression bookkeeping, already folded into the
/// layer's metrics). Virtual rotations come back as `(mask, θ/2)` phase
/// terms: a layer's ops act on disjoint qubits, so an inline Rz commutes
/// with every pulse of its own layer and fuses exactly into the layer's
/// pre-gate diagonal instead of costing a sweep of its own.
fn resolve_gates(
    masks: &[usize],
    layer: &Layer,
    x90: &[c64; 4],
    zx90: &[c64; 16],
) -> (Vec<GateApp>, Vec<(usize, f64)>) {
    let mut gates = Vec::with_capacity(layer.ops.len());
    let mut rz = Vec::new();
    for op in &layer.ops {
        match *op {
            NativeOp::Rz { qubit, theta } => {
                if theta != 0.0 {
                    rz.push((masks[qubit], theta / 2.0));
                }
            }
            NativeOp::X90 { qubit } => gates.push(GateApp::Single {
                mask: masks[qubit],
                m: *x90,
            }),
            NativeOp::Zx90 { control, target } => gates.push(GateApp::Two {
                ba: masks[control],
                bb: masks[target],
                m: *zx90,
            }),
            NativeOp::Id { .. } => {}
        }
    }
    (gates, rz)
}

/// Converts `(qubit, θ)` rotations to `(mask, θ/2)` phase terms, dropping
/// exact zeros (which the executor's `apply_rz` applies as exactly 1).
fn rz_terms(masks: &[usize], rz: &[(usize, f64)]) -> Vec<(usize, f64)> {
    rz.iter()
        .filter(|&&(_, theta)| theta != 0.0)
        .map(|&(q, theta)| (masks[q], theta / 2.0))
        .collect()
}

/// The layer's undriven-coupling ZZ phase terms: residual factors are
/// resolved here, once per program, instead of once per coupling per run.
fn zz_terms(
    masks: &[usize],
    layer: &Layer,
    topo: &Topology,
    model: &ZzErrorModel,
    duration: f64,
) -> Vec<(usize, usize, f64)> {
    let driven = driven_couplings(layer, topo);
    let mut terms = Vec::new();
    for (e, &(u, v)) in topo.couplings().iter().enumerate() {
        if driven[e] {
            continue;
        }
        let factor = if layer.metrics.suppressed[e] {
            coupling_residual(layer, u, v, &model.residuals)
        } else {
            1.0
        };
        let phi = model.lambdas[e] * factor * duration;
        if phi != 0.0 {
            terms.push((masks[u], masks[v], phi));
        }
    }
    terms
}

/// One precompiled layer. A decoherence-free program never pins a
/// diagonal: with `gamma == 0` the layer's ZZ phases slide past its
/// (draw-free) noise pass into the next layer's `pre`. An
/// amplitude-damping **jump** is the only fusion barrier: it moves
/// amplitude between basis states, so a diagonal deferred past it would
/// apply the wrong per-state phase. Whether a jump fires is only known
/// at run time, so compilation treats any layer with `gamma > 0` as a
/// barrier and keeps its ZZ diagonal in place (`zz`). Dephasing draws
/// never read amplitudes, and `Z` commutes with every diagonal, so they
/// pin nothing.
#[derive(Clone, Debug)]
struct Step {
    /// Fused pre-gate diagonal: this layer's virtual rotations (both
    /// `rz_before` and inline ops) plus any ZZ phases carried over from
    /// preceding jump-free layers.
    pre: Option<Diag>,
    gates: Vec<GateApp>,
    /// This layer's ZZ phases, present only when `gamma > 0` pins them
    /// before the noise pass.
    zz: Option<Diag>,
    /// Amplitude-damping probability over this layer's duration.
    gamma: f64,
    /// `√(1−γ)` — the no-jump Kraus factor on excited amplitudes.
    sqrt_keep: f64,
    /// Phase-flip probability over this layer's duration.
    p_flip: f64,
}

/// A plan resolved to the steps both programs replay, on the register
/// of the qubits its pulses act on.
#[derive(Clone, Debug)]
struct Steps {
    /// Device qubits.
    n: usize,
    /// Each device qubit's bit in the replayed register, 0 for a qubit
    /// no pulse acts on: the driven qubits keep their device order, most
    /// significant first.
    masks: Vec<usize>,
    /// Replayed register width: the number of driven qubits.
    k: usize,
    layers: Vec<Step>,
    /// Trailing diagonal: the plan's final virtual rotations plus every
    /// phase still carried after the last layer.
    tail: Option<Diag>,
    /// Diagonal sweeps fusion removed: how many a fusion-free build
    /// would have emitted, minus how many this one did.
    fused: u64,
}

impl Steps {
    /// The one builder behind [`PlanProgram`] and [`TrajectoryProgram`]:
    /// ZZ phases come from `noise` (none for the ideal program), per-layer
    /// γ and p_flip from `deco` (zero without it, so no layer draws).
    ///
    /// Only the qubits some `X90` or `ZX90` acts on are replayed. Every
    /// other qubit stays in `|0⟩` — virtual rotations and ZZ phases are
    /// diagonal and identity pulses vanish — so each of its terms keeps
    /// its place in its list at mask 0, where it contributes its
    /// clear-bit factor, exactly as the device register would at every
    /// index the plan reaches.
    fn build(
        plan: &SchedulePlan,
        noise: Option<(&Topology, &ZzErrorModel, &GateDurations)>,
        deco: Option<&Decoherence>,
    ) -> Self {
        let n = plan.qubit_count();
        let mut driven = vec![false; n];
        for op in plan.layers.iter().flat_map(|layer| &layer.ops) {
            match *op {
                NativeOp::X90 { qubit } => driven[qubit] = true,
                NativeOp::Zx90 { control, target } => {
                    driven[control] = true;
                    driven[target] = true;
                }
                NativeOp::Rz { .. } | NativeOp::Id { .. } => {}
            }
        }
        let k = driven.iter().filter(|&&d| d).count();
        let mut masks = vec![0usize; n];
        for (rank, q) in (0..n).filter(|&q| driven[q]).enumerate() {
            masks[q] = mask_of(k, rank);
        }
        let x90 = mat4(&zz_quantum::gates::x90());
        let zx90 = mat16(&zz_quantum::gates::zx90());
        let mut layers = Vec::with_capacity(plan.layers.len());
        // Diagonal terms carried forward into the next emitted layer's
        // pre-gate diagonal: the previous layers' ZZ phases, inline Rz
        // ops, and everything from layers that collapsed — all commuting
        // diagonals, so fusing across layer boundaries is exact.
        let mut carry_rz: Vec<(usize, f64)> = Vec::new();
        let mut carry_zz: Vec<(usize, usize, f64)> = Vec::new();
        // Diagonal sweeps a fusion-free compilation would have emitted,
        // vs the number actually emitted — the difference is `fused`.
        let mut naive = 0u64;
        let mut emitted = 0u64;
        for layer in &plan.layers {
            let (zz, gamma, p_flip) = match noise {
                Some((topo, model, durations)) => {
                    let dt = layer.duration(durations);
                    let (gamma, p_flip) =
                        deco.map_or((0.0, 0.0), |d| (d.gamma(dt), d.phase_flip(dt)));
                    (zz_terms(&masks, layer, topo, model, dt), gamma, p_flip)
                }
                None => (Vec::new(), 0.0, 0.0),
            };
            let (gates, inline_rz) = resolve_gates(&masks, layer, &x90, &zx90);
            let before = rz_terms(&masks, &layer.rz_before);
            naive +=
                !before.is_empty() as u64 + !inline_rz.is_empty() as u64 + !zz.is_empty() as u64;
            carry_rz.extend(before);
            carry_rz.extend(inline_rz);
            if gates.is_empty() && gamma == 0.0 && p_flip == 0.0 {
                // No kernels, no noise draws: the layer is pure commuting
                // diagonal and collapses into the carry.
                carry_zz.extend(zz);
                continue;
            }
            let pre = Diag::build(std::mem::take(&mut carry_rz), std::mem::take(&mut carry_zz));
            emitted += pre.is_some() as u64;
            let zz_diag = if gamma == 0.0 {
                // Jump-free layer: ZZ phases slide past the noise pass.
                carry_zz = zz;
                None
            } else {
                let d = Diag::build(Vec::new(), zz);
                emitted += d.is_some() as u64;
                d
            };
            layers.push(Step {
                pre,
                gates,
                zz: zz_diag,
                gamma,
                sqrt_keep: (1.0 - gamma).sqrt(),
                p_flip,
            });
        }
        let final_rz = rz_terms(&masks, &plan.final_rz);
        naive += !final_rz.is_empty() as u64;
        carry_rz.extend(final_rz);
        let tail = Diag::build(carry_rz, carry_zz);
        emitted += tail.is_some() as u64;
        let fused = naive.saturating_sub(emitted);
        Steps {
            n,
            masks,
            k,
            layers,
            tail,
            fused,
        }
    }

    /// Tabulates every diagonal once, for a program that replays its
    /// steps many times (nothing to do above [`DIAG_TABLE_MAX_QUBITS`]).
    fn tabulate(&mut self) {
        if self.k > DIAG_TABLE_MAX_QUBITS {
            return;
        }
        let k = self.k;
        let pinned = self.layers.iter_mut().flat_map(|s| [&mut s.pre, &mut s.zz]);
        for diag in pinned.chain([&mut self.tail]).flatten() {
            let mut table = Table::default();
            diag.fold(k, &mut table);
            diag.table = Some(table);
        }
    }

    /// The device-register index of every replayed-register index, in
    /// ascending order of both.
    fn device_indices(&self) -> Vec<usize> {
        let mut indices = vec![0usize];
        for q in (0..self.n).filter(|&q| self.masks[q] != 0) {
            let bit = mask_of(self.n, q);
            indices = indices.iter().flat_map(|&i| [i, i | bit]).collect();
        }
        indices
    }

    /// Replays the steps from `|0…0⟩` on a single lane, drawing from
    /// `rngs` — empty for a decoherence-free program, whose layers never
    /// draw — and scatters the lane into the device register, whose
    /// undriven-qubit amplitudes are all zero.
    fn run_lane(&self, rngs: &mut [StdRng]) -> StateVector {
        let mut batch = BatchedState::zero(self.k, 1);
        self.evolve(&mut batch, rngs);
        let mut amplitudes = vec![c64::ZERO; 1usize << self.n];
        for (j, i) in self.device_indices().into_iter().enumerate() {
            amplitudes[i] = batch.amplitude(j, 0);
        }
        StateVector::from_vector(Vector::from_vec(amplitudes))
    }

    /// The one replay loop: applies every layer's diagonals, gates and
    /// fused noise pass to `batch`, lane `t` drawing from `rngs[t]`.
    /// Returns the number of kernel sweeps performed.
    ///
    /// Per noisy layer the decoherence channel costs **three** sweeps
    /// regardless of the qubit count: one read pass collects every
    /// driven qubit's excited population, the per-qubit Kraus draws
    /// happen in coefficient space, and one factored pass applies all
    /// damping normalizations, dephasing signs and jump permutations at
    /// once (see [`BatchedState::apply_factored_noise`]). Jump
    /// probabilities and normalizations both read the layer-entry
    /// populations, so the probability of each sampled Kraus branch
    /// still cancels its normalization exactly — the fidelity estimator
    /// stays unbiased.
    ///
    /// Every per-lane arithmetic sequence — draws, coefficients, factor
    /// products, amplitude updates — depends only on that lane's own
    /// stream and is independent of the batch width, which is what makes
    /// [`TrajectoryProgram::mean_fidelity_batched`] bit-identical across
    /// widths.
    ///
    /// An undriven qubit is in `|0⟩`: its excited population is exactly
    /// 0, so it never jumps and its clear-bit factor is exactly 1 — it
    /// has no row in the register. It still makes its draws, in device
    /// qubit order, so each lane's stream is the device register's.
    fn evolve(&self, batch: &mut BatchedState, rngs: &mut [StdRng]) -> u64 {
        let k = self.k;
        let width = batch.lanes();
        let mut sweeps = 0u64;
        let mut pops = vec![0.0; k * width];
        let mut row = vec![0.0; width];
        let mut coeffs = vec![1.0; k * 2 * width];
        let mut jumps = vec![0usize; width];
        let (mut factors, mut tmp) = (Vec::new(), Vec::new());
        let (mut scratch_re, mut scratch_im) = (Vec::new(), Vec::new());
        let mut table = Table::default();
        for layer in &self.layers {
            if let Some(diag) = &layer.pre {
                sweeps += diag.apply(batch, &mut table);
            }
            for gate in &layer.gates {
                gate.apply(batch);
                sweeps += 1;
            }
            if let Some(diag) = &layer.zz {
                sweeps += diag.apply(batch, &mut table);
            }
            if layer.gamma == 0.0 && layer.p_flip == 0.0 {
                continue;
            }
            debug_assert_eq!(
                rngs.len(),
                width,
                "a drawing layer needs one stream per lane"
            );
            if layer.gamma > 0.0 {
                batch.excited_populations(&mut pops, &mut row);
                sweeps += 1;
            }
            jumps.fill(0);
            let mut r = 0;
            for &mask in &self.masks {
                if mask == 0 {
                    // Undriven: no jump and factors of 1, but the draws.
                    for rng in rngs.iter_mut() {
                        if layer.gamma > 0.0 {
                            rng.gen_range(0.0..1.0);
                        }
                        if layer.p_flip > 0.0 {
                            rng.gen_range(0.0..1.0);
                        }
                    }
                    continue;
                }
                let pair = &mut coeffs[r * 2 * width..(r + 1) * 2 * width];
                let (c_lo, c_hi) = pair.split_at_mut(width);
                if layer.gamma > 0.0 {
                    let p_row = &pops[r * width..(r + 1) * width];
                    for t in 0..width {
                        let p_exc = p_row[t];
                        if rngs[t].gen_range(0.0..1.0) < layer.gamma * p_exc {
                            jumps[t] |= mask;
                            c_lo[t] = 1.0 / p_exc.sqrt();
                            c_hi[t] = 0.0;
                        } else {
                            let inv_norm = 1.0 / (1.0 - layer.gamma * p_exc).sqrt();
                            c_lo[t] = inv_norm;
                            c_hi[t] = layer.sqrt_keep * inv_norm;
                        }
                    }
                } else {
                    c_lo.fill(1.0);
                    c_hi.fill(1.0);
                }
                if layer.p_flip > 0.0 {
                    for t in 0..width {
                        if rngs[t].gen_range(0.0..1.0) < layer.p_flip {
                            c_hi[t] = -c_hi[t];
                        }
                    }
                }
                r += 1;
            }
            BatchedState::expand_factors(k, width, &coeffs, &mut factors, &mut tmp);
            batch.apply_factored_noise(&factors, &jumps, &mut scratch_re, &mut scratch_im);
            sweeps += 1;
        }
        if let Some(diag) = &self.tail {
            sweeps += diag.apply(batch, &mut table);
        }
        sweeps
    }
}

/// A deterministic execution program: the plan resolved to fused
/// diagonals and gate kernels — the decoherence-free case of
/// [`TrajectoryProgram`], built and replayed by the same code. It keeps
/// each diagonal's phase terms only: every [`run`] folds each diagonal
/// into one reused table buffer right before applying it, so running the
/// program again folds every diagonal again.
///
/// [`run`]: PlanProgram::run
#[derive(Clone, Debug)]
pub struct PlanProgram {
    steps: Steps,
}

impl PlanProgram {
    /// Precompiles the error-free reference program (no ZZ phases at all).
    pub fn ideal(plan: &SchedulePlan) -> Self {
        PlanProgram {
            steps: Steps::build(plan, None, None),
        }
    }

    /// Precompiles the plan under the given ZZ-crosstalk model: driven
    /// couplings, residual factors, layer durations and each fused
    /// diagonal's phase terms are resolved here, once. Folding those
    /// terms into a table is left to [`run`](Self::run), every time it
    /// runs.
    pub fn compile(
        plan: &SchedulePlan,
        topo: &Topology,
        model: &ZzErrorModel,
        durations: &GateDurations,
    ) -> Self {
        PlanProgram {
            steps: Steps::build(plan, Some((topo, model, durations)), None),
        }
    }

    /// Number of qubits.
    pub fn qubit_count(&self) -> usize {
        self.steps.n
    }

    /// Diagonal sweeps this program's compilation fused away.
    pub fn fused_diags(&self) -> u64 {
        self.steps.fused
    }

    /// Executes the program from `|0…0⟩` on the batched engine at width 1.
    pub fn run(&self) -> StateVector {
        self.steps.run_lane(&mut [])
    }
}

/// A Monte-Carlo trajectory program: the plan resolved as in
/// [`PlanProgram`], plus per-layer decoherence probabilities. One compiled
/// program serves every trajectory — and is `Sync`, so trajectories fan
/// out over threads against shared precompiled state.
#[derive(Clone, Debug)]
pub struct TrajectoryProgram {
    steps: Steps,
}

impl TrajectoryProgram {
    /// Precompiles the plan under ZZ crosstalk and decoherence, with
    /// every fused diagonal tabulated once here: the fan replays each
    /// step once per batch, so the tables are shared by all batches.
    pub fn compile(
        plan: &SchedulePlan,
        topo: &Topology,
        model: &ZzErrorModel,
        deco: &Decoherence,
        durations: &GateDurations,
    ) -> Self {
        let mut steps = Steps::build(plan, Some((topo, model, durations)), Some(deco));
        steps.tabulate();
        TrajectoryProgram { steps }
    }

    /// Number of qubits.
    pub fn qubit_count(&self) -> usize {
        self.steps.n
    }

    /// Diagonal sweeps this program's compilation fused away.
    pub fn fused_diags(&self) -> u64 {
        self.steps.fused
    }

    /// Runs one trajectory: ZZ phases exactly, decoherence by sampling
    /// Kraus operators per qubit per layer, on the batched engine at
    /// width 1 — the same replay the trajectory fan runs per batch.
    pub fn run(&self, rng: &mut StdRng) -> StateVector {
        self.steps.run_lane(std::slice::from_mut(rng))
    }

    /// Runs trajectories `first..first + width` in one batched sweep and
    /// returns their fidelities against `ideal` — the reference's entries
    /// on the replayed register, the only ones a trajectory reaches — in
    /// trajectory order, with the batch's kernel sweeps and wall time.
    ///
    /// Lane `t` draws from its own generator seeded by
    /// [`trajectory_seed`]`(seed, first + t)`, exactly as [`run`](Self::run)
    /// draws when handed that generator.
    fn run_batch(
        &self,
        ideal: &[c64],
        seed: u64,
        first: usize,
        width: usize,
    ) -> (Vec<f64>, u64, Duration) {
        let started = Instant::now();
        let mut batch = BatchedState::zero(self.steps.k, width);
        let mut rngs: Vec<StdRng> = (0..width)
            .map(|t| StdRng::seed_from_u64(trajectory_seed(seed, first + t)))
            .collect();
        let sweeps = self.steps.evolve(&mut batch, &mut rngs) + 1;
        let mut fidelities = vec![0.0; width];
        batch.fidelity_against(ideal, &mut fidelities);
        (fidelities, sweeps, started.elapsed())
    }

    /// Mean fidelity against `ideal` over `trajectories` Monte-Carlo runs,
    /// batched [`DEFAULT_BATCH_LANES`] trajectories per kernel sweep and
    /// fanned out over up to `threads` OS threads.
    ///
    /// Trajectory `i` draws from its own generator seeded by
    /// [`trajectory_seed`]`(seed, i)`, and per-trajectory fidelities are
    /// reduced in trajectory order — the result is **bit-identical for any
    /// thread count and any batch width**.
    ///
    /// # Panics
    ///
    /// Panics if `trajectories` is zero.
    pub fn mean_fidelity(
        &self,
        ideal: &StateVector,
        trajectories: usize,
        seed: u64,
        threads: usize,
    ) -> f64 {
        self.mean_fidelity_batched(ideal, trajectories, seed, threads, DEFAULT_BATCH_LANES)
            .0
    }

    /// [`mean_fidelity`](Self::mean_fidelity) with an explicit batch
    /// width: trajectories run in batches of `lanes`, whole batches fan
    /// out over the thread pool, and the ordered per-trajectory reduction
    /// is unchanged — so the result is bit-identical for any `threads`
    /// *and* any `lanes` (each lane's arithmetic never mixes with its
    /// neighbours; see [`crate::batch`]). Also returns the fan's
    /// [`EngineStats`]: trajectories, kernel sweeps and one wall time per
    /// batch (`fused_diags` stays 0; it is the program's
    /// [`fused_diags`](Self::fused_diags)).
    ///
    /// # Panics
    ///
    /// Panics if `trajectories` or `lanes` is zero.
    pub fn mean_fidelity_batched(
        &self,
        ideal: &StateVector,
        trajectories: usize,
        seed: u64,
        threads: usize,
        lanes: usize,
    ) -> (f64, EngineStats) {
        assert!(trajectories > 0, "at least one trajectory is required");
        assert!(lanes > 0, "at least one batch lane is required");
        let ideal = ideal.amplitudes();
        assert_eq!(
            ideal.len(),
            1usize << self.steps.n,
            "reference length must be 2^n"
        );
        let ideal_amps: Vec<c64> = self
            .steps
            .device_indices()
            .into_iter()
            .map(|i| ideal[i])
            .collect();
        let batches = trajectories.div_ceil(lanes);
        let per_batch = parallel_map(batches, threads, |b| {
            let first = b * lanes;
            let width = lanes.min(trajectories - first);
            self.run_batch(&ideal_amps, seed, first, width)
        });
        let mut sum = 0.0;
        let mut stats = EngineStats {
            trajectories: trajectories as u64,
            ..EngineStats::default()
        };
        for (fidelities, sweeps, wall) in per_batch {
            for f in fidelities {
                sum += f;
            }
            stats.kernel_sweeps += sweeps;
            stats.batch_walls.push(wall);
        }
        (sum / trajectories as f64, stats)
    }
}

/// Derives the RNG seed of trajectory `index` from the fan's base seed —
/// a SplitMix64-style mix, so per-trajectory streams are decorrelated and
/// independent of how trajectories are distributed over threads.
pub fn trajectory_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zz_circuit::native::compile_to_native;
    use zz_circuit::{bench, route, Circuit, Gate};
    use zz_sched::{par_schedule, zzx::ZzxConfig, zzx_schedule};

    /// One lane with a Hadamard on each of `qubits`.
    fn uniform_superposition(n: usize, qubits: impl IntoIterator<Item = usize>) -> BatchedState {
        let h = mat4(&zz_quantum::gates::h());
        let mut state = BatchedState::zero(n, 1);
        for q in qubits {
            state.kernel_single(&h, mask_of(n, q));
        }
        state
    }

    fn qaoa_plan(topo: &Topology) -> SchedulePlan {
        qaoa_plan_of(topo.qubit_count(), topo)
    }

    /// QAOA-`n` routed onto `topo` and scheduled by ZZXSched.
    fn qaoa_plan_of(n: usize, topo: &Topology) -> SchedulePlan {
        let c = bench::generate(bench::BenchmarkKind::Qaoa, n, 9);
        let native = compile_to_native(&route(&c, topo));
        zzx_schedule(topo, &native, &ZzxConfig::paper_default(topo))
    }

    /// QAOA-4 on the 3×3 grid: a plan whose pulses leave device qubits
    /// undriven, so its steps replay on a register narrower than `topo`.
    fn narrow_plan() -> (Topology, SchedulePlan) {
        let topo = Topology::grid(3, 3);
        let plan = qaoa_plan_of(4, &topo);
        let k = PlanProgram::ideal(&plan).steps.k;
        assert!(k < topo.qubit_count(), "QAOA-4 drives {k} of 9 qubits");
        (topo, plan)
    }

    #[test]
    fn diag_table_and_terms_paths_agree() {
        let n = 4;
        let rz = vec![(mask_of(n, 1), 0.35), (mask_of(n, 3), -0.8)];
        let zz = vec![(mask_of(n, 0), mask_of(n, 2), 0.21)];
        let diag = Diag::build(rz, zz).unwrap();

        let mut a = uniform_superposition(n, 0..n);
        let mut b = a.clone();
        assert_eq!(diag.apply(&mut a, &mut Table::default()), 1);
        assert_eq!(diag.apply_terms(&mut b), 3);
        let diff: f64 = a
            .lane_amplitudes(0)
            .iter()
            .zip(b.lane_amplitudes(0))
            .map(|(&x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        assert!(diff < 1e-15, "table vs terms diverged by {diff}");
    }

    /// Reference table: every entry is the ordered product of its term
    /// factors — Rz terms, then ZZ terms, the first factor taken as is —
    /// folded over all `2^n` entries.
    fn ordered_product_table(diag: &Diag, n: usize) -> Vec<c64> {
        (0..1usize << n)
            .map(|i| {
                let rz = diag
                    .rz
                    .iter()
                    .map(|&(mask, half)| c64::cis(if i & mask != 0 { half } else { -half }));
                let zz = diag.zz.iter().map(|&(mu, mv, phi)| {
                    let differ = (i & mu != 0) != (i & mv != 0);
                    c64::cis(if differ { phi } else { -phi })
                });
                let mut factors = rz.chain(zz);
                let first = factors.next().expect("a built diagonal has a term");
                factors.fold(first, |acc, f| acc * f)
            })
            .collect()
    }

    #[test]
    fn table_fold_is_bit_exact() {
        type Terms = (Vec<(usize, f64)>, Vec<(usize, usize, f64)>);
        let mut rng = StdRng::seed_from_u64(16);
        let mut cases: Vec<(usize, Terms)> = Vec::new();
        for n in 1..=DIAG_TABLE_MAX_QUBITS {
            let rz = |rng: &mut StdRng, count: usize| -> Vec<(usize, f64)> {
                (0..count)
                    .map(|_| (1 << rng.gen_range(0..n), rng.gen_range(-3.0..3.0)))
                    .collect()
            };
            let zz = |rng: &mut StdRng, count: usize| -> Vec<(usize, usize, f64)> {
                (0..count)
                    .map(|_| {
                        let u = rng.gen_range(0..n);
                        let v = (u + rng.gen_range(1..n)) % n;
                        (1 << u, 1 << v, rng.gen_range(-0.5..0.5))
                    })
                    .collect()
            };
            let count = rng.gen_range(1..n + 3);
            cases.push((n, (rz(&mut rng, count), Vec::new())));
            let q = 1 << rng.gen_range(0..n);
            let repeated = (0..3).map(|_| (q, rng.gen_range(-3.0..3.0))).collect();
            cases.push((n, (repeated, Vec::new())));
            if n >= 2 {
                let count = rng.gen_range(1..2 * n);
                cases.push((n, (Vec::new(), zz(&mut rng, count))));
                let (nr, nz) = (rng.gen_range(1..n + 1), rng.gen_range(1..2 * n));
                cases.push((n, (rz(&mut rng, nr), zz(&mut rng, nz))));
            }
        }
        // Chunked folds (lowest compact mask 4 or more) next to per-entry
        // ones (1 or 2), and new qubits landing above, below and between
        // the current support.
        let b = |q: usize| 1usize << q;
        cases.push((
            8,
            (
                vec![(b(0), 0.3), (b(1), -0.7), (b(2), 1.1), (b(3), 0.2)],
                vec![(b(2), b(6), 0.05), (b(1), b(6), -0.2), (b(0), b(3), 0.4)],
            ),
        ));
        cases.push((8, (vec![(b(0), 0.9)], vec![(b(0), b(5), 0.1)])));
        cases.push((8, (vec![(b(6), -0.4)], vec![(b(1), b(6), 0.3)])));
        cases.push((
            8,
            (
                vec![(b(0), 0.5), (b(7), 0.25), (b(3), -1.5)],
                vec![(b(3), b(5), 0.15), (b(4), b(2), -0.35)],
            ),
        ));
        // Mask-0 terms (qubits outside the replayed register): Rz terms,
        // ZZ terms with one end outside, and ZZ terms with both ends
        // outside, first, between and last.
        cases.push((
            5,
            (
                vec![(0, 0.45), (b(2), -0.3), (0, -1.2)],
                vec![
                    (0, b(3), 0.2),
                    (b(1), 0, -0.15),
                    (0, 0, 0.35),
                    (b(4), b(2), 0.05),
                    (0, b(0), -0.45),
                    (0, 0, -0.1),
                ],
            ),
        ));
        cases.push((3, (vec![(0, 0.7)], vec![(0, 0, -0.25)])));
        cases.push((4, (Vec::new(), vec![(0, 0, 0.1), (b(0), b(3), 0.2)])));
        cases.push((1, (vec![(0, -0.6)], vec![(b(0), 0, 0.3)])));
        // Full support first, so compact masks equal full ones: Rz terms
        // at compact bits 1, 2 and 4 or more, ZZ terms with a run of 1
        // or 2 against every higher bit (periods 4 to 1024, each side of
        // 16), runs of 4 or more, and one-sided terms at every run.
        let n = 10;
        let mut rz: Vec<(usize, f64)> = (0..n).map(|q| (b(q), 0.1 * (q as f64 + 1.0))).collect();
        rz.extend([(b(0), 0.5), (b(1), -0.4), (b(2), 0.8), (b(6), -0.9)]);
        let mut zz: Vec<(usize, usize, f64)> = Vec::new();
        for q in 1..n {
            zz.push((b(0), b(q), 0.03 * q as f64));
            zz.push((b(q), 0, -0.07 * q as f64));
        }
        for q in 2..n {
            zz.push((b(q), b(1), -0.02 * q as f64));
            zz.push((b(q), b(2), 0.015 * q as f64));
        }
        zz.push((b(5), b(8), 0.125));
        cases.push((n, (rz, zz)));
        // New qubits landing at compact bits 1, 2, 4, 8, 16 and 32, each
        // folded at once at its new place against a far bit.
        cases.push((
            10,
            (
                vec![(b(9), 0.3), (b(8), -0.2)],
                vec![
                    (b(0), b(9), 0.11),
                    (b(1), b(8), -0.13),
                    (b(2), b(0), 0.17),
                    (b(3), b(9), 0.19),
                    (b(4), b(1), -0.23),
                    (b(5), 0, 0.29),
                    (b(7), b(6), 0.31),
                ],
            ),
        ));
        // One buffer for every case, as a replay reuses it: a fold
        // overwrites whatever an earlier fold left behind.
        let mut table = Table::default();
        for (n, (rz, zz)) in cases {
            let diag = Diag::build(rz, zz).expect("every case has a term");
            diag.fold(n, &mut table);
            let reference = ordered_product_table(&diag, n);
            assert_eq!(table.re.len(), reference.len());
            assert_eq!(table.im.len(), reference.len());
            let got = table.re.iter().zip(&table.im);
            for (i, ((&re, &im), want)) in got.zip(&reference).enumerate() {
                assert!(
                    re.to_bits() == want.re.to_bits() && im.to_bits() == want.im.to_bits(),
                    "n={n} entry {i}: {re:?} + {im:?}i vs {want:?} for {:?} / {:?}",
                    diag.rz,
                    diag.zz
                );
            }
        }
    }

    #[test]
    fn empty_diag_is_elided() {
        assert!(Diag::build(Vec::new(), Vec::new()).is_none());
        assert!(Diag::build(vec![(1, 0.1)], Vec::new()).is_some());
    }

    #[test]
    fn ideal_program_matches_plan_unitary() {
        let topo = Topology::grid(2, 2);
        let plan = qaoa_plan(&topo);
        let sv = PlanProgram::ideal(&plan).run();
        let direct = plan
            .unitary()
            .mul_vec(&zz_quantum::states::zero_state(plan.qubit_count()));
        let f = sv.to_vector().fidelity(&direct.normalized());
        assert!(f > 1.0 - 1e-10, "fidelity {f}");
    }

    #[test]
    fn trajectory_with_no_decoherence_matches_deterministic_run() {
        let full = Topology::grid(2, 3);
        let full_plan = qaoa_plan(&full);
        for (topo, plan) in [(full, full_plan), narrow_plan()] {
            let model = ZzErrorModel::uniform(&topo, crate::khz(200.0)).with_residual(0.05);
            let d = GateDurations::standard();
            // Infinite T1/T2 ⇒ γ = p = 0 ⇒ no random draws at all, and the
            // shared builder emits the deterministic program's steps.
            let deco = Decoherence::new(f64::INFINITY, f64::INFINITY);
            let det = PlanProgram::compile(&plan, &topo, &model, &d).run();
            let mut rng = StdRng::seed_from_u64(3);
            let traj = TrajectoryProgram::compile(&plan, &topo, &model, &deco, &d).run(&mut rng);
            assert_eq!(det.amplitudes(), traj.amplitudes());
        }
    }

    /// Whether each of a program's diagonals carries a table, in replay
    /// order.
    fn tabulated(steps: &Steps) -> Vec<bool> {
        let pinned = steps.layers.iter().flat_map(|s| [&s.pre, &s.zz]);
        pinned
            .chain([&steps.tail])
            .flatten()
            .map(|diag| diag.table.is_some())
            .collect()
    }

    /// A deterministic program keeps only its phase terms and folds each
    /// diagonal at replay time; a trajectory program tabulates every
    /// diagonal once at compile time.
    #[test]
    fn only_trajectory_programs_hold_tables() {
        let topo = Topology::grid(2, 3);
        let plan = qaoa_plan(&topo);
        let model = ZzErrorModel::uniform(&topo, crate::khz(200.0)).with_residual(0.05);
        let d = GateDurations::standard();
        let deco = Decoherence::equal_us(50.0);
        let deterministic = tabulated(&PlanProgram::compile(&plan, &topo, &model, &d).steps);
        let trajectory =
            tabulated(&TrajectoryProgram::compile(&plan, &topo, &model, &deco, &d).steps);
        assert!(!deterministic.is_empty() && !trajectory.is_empty());
        assert!(deterministic.iter().all(|&t| !t), "{deterministic:?}");
        assert!(trajectory.iter().all(|&t| t), "{trajectory:?}");
        assert!(tabulated(&PlanProgram::ideal(&plan).steps)
            .iter()
            .all(|&t| !t));
    }

    /// A plan of virtual rotations only drives no qubit: it replays on a
    /// one-amplitude register, and both programs reproduce the ideal
    /// state. Rotations by π and π/2 leave that amplitude at modulus 1
    /// exactly, so the fidelity is exactly 1.
    #[test]
    fn rz_only_plan_replays_on_an_empty_register() {
        let topo = Topology::grid(3, 3);
        let mut c = Circuit::new(3);
        c.push(Gate::Rz(std::f64::consts::PI), &[0])
            .push(Gate::Rz(std::f64::consts::FRAC_PI_2), &[2]);
        let plan = par_schedule(&topo, &compile_to_native(&route(&c, &topo)));
        let model = ZzErrorModel::uniform(&topo, crate::khz(200.0));
        let d = GateDurations::standard();
        let ideal_program = PlanProgram::ideal(&plan);
        assert_eq!(ideal_program.steps.k, 0);
        let ideal = ideal_program.run();
        assert_eq!(ideal.amplitudes().len(), 1 << 9);
        let noisy = PlanProgram::compile(&plan, &topo, &model, &d).run();
        assert_eq!(ideal.fidelity(&noisy).to_bits(), 1.0f64.to_bits());
        let deco = Decoherence::equal_us(50.0);
        let trajectories = TrajectoryProgram::compile(&plan, &topo, &model, &deco, &d);
        let f = trajectories.mean_fidelity(&ideal, 5, 7, 2);
        assert_eq!(f.to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn mean_fidelity_is_thread_count_invariant() {
        let topo = Topology::grid(2, 2);
        let plan = qaoa_plan(&topo);
        let model = ZzErrorModel::uniform(&topo, crate::khz(200.0));
        let deco = Decoherence::equal_us(50.0);
        let program =
            TrajectoryProgram::compile(&plan, &topo, &model, &deco, &GateDurations::standard());
        let ideal = PlanProgram::ideal(&plan).run();
        let f1 = program.mean_fidelity(&ideal, 16, 7, 1);
        let f2 = program.mean_fidelity(&ideal, 16, 7, 2);
        let f8 = program.mean_fidelity(&ideal, 16, 7, 8);
        assert_eq!(f1.to_bits(), f2.to_bits());
        assert_eq!(f1.to_bits(), f8.to_bits());
    }

    /// Satellite: above [`DIAG_TABLE_MAX_QUBITS`] the per-term fallback
    /// must agree with the `phase_at` reference semantics — crossing the
    /// boundary at 17 qubits.
    #[test]
    fn diag_fallback_matches_phase_at_above_table_limit() {
        let n = DIAG_TABLE_MAX_QUBITS + 1;
        // Mask 0 is a qubit outside the register: an Rz term on it, a
        // one-sided ZZ term and a ZZ term with both ends outside.
        let rz = vec![(mask_of(n, 2), 0.4), (0, 0.55), (mask_of(n, 16), -0.15)];
        let zz = vec![
            (mask_of(n, 0), mask_of(n, 9), 0.27),
            (0, mask_of(n, 5), 0.12),
            (mask_of(n, 5), mask_of(n, 16), -0.08),
            (mask_of(n, 9), 0, -0.31),
            (0, 0, 0.19),
        ];
        let diag = Diag::build(rz, zz).unwrap();

        let mut state = uniform_superposition(n, [0, 5, 9, 16]);
        let expected: Vec<c64> = state
            .lane_amplitudes(0)
            .iter()
            .enumerate()
            .map(|(i, &a)| a * c64::cis(diag.phase_at(i)))
            .collect();
        let mut buffer = Table::default();
        assert_eq!(diag.apply(&mut state, &mut buffer), 8);
        assert!(buffer.re.is_empty(), "17 qubits must use the term fallback");
        let diff = state
            .lane_amplitudes(0)
            .iter()
            .zip(&expected)
            .map(|(&x, &y)| (x - y).abs())
            .fold(0.0, f64::max);
        assert!(diff < 1e-12, "fallback vs phase_at diverged by {diff}");
    }

    #[test]
    fn mean_fidelity_is_batch_width_and_thread_invariant() {
        let full = Topology::grid(2, 2);
        let full_plan = qaoa_plan(&full);
        for (topo, plan) in [(full, full_plan), narrow_plan()] {
            let model = ZzErrorModel::uniform(&topo, crate::khz(200.0)).with_residual(0.05);
            let deco = Decoherence::equal_us(50.0);
            let program =
                TrajectoryProgram::compile(&plan, &topo, &model, &deco, &GateDurations::standard());
            let ideal = PlanProgram::ideal(&plan).run();
            let (reference, _) = program.mean_fidelity_batched(&ideal, 16, 7, 1, 8);
            for lanes in [1, 3, 8, 16] {
                let (_, single) = program.mean_fidelity_batched(&ideal, 16, 7, 1, lanes);
                for threads in [1, 2, 8] {
                    let (f, stats) = program.mean_fidelity_batched(&ideal, 16, 7, threads, lanes);
                    assert_eq!(
                        reference.to_bits(),
                        f.to_bits(),
                        "lanes={lanes} threads={threads}"
                    );
                    // The fan's counts describe its batches, not its threads.
                    assert_eq!(stats.trajectories, 16);
                    assert_eq!(stats.batch_walls.len(), 16usize.div_ceil(lanes));
                    assert_eq!(stats.kernel_sweeps, single.kernel_sweeps);
                    assert_eq!(stats.fused_diags, 0);
                }
            }
            // The default entry point is the same computation at width 8.
            let default = program.mean_fidelity(&ideal, 16, 7, 2);
            assert_eq!(reference.to_bits(), default.to_bits());
        }
    }

    /// The batched fan replays exactly the draws of single-trajectory
    /// `run`s, so its mean matches a hand-rolled fan of them to fp
    /// accumulation noise.
    #[test]
    fn batched_fan_matches_scalar_trajectory_fan() {
        let topo = Topology::grid(2, 3);
        let plan = qaoa_plan(&topo);
        let model = ZzErrorModel::uniform(&topo, crate::khz(200.0)).with_residual(0.05);
        let deco = Decoherence::equal_us(100.0);
        let program =
            TrajectoryProgram::compile(&plan, &topo, &model, &deco, &GateDurations::standard());
        let ideal = PlanProgram::ideal(&plan).run();
        let trajectories = 5;
        let (batched, _) = program.mean_fidelity_batched(&ideal, trajectories, 11, 1, 3);
        let mut scalar_sum = 0.0;
        for i in 0..trajectories {
            let mut rng = StdRng::seed_from_u64(trajectory_seed(11, i));
            scalar_sum += ideal.fidelity(&program.run(&mut rng));
        }
        let scalar = scalar_sum / trajectories as f64;
        assert!(
            (batched - scalar).abs() < 1e-12,
            "batched {batched} vs scalar {scalar}"
        );
    }

    #[test]
    fn trajectory_seeds_are_decorrelated() {
        let a = trajectory_seed(7, 0);
        let b = trajectory_seed(7, 1);
        let c = trajectory_seed(8, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, trajectory_seed(7, 0));
    }
}
