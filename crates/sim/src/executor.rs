//! The ZZ-crosstalk error model, and exact density-matrix execution of
//! schedule plans under it.
//!
//! State-vector execution goes through the precompiled programs of
//! [`crate::program`]: compile a [`PlanProgram`](crate::program::PlanProgram)
//! or [`TrajectoryProgram`](crate::program::TrajectoryProgram) once and
//! reuse it across disorder averages, trajectory fans and sweeps.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use zz_circuit::native::NativeOp;
use zz_linalg::Matrix;
use zz_sched::{GateDurations, Layer, SchedulePlan};
use zz_topology::Topology;

use crate::density::{amplitude_damping, dephasing, Decoherence, DensityMatrix, EXACT_MAX_QUBITS};

/// Cross-region residual factors per pulse kind: the fraction of `λ` that
/// survives on a suppressed coupling when the pulsed qubit carries the
/// given pulse. Measured by the pulse-level calibration in `zz-core`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResidualTable {
    /// Residual next to an `X90` pulse.
    pub x90: f64,
    /// Residual next to an identity pulse.
    pub id: f64,
    /// Residual next to the control qubit of a `ZX90`.
    pub zx90_control: f64,
    /// Residual next to the target qubit of a `ZX90`.
    pub zx90_target: f64,
}

impl ResidualTable {
    /// The same factor for every pulse kind.
    pub fn uniform(r: f64) -> Self {
        ResidualTable {
            x90: r,
            id: r,
            zx90_control: r,
            zx90_target: r,
        }
    }

    /// No suppression at all (factor 1 everywhere).
    pub fn none() -> Self {
        ResidualTable::uniform(1.0)
    }
}

/// The per-device ZZ-crosstalk model: a strength per coupling plus the
/// pulse method's cross-region residual factors.
#[derive(Clone, Debug)]
pub struct ZzErrorModel {
    /// Crosstalk strength per coupling edge id (rad/ns).
    pub lambdas: Vec<f64>,
    /// Residual factors of the calibrated pulses.
    pub residuals: ResidualTable,
}

impl ZzErrorModel {
    /// Samples per-coupling strengths from `N(mean, std²)` (clamped at 0),
    /// matching the paper's setup (`μ = 2π·200 kHz`, `σ = 2π·50 kHz`).
    pub fn sampled(topo: &Topology, mean: f64, std: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let lambdas = (0..topo.coupling_count())
            .map(|_| {
                // Box–Muller from two uniforms.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                (mean + std * z).max(0.0)
            })
            .collect();
        ZzErrorModel {
            lambdas,
            residuals: ResidualTable::none(),
        }
    }

    /// Uniform strengths on every coupling.
    pub fn uniform(topo: &Topology, lambda: f64) -> Self {
        ZzErrorModel {
            lambdas: vec![lambda; topo.coupling_count()],
            residuals: ResidualTable::none(),
        }
    }

    /// Sets a uniform cross-region residual factor (builder style).
    pub fn with_residual(mut self, r: f64) -> Self {
        self.residuals = ResidualTable::uniform(r);
        self
    }

    /// Sets the full residual table (builder style).
    pub fn with_residuals(mut self, table: ResidualTable) -> Self {
        self.residuals = table;
        self
    }
}

/// The residual factor of the pulse on qubit `q` in this layer (1.0 when
/// the qubit carries no pulse).
pub(crate) fn qubit_residual(layer: &Layer, q: usize, table: &ResidualTable) -> f64 {
    for op in &layer.ops {
        match *op {
            NativeOp::X90 { qubit } if qubit == q => return table.x90,
            NativeOp::Id { qubit } if qubit == q => return table.id,
            NativeOp::Zx90 { control, .. } if control == q => return table.zx90_control,
            NativeOp::Zx90 { target, .. } if target == q => return table.zx90_target,
            _ => {}
        }
    }
    1.0
}

/// Effective residual on a suppressed (cross-region) coupling: the factor
/// of whichever endpoint carries the pulse.
pub(crate) fn coupling_residual(layer: &Layer, u: usize, v: usize, table: &ResidualTable) -> f64 {
    if layer.pulsed[u] {
        qubit_residual(layer, u, table)
    } else {
        qubit_residual(layer, v, table)
    }
}

/// Couplings that host a two-qubit gate in this layer. Their static ZZ is
/// part of the Hamiltonian the gate pulse is calibrated against — the paper
/// dresses it into the target `Ũ₂` (Sec 4.2) — so it is not charged as an
/// error during the gate.
pub(crate) fn driven_couplings(layer: &Layer, topo: &Topology) -> Vec<bool> {
    let mut driven = vec![false; topo.coupling_count()];
    for op in &layer.ops {
        if let NativeOp::Zx90 { control, target } = *op {
            if let Some(e) = topo.coupling_between(control, target) {
                driven[e] = true;
            }
        }
    }
    driven
}

/// Exact density-matrix execution (small registers): ZZ phases plus the
/// full amplitude-damping and dephasing channels each layer.
pub fn run_density(
    plan: &SchedulePlan,
    topo: &Topology,
    model: &ZzErrorModel,
    deco: &Decoherence,
    durations: &GateDurations,
) -> DensityMatrix {
    let n = plan.qubit_count();
    assert!(
        n <= EXACT_MAX_QUBITS,
        "density-matrix execution is limited to {EXACT_MAX_QUBITS} qubits (got {n})"
    );
    let mut dm = DensityMatrix::zero(n);
    for layer in &plan.layers {
        for &(q, theta) in &layer.rz_before {
            dm.apply_unitary(&zz_quantum::gates::rz(theta), &[q]);
        }
        for op in &layer.ops {
            match *op {
                NativeOp::Rz { qubit, theta } => {
                    dm.apply_unitary(&zz_quantum::gates::rz(theta), &[qubit])
                }
                NativeOp::X90 { qubit } => dm.apply_unitary(&zz_quantum::gates::x90(), &[qubit]),
                NativeOp::Zx90 { control, target } => {
                    dm.apply_unitary(&zz_quantum::gates::zx90(), &[control, target])
                }
                NativeOp::Id { .. } => {}
            }
        }
        let dt = layer.duration(durations);
        let driven = driven_couplings(layer, topo);
        for (e, &(u, v)) in topo.couplings().iter().enumerate() {
            if driven[e] {
                continue;
            }
            let factor = if layer.metrics.suppressed[e] {
                coupling_residual(layer, u, v, &model.residuals)
            } else {
                1.0
            };
            let phi = model.lambdas[e] * factor * dt;
            dm.apply_unitary(&rzz_phase(phi), &[u, v]);
        }
        let gamma = deco.gamma(dt);
        let p = deco.phase_flip(dt);
        for q in 0..n {
            dm.apply_kraus(&amplitude_damping(gamma), q);
            dm.apply_kraus(&dephasing(p), q);
        }
    }
    for &(q, theta) in &plan.final_rz {
        dm.apply_unitary(&zz_quantum::gates::rz(theta), &[q]);
    }
    dm
}

fn rzz_phase(phi: f64) -> Matrix {
    zz_quantum::gates::rzz(2.0 * phi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{PlanProgram, TrajectoryProgram};
    use zz_circuit::native::compile_to_native;
    use zz_circuit::{bench, route};
    use zz_sched::{par_schedule, zzx::ZzxConfig, zzx_schedule};

    /// Fidelity of the ZZ-noisy output against the ideal output.
    fn zz_fidelity(
        plan: &SchedulePlan,
        topo: &Topology,
        model: &ZzErrorModel,
        durations: &GateDurations,
    ) -> f64 {
        let ideal = PlanProgram::ideal(plan).run();
        ideal.fidelity(&PlanProgram::compile(plan, topo, model, durations).run())
    }

    /// Mean Monte-Carlo fidelity over `trajectories` runs on two threads.
    fn mc_fidelity(
        plan: &SchedulePlan,
        topo: &Topology,
        model: &ZzErrorModel,
        deco: &Decoherence,
        durations: &GateDurations,
        trajectories: usize,
        seed: u64,
    ) -> f64 {
        let ideal = PlanProgram::ideal(plan).run();
        TrajectoryProgram::compile(plan, topo, model, deco, durations).mean_fidelity(
            &ideal,
            trajectories,
            seed,
            2,
        )
    }

    fn qft_plan(topo: &Topology) -> SchedulePlan {
        let c = bench::generate(bench::BenchmarkKind::Qft, topo.qubit_count().min(4), 5);
        let native = compile_to_native(&route(&c, topo));
        par_schedule(topo, &native)
    }

    #[test]
    fn zero_crosstalk_means_perfect_fidelity() {
        let topo = Topology::grid(2, 2);
        let plan = qft_plan(&topo);
        let model = ZzErrorModel::uniform(&topo, 0.0);
        let f = zz_fidelity(&plan, &topo, &model, &GateDurations::standard());
        assert!((f - 1.0).abs() < 1e-10, "fidelity {f}");
    }

    #[test]
    fn crosstalk_reduces_fidelity() {
        let topo = Topology::grid(2, 2);
        let plan = qft_plan(&topo);
        let model = ZzErrorModel::uniform(&topo, crate::khz(200.0));
        let f = zz_fidelity(&plan, &topo, &model, &GateDurations::standard());
        assert!(f < 1.0 - 1e-4, "fidelity {f} should visibly drop");
        assert!(f > 0.1, "but not collapse entirely: {f}");
    }

    #[test]
    fn suppression_with_small_residual_raises_fidelity() {
        let topo = Topology::grid(2, 3);
        let c = bench::generate(bench::BenchmarkKind::Qaoa, 6, 9);
        let native = compile_to_native(&route(&c, &topo));
        let zzx = zzx_schedule(&topo, &native, &ZzxConfig::paper_default(&topo));
        let base = ZzErrorModel::uniform(&topo, crate::khz(200.0));
        let d = GateDurations::standard();
        let f_nosupp = zz_fidelity(&zzx, &topo, &base.clone().with_residual(1.0), &d);
        let f_supp = zz_fidelity(&zzx, &topo, &base.with_residual(0.01), &d);
        assert!(
            f_supp > f_nosupp,
            "suppressed {f_supp} must beat unsuppressed {f_nosupp}"
        );
    }

    #[test]
    fn trajectory_mean_matches_density_matrix() {
        let topo = Topology::line(3);
        let c = bench::generate(bench::BenchmarkKind::Ising, 3, 2);
        let native = compile_to_native(&route(&c, &topo));
        let plan = par_schedule(&topo, &native);
        let model = ZzErrorModel::uniform(&topo, crate::khz(200.0));
        let deco = Decoherence::equal_us(20.0); // strong decoherence
        let d = GateDurations::standard();

        let dm = run_density(&plan, &topo, &model, &deco, &d);
        let ideal = PlanProgram::ideal(&plan).run();
        let f_exact = dm.fidelity_to_pure(&ideal.to_vector());
        let f_mc = mc_fidelity(&plan, &topo, &model, &deco, &d, 600, 11);
        assert!(
            (f_exact - f_mc).abs() < 0.03,
            "MC {f_mc} vs exact {f_exact}"
        );
    }

    #[test]
    fn decoherence_only_hurts() {
        let topo = Topology::grid(2, 2);
        let plan = qft_plan(&topo);
        let model = ZzErrorModel::uniform(&topo, crate::khz(200.0));
        let d = GateDurations::standard();
        let f_zz = zz_fidelity(&plan, &topo, &model, &d);
        let f_deco = mc_fidelity(
            &plan,
            &topo,
            &model,
            &Decoherence::equal_us(100.0),
            &d,
            200,
            3,
        );
        assert!(
            f_deco <= f_zz + 0.02,
            "decoherence {f_deco} vs zz-only {f_zz}"
        );
    }

    #[test]
    fn gate_coupling_is_dressed_not_charged() {
        // A circuit that is a single ZX90 on a 2-qubit device: the only
        // coupling hosts the gate, so no ZZ error applies at all and the
        // output is exactly ideal — the paper's Ũ₂ dressing (Sec 4.2).
        let topo = Topology::line(2);
        let mut c = zz_circuit::native::NativeCircuit::new(2);
        c.push(zz_circuit::native::NativeOp::Zx90 {
            control: 0,
            target: 1,
        });
        let plan = par_schedule(&topo, &c);
        let model = ZzErrorModel::uniform(&topo, crate::khz(400.0));
        let f = zz_fidelity(&plan, &topo, &model, &GateDurations::standard());
        assert!(
            (f - 1.0).abs() < 1e-12,
            "driven coupling must not be charged: {f}"
        );
    }

    #[test]
    fn undriven_coupling_is_still_charged_during_gates() {
        // Same gate, but on a 3-qubit line: the second coupling (1-2) has no
        // gate and must accrue crosstalk.
        let topo = Topology::line(3);
        let mut c = zz_circuit::native::NativeCircuit::new(3);
        // Put qubit 2 in superposition first so the 1-2 coupling matters.
        c.push(zz_circuit::native::NativeOp::X90 { qubit: 2 });
        c.push(zz_circuit::native::NativeOp::Zx90 {
            control: 0,
            target: 1,
        });
        let plan = par_schedule(&topo, &c);
        let model = ZzErrorModel::uniform(&topo, crate::khz(400.0));
        let f = zz_fidelity(&plan, &topo, &model, &GateDurations::standard());
        assert!(f < 1.0 - 1e-6, "undriven coupling must hurt: {f}");
    }

    #[test]
    fn per_op_residuals_are_looked_up_by_pulse_kind() {
        // One X90 next to an idle qubit: with a perfect x90 residual the
        // fidelity is 1 even at huge λ; with only a perfect id residual the
        // coupling stays unsuppressed (the pulsed side is the X90).
        let topo = Topology::line(2);
        let mut c = zz_circuit::native::NativeCircuit::new(2);
        c.push(zz_circuit::native::NativeOp::X90 { qubit: 0 });
        c.push(zz_circuit::native::NativeOp::X90 { qubit: 0 });
        let plan = par_schedule(&topo, &c);
        let d = GateDurations::standard();
        let lambda = crate::khz(2000.0);
        let x90_perfect = ZzErrorModel::uniform(&topo, lambda).with_residuals(ResidualTable {
            x90: 0.0,
            id: 1.0,
            zx90_control: 1.0,
            zx90_target: 1.0,
        });
        let id_perfect = ZzErrorModel::uniform(&topo, lambda).with_residuals(ResidualTable {
            x90: 1.0,
            id: 0.0,
            zx90_control: 1.0,
            zx90_target: 1.0,
        });
        let f_x = zz_fidelity(&plan, &topo, &x90_perfect, &d);
        let f_i = zz_fidelity(&plan, &topo, &id_perfect, &d);
        assert!((f_x - 1.0).abs() < 1e-12, "x90 residual must apply: {f_x}");
        assert!(
            f_i < 1.0 - 1e-6,
            "id residual must not apply to an X90: {f_i}"
        );
    }

    #[test]
    fn sample_counts_are_deterministic_per_seed() {
        let mut sv = crate::StateVector::zero(2);
        sv.apply_single(&zz_quantum::gates::h(), 0);
        let a = sv.sample_counts(100, &mut StdRng::seed_from_u64(5));
        let b = sv.sample_counts(100, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
        let total: usize = a.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn sampled_lambdas_are_reproducible_and_positive() {
        let topo = Topology::grid(3, 4);
        let a = ZzErrorModel::sampled(&topo, crate::khz(200.0), crate::khz(50.0), 42);
        let b = ZzErrorModel::sampled(&topo, crate::khz(200.0), crate::khz(50.0), 42);
        assert_eq!(a.lambdas, b.lambdas);
        assert!(a.lambdas.iter().all(|&l| l >= 0.0));
        let mean = a.lambdas.iter().sum::<f64>() / a.lambdas.len() as f64;
        assert!((mean - crate::khz(200.0)).abs() < crate::khz(60.0));
    }
}
