//! Equivalence suite for the precompiled simulation engine.
//!
//! The engine in `zz_sim::program` replaces the straight-line executor
//! that swept the full amplitude array once per coupling per layer. This
//! suite pins the new engine against the shared **reference executor**
//! ([`zz_bench::reference`]), which reproduces the legacy semantics
//! literally (per-coupling ZZ sweeps, per-rotation phase passes, freshly
//! built gate matrices), across the full `(PulseMethod, SchedulerKind)`
//! compile matrix, and pins the Monte-Carlo fan's bit-identical
//! thread-count invariance.

use std::sync::Arc;

use zz_bench::reference;
use zz_circuit::bench::{generate, BenchmarkKind};
use zz_circuit::{Circuit, Gate};
use zz_core::evaluate::try_device_for;
use zz_core::{CompileOptions, Compiled, PassManager, PulseMethod, SchedulerKind};
use zz_sched::GateDurations;
use zz_sim::density::Decoherence;
use zz_sim::executor::ZzErrorModel;
use zz_sim::program::{PlanProgram, TrajectoryProgram, DIAG_TABLE_MAX_QUBITS};
use zz_sim::StateVector;
use zz_topology::Topology;

fn max_amp_diff(a: &StateVector, b: &StateVector) -> f64 {
    a.amplitudes()
        .iter()
        .zip(b.amplitudes())
        .map(|(&x, &y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn compile_case(method: PulseMethod, scheduler: SchedulerKind) -> Compiled {
    let n = 6;
    PassManager::builder()
        .topology(try_device_for(n).expect("paper size"))
        .options(CompileOptions::new(method, scheduler))
        .build()
        .run(Arc::new(generate(BenchmarkKind::Qaoa, n, 7)))
        .expect("benchmark sized to the device")
        .compiled
}

/// Every `(PulseMethod, SchedulerKind)` cell: the precompiled engine must
/// match the per-coupling reference executor amplitude-for-amplitude.
#[test]
fn engine_matches_reference_across_the_compile_matrix() {
    for method in [
        PulseMethod::Gaussian,
        PulseMethod::OptCtrl,
        PulseMethod::Pert,
        PulseMethod::Dcg,
    ] {
        for scheduler in [SchedulerKind::ParSched, SchedulerKind::ZzxSched] {
            let compiled = compile_case(method, scheduler);
            let topo = &compiled.topology;
            let model = ZzErrorModel::sampled(topo, zz_sim::khz(200.0), zz_sim::khz(50.0), 11)
                .with_residuals(compiled.residuals);

            let ideal_new = PlanProgram::ideal(&compiled.plan).run();
            let ideal_ref = reference::run_ideal(&compiled.plan);
            let d_ideal = max_amp_diff(&ideal_new, &ideal_ref);
            assert!(d_ideal <= 1e-12, "{method}+{scheduler}: ideal Δ={d_ideal}");

            let noisy_new =
                PlanProgram::compile(&compiled.plan, topo, &model, &compiled.durations).run();
            let noisy_ref =
                reference::run_with_zz(&compiled.plan, topo, &model, &compiled.durations);
            let d_noisy = max_amp_diff(&noisy_new, &noisy_ref);
            assert!(d_noisy <= 1e-12, "{method}+{scheduler}: noisy Δ={d_noisy}");

            let f_new = ideal_new.fidelity(&noisy_new);
            let f_ref = ideal_ref.fidelity(&noisy_ref);
            assert!(
                (f_new - f_ref).abs() <= 1e-12,
                "{method}+{scheduler}: fidelity {f_new} vs {f_ref}"
            );
        }
    }
}

/// A reused program must give the same answer as a freshly compiled one.
#[test]
fn precompiled_program_is_reusable() {
    let compiled = compile_case(PulseMethod::Pert, SchedulerKind::ZzxSched);
    let topo = &compiled.topology;
    let model = ZzErrorModel::sampled(topo, zz_sim::khz(200.0), zz_sim::khz(50.0), 23)
        .with_residuals(compiled.residuals);
    let program = PlanProgram::compile(&compiled.plan, topo, &model, &compiled.durations);
    let once = program.run();
    let twice = program.run();
    assert_eq!(max_amp_diff(&once, &twice), 0.0, "replay must be exact");
    let fresh = PlanProgram::compile(&compiled.plan, topo, &model, &compiled.durations).run();
    assert_eq!(max_amp_diff(&once, &fresh), 0.0);
}

/// The Monte-Carlo fan must be bit-identical for 1, 2 and 8 threads: the
/// per-trajectory seeds are derived deterministically and the reduction
/// is ordered, so the pool width cannot leak into the result.
#[test]
fn monte_carlo_fidelity_is_bit_identical_across_thread_counts() {
    // 9 qubits: the size evaluate() routes to the Monte-Carlo path.
    let topo = Topology::grid(3, 3);
    let circuit = generate(BenchmarkKind::Qaoa, 9, 7);
    let native = zz_circuit::native::compile_to_native(&zz_circuit::route(&circuit, &topo));
    let plan = zz_sched::par_schedule(&topo, &native);
    let model =
        ZzErrorModel::sampled(&topo, zz_sim::khz(200.0), zz_sim::khz(50.0), 5).with_residual(0.05);
    let deco = Decoherence::equal_us(200.0);
    let program =
        TrajectoryProgram::compile(&plan, &topo, &model, &deco, &GateDurations::standard());
    let ideal = PlanProgram::ideal(&plan).run();
    let fan = |threads| program.mean_fidelity(&ideal, 48, 17, threads);

    let f1 = fan(1);
    let f2 = fan(2);
    let f8 = fan(8);
    assert_eq!(f1.to_bits(), f2.to_bits(), "1 vs 2 threads: {f1} vs {f2}");
    assert_eq!(f1.to_bits(), f8.to_bits(), "1 vs 8 threads: {f1} vs {f8}");
    // The machine's default pool width rides the same derivation.
    let f_default = fan(zz_pool::default_threads());
    assert_eq!(f1.to_bits(), f_default.to_bits());
    assert!(f1 > 0.0 && f1 <= 1.0 + 1e-9, "fidelity {f1}");
}

/// The batched Monte-Carlo fan must be bit-identical across every batch
/// width × thread count combination on the 9-qubit workload: each lane's
/// arithmetic never mixes with its neighbours and the reduction stays in
/// trajectory order, so neither knob can leak into the result.
#[test]
fn monte_carlo_fidelity_is_bit_identical_across_batch_widths() {
    let topo = Topology::grid(3, 3);
    let circuit = generate(BenchmarkKind::Qaoa, 9, 7);
    let native = zz_circuit::native::compile_to_native(&zz_circuit::route(&circuit, &topo));
    let plan = zz_sched::par_schedule(&topo, &native);
    let model =
        ZzErrorModel::sampled(&topo, zz_sim::khz(200.0), zz_sim::khz(50.0), 5).with_residual(0.05);
    let deco = Decoherence::equal_us(200.0);
    let trajectories = 48;
    let program =
        TrajectoryProgram::compile(&plan, &topo, &model, &deco, &GateDurations::standard());
    let ideal = PlanProgram::ideal(&plan).run();

    let (reference, _) = program.mean_fidelity_batched(&ideal, trajectories, 17, 1, 1);
    for lanes in [1, 3, 8, trajectories] {
        for threads in [1, 2, 8] {
            let (f, _) = program.mean_fidelity_batched(&ideal, trajectories, 17, threads, lanes);
            assert_eq!(
                reference.to_bits(),
                f.to_bits(),
                "lanes={lanes} threads={threads}: {reference} vs {f}"
            );
        }
    }
    assert!(reference > 0.0 && reference <= 1.0 + 1e-9);
}

/// Every `(PulseMethod, SchedulerKind)` cell through the **batched**
/// trajectory path: with decoherence switched off, every trajectory is
/// the deterministic evolution, so the batched mean must agree with the
/// reference executor's fidelity to ≤1e-12.
#[test]
fn batched_trajectories_match_reference_across_the_compile_matrix() {
    for method in [
        PulseMethod::Gaussian,
        PulseMethod::OptCtrl,
        PulseMethod::Pert,
        PulseMethod::Dcg,
    ] {
        for scheduler in [SchedulerKind::ParSched, SchedulerKind::ZzxSched] {
            let compiled = compile_case(method, scheduler);
            let topo = &compiled.topology;
            let model = ZzErrorModel::sampled(topo, zz_sim::khz(200.0), zz_sim::khz(50.0), 11)
                .with_residuals(compiled.residuals);
            let deco = Decoherence::new(f64::INFINITY, f64::INFINITY);
            let program = TrajectoryProgram::compile(
                &compiled.plan,
                topo,
                &model,
                &deco,
                &compiled.durations,
            );
            let ideal_ref = reference::run_ideal(&compiled.plan);
            let noisy_ref =
                reference::run_with_zz(&compiled.plan, topo, &model, &compiled.durations);
            let f_ref = ideal_ref.fidelity(&noisy_ref);
            let (f_batched, _) = program.mean_fidelity_batched(&ideal_ref, 6, 3, 1, 4);
            assert!(
                (f_batched - f_ref).abs() <= 1e-12,
                "{method}+{scheduler}: batched {f_batched} vs reference {f_ref}"
            );
        }
    }
}

/// A 17-qubit GHZ plan crosses the `DIAG_TABLE_MAX_QUBITS` boundary, so
/// every fused diagonal runs through the per-term fallback — which must
/// still match the reference executor amplitude-for-amplitude.
#[test]
fn seventeen_qubit_ghz_exercises_the_diag_fallback_against_reference() {
    let n = DIAG_TABLE_MAX_QUBITS + 1;
    let topo = Topology::line(n);
    let mut circuit = Circuit::new(n);
    circuit.push(Gate::H, &[0]);
    for q in 1..n {
        circuit.push(Gate::Cnot, &[q - 1, q]);
    }
    let native = zz_circuit::native::compile_to_native(&zz_circuit::route(&circuit, &topo));
    let plan = zz_sched::par_schedule(&topo, &native);
    let model =
        ZzErrorModel::sampled(&topo, zz_sim::khz(200.0), zz_sim::khz(50.0), 13).with_residual(0.05);
    let d = GateDurations::standard();

    let noisy_new = PlanProgram::compile(&plan, &topo, &model, &d).run();
    let noisy_ref = reference::run_with_zz(&plan, &topo, &model, &d);
    let diff = max_amp_diff(&noisy_new, &noisy_ref);
    assert!(diff <= 1e-12, "17-qubit fallback Δ={diff}");
}
