//! Property-based tests across the whole pipeline: random circuits stay
//! correct through routing, native compilation and both schedulers.
//!
//! Random circuits are drawn from the workspace PRNG with per-case seeds.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zz_circuit::native::compile_to_native;
use zz_circuit::{route, Circuit, Gate};
use zz_quantum::gates::equal_up_to_phase;
use zz_sched::par_schedule;
use zz_sched::zzx::{zzx_schedule, ZzxConfig};
use zz_sched::{GateDurations, SchedulePlan};
use zz_sim::executor::ZzErrorModel;
use zz_sim::program::PlanProgram;
use zz_topology::Topology;

/// Fidelity of the ZZ-noisy output of `plan` against its ideal output.
fn zz_fidelity(
    plan: &SchedulePlan,
    topo: &Topology,
    model: &ZzErrorModel,
    durations: &GateDurations,
) -> f64 {
    let ideal = PlanProgram::ideal(plan).run();
    ideal.fidelity(&PlanProgram::compile(plan, topo, model, durations).run())
}

/// Pushes one random gate acting on up to `n` qubits.
fn push_arb_op(rng: &mut StdRng, c: &mut Circuit, n: usize) {
    if rng.gen_bool(0.5) {
        let q = rng.gen_range(0..n);
        let gate = match rng.gen_range(0..8usize) {
            0 => Gate::H,
            1 => Gate::X,
            2 => Gate::T,
            3 => Gate::S,
            4 => Gate::Rx(0.7),
            5 => Gate::Rz(1.3),
            6 => Gate::Ry(-0.4),
            _ => Gate::U3(0.3, 1.1, -0.8),
        };
        c.push(gate, &[q]);
    } else {
        let a = rng.gen_range(0..n);
        let mut b = rng.gen_range(0..n);
        if a == b {
            b = (b + 1) % n;
        }
        let gate = match rng.gen_range(0..4usize) {
            0 => Gate::Cnot,
            1 => Gate::Cz,
            2 => Gate::Rzz(0.9),
            _ => Gate::Swap,
        };
        c.push(gate, &[a, b]);
    }
}

fn arb_circuit(rng: &mut StdRng, n: usize, max_len: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..rng.gen_range(1..max_len) {
        push_arb_op(rng, &mut c, n);
    }
    c
}

#[test]
fn random_circuits_compile_correctly() {
    for case in 0..24u64 {
        let rng = &mut StdRng::seed_from_u64(case);
        let circuit = arb_circuit(rng, 5, 12);
        let topo = Topology::grid(2, 3);
        let native = compile_to_native(&route(&circuit, &topo));
        let reference = native.unitary();

        let par = par_schedule(&topo, &native);
        assert!(par.validate().is_ok(), "case {case}");
        assert!(
            equal_up_to_phase(&par.unitary(), &reference, 1e-7),
            "case {case}"
        );

        let zzx = zzx_schedule(&topo, &native, &ZzxConfig::paper_default(&topo));
        assert!(zzx.validate().is_ok(), "case {case}");
        assert!(
            equal_up_to_phase(&zzx.unitary(), &reference, 1e-7),
            "case {case}"
        );
    }
}

#[test]
fn zzxsched_never_regresses_suppression() {
    for case in 0..24u64 {
        let rng = &mut StdRng::seed_from_u64(case);
        let circuit = arb_circuit(rng, 6, 16);
        let topo = Topology::grid(2, 3);
        let native = compile_to_native(&route(&circuit, &topo));
        let par = par_schedule(&topo, &native);
        let zzx = zzx_schedule(&topo, &native, &ZzxConfig::paper_default(&topo));
        assert!(zzx.mean_nc() <= par.mean_nc() + 1e-9, "case {case}");
    }
}

#[test]
fn suppression_translates_into_fidelity() {
    for case in 0..24u64 {
        let rng = &mut StdRng::seed_from_u64(case);
        let circuit = arb_circuit(rng, 6, 14);
        // With a tiny residual factor, the ZZXSched plan must be at least
        // as good as ParSched under the same disorder sample.
        let topo = Topology::grid(2, 3);
        let native = compile_to_native(&route(&circuit, &topo));
        let model = ZzErrorModel::sampled(&topo, zz_sim::khz(200.0), zz_sim::khz(50.0), 5)
            .with_residual(0.005);
        let d = GateDurations::standard();
        let par = par_schedule(&topo, &native);
        let zzx = zzx_schedule(&topo, &native, &ZzxConfig::paper_default(&topo));
        let f_par = zz_fidelity(&par, &topo, &model, &d);
        let f_zzx = zz_fidelity(&zzx, &topo, &model, &d);
        // Allow a tiny tolerance: layer structure can shuffle which exact
        // couplings fire, but the aggregate must not collapse.
        assert!(
            f_zzx >= f_par - 0.05,
            "case {case}: zzx {f_zzx} vs par {f_par}"
        );
    }
}

#[test]
fn fidelity_is_monotone_in_crosstalk_strength() {
    for seed in 0u64..50 {
        let topo = Topology::grid(2, 2);
        let circuit = zz_circuit::bench::generate(zz_circuit::bench::BenchmarkKind::Qft, 4, seed);
        let native = compile_to_native(&route(&circuit, &topo));
        let plan = par_schedule(&topo, &native);
        let d = GateDurations::standard();
        let weak = ZzErrorModel::uniform(&topo, zz_sim::khz(50.0));
        let strong = ZzErrorModel::uniform(&topo, zz_sim::khz(400.0));
        let f_weak = zz_fidelity(&plan, &topo, &weak, &d);
        let f_strong = zz_fidelity(&plan, &topo, &strong, &d);
        assert!(
            f_weak >= f_strong - 1e-9,
            "seed {seed}: weak {f_weak} vs strong {f_strong}"
        );
    }
}
