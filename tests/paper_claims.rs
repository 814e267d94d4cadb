//! Qualitative paper claims, asserted end to end.
//!
//! These tests pin the *shape* of the paper's results: who wins, what gets
//! suppressed, and the scalability properties — not the absolute numbers,
//! which depend on the substituted simulation substrate.

use zz_circuit::bench::{generate, BenchmarkKind};
use zz_circuit::native::{NativeCircuit, NativeOp};
use zz_core::calib;
use zz_pulse::library::{x90_drive, PulseMethod as PM};
use zz_pulse::systems::infidelity_1q;
use zz_sched::zzx::{zzx_schedule, ZzxConfig};
use zz_service::{
    CompileOptions, CompileRequest, CompileResponse, EvalSpec, PulseMethod, SchedulerKind, Session,
    Target,
};
use zz_topology::Topology;

/// Compiles benchmark `kind`-`n` (seed 7) on its paper evaluation device,
/// evaluating it over one disorder sample when `eval` is set.
fn run_benchmark(
    kind: BenchmarkKind,
    n: usize,
    method: PulseMethod,
    scheduler: SchedulerKind,
    eval: bool,
) -> CompileResponse {
    let mut request = CompileRequest::new(generate(kind, n, 7))
        .with_options(CompileOptions::new(method, scheduler));
    if eval {
        request = request.with_eval(EvalSpec::paper_default().with_seeds(vec![11]));
    }
    Session::with_threads(Target::for_qubits(n).expect("paper size"), 1)
        .compile(&request)
        .expect("fits")
}

/// The mean fidelity of [`run_benchmark`] with evaluation.
fn paper_fidelity(
    kind: BenchmarkKind,
    n: usize,
    method: PulseMethod,
    scheduler: SchedulerKind,
) -> f64 {
    run_benchmark(kind, n, method, scheduler, true)
        .fidelity
        .expect("eval requested")
}

/// Sec 5.1: complete suppression is achievable on bipartite topologies —
/// every single-qubit-gate layer scheduled by ZZXSched has NC = 0.
#[test]
fn claim_complete_suppression_on_bipartite_devices() {
    for topo in [
        Topology::grid(3, 4),
        Topology::grid(2, 3),
        Topology::line(7),
    ] {
        let mut native = NativeCircuit::new(topo.qubit_count());
        for q in 0..topo.qubit_count() {
            native.push(NativeOp::X90 { qubit: q });
        }
        let plan = zzx_schedule(&topo, &native, &ZzxConfig::paper_default(&topo));
        for (i, layer) in plan.layers.iter().enumerate() {
            assert_eq!(
                layer.metrics.nc,
                0,
                "layer {i} on {} not completely suppressed",
                topo.name()
            );
        }
    }
}

/// Fig 16: the pulse-method ordering at the typical device strength —
/// Pert ≤ OptCtrl/DCG ≪ Gaussian.
#[test]
fn claim_pulse_method_ordering() {
    let lambda = zz_pulse::khz(200.0);
    let inf = |m: PM| {
        let d = x90_drive(m);
        infidelity_1q(&d.as_drive(), &zz_quantum::gates::x90(), lambda)
    };
    let (gauss, optctrl, pert, dcg) = (
        inf(PM::Gaussian),
        inf(PM::OptCtrl),
        inf(PM::Pert),
        inf(PM::Dcg),
    );
    assert!(pert < optctrl, "Pert {pert} must beat OptCtrl {optctrl}");
    assert!(pert < dcg, "Pert {pert} must beat DCG {dcg}");
    assert!(
        optctrl < gauss / 5.0,
        "OptCtrl {optctrl} must beat Gaussian {gauss}"
    );
    assert!(dcg < gauss / 5.0, "DCG {dcg} must beat Gaussian {gauss}");
}

/// Fig 20, key result 2: the approach is insensitive to the pulse method —
/// OptCtrl+ZZXSched and Pert+ZZXSched land far closer to each other than
/// to the baseline.
#[test]
fn claim_insensitive_to_pulse_method() {
    let kind = BenchmarkKind::Grc;
    let n = 6;
    let base = paper_fidelity(kind, n, PulseMethod::Gaussian, SchedulerKind::ParSched);
    let opt = paper_fidelity(kind, n, PulseMethod::OptCtrl, SchedulerKind::ZzxSched);
    let pert = paper_fidelity(kind, n, PulseMethod::Pert, SchedulerKind::ZzxSched);
    assert!(
        (opt - pert).abs() < (pert - base).abs(),
        "methods should agree more with each other (opt {opt}, pert {pert}) than with the baseline ({base})"
    );
}

/// Fig 21: co-optimization beats each part alone (synergy).
#[test]
fn claim_synergy_of_co_optimization() {
    for (kind, n) in [(BenchmarkKind::Grc, 6), (BenchmarkKind::Ising, 6)] {
        let pulses_only = paper_fidelity(kind, n, PulseMethod::Pert, SchedulerKind::ParSched);
        let sched_only = paper_fidelity(kind, n, PulseMethod::Gaussian, SchedulerKind::ZzxSched);
        let both = paper_fidelity(kind, n, PulseMethod::Pert, SchedulerKind::ZzxSched);
        assert!(
            both + 1e-9 >= pulses_only && both + 1e-9 >= sched_only,
            "{kind}-{n}: both {both} vs pulses {pulses_only} / sched {sched_only}"
        );
    }
}

/// Fig 25: on tunable-coupler devices, the co-optimization slashes the
/// number of couplings that must be turned off.
#[test]
fn claim_fewer_couplings_to_turn_off() {
    let compiled = run_benchmark(
        BenchmarkKind::Qv,
        9,
        PulseMethod::Pert,
        SchedulerKind::ZzxSched,
        false,
    )
    .compiled;
    let baseline = compiled.topology.coupling_count() as f64;
    assert!(
        compiled.plan.mean_nc() < baseline / 3.0,
        "mean NC {} vs all-couplings baseline {baseline}",
        compiled.plan.mean_nc()
    );
}

/// Sec 7.2 / calib: the residual factors behind the circuit-level error
/// model keep the pulse-method hierarchy.
#[test]
fn claim_residual_hierarchy() {
    let g = calib::residual_factor(PulseMethod::Gaussian);
    let o = calib::residual_factor(PulseMethod::OptCtrl);
    let p = calib::residual_factor(PulseMethod::Pert);
    assert!(
        p < o && o < g,
        "hierarchy violated: pert {p}, optctrl {o}, gauss {g}"
    );
}

/// Sec 7.4 / Fig 27: protective identity pulses collapse the effective ZZ
/// strength measured by Ramsey interferometry.
#[test]
fn claim_ramsey_suppression() {
    use zz_pulse::ramsey::*;
    let cfg = RamseyConfig {
        blocks: 96,
        ..RamseyConfig::paper_default()
    };
    let bare = effective_zz_khz(RamseyCircuit::Original, NeighborGroup::Q1Only, &cfg);
    let protected = effective_zz_khz(RamseyCircuit::IdOnQ2, NeighborGroup::Q1Only, &cfg);
    assert!(
        bare > 150.0,
        "unprotected ZZ should be ≈200 kHz, got {bare}"
    );
    assert!(
        protected < 11.0,
        "protected ZZ should be <11 kHz, got {protected}"
    );
}
