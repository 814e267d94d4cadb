//! Integration tests of the compile-path scaling work: large devices
//! compile through the full service stack, evaluation stays gated at
//! the 12-device-qubit ceiling, the scale-facing observability counters
//! (`route.graph_reuse`, `sched.distance_queries`,
//! `sched.suppression_solves`) surface in the
//! session's metrics registry, and the `bench_scale` device ladder's
//! plans are pinned exactly.
//!
//! The compile/eval split these tests pin down: a [`Target`] may be as
//! large as topology construction allows — routing and scheduling are
//! polynomial — while *evaluation*, which simulates the device
//! register, is exponential and refuses devices above
//! `zz_core::evaluate::MAX_EVAL_QUBITS` with a typed [`Error::Eval`] at
//! evaluation time, never at target construction or compile time.

use zz_bench::{brickwork, scale_devices};
use zz_circuit::{Circuit, Gate};
use zz_core::{CompileOptions, SchedulerKind};
use zz_service::{CompileRequest, Error, EvalSpec, Session, Target};
use zz_topology::Topology;

/// A shallow entangling circuit on `n` qubits: one brickwork CNOT
/// round plus a medium-range CNOT so routing inserts SWAPs.
fn shallow_circuit(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.push(Gate::H, &[q]);
    }
    let mut q = 0;
    while q + 1 < n {
        c.push(Gate::Cnot, &[q, q + 1]);
        q += 2;
    }
    c.push(Gate::Cnot, &[0, n / 2]);
    c
}

#[test]
fn hundred_qubit_circuits_compile_through_the_session() {
    let target = Target::for_qubits(100).expect("large targets build");
    assert_eq!(target.topology().qubit_count(), 100); // 10×10
    let session = Session::new(target);

    let request = CompileRequest::new(shallow_circuit(100)).with_label("scale-100");
    let response = session.compile(&request).expect("compiles at 100 qubits");
    assert!(response.fidelity.is_none(), "no eval was requested");

    // The scheduler-metrics fidelity proxy is well-formed.
    let summary = response.plan_metrics();
    assert!(summary.layers > 0);
    assert!(summary.duration_ns > 0.0);
    assert!(summary.residual_zz_weight >= 0.0);
    assert!(summary.mean_nq >= 0.0 && summary.mean_nc >= 0.0);

    // Queued path: the same request through submit/wait.
    let handle = session.submit(request);
    assert!(handle.wait().is_ok());
}

#[test]
fn evaluation_above_the_ceiling_is_a_typed_eval_error() {
    let session = Session::new(Target::for_qubits(100).expect("builds"));
    let request = CompileRequest::new(shallow_circuit(100))
        .with_label("scale-eval")
        .with_eval(EvalSpec::paper_default());
    match session.compile(&request) {
        Err(Error::Eval { job, detail }) => {
            assert_eq!(job, "scale-eval");
            assert!(detail.contains("100 qubits"), "{detail}");
            assert!(detail.contains("plan_metrics"), "{detail}");
        }
        other => panic!("expected Eval, got {other:?}"),
    }
    // The same circuit without an EvalSpec still compiles: the ceiling
    // gates evaluation, not compilation.
    let compile_only = CompileRequest::new(shallow_circuit(100)).with_label("scale-eval");
    assert!(session.compile(&compile_only).is_ok());
}

#[test]
fn heavy_hex_devices_compile_under_both_schedulers() {
    // d = 5 is a 57-qubit heavy-hex lattice: big enough to be beyond
    // evaluation, small enough to keep the test fast.
    let target = Target::heavy_hex(5).expect("builds");
    let qubits = target.topology().qubit_count();
    assert!(qubits > 12, "heavy-hex d=5 is beyond the eval ceiling");
    let session = Session::new(target);
    for scheduler in [SchedulerKind::ParSched, SchedulerKind::ZzxSched] {
        let request = CompileRequest::new(shallow_circuit(qubits))
            .with_options(CompileOptions::default().with_scheduler(scheduler))
            .with_label(format!("hex-{scheduler}"));
        let response = session
            .compile(&request)
            .unwrap_or_else(|e| panic!("{scheduler} failed: {e}"));
        assert!(response.plan_metrics().layers > 0);
    }
}

#[test]
fn scale_counters_surface_in_the_session_registry() {
    let target = Target::builder()
        .topology(Topology::grid(3, 4))
        .build()
        .expect("builds");
    let session = Session::new(target);

    // First circuit: builds the device coupling graph (a miss).
    session
        .compile(&CompileRequest::new(shallow_circuit(12)).with_label("warm"))
        .expect("compiles");
    // Second, differently-shaped circuit: routing must reuse it.
    let mut other = shallow_circuit(12);
    other.push(Gate::X, &[3]);
    session
        .compile(&CompileRequest::new(other).with_label("reuse"))
        .expect("compiles");
    // A schedule on another session counts there, not here.
    Session::new(Target::for_qubits(4).expect("builds"))
        .compile(&CompileRequest::new(shallow_circuit(4)).with_label("elsewhere"))
        .expect("compiles");

    let snapshot = session.metrics().snapshot();
    assert!(
        snapshot.counter("route.graph_reuse").unwrap_or(0) >= 1,
        "second shape must hit the device-graph cache"
    );
    assert!(
        snapshot.counter("sched.distance_queries").unwrap_or(0) >= 1,
        "ZZXSched must report its lazy distance-oracle traffic"
    );
    assert!(
        snapshot.counter("sched.suppression_solves").unwrap_or(0) >= 2,
        "ZZXSched must report its suppression solves, at least one per schedule"
    );
    assert_eq!(
        snapshot.counter("sched.schedules"),
        Some(2),
        "each compile runs one schedule"
    );
}

/// The rungs ZZXSched is pinned on.
const ZZX_RUNGS: [&str; 2] = ["grid-4x4", "grid-8x8"];

/// The `bench_scale` device ladder ([`zz_bench::scale_devices`], each
/// rung compiling [`zz_bench::brickwork`]), pinned exactly: for every
/// rung × scheduler, the plan's layer count, its residual-ZZ weight and
/// the `sched.distance_queries` the compile made, and on the ZZXSched
/// rungs its `sched.suppression_solves`. These are deterministic counts,
/// so any change to routing, scheduling or the plan metrics shows here as
/// an exact diff.
///
/// ParSched runs on all six rungs, up to the 1071-qubit heavy-hex
/// lattice; ZZXSched runs on the two grids a debug build compiles in
/// well under a second (under ZZXSched, grid-16×16 and heavy-hex-d9
/// take 5–9 s each in debug). Each session counts only its own
/// schedules, so the other tests in this binary cannot move the pins.
#[test]
fn scale_ladder_plans_are_pinned() {
    let mut got = Vec::new();
    let mut solves = Vec::new();
    for (name, topo) in scale_devices() {
        let circuit = brickwork(topo.qubit_count());
        let target = Target::builder()
            .topology(topo)
            .build()
            .expect("in-memory targets always build");
        let session = Session::with_threads(target, 1);
        let counter = |name| session.metrics().snapshot().counter(name).unwrap_or(0);
        let queries = || counter("sched.distance_queries");
        for scheduler in [SchedulerKind::ParSched, SchedulerKind::ZzxSched] {
            if scheduler == SchedulerKind::ZzxSched && !ZZX_RUNGS.contains(&name.as_str()) {
                continue;
            }
            let before = queries();
            let solves_before = counter("sched.suppression_solves");
            let response = session
                .compile(
                    &CompileRequest::new(circuit.clone())
                        .with_options(CompileOptions::default().with_scheduler(scheduler)),
                )
                .unwrap_or_else(|e| panic!("{name}/{scheduler} failed to compile: {e}"));
            let plan = response.plan_metrics();
            got.push(format!(
                "{name} {scheduler}: {} layers, residual-ZZ {:?}, {} distance queries",
                plan.layers,
                plan.residual_zz_weight,
                queries() - before
            ));
            if scheduler == SchedulerKind::ZzxSched {
                let solved = counter("sched.suppression_solves") - solves_before;
                solves.push(format!("{name}: {solved} suppression solves"));
            }
        }
    }
    let expected = [
        "grid-4x4 ParSched: 18 layers, residual-ZZ 5800.0, 0 distance queries",
        "grid-4x4 ZZXSched: 31 layers, residual-ZZ 2880.0, 1264 distance queries",
        "grid-8x8 ParSched: 52 layers, residual-ZZ 104540.0, 0 distance queries",
        "grid-8x8 ZZXSched: 157 layers, residual-ZZ 137520.0, 103268 distance queries",
        "grid-16x16 ParSched: 88 layers, residual-ZZ 800380.0, 0 distance queries",
        "grid-31x31 ParSched: 288 layers, residual-ZZ 10605860.0, 0 distance queries",
        "heavy-hex-d9 ParSched: 343 layers, residual-ZZ 1278860.0, 0 distance queries",
        "heavy-hex-d21 ParSched: 509 layers, residual-ZZ 12266960.0, 0 distance queries",
    ];
    assert_eq!(got, expected, "the scale ladder moved:\n{}", got.join("\n"));
    let expected_solves = [
        "grid-4x4: 40 suppression solves",
        "grid-8x8: 260 suppression solves",
    ];
    assert_eq!(solves, expected_solves, "ZZXSched's solve count moved");
}
