//! Integration tests of the service layer (`zz_service`):
//!
//! * **Typed error paths** — oversized circuits, unwritable cache
//!   directories, degenerate evaluation specs and failing jobs inside
//!   `run` come back as typed `zz_service::Error` variants, never as
//!   panics, through both the synchronous and the queued paths.
//! * **Legacy equivalence** — one shared session compiles the full
//!   `(PulseMethod, SchedulerKind)` matrix and non-default (α, k, R)
//!   requests to the exact `Compiled` bytes the retired sequential and
//!   batch facades produced (digests shared with `tests/golden_keys.rs`),
//!   through both the synchronous and the submit/wait paths.
//! * **Evaluation equivalence** — a request's in-queue fidelity matches
//!   `evaluate::fidelity_of` exactly.
//! * **Coalescing identity** — a shared request naming the default α and
//!   k joins an in-flight one that leaves them unset.
//! * **Digest collisions** — two circuits that differ only in their
//!   angles' signs share `content_digest` and `shape_key`; coalescing,
//!   the route memo and the whole-plan store each still give every
//!   circuit its own plan.
//!
//! What the pipeline compiles is also checked against the pre-pipeline
//! reference in `tests/pipeline.rs`.

mod common;

use std::sync::Arc;

use common::{codec_digest, matrix_cases, parameter_cases, CompileCase, PINNED_COMPILES};
use zz_circuit::bench::{generate, BenchmarkKind};
use zz_circuit::{Circuit, Gate};
use zz_core::calib::CalibCache;
use zz_core::evaluate::{fidelity_of, EvalConfig};
use zz_core::options::{DEFAULT_ALPHA, DEFAULT_K};
use zz_core::pipeline::shape_key;
use zz_core::{CoOptError, CompileOptions};
use zz_sched::Requirement;
use zz_service::{CompileRequest, DiskStatus, Error, EvalSpec, Session, Target};
use zz_sim::density::Decoherence;
use zz_topology::Topology;

/// Compiles every case through one session shared by the group, on the
/// caller's thread and through the queue, and checks both against the
/// `Compiled` digest the legacy facades produced for that request.
fn assert_session_matches_the_legacy_facades(cases: Vec<CompileCase>) {
    let session = Session::new(
        Target::builder()
            .topology(cases[0].1.clone())
            .build()
            .expect("no store"),
    );
    for (label, topology, circuit, options) in cases {
        assert_eq!(
            &topology,
            session.target().topology(),
            "{label}: one device per group"
        );
        let request = CompileRequest::new(circuit).with_options(options);
        let via_session = session.compile(&request).expect("fits").compiled;
        let via_queue = session.submit(request).wait().expect("fits").compiled;

        let legacy = PINNED_COMPILES
            .iter()
            .find(|pinned| pinned.0 == label)
            .expect("every case is pinned")
            .3;
        assert_eq!(
            codec_digest(&via_session),
            legacy,
            "{label}: session drifted from the legacy facades"
        );
        assert_eq!(
            via_session, via_queue,
            "{label}: queued path drifted from synchronous path"
        );
    }
}

#[test]
fn session_matches_the_legacy_facades_for_every_method_scheduler_pair() {
    assert_session_matches_the_legacy_facades(matrix_cases());
}

#[test]
fn session_matches_the_legacy_facades_for_non_default_parameters() {
    assert_session_matches_the_legacy_facades(parameter_cases());
}

#[test]
fn in_queue_evaluation_matches_the_legacy_eval_path() {
    let session = Session::new(Target::for_qubits(4).expect("fits"));
    let circuit = generate(BenchmarkKind::HiddenShift, 4, 7);
    let spec = EvalSpec::paper_default().with_seeds(vec![11, 23]);

    let response = session
        .compile(
            &CompileRequest::new(circuit.clone())
                .with_options(CompileOptions::default())
                .with_eval(spec),
        )
        .expect("fits");

    let legacy_cfg = EvalConfig {
        crosstalk_seeds: vec![11, 23],
        ..EvalConfig::paper_default()
    };
    let legacy = fidelity_of(&response.compiled, &legacy_cfg);
    assert_eq!(
        response.fidelity.expect("eval requested"),
        legacy,
        "in-queue evaluation drifted from evaluate::fidelity_of"
    );
}

/// Degenerate decoherence specs — zero or NaN times, NaN public fields, no
/// trajectories on a register that needs them — and unphysical target
/// crosstalk strengths are typed `Error::Eval`s naming the bad field, on
/// the caller's thread and through the queue.
#[test]
fn degenerate_decoherence_specs_are_typed_eval_errors() {
    let session = Session::with_threads(Target::for_qubits(9).expect("fits"), 1);
    let nan = Decoherence {
        t1: 200_000.0,
        t2: f64::NAN,
    };
    let cases = [
        (
            EvalSpec::paper_default().with_decoherence_us(200.0, 0),
            "trajectories",
        ),
        (EvalSpec::paper_default().with_decoherence_us(0.0, 8), "t1"),
        (
            EvalSpec::paper_default().with_decoherence_us(f64::NAN, 8),
            "t1",
        ),
        (
            EvalSpec {
                decoherence: Some((nan, 8, 97)),
                ..EvalSpec::paper_default()
            },
            "t2",
        ),
    ];
    for (spec, field) in cases {
        let request = CompileRequest::new(generate(BenchmarkKind::Qaoa, 9, 7))
            .with_eval(spec)
            .with_label("degenerate");
        let check = |result: Result<_, Error>| match result {
            Err(Error::Eval { job, detail }) => {
                assert_eq!(job, "degenerate");
                assert!(detail.contains(field), "{field} not named in: {detail}");
            }
            other => panic!("expected Eval naming {field}, got {other:?}"),
        };
        check(session.compile(&request));
        check(session.submit(request.clone()).wait());
        check(session.run([request]).outcomes.remove(0));
    }

    // Infinite times mean no decoherence and stay valid.
    let infinite = Decoherence {
        t1: f64::INFINITY,
        t2: f64::INFINITY,
    };
    let request = CompileRequest::new(generate(BenchmarkKind::Qaoa, 9, 7)).with_eval(EvalSpec {
        decoherence: Some((infinite, 4, 97)),
        ..EvalSpec::paper_default().with_seeds(vec![11])
    });
    let fidelity = session.compile(&request).expect("valid").fidelity;
    assert!(fidelity.is_some_and(|f| f > 0.0 && f <= 1.0 + 1e-9));

    // The crosstalk strength comes from the target: a mean or std that
    // is NaN, infinite or negative is refused the same way, instead of
    // being sampled (a NaN strength would clamp to 0 and score the plan
    // with no crosstalk at all).
    let (mean, std) = (zz_sim::khz(200.0), zz_sim::khz(50.0));
    for (lambda_mean, lambda_std, field) in [
        (f64::NAN, std, "lambda_mean"),
        (f64::INFINITY, std, "lambda_mean"),
        (-mean, std, "lambda_mean"),
        (mean, f64::NAN, "lambda_std"),
        (mean, f64::INFINITY, "lambda_std"),
        (mean, -std, "lambda_std"),
    ] {
        let target = Target::builder()
            .topology(Topology::grid(3, 3))
            .noise(lambda_mean, lambda_std)
            .build()
            .expect("no store");
        let session = Session::with_threads(target, 1);
        let request = CompileRequest::new(generate(BenchmarkKind::Qaoa, 9, 7))
            .with_eval(EvalSpec::paper_default().with_seeds(vec![11]))
            .with_label("crosstalk");
        let check = |result: Result<_, Error>| match result {
            Err(Error::Eval { job, detail }) => {
                assert_eq!(job, "crosstalk");
                assert!(detail.contains(field), "{field} not named in: {detail}");
            }
            other => panic!("expected Eval naming {field}, got {other:?}"),
        };
        check(session.compile(&request));
        check(session.submit(request.clone()).wait());
        check(session.run([request]).outcomes.remove(0));
    }
}

/// A Monte-Carlo in-queue evaluation (9 qubits forces the trajectory
/// path) must surface the batched engine's counters — trajectories,
/// kernel sweeps, per-batch run-time histogram — in the session registry
/// that `Client::stats()` ships, and only there: an idle session on the
/// same target counts none of that work.
#[test]
fn engine_metrics_surface_in_the_session_registry() {
    let target = Target::for_qubits(9).expect("fits");
    let session = Session::new(target.clone());
    let idle = Session::new(target);
    let circuit = generate(BenchmarkKind::Qaoa, 9, 7);
    let trajectories = 24;
    let spec = EvalSpec::paper_default()
        .with_seeds(vec![11])
        .with_decoherence_us(200.0, trajectories);

    let response = session
        .compile(
            &CompileRequest::new(circuit)
                .with_options(CompileOptions::default())
                .with_eval(spec),
        )
        .expect("fits");
    assert!(response.fidelity.is_some(), "eval was requested");

    let snapshot = session.metrics().snapshot();
    assert_eq!(
        snapshot.counter("engine.trajectories"),
        Some(trajectories as u64),
        "one seed of {trajectories} trajectories"
    );
    assert!(
        snapshot.counter("engine.kernel_sweeps").unwrap_or(0) > 0,
        "kernel sweep counter never moved"
    );
    let hist = snapshot
        .histogram("engine.batch.run_us")
        .expect("batch run-time histogram registered");
    // 24 trajectories at the default batch width of 16 is two batches.
    assert_eq!(hist.count, 2, "expected 2 batches, saw {}", hist.count);
    assert!(
        snapshot.counter("engine.diag.fused").is_some(),
        "fused-diagonal counter registered"
    );

    let idle = idle.metrics().snapshot();
    for name in [
        "engine.trajectories",
        "engine.kernel_sweeps",
        "sched.distance_queries",
        "sched.suppression_solves",
        "sched.schedules",
    ] {
        assert_eq!(
            idle.counter(name),
            Some(0),
            "the idle session counted {name}"
        );
    }
}

/// `H q0; Rx(θ) q1; CX q0,q2; Rz(θ) q3`: gate 1 is the first to carry θ.
fn angled(theta: f64) -> Circuit {
    let mut c = Circuit::new(4);
    c.push(Gate::H, &[0])
        .push(Gate::Rx(theta), &[1])
        .push(Gate::Cnot, &[0, 2])
        .push(Gate::Rz(theta), &[3]);
    c
}

/// A NaN or infinite gate angle has no unitary: validation rejects it,
/// naming the gate, on the synchronous and the queued path alike, where
/// it used to evaluate to a fidelity. Finite angles still evaluate.
#[test]
fn non_finite_angles_are_typed_validate_errors() {
    let session = Session::new(
        Target::builder()
            .topology(Topology::grid(2, 3))
            .build()
            .expect("no store"),
    );
    let request = |theta: f64| {
        CompileRequest::new(angled(theta))
            .with_label("angled")
            .with_eval(EvalSpec::paper_default())
    };
    for theta in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let expected = Error::Validate {
            job: "angled".to_string(),
            source: CoOptError::NonFiniteAngle { gate: 1 },
        };
        assert_eq!(session.compile(&request(theta)).unwrap_err(), expected);
        assert_eq!(session.submit(request(theta)).wait().unwrap_err(), expected);
    }
    for theta in [0.0, 0.3, -2.5, 1e300] {
        let response = session
            .compile(&request(theta))
            .expect("finite angles compile");
        let fidelity = response.fidelity.expect("evaluated");
        assert!(
            (0.0..=1.0 + 1e-9).contains(&fidelity),
            "θ={theta}: {fidelity}"
        );
    }
}

/// α NaN, infinite or negative, k = 0 and an unmeetable `R` are
/// rejected before scheduling, naming the option, on the synchronous and
/// the queued path alike; α = 0 stays valid.
#[test]
fn out_of_range_options_are_typed_validate_errors() {
    let session = Session::new(
        Target::builder()
            .topology(Topology::grid(2, 3))
            .build()
            .expect("no store"),
    );
    let request = |options| {
        CompileRequest::new(angled(0.3))
            .with_options(options)
            .with_label("knobs")
    };
    let unmeetable = Requirement {
        nq_limit: 0,
        nc_limit: 3,
    };
    let defaults = CompileOptions::default();
    for (options, field) in [
        (defaults.with_alpha(f64::NAN), "alpha"),
        (defaults.with_alpha(f64::INFINITY), "alpha"),
        (defaults.with_alpha(-1.0), "alpha"),
        (defaults.with_k(0), "k"),
        (defaults.with_requirement(unmeetable), "nq_limit"),
    ] {
        let expected = Error::Validate {
            job: "knobs".to_string(),
            source: CoOptError::InvalidOption {
                field: field.to_string(),
            },
        };
        assert_eq!(session.compile(&request(options)).unwrap_err(), expected);
        assert_eq!(
            session.submit(request(options)).wait().unwrap_err(),
            expected
        );
    }
    assert_eq!(
        session.metrics().snapshot().counter("sched.schedules"),
        Some(0)
    );
    session
        .compile(&request(defaults.with_alpha(0.0).with_k(1)))
        .expect("α = 0 and k = 1 compile");
}

#[test]
fn oversized_circuits_are_typed_validate_errors_never_panics() {
    let session = Session::new(
        Target::builder()
            .topology(Topology::grid(2, 2))
            .build()
            .expect("no store"),
    );
    let request = CompileRequest::new(Circuit::new(9)).with_label("nine-on-four");

    // Synchronous path.
    match session.compile(&request) {
        Err(Error::Validate { job, source }) => {
            assert_eq!(job, "nine-on-four");
            assert_eq!(
                source,
                CoOptError::CircuitTooLarge {
                    needed: 9,
                    available: 4
                }
            );
        }
        other => panic!("expected Validate, got {other:?}"),
    }

    // Queued path: the same typed error through the handle.
    let handle = session.submit(request);
    assert!(matches!(handle.wait(), Err(Error::Validate { .. })));

    // Target construction no longer rejects large devices: beyond the
    // paper's 12-qubit evaluation sub-grids, `for_qubits` scales to a
    // near-square compile-only grid (13 → 3×5 = 15 qubits).
    let large = Target::for_qubits(13).expect("large targets build");
    assert_eq!(large.topology().qubit_count(), 15);
}

#[test]
fn unwritable_cache_dir_is_a_typed_persist_error() {
    // A path under a regular file can never be created as a directory.
    let file = std::env::temp_dir().join(format!("zz-service-it-probe-{}", std::process::id()));
    std::fs::write(&file, b"occupied").expect("temp file");
    let result = Target::builder().store_dir(file.join("cache")).build();
    match result {
        Err(Error::Persist { detail }) => {
            assert!(detail.contains("cache"), "{detail}");
        }
        other => panic!("expected Persist, got {other:?}"),
    }
    let _ = std::fs::remove_file(&file);
}

#[test]
fn failing_jobs_inside_run_are_reported_in_order_not_panicking() {
    let session = Session::new(
        Target::builder()
            .topology(Topology::grid(2, 2))
            .build()
            .expect("no store"),
    );
    let report = session.run([
        CompileRequest::new(generate(BenchmarkKind::Qft, 4, 7)).with_label("ok-1"),
        CompileRequest::new(Circuit::new(9)).with_label("too-big"),
        CompileRequest::new(generate(BenchmarkKind::Qft, 4, 7)).with_label("ok-2"),
    ]);
    assert_eq!(report.outcomes.len(), 3);
    assert_eq!(report.error_count(), 1);
    assert!(report.outcomes[0].is_ok());
    match &report.outcomes[1] {
        Err(Error::Validate { job, .. }) => assert_eq!(job, "too-big"),
        other => panic!("expected Validate, got {other:?}"),
    }
    assert!(report.outcomes[2].is_ok());

    // The failure also surfaces through the typed fidelity accessor.
    assert!(matches!(
        report.fidelities(),
        Err(Error::Eval { .. } | Error::Validate { .. })
    ));
}

#[test]
fn sweeps_share_one_routing_pass_through_the_session_memo() {
    let session = Session::with_threads(
        Target::builder()
            .topology(Topology::grid(3, 3))
            .build()
            .expect("no store"),
        1, // deterministic hit/miss split
    );
    let circuit = Arc::new(generate(BenchmarkKind::Qaoa, 9, 7));
    let report = session.run([0.0, 0.25, 0.5, 1.0].map(|alpha| {
        CompileRequest::shared(Arc::clone(&circuit))
            .with_options(CompileOptions::default().with_alpha(alpha))
            .with_label(format!("alpha-{alpha}"))
    }));
    assert_eq!(report.error_count(), 0, "{report}");
    assert_eq!(report.route_misses, 1, "{report}");
    assert_eq!(report.route_hits, 3, "{report}");
    assert_eq!(session.memoized_shapes(), 1);
}

/// A session with no store on the 2×2 grid.
fn grid_session(threads: usize) -> Session {
    Session::with_threads(
        Target::builder()
            .topology(Topology::grid(2, 2))
            .build()
            .expect("no store"),
        threads,
    )
}

/// `H q0; Rz(0.3) q0; CX q0,q1; Rz(0.7) q1` and the same circuit with
/// both angles negated. Word-wise FNV-1a never carries a difference in a
/// word's high bits (here the sign) into its low bits, so the two
/// circuits share `content_digest` and `shape_key`.
fn colliding_pair() -> (Circuit, Circuit) {
    let build = |sign: f64| {
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0])
            .push(Gate::Rz(sign * 0.3), &[0])
            .push(Gate::Cnot, &[0, 1])
            .push(Gate::Rz(sign * 0.7), &[1]);
        c
    };
    let (a, b) = (build(1.0), build(-1.0));
    assert_ne!(a, b);
    let grid = Topology::grid(2, 2);
    assert_eq!(shape_key(&a, &grid), shape_key(&b, &grid), "no collision");
    (a, b)
}

/// The plan a fresh, store-less session compiles for `circuit`.
fn fresh_plan(circuit: &Circuit) -> zz_service::Compiled {
    grid_session(1)
        .compile(&CompileRequest::new(circuit.clone()))
        .expect("fits")
        .compiled
}

#[test]
fn coalescing_adopts_only_an_identical_request() {
    let (a, b) = colliding_pair();
    // One worker busy with an unrelated job: the second shared request
    // finds the first still in flight under the same coalescing key.
    let session = grid_session(1);
    let stuffer = session.submit(CompileRequest::new(generate(BenchmarkKind::Qft, 4, 7)));
    let first = session.submit_shared(CompileRequest::new(a.clone()).with_label("a"));
    let second = session.submit_shared(CompileRequest::new(b.clone()).with_label("b"));
    stuffer.wait().expect("fits");
    let (first, second) = (first.wait().expect("fits"), second.wait().expect("fits"));

    assert_eq!(first.label, "a");
    assert_eq!(second.label, "b", "b adopted a's job");
    assert_eq!(
        session
            .metrics()
            .snapshot()
            .counter("session.coalesce.follower"),
        Some(0)
    );
    assert_eq!(first.compiled, fresh_plan(&a));
    assert_eq!(second.compiled, fresh_plan(&b));
    assert_ne!(first.compiled, second.compiled);
}

#[test]
fn naming_the_default_alpha_and_k_coalesces_with_leaving_them_unset() {
    // One worker busy with an unrelated job: all three shared requests
    // find the first still in flight.
    let session = grid_session(1);
    let stuffer = session.submit(CompileRequest::new(generate(BenchmarkKind::Qft, 4, 7)));
    let circuit = Arc::new(generate(BenchmarkKind::Qaoa, 4, 7));
    let named = CompileOptions::default()
        .with_alpha(DEFAULT_ALPHA)
        .with_k(DEFAULT_K);
    let handles = [
        CompileRequest::shared(Arc::clone(&circuit)),
        CompileRequest::shared(Arc::clone(&circuit)).with_options(named),
        CompileRequest::shared(circuit),
    ]
    .map(|request| session.submit_shared(request));
    stuffer.wait().expect("fits");
    let ids = handles.map(|handle| handle.wait().expect("fits").request_id);

    assert_eq!(ids, [ids[0]; 3], "one execution for all three");
    assert_eq!(
        session
            .metrics()
            .snapshot()
            .counter("session.coalesce.follower"),
        Some(2)
    );
}

#[test]
fn route_memo_keeps_colliding_circuits_apart() {
    let (a, b) = colliding_pair();
    let session = grid_session(1);
    let report = session.run([&a, &b].map(|c| CompileRequest::new(c.clone())));
    assert_eq!(report.error_count(), 0, "{report}");
    assert_eq!(report.route_misses, 2, "{report}");
    assert_eq!(session.memoized_shapes(), 2, "one memo slot per circuit");
    for (response, circuit) in report.successes().zip([&a, &b]) {
        assert_eq!(response.compiled, fresh_plan(circuit));
    }
}

#[test]
fn whole_plan_store_rejects_a_colliding_artifact() {
    let (a, b) = colliding_pair();
    let dir = std::env::temp_dir().join(format!("zz-service-it-collision-{}", std::process::id()));
    let session = Session::new(
        Target::builder()
            .topology(Topology::grid(2, 2))
            .store_dir(&dir)
            .calib_cache(Arc::new(CalibCache::new()))
            .build()
            .expect("scratch directory is writable"),
    );
    let first = session
        .compile(&CompileRequest::new(a.clone()))
        .expect("fits");
    assert_eq!(first.disk, DiskStatus::Miss);
    // Both circuits key the same artifact: the second reads the first
    // one's, rejects it and compiles (and publishes) its own plan.
    let second = session
        .compile(&CompileRequest::new(b.clone()))
        .expect("fits");
    let artifacts = std::fs::read_dir(dir.join("compiled"))
        .expect("plans were published")
        .count();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(artifacts, 1, "the pair shares one artifact key");
    assert_eq!(second.disk, DiskStatus::Miss);
    assert_eq!(first.compiled, fresh_plan(&a));
    assert_eq!(second.compiled, fresh_plan(&b));
}

/// Evaluation is timed on its own, so a density-matrix evaluation (≤ 8
/// device qubits with decoherence), which reports no engine work, still
/// shows in the session registry.
#[test]
fn evaluation_time_is_recorded_on_its_own() {
    let session = grid_session(1);
    let circuit = generate(BenchmarkKind::Qft, 4, 7);
    let eval_count = |session: &Session| {
        session
            .metrics()
            .snapshot()
            .histogram("session.eval.wall_us")
            .expect("eval histogram registered")
            .count
    };
    session
        .compile(&CompileRequest::new(circuit.clone()))
        .expect("fits");
    assert_eq!(eval_count(&session), 0, "a compile alone evaluates nothing");

    let spec = EvalSpec::paper_default()
        .with_seeds(vec![11])
        .with_decoherence_us(50.0, 24);
    let response = session
        .compile(&CompileRequest::new(circuit).with_eval(spec))
        .expect("fits");
    assert!(response.fidelity.is_some());
    assert_eq!(eval_count(&session), 1);
    let snapshot = session.metrics().snapshot();
    assert_eq!(snapshot.counter("engine.trajectories"), Some(0));
}
