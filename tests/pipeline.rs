//! Integration tests of the pass-based pipeline (`zz_core::pipeline`):
//!
//! * **Equivalence matrix** — pipeline output must be bit-identical to
//!   the pre-pipeline compile sequence (re-implemented verbatim here as
//!   `legacy_compile`) for every `(PulseMethod, SchedulerKind)`
//!   combination, through both entry points: `PassManager::run` and a
//!   service `Session`.
//! * **Caching** — an α/k-only parameter sweep in one session re-runs
//!   *zero* route/lower passes after its first job: every other job is
//!   served by the route memo, while scheduling re-runs for every sweep
//!   point. Across sessions over one store only whole plans come from
//!   disk: a repeated α runs no stage beyond validation, a new α routes
//!   once.
//! * **Per-pass units** — route-only and schedule-only runs using the
//!   typed stage artifacts.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use zz_circuit::bench::{generate, BenchmarkKind};
use zz_circuit::native::compile_to_native;
use zz_circuit::{route, Circuit};
use zz_core::calib::{self, CalibCache};
use zz_core::pipeline::{
    scheduler_pass_for, CacheDisposition, Logical, LowerPass, PassManager, PipelineTrace,
    RoutePass, StageArtifact, ValidatePass,
};
use zz_core::{CoOptError, CompileOptions, Compiled, PulseMethod, SchedulerKind, Stage};
use zz_persist::ArtifactStore;
use zz_sched::zzx::{zzx_schedule, Requirement, ZzxConfig};
use zz_sched::{par_schedule, GateDurations};
use zz_service::{CompileRequest, Error, ServiceReport, Session, Target};
use zz_topology::Topology;

fn scratch_dir(label: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "zz-pipeline-it-{label}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The pre-pipeline compile body, reproduced verbatim: route → lower →
/// `match` on the scheduler → `match` on the method → assemble. The
/// pipeline must never drift from this.
fn legacy_compile(
    circuit: &Circuit,
    topo: &Topology,
    method: PulseMethod,
    scheduler: SchedulerKind,
    alpha: f64,
    k: usize,
    requirement: Option<Requirement>,
) -> Compiled {
    let routed = route(circuit, topo);
    let native = compile_to_native(&routed);
    let plan = match scheduler {
        SchedulerKind::ParSched => par_schedule(topo, &native),
        SchedulerKind::ZzxSched => {
            let config = ZzxConfig {
                alpha,
                k,
                requirement: requirement.unwrap_or_else(|| Requirement::paper_default(topo)),
            };
            zzx_schedule(topo, &native, &config)
        }
    };
    let durations = match method {
        PulseMethod::Dcg => GateDurations::dcg(),
        _ => GateDurations::standard(),
    };
    Compiled {
        plan,
        topology: topo.clone(),
        durations,
        method,
        residuals: calib::residuals(method),
    }
}

/// Every `(PulseMethod, SchedulerKind)` combination.
fn full_matrix() -> Vec<(PulseMethod, SchedulerKind)> {
    PulseMethod::ALL
        .iter()
        .flat_map(|&m| {
            [SchedulerKind::ParSched, SchedulerKind::ZzxSched]
                .into_iter()
                .map(move |s| (m, s))
        })
        .collect()
}

/// A session over `topo` with isolated calibration state, optionally
/// backed by a disk store, running one worker so cache hits and misses
/// split deterministically.
fn session(topo: &Topology, store: Option<&PathBuf>) -> Session {
    let mut target = Target::builder()
        .topology(topo.clone())
        .calib_cache(Arc::new(CalibCache::new()));
    if let Some(dir) = store {
        target = target.store(Arc::new(ArtifactStore::at(dir)));
    }
    Session::with_threads(target.build().expect("a given store never fails"), 1)
}

/// Compiles through a session over `topo` with process-wide calibration
/// (the calibration `legacy_compile` reads).
fn session_compile(topo: &Topology, circuit: &Circuit, options: CompileOptions) -> Compiled {
    let target = Target::builder()
        .topology(topo.clone())
        .build()
        .expect("no store");
    Session::with_threads(target, 1)
        .compile(&CompileRequest::new(circuit.clone()).with_options(options))
        .expect("fits")
        .compiled
}

/// The pipeline trace of a drained request.
fn trace(report: &ServiceReport, i: usize) -> &PipelineTrace {
    report.outcomes[i]
        .as_ref()
        .expect("compiled")
        .trace
        .as_ref()
        .expect("traced")
}

#[test]
fn pipeline_matches_the_legacy_path_for_every_method_scheduler_pair() {
    let topo = Topology::grid(2, 3);
    let circuit = generate(BenchmarkKind::Qaoa, 6, 7);
    for (method, scheduler) in full_matrix() {
        let reference = legacy_compile(&circuit, &topo, method, scheduler, 0.5, 3, None);

        // Entry point 1: the pass manager directly.
        let via_pipeline = PassManager::builder()
            .topology(topo.clone())
            .options(CompileOptions::new(method, scheduler))
            .build()
            .run(Arc::new(circuit.clone()))
            .expect("fits")
            .compiled;
        assert_eq!(
            reference, via_pipeline,
            "{method}+{scheduler}: pipeline drift"
        );

        // Entry point 2: the service session.
        let via_session = session_compile(&topo, &circuit, CompileOptions::new(method, scheduler));
        assert_eq!(
            reference, via_session,
            "{method}+{scheduler}: session drift"
        );
    }
}

#[test]
fn pipeline_matches_the_legacy_path_for_non_default_parameters() {
    let topo = Topology::grid(3, 3);
    let circuit = generate(BenchmarkKind::Qft, 9, 7);
    let req = Requirement {
        nq_limit: 3,
        nc_limit: 5,
    };
    for (alpha, k, requirement) in [(0.25, 1, None), (2.0, 8, Some(req))] {
        let reference = legacy_compile(
            &circuit,
            &topo,
            PulseMethod::Pert,
            SchedulerKind::ZzxSched,
            alpha,
            k,
            requirement,
        );
        let mut options = CompileOptions::default().with_alpha(alpha).with_k(k);
        if let Some(r) = requirement {
            options = options.with_requirement(r);
        }
        let via_pipeline = PassManager::builder()
            .topology(topo.clone())
            .options(options)
            .build()
            .run(Arc::new(circuit.clone()))
            .expect("fits")
            .compiled;
        assert_eq!(reference, via_pipeline, "alpha={alpha} k={k}: pipeline");
        let via_session = session_compile(&topo, &circuit, options);
        assert_eq!(reference, via_session, "alpha={alpha} k={k}: session");
    }
}

#[test]
fn alpha_k_sweep_reruns_zero_route_passes_in_process() {
    let session = session(&Topology::grid(3, 3), None);
    let circuit = Arc::new(generate(BenchmarkKind::Qaoa, 9, 7));
    let request = |options| CompileRequest::shared(Arc::clone(&circuit)).with_options(options);
    let requests: Vec<CompileRequest> = [0.0, 0.25, 0.5, 1.0]
        .into_iter()
        .map(|a| request(CompileOptions::default().with_alpha(a)))
        .chain(
            [1usize, 2, 5]
                .into_iter()
                .map(|k| request(CompileOptions::default().with_k(k))),
        )
        .collect();
    let sweep_points = requests.len();
    let report = session.run(requests);
    assert_eq!(report.error_count(), 0, "{report}");

    // Exactly one job routed; every other sweep point replayed the memo.
    let stats = report.stage_stats();
    let route = stats.iter().find(|s| s.stage == Stage::Route).unwrap();
    assert_eq!(route.executed, 1, "{report}");
    assert_eq!(route.cache_hits, sweep_points - 1, "{report}");
    let lower = stats.iter().find(|s| s.stage == Stage::Lower).unwrap();
    assert_eq!(lower.executed, 1, "{report}");

    // Scheduling can never be replayed across α/k changes: it ran for
    // every sweep point.
    let schedule = stats.iter().find(|s| s.stage == Stage::Schedule).unwrap();
    assert_eq!(schedule.executed, sweep_points, "{report}");
    assert_eq!(schedule.cache_hits, 0, "{report}");

    // The per-job traces agree with the aggregate.
    for i in 0..sweep_points {
        let trace = trace(&report, i);
        let expected = if i == 0 {
            CacheDisposition::NotCached
        } else {
            CacheDisposition::MemoryHit
        };
        assert_eq!(trace.pass(Stage::Route).unwrap().cache, expected, "job {i}");
        assert!(trace.executed(Stage::Schedule), "job {i}");
    }
}

#[test]
fn alpha_sweep_across_sessions_serves_whole_plans_from_disk() {
    let dir = scratch_dir("alpha-sweep");
    let topo = Topology::grid(2, 3);
    let job = |alpha: f64| {
        CompileRequest::new(generate(BenchmarkKind::Ising, 6, 7))
            .with_options(CompileOptions::default().with_alpha(alpha))
    };

    // The first session compiles one α and publishes its plan.
    let cold = session(&topo, Some(&dir)).run(vec![job(0.5)]);
    assert_eq!(cold.error_count(), 0, "{cold}");
    assert!(trace(&cold, 0).executed(Stage::Route), "{cold}");

    // A *new* session (fresh memo, fresh calibration) over the same
    // store: the α the first session compiled is a whole-plan disk hit,
    // so no stage beyond validation runs and the plan is bit-identical.
    let warm = session(&topo, Some(&dir)).run(vec![job(0.5), job(0.125), job(0.75)]);
    assert_eq!(warm.error_count(), 0, "{warm}");
    let replayed = trace(&warm, 0);
    assert_eq!(replayed.compiled_cache, CacheDisposition::DiskHit, "{warm}");
    let stages: Vec<Stage> = replayed.passes.iter().map(|p| p.stage).collect();
    assert_eq!(stages, [Stage::Validate], "{warm}");
    assert_eq!(
        warm.outcomes[0].as_ref().expect("served").compiled,
        cold.outcomes[0].as_ref().expect("compiled").compiled,
        "disk replay must be bit-identical"
    );

    // New α values miss the store, which holds no routed translation or
    // calibration table: the first one routes and calibrates, the second
    // hits the memo it filled, and both schedule.
    let first_new = trace(&warm, 1);
    assert_eq!(first_new.compiled_cache, CacheDisposition::Miss, "{warm}");
    // Executed stages record `NotCached` although a store is attached.
    for stage in [Stage::Route, Stage::Lower, Stage::Pulse] {
        assert_eq!(
            first_new.pass(stage).unwrap().cache,
            CacheDisposition::NotCached,
            "{stage}: {warm}"
        );
    }
    assert_eq!(
        trace(&warm, 2).pass(Stage::Route).unwrap().cache,
        CacheDisposition::MemoryHit,
        "{warm}"
    );
    let stats = warm.stage_stats();
    let executed = |stage| stats.iter().find(|s| s.stage == stage).unwrap().executed;
    assert_eq!(executed(Stage::Route), 1, "{warm}");
    assert_eq!(executed(Stage::Schedule), 2, "{warm}");
    assert_eq!(warm.calibration_runs, 1, "{warm}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn route_only_pass_produces_the_routed_artifact() {
    let topo = Topology::grid(2, 2);
    let circuit = Arc::new(generate(BenchmarkKind::Qft, 4, 7));
    let manager = PassManager::builder().topology(topo.clone()).build();
    let mut trace = PipelineTrace::default();

    let logical = manager
        .apply(
            &ValidatePass,
            Logical {
                circuit: Arc::clone(&circuit),
            },
            CacheDisposition::NotCached,
            &mut trace,
        )
        .expect("fits");
    let routed = manager
        .apply(&RoutePass, logical, CacheDisposition::NotCached, &mut trace)
        .expect("route is infallible");

    // The typed artifact carries both the source and the routed circuit,
    // and matches a direct `route` call exactly.
    assert_eq!(*routed.source, *circuit);
    assert_eq!(routed.circuit, route(&circuit, &topo));
    assert_eq!(trace.passes.len(), 2);
    assert_eq!(trace.passes[1].stage, Stage::Route);
    assert_eq!(trace.passes[1].output_items, routed.items());

    // And lowering the routed artifact matches a direct translation.
    let native = manager
        .apply(&LowerPass, routed, CacheDisposition::NotCached, &mut trace)
        .expect("lower is infallible");
    assert_eq!(*native.circuit, compile_to_native(&route(&circuit, &topo)));
}

#[test]
fn schedule_only_run_skips_route_and_lower() {
    let topo = Topology::grid(2, 2);
    let circuit = generate(BenchmarkKind::Qft, 4, 7);
    let native = compile_to_native(&route(&circuit, &topo));

    // The scheduling stage on its own, over an already-native circuit…
    let options = CompileOptions::default();
    let plan = scheduler_pass_for(
        options.scheduler,
        options.alpha_or_default(),
        options.k_or_default(),
        options.requirement,
    )
    .schedule(&topo, &native);

    // …is exactly the plan the full pipeline schedules.
    let full = PassManager::builder()
        .topology(topo)
        .build()
        .run(Arc::new(circuit))
        .expect("fits");
    assert_eq!(plan, full.compiled.plan);
}

#[test]
fn oversized_circuits_error_through_both_entry_points() {
    let topo = Topology::grid(2, 2);
    let too_large = CoOptError::CircuitTooLarge {
        needed: 9,
        available: 4,
    };

    // The pass manager rejects in its validation pass…
    let manager = PassManager::builder().topology(topo.clone()).build();
    assert_eq!(
        manager.run(Arc::new(Circuit::new(9))).err(),
        Some(too_large.clone())
    );

    // …and a session surfaces the same cause as a typed `Validate` error.
    match session(&topo, None).compile(&CompileRequest::new(Circuit::new(9))) {
        Err(Error::Validate { source, .. }) => assert_eq!(source, too_large),
        other => panic!("expected Validate, got {other:?}"),
    }
}
