//! Integration tests of batch compilation through a session's queue: a
//! submitted batch must be bit-identical to sequential compilation, and
//! the shared caches must actually share.

use std::sync::Arc;

use zz_circuit::bench::{generate, BenchmarkKind};
use zz_core::calib::CalibCache;
use zz_core::PassManager;
use zz_service::{CompileOptions, CompileRequest, PulseMethod, SchedulerKind, Session, Target};
use zz_topology::Topology;

/// The suite used by both tests: every core benchmark at its smallest
/// paper size, under three pulse × scheduler configurations.
fn suite() -> Vec<(BenchmarkKind, usize, PulseMethod, SchedulerKind)> {
    let configs = [
        (PulseMethod::Gaussian, SchedulerKind::ParSched),
        (PulseMethod::Pert, SchedulerKind::ZzxSched),
        (PulseMethod::Dcg, SchedulerKind::ZzxSched),
    ];
    BenchmarkKind::CORE
        .iter()
        .map(|&kind| (kind, kind.paper_sizes()[0]))
        .flat_map(|(kind, n)| configs.iter().map(move |&(m, s)| (kind, n, m, s)))
        .collect()
}

/// A session over `topo` with process-wide calibration and no store.
fn session(topo: Topology) -> Session {
    Session::new(Target::builder().topology(topo).build().expect("no store"))
}

#[test]
fn batch_results_are_identical_to_sequential_compilation() {
    let topo = Topology::grid(3, 3);
    let cases = suite();

    // Sequential reference: one fresh pass manager (no shared memo) per
    // case.
    let sequential: Vec<_> = cases
        .iter()
        .map(|&(kind, n, method, scheduler)| {
            PassManager::builder()
                .topology(topo.clone())
                .options(CompileOptions::new(method, scheduler))
                .build()
                .run(Arc::new(generate(kind, n, 7)))
                .expect("fits the 3x3 grid")
                .compiled
        })
        .collect();

    // The same cases as one batch on the session's worker pool, sharing
    // its routing memo and calibration.
    let report = session(topo).run(cases.iter().map(|&(kind, n, method, scheduler)| {
        CompileRequest::new(generate(kind, n, 7))
            .with_options(CompileOptions::new(method, scheduler))
    }));

    assert_eq!(report.error_count(), 0, "{report}");
    assert!(
        report.route_hits > 0,
        "repeated circuit shapes must hit the routing memo: {report}"
    );
    for (case, (seq, outcome)) in cases.iter().zip(sequential.iter().zip(&report.outcomes)) {
        let batch = &outcome.as_ref().expect("compiled").compiled;
        // Bit-identical: the full Compiled (plan layers, Rz bookkeeping,
        // durations, residual table) compares equal field-for-field.
        assert_eq!(
            seq, batch,
            "case {case:?} diverged between batch and sequential"
        );
    }
}

#[test]
fn calibration_runs_at_most_once_per_method_per_process() {
    let cache = CalibCache::global();
    let requests = || -> Vec<CompileRequest> {
        [
            PulseMethod::Gaussian,
            PulseMethod::Pert,
            PulseMethod::Gaussian,
        ]
        .into_iter()
        .map(|m| {
            CompileRequest::new(generate(BenchmarkKind::Qft, 4, 7))
                .with_options(CompileOptions::new(m, SchedulerKind::ZzxSched))
        })
        .collect()
    };

    // Fill every slot deterministically first (idempotent): the sibling
    // test in this binary runs concurrently and also calibrates, so the
    // global counter is only stable once all methods are measured.
    for method in PulseMethod::ALL {
        cache.residuals(method);
    }
    let runs_before = cache.calibration_runs();
    assert!(
        runs_before <= PulseMethod::ALL.len(),
        "at most one measurement per method per process, got {runs_before}"
    );
    // A run's report counts the measurements made while it lasted.
    let session = session(Topology::grid(2, 2));

    // First batch: every method is already cached — zero new measurements,
    // regardless of how many jobs or workers used each.
    let first = session.run(requests());
    assert_eq!(first.error_count(), 0);
    assert_eq!(first.calibration_runs, 0, "{first}");

    // Second batch with the same methods: still fully served from the
    // shared cache.
    let second = session.run(requests());
    assert_eq!(second.error_count(), 0);
    assert_eq!(second.calibration_runs, 0, "{second}");
    assert_eq!(cache.calibration_runs(), runs_before);

    // And a second session over a default target shares the same
    // process-wide cache.
    Session::new(Target::for_qubits(4).expect("fits"))
        .compile(&requests()[1])
        .expect("fits");
    assert_eq!(cache.calibration_runs(), runs_before);
}
