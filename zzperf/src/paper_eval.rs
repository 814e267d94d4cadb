//! `paper_eval` — the paper's evaluation for Figs 20–22.
//!
//! A job set is one instance of each of the 21 core (kind, size) cases on
//! their paper sub-grids, crossed with the four (pulse method, scheduler)
//! configurations: 84 jobs. The seed draws a few job sets, and the rounds
//! cycle through them. Each round builds a fresh session and has two
//! closed-loop callers drive its 84 jobs, in a seeded order of the
//! round's own, through `Session::submit` → `JobHandle::wait` on a
//! 2-worker session. Every job is compiled and evaluated under the
//! paper's `EvalSpec` (3 disorder seeds, no decoherence), so the
//! simulator does almost all the work. Several job sets keep one seed's
//! instances from setting the run's figures; repeating them keeps the
//! reference check affordable — each distinct plan is checked once, and
//! every repeat must reproduce its plan's fidelity bit for bit.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use zz_circuit::bench::BenchmarkKind;
use zz_circuit::{Circuit, Gate};
use zz_core::calib::CalibCache;
use zz_core::pipeline::Stage;
use zz_service::{
    CompileOptions, CompileRequest, CompileResponse, Compiled, EvalSpec, PulseMethod,
    SchedulerKind, Session, Target,
};

use crate::checks::{check_fidelity, plan_digest};
use crate::harness::{
    derive, extra_setups, matched_instance, record_pipeline, Ctx, Observer, Pass, Rng, TraceBook,
    TracedRequest,
};
use crate::replay::{compare, eval_config, replay_in_parallel, RealPath, Replayer};
use crate::report::{HostMark, Run};
use crate::trace::{timed, Tracer};

/// Session workers.
const WORKERS: usize = 2;
/// Closed-loop callers.
const CALLERS: usize = 2;
/// Job sets the seed draws; round `r` runs set `r % JOB_SETS`.
const JOB_SETS: usize = 4;
/// The paper's disorder seeds (`EvalSpec::paper_default`).
pub const EVAL_SEEDS: [u64; 3] = [11, 23, 37];
/// The four (pulse method, scheduler) configurations of Figs 20–22.
pub const CONFIGS: [(PulseMethod, SchedulerKind); 4] = [
    (PulseMethod::Gaussian, SchedulerKind::ParSched),
    (PulseMethod::OptCtrl, SchedulerKind::ZzxSched),
    (PulseMethod::Pert, SchedulerKind::ZzxSched),
    (PulseMethod::Dcg, SchedulerKind::ZzxSched),
];

/// One job set: the 84 jobs drawn from `seed`.
fn jobs(seed: u64) -> Vec<CompileRequest> {
    let mut out = Vec::new();
    for kind in BenchmarkKind::CORE {
        for &n in kind.paper_sizes() {
            let circuit = Arc::new(matched_instance(kind, n, derive(seed, n as u64)));
            let device = Target::for_qubits(n)
                .expect("paper sizes fit the paper devices")
                .topology()
                .clone();
            for (method, scheduler) in CONFIGS {
                out.push(
                    CompileRequest::shared(Arc::clone(&circuit))
                        .with_options(CompileOptions::new(method, scheduler))
                        .on_device(device.clone())
                        .with_label(format!("{kind}-{n}/{method}+{scheduler}"))
                        .with_eval(EvalSpec::paper_default().with_seeds(EVAL_SEEDS.to_vec())),
                );
            }
        }
    }
    out
}

/// Builds the session, calibrates every pulse method and warms the
/// coupling graphs of the four paper sub-grids.
fn setup(tracer: Option<&Tracer>) -> Session {
    let target = Target::builder()
        .calib_cache(Arc::new(CalibCache::new()))
        .build()
        .expect("an in-memory target always builds");
    let session = Session::with_threads(target, WORKERS);
    for method in PulseMethod::ALL {
        let calibrate = || session.target().calib().residuals(method);
        timed(tracer, "calib.measure", None, 0, calibrate);
    }
    let mut pair = Circuit::new(2);
    pair.push(Gate::Cnot, &[0, 1]);
    for n in [4, 6, 9, 12] {
        let device = Target::for_qubits(n)
            .expect("paper sizes")
            .topology()
            .clone();
        session
            .compile(&CompileRequest::new(pair.clone()).on_device(device))
            .expect("a two-qubit warm-up compiles");
    }
    session
}

struct Done {
    index: usize,
    latency: Duration,
    result: Result<CompileResponse, String>,
}

/// Runs every round once (twice when traced: untraced, then traced on
/// the same inputs).
pub fn run(ctx: &Ctx, run: &mut Run, book: &mut TraceBook) {
    let rounds = crate::harness::rounds(ctx, 1);
    let sets: Vec<Vec<CompileRequest>> = (0..JOB_SETS)
        .map(|k| jobs(derive(ctx.seed, k as u64)))
        .collect();
    let inputs: Vec<Vec<CompileRequest>> = (0..rounds)
        .map(|r| {
            let mut round = sets[r % JOB_SETS].clone();
            Rng::new(derive(ctx.seed, r as u64)).shuffle(&mut round);
            round
        })
        .collect();
    run.note("session_workers", WORKERS);
    run.note("callers", CALLERS);
    run.note("rounds", rounds);
    run.note("jobs_per_round", inputs[0].len());
    run.note("job_sets", JOB_SETS.min(rounds));

    let mut plans: HashMap<u64, (Compiled, f64, String)> = HashMap::new();
    for (r, jobs) in inputs.iter().enumerate() {
        for _ in 0..extra_setups(ctx, rounds, r) {
            let start = Instant::now();
            drop(setup(None));
            run.setup_s.push(start.elapsed().as_secs_f64());
        }
        for &mode in Pass::for_run(ctx.trace) {
            let request_s = pass(jobs, mode, run, book, &mut plans);
            book.add_request_time(mode, request_s);
        }
    }

    run.note("distinct_plans_checked", plans.len());
    let plans: Vec<_> = plans.into_values().collect();
    for failure in crate::checks::in_parallel(&plans, |(compiled, fidelity, label)| {
        let target = Target::paper_default();
        check_fidelity(
            label,
            compiled,
            *fidelity,
            target.lambda_mean(),
            target.lambda_std(),
            &EVAL_SEEDS,
        )
    }) {
        run.fail_check(failure);
    }
}

/// One set-up plus one timed round; returns the summed request time.
fn pass(
    jobs: &[CompileRequest],
    mode: Pass,
    run: &mut Run,
    book: &mut TraceBook,
    plans: &mut HashMap<u64, (Compiled, f64, String)>,
) -> f64 {
    let tracer = book.tracer.clone().filter(|_| mode == Pass::Traced);
    let tracer = tracer.as_ref();
    let failed_before = run.failed;
    let start = Instant::now();
    let session = setup(tracer.map(|t| &**t));
    run.setup_s.push(start.elapsed().as_secs_f64());

    let before = session.metrics().snapshot();
    let observer = (mode == Pass::Baseline).then(Observer::new);
    let first_id = book.ids(jobs.len());
    let next = AtomicUsize::new(0);
    let host = HostMark::now();
    let t0 = Instant::now();
    let done: Vec<Done> = std::thread::scope(|s| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(index) else {
                            break;
                        };
                        let span = tracer.map(|t| t.open("request", None, first_id + index as u64));
                        let t = Instant::now();
                        let result = session.submit(job.clone()).wait();
                        let latency = t.elapsed();
                        if let (Some(t), Some(span)) = (tracer, span) {
                            t.close(span);
                        }
                        out.push(Done {
                            index,
                            latency,
                            result: result.map_err(|e| e.to_string()),
                        });
                    }
                    out
                })
            })
            .collect();
        callers
            .into_iter()
            .flat_map(|c| c.join().expect("caller threads do not panic"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let (cpu_ms, steal_ms) = host.since();
    // Submission order, so the exact sums repeat bit for bit.
    let mut done = done;
    done.sort_by_key(|d| d.index);

    let mut replays = Vec::new();
    let mut request_s = 0.0;
    let mut layers = 0u64;
    let mut amp_updates = 0u64;
    for d in &done {
        run.attempted += 1;
        request_s += d.latency.as_secs_f64();
        let response = match &d.result {
            Ok(r) => r,
            Err(e) => {
                run.failed += 1;
                run.fail_check(format!("{}: {e}", jobs[d.index].label));
                continue;
            }
        };
        let Some(fidelity) = response.fidelity else {
            run.fail_check(format!(
                "{}: evaluated job carried no fidelity",
                response.label
            ));
            continue;
        };
        let first = plans
            .entry(plan_digest(&response.compiled))
            .or_insert_with(|| (response.compiled.clone(), fidelity, response.label.clone()));
        if first.1.to_bits() != fidelity.to_bits() {
            run.fail_check(format!(
                "{}: fidelity {fidelity} but an earlier run of the same plan gave {}",
                response.label, first.1
            ));
        }
        layers += response.compiled.plan.layer_count() as u64;
        amp_updates += crate::checks::amp_updates(&response.compiled, EVAL_SEEDS.len(), 1);
        let id = first_id + d.index as u64;
        match mode {
            Pass::Plain => {
                run.latency_ms.push(d.latency.as_secs_f64() * 1e3);
                run.quality.plan(&response.compiled);
                run.quality.fidelity(fidelity);
            }
            Pass::Baseline => {
                run.layers.add(
                    "service.queue_wait_ms",
                    response.queue_wait.as_secs_f64() * 1e3,
                );
                run.layers
                    .add("service.busy_ms", response.compile_time.as_secs_f64() * 1e3);
            }
            Pass::Traced => {
                replays.push((id, &jobs[d.index], response));
                book.requests.push(TracedRequest {
                    id,
                    total_s: d.latency.as_secs_f64(),
                    server_s: response.compile_time.as_secs_f64(),
                });
            }
        }
    }

    if let Some(t) = tracer {
        let failures =
            replay_in_parallel(&replays, [None, None], |replayer, (id, job, response)| {
                replay_job(replayer, t, *id, &session, job, response)
            });
        for failure in failures {
            run.fail_check(failure);
        }
    }

    match mode {
        Pass::Baseline => {
            let observer = observer.expect("the baseline pass observes");
            let after = session.metrics().snapshot();
            record_pipeline(run, &before, &after);
            run.layers.count(
                "calib.runs",
                session.target().calib().calibration_runs() as u64,
            );
            observer.record(run);
            run.layers.count("sched.layers", layers);
            run.layers.count("sim.amp_updates", amp_updates);
            run.layers.count(
                "sim.bytes_moved",
                amp_updates * crate::checks::BYTES_PER_AMP_UPDATE,
            );
            run.layers
                .add("host.cpu_ms_per_job", cpu_ms / done.len().max(1) as f64);
            run.layers.count_f64("host.steal_ms", steal_ms);
        }
        Pass::Plain => {
            let completed = done.len() as u64 - (run.failed - failed_before);
            run.end_round(completed, wall);
            run.layers.count_f64("host.steal_ms", steal_ms);
        }
        Pass::Traced => {}
    }
    request_s
}

/// Replays one finished job through the pipeline entry points and
/// checks the replay reproduces the real response.
fn replay_job(
    replayer: &mut Replayer,
    tracer: &Tracer,
    id: u64,
    session: &Session,
    job: &CompileRequest,
    response: &CompileResponse,
) -> Result<(), String> {
    let topology = job.device.as_ref().expect("every job names its sub-grid");
    let real = RealPath {
        route_ran: response
            .trace
            .as_ref()
            .is_some_and(|t| t.executed(Stage::Route)),
        ..RealPath::default()
    };
    let replayed = replayer.replay(
        Some(tracer),
        None,
        id,
        topology.qubit_count(),
        session.target(),
        topology,
        &job.circuit,
        &job.options,
        Some(&eval_config(session.target(), &EVAL_SEEDS)),
        real,
    )?;
    compare(&job.label, &replayed, &response.compiled, response.fidelity)
}
