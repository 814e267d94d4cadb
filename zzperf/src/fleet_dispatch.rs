//! `fleet_dispatch` — the standard three-device fleet, one caller.
//!
//! Small jobs (4–6 qubits) fit all three devices; the two 12-qubit grids
//! score them by Monte-Carlo trajectory simulation and the heavy-hex
//! device by plan metrics. Jobs above 12 qubits fit only the heavy-hex
//! device, which scores them by plan metrics. A drift epoch follows
//! every fixed number of jobs, so some epochs re-calibrate a device and
//! its next jobs pay for the measurement.
//!
//! Checks, outside the clocks: every winner is the argmax of its
//! candidates (ties to the earliest-registered device), every winning
//! plan passes the structural check, and a plan-metrics winner's score
//! recomputes from its plan bit for bit. The traced run replays every
//! candidate, checks the replay reproduces the candidate's score bit for
//! bit, and puts every replayed candidate plan through the structural
//! check. Monte-Carlo scores have no check independent of the engine.

use std::sync::Arc;
use std::time::Instant;

use zz_circuit::bench::BenchmarkKind;
use zz_circuit::{Circuit, Gate};
use zz_core::evaluate::EvalConfig;
use zz_fleet::{DeviceProfile, Dispatch, Fleet, FleetConfig, ScoreKind};
use zz_service::{CompileOptions, CompileRequest, Compiled, MetricsSnapshot, PulseMethod, Target};

use crate::checks::{check_structure, in_parallel};
use crate::harness::{
    derive, extra_setups, matched_instance, record_pipeline, Ctx, Observer, Pass, Rng, TraceBook,
    TracedRequest,
};
use crate::paper_eval::{CONFIGS, EVAL_SEEDS};
use crate::replay::{compare, RealPath, Replayer};
use crate::report::{HostMark, Run};
use crate::trace::{timed, Tracer};

/// Worker threads per device session (the one caller scores every
/// candidate on its own thread).
const THREADS_PER_DEVICE: usize = 1;
/// Monte-Carlo trajectories per disorder seed when scoring small jobs.
const TRAJECTORIES: usize = 8;
/// Jobs per round: every core family at 4 and 6 qubits, plus the large
/// jobs.
const JOBS_PER_ROUND: usize = 18;
/// A drift epoch follows every this many jobs.
const EPOCH_EVERY: usize = 6;
/// One job in this many is above the 12-qubit grids.
const LARGE_EVERY: usize = 3;
/// Families of the large jobs.
const LARGE_KINDS: [BenchmarkKind; 3] =
    [BenchmarkKind::Qft, BenchmarkKind::Ising, BenchmarkKind::Grc];
/// Fractional deviation that re-calibrates a device (low enough that
/// some epochs trip it).
const INVALIDATION_THRESHOLD: f64 = 0.05;
/// Requested seconds per round (one round's dispatches and epochs take
/// about four seconds on a 2-core host).
const SECONDS_PER_ROUND: u64 = 4;

fn config(seed: u64) -> FleetConfig {
    FleetConfig {
        seed,
        invalidation_threshold: INVALIDATION_THRESHOLD,
        threads_per_device: THREADS_PER_DEVICE,
        eval_seeds: EVAL_SEEDS.to_vec(),
        trajectories: TRAJECTORIES,
        store_root: None,
        ..FleetConfig::default()
    }
}

/// One dispatch: the circuit and its options.
type Job = (Arc<Circuit>, CompileOptions);

/// One round's jobs. The make-up is fixed — small
/// jobs cycle through every core family at 4 and 6 qubits,
/// large ones through three families at 13–16 qubits — so every seed
/// repeats the same mix of work; the seed draws the instances and the
/// order.
fn round_jobs(seed: u64) -> Vec<Job> {
    let hex = DeviceProfile::heavy_hex_static().topology().qubit_count();
    let large = JOBS_PER_ROUND / LARGE_EVERY;
    let mut jobs: Vec<Job> = (0..JOBS_PER_ROUND)
        .map(|i| {
            let (kind, n) = if i < large {
                (
                    LARGE_KINDS[i % LARGE_KINDS.len()],
                    13 + i % (hex.min(16) - 12),
                )
            } else {
                let j = i - large;
                let core = BenchmarkKind::CORE;
                (core[j % core.len()], 4 + 2 * ((j / core.len()) % 2))
            };
            let (method, scheduler) = CONFIGS[i % CONFIGS.len()];
            (
                Arc::new(matched_instance(kind, n, derive(seed, i as u64))),
                CompileOptions::new(method, scheduler),
            )
        })
        .collect();
    Rng::new(seed).shuffle(&mut jobs);
    jobs
}

/// Builds the fleet, calibrates every device for every pulse method and
/// warms each device's coupling graph.
fn setup(seed: u64, tracer: Option<&Tracer>) -> Fleet {
    let fleet = Fleet::standard(config(seed)).expect("the standard fleet builds");
    let mut pair = Circuit::new(2);
    pair.push(Gate::Cnot, &[0, 1]);
    for device in fleet.devices() {
        let session = fleet.session(device).expect("registered");
        for method in PulseMethod::ALL {
            let calibrate = || session.target().calib().residuals(method);
            timed(tracer, "calib.measure", None, 0, calibrate);
        }
        session
            .compile(&CompileRequest::new(pair.clone()))
            .expect("a two-qubit warm-up compiles");
    }
    fleet
}

/// Runs every round (twice when traced).
pub fn run(ctx: &Ctx, run: &mut Run, book: &mut TraceBook) {
    let rounds = crate::harness::rounds(ctx, SECONDS_PER_ROUND);
    let inputs: Vec<(u64, Vec<Job>)> = (0..rounds)
        .map(|r| {
            let seed = derive(ctx.seed, r as u64);
            (seed, round_jobs(seed))
        })
        .collect();
    run.note("threads_per_device", THREADS_PER_DEVICE);
    run.note("callers", 1);
    run.note("rounds", rounds);
    run.note("jobs_per_round", JOBS_PER_ROUND);
    run.note("epoch_every", EPOCH_EVERY);

    for (r, (seed, jobs)) in inputs.iter().enumerate() {
        for _ in 0..extra_setups(ctx, rounds, r) {
            let start = Instant::now();
            drop(setup(*seed, None));
            run.setup_s.push(start.elapsed().as_secs_f64());
        }
        for &mode in Pass::for_run(ctx.trace) {
            let request_s = pass(*seed, jobs, mode, run, book);
            book.add_request_time(mode, request_s);
        }
    }
}

/// The plan-metrics score the fleet gives a device above the
/// evaluation ceiling, recomputed from the plan.
fn plan_score(compiled: &Compiled, lambda: f64, t2_us: f64) -> f64 {
    let summary = compiled.plan.summary(&compiled.durations);
    (-lambda * summary.residual_zz_weight).exp() * (-summary.duration_ns / (t2_us * 1000.0)).exp()
}

/// The evaluation a small device scores with.
fn score_config(target: &Target, profile: &DeviceProfile) -> EvalConfig {
    EvalConfig {
        lambda_mean: target.lambda_mean(),
        lambda_std: target.lambda_std(),
        crosstalk_seeds: EVAL_SEEDS.to_vec(),
        circuit_seed: 0,
        decoherence: Some((profile.decoherence(), TRAJECTORIES, 97)),
    }
}

/// A plan the fleet produced, checked after the pass, outside the
/// clocks.
struct FleetPlan {
    label: String,
    circuit: Arc<Circuit>,
    compiled: Compiled,
}

impl FleetPlan {
    fn check(&self) -> Result<(), String> {
        check_structure(&self.label, &self.circuit, &self.compiled)
    }
}

/// Position of `device` in registration order.
fn device_index(profiles: &[DeviceProfile], device: &str) -> Option<usize> {
    profiles.iter().position(|p| p.name == device)
}

/// Checks that the winner is the argmax of its candidates (ties to the
/// earliest-registered device), that candidates come in registration
/// order, and that a plan-metrics winner's score recomputes from its
/// plan bit for bit. Returns the winning plan for the structural check.
fn check_dispatch(
    fleet: &Fleet,
    profiles: &[DeviceProfile],
    circuit: &Arc<Circuit>,
    dispatch: &Dispatch,
) -> Result<FleetPlan, String> {
    let order: Vec<Option<usize>> = dispatch
        .candidates
        .iter()
        .map(|c| device_index(profiles, &c.device))
        .collect();
    if order.contains(&None) || order.windows(2).any(|w| w[0] >= w[1]) {
        return Err(format!(
            "{}: candidates are not in registration order",
            dispatch.label
        ));
    }
    let best = dispatch
        .candidates
        .iter()
        .map(|c| c.score)
        .fold(f64::NEG_INFINITY, f64::max);
    let first_best = dispatch.candidates.iter().find(|c| c.score == best);
    let Some(winner) = first_best.filter(|c| c.device == dispatch.device) else {
        return Err(format!(
            "{}: dispatched to {} but the argmax is {:?}",
            dispatch.label,
            dispatch.device,
            first_best.map(|c| &c.device)
        ));
    };
    if dispatch.score != best {
        return Err(format!(
            "{}: dispatch score {} but the best candidate scored {best}",
            dispatch.label, dispatch.score
        ));
    }
    // A Monte-Carlo score has no independent check: the reference
    // executor draws other random streams, and at eight trajectories per
    // disorder seed rare decoherence jumps make any tolerance that is
    // safe too loose to catch an error. The traced run replays it.
    if winner.kind == ScoreKind::PlanMetrics {
        let profile = &profiles[device_index(profiles, &dispatch.device).expect("checked above")];
        let lambda = fleet
            .calibrated_lambda(&dispatch.device)
            .expect("registered");
        let recomputed = plan_score(&dispatch.response.compiled, lambda, profile.t2_us);
        if recomputed.to_bits() != dispatch.score.to_bits() {
            return Err(format!(
                "{}: winner score {} recomputes to {recomputed}",
                dispatch.label, dispatch.score
            ));
        }
    }
    Ok(FleetPlan {
        label: dispatch.label.clone(),
        circuit: Arc::clone(circuit),
        compiled: dispatch.response.compiled.clone(),
    })
}

/// Calibration measurements each device's current cache has made.
fn calibration_runs(fleet: &Fleet) -> Vec<usize> {
    fleet
        .report()
        .devices
        .iter()
        .map(|d| d.calibration_runs)
        .collect()
}

/// Every device session's metrics, in registration order.
fn snapshots(fleet: &Fleet) -> Vec<MetricsSnapshot> {
    fleet
        .devices()
        .into_iter()
        .map(|d| fleet.session(d).expect("registered").metrics().snapshot())
        .collect()
}

/// One set-up plus one timed round; returns the summed request time.
fn pass(seed: u64, jobs: &[Job], mode: Pass, run: &mut Run, book: &mut TraceBook) -> f64 {
    let tracer = book.tracer.clone().filter(|_| mode == Pass::Traced);
    let tracer = tracer.as_ref();
    let failed_before = run.failed;
    let profiles = DeviceProfile::standard_fleet();
    let start = Instant::now();
    let mut fleet = setup(seed, tracer.map(|t| &**t));
    run.setup_s.push(start.elapsed().as_secs_f64());

    let observer = (mode == Pass::Baseline).then(Observer::new);
    // Each device session's metrics at set-up or at its last rebuild.
    let mut since = (mode == Pass::Baseline).then(|| snapshots(&fleet));
    let first_id = book.ids(jobs.len());
    let mut replayer = Replayer::new(None);
    let mut plans = Vec::new();
    let mut calib_runs = 0usize;
    let mut candidates = 0u64;
    let mut invalidations = 0u64;
    let mut amp_updates = 0u64;
    let mut layers = 0u64;
    let mut timed_s = 0.0;
    let mut request_s = 0.0;
    let host = HostMark::now();
    for (i, (circuit, options)) in jobs.iter().enumerate() {
        let id = first_id + i as u64;
        run.attempted += 1;
        let runs_before = tracer.map(|_| calibration_runs(&fleet));
        let span = tracer.map(|t| t.open("request", None, id));
        let t = Instant::now();
        let result = fleet.submit(Circuit::clone(circuit), *options);
        let latency = t.elapsed().as_secs_f64();
        if let (Some(t), Some(span)) = (tracer, span) {
            t.close(span);
        }
        timed_s += latency;
        request_s += latency;
        match result {
            Err(e) => {
                run.failed += 1;
                run.fail_check(format!("job {i}: {e}"));
            }
            Ok(dispatch) => {
                candidates += dispatch.candidates.len() as u64;
                layers += dispatch.response.compiled.plan.layer_count() as u64;
                if mode == Pass::Plain {
                    run.latency_ms.push(latency * 1e3);
                    run.quality.plan(&dispatch.response.compiled);
                    run.quality.fidelity(dispatch.score);
                    match check_dispatch(&fleet, &profiles, circuit, &dispatch) {
                        Ok(winner) => plans.push(winner),
                        Err(e) => run.fail_check(e),
                    }
                }
                if let (Some(t), Some(runs_before)) = (tracer, runs_before) {
                    let runs_after = calibration_runs(&fleet);
                    let report = fleet.report();
                    for candidate in &dispatch.candidates {
                        let d = device_index(&profiles, &candidate.device)
                            .expect("a registered device");
                        let target = fleet
                            .session(&candidate.device)
                            .expect("registered")
                            .target();
                        let topology = target.topology();
                        let real = RealPath {
                            route_ran: !replayer.has_native(d, circuit, topology),
                            measured_calib: (runs_after[d] > runs_before[d]).then(|| {
                                (
                                    report.devices[d].calibrated_lambda,
                                    report.devices[d].calibrated_epoch,
                                )
                            }),
                            ..RealPath::default()
                        };
                        let eval = (candidate.kind == ScoreKind::Simulated)
                            .then(|| score_config(target, &profiles[d]));
                        let score_span = t.open("fleet.score", None, id);
                        let replayed = replayer.replay(
                            Some(t),
                            Some(score_span),
                            id,
                            d,
                            target,
                            topology,
                            circuit,
                            options,
                            eval.as_ref(),
                            real,
                        );
                        let replayed = replayed.map(|r| {
                            let score = r.fidelity.unwrap_or_else(|| {
                                plan_score(
                                    &r.compiled,
                                    report.devices[d].calibrated_lambda,
                                    profiles[d].t2_us,
                                )
                            });
                            (r, score)
                        });
                        t.close(score_span);
                        let checked = replayed.and_then(|(r, score)| {
                            if eval.is_some() {
                                amp_updates += crate::checks::amp_updates(
                                    &r.compiled,
                                    EVAL_SEEDS.len(),
                                    TRAJECTORIES,
                                );
                            }
                            if score.to_bits() != candidate.score.to_bits() {
                                return Err(format!(
                                    "{}@{}: replayed score {score} but dispatch scored {}",
                                    dispatch.label, candidate.device, candidate.score
                                ));
                            }
                            if candidate.device == dispatch.device {
                                compare(
                                    &dispatch.label,
                                    &r,
                                    &dispatch.response.compiled,
                                    dispatch.response.fidelity,
                                )?;
                            }
                            // The replay reproduced this candidate's score
                            // bit for bit; check its plan's structure too.
                            plans.push(FleetPlan {
                                label: format!("{}@{}", dispatch.label, candidate.device),
                                circuit: Arc::clone(circuit),
                                compiled: r.compiled,
                            });
                            Ok(())
                        });
                        if let Err(e) = checked {
                            run.fail_check(e);
                        }
                    }
                    // The replay re-runs the whole dispatch, so all of the
                    // request time is the replay's to account for.
                    book.requests.push(TracedRequest {
                        id,
                        total_s: latency,
                        server_s: latency,
                    });
                }
            }
        }
        if (i + 1) % EPOCH_EVERY == 0 {
            let runs_before_epoch = calibration_runs(&fleet);
            let before_epoch = since.as_ref().map(|_| snapshots(&fleet));
            let t = Instant::now();
            let epoch = timed(tracer.map(|t| &**t), "fleet.epoch", None, 0, || {
                fleet.advance_epoch()
            });
            timed_s += t.elapsed().as_secs_f64();
            match epoch {
                Ok(report) => {
                    for invalidation in &report.invalidations {
                        let d = device_index(&profiles, &invalidation.device)
                            .expect("a registered device");
                        calib_runs += runs_before_epoch[d];
                        replayer.forget_device(d);
                        invalidations += 1;
                        // The rebuilt session counts afresh.
                        if let (Some(since), Some(before)) = (&mut since, &before_epoch) {
                            record_pipeline(run, &since[d], &before[d]);
                            since[d] = fleet
                                .session(&invalidation.device)
                                .expect("registered")
                                .metrics()
                                .snapshot();
                        }
                    }
                }
                Err(e) => run.fail_check(format!("epoch after job {i}: {e}")),
            }
        }
    }
    let (cpu_ms, steal_ms) = host.since();
    calib_runs += calibration_runs(&fleet).iter().sum::<usize>();
    if let Some(since) = &since {
        for (start, now) in since.iter().zip(snapshots(&fleet)) {
            record_pipeline(run, start, &now);
        }
    }
    for failure in in_parallel(&plans, FleetPlan::check) {
        run.fail_check(failure);
    }

    match mode {
        Pass::Baseline => {
            let observer = observer.expect("the baseline pass observes");
            run.layers.count("fleet.candidates", candidates);
            run.layers.count("fleet.invalidations", invalidations);
            run.layers.count("calib.runs", calib_runs as u64);
            observer.record(run);
            run.layers.count("sched.layers", layers);
            run.layers
                .add("host.cpu_ms_per_job", cpu_ms / jobs.len().max(1) as f64);
            run.layers.count_f64("host.steal_ms", steal_ms);
        }
        Pass::Plain => {
            let completed = jobs.len() as u64 - (run.failed - failed_before);
            run.end_round(completed, timed_s);
            run.layers.count_f64("host.steal_ms", steal_ms);
        }
        Pass::Traced => {
            run.layers.count("sim.amp_updates", amp_updates);
            run.layers.count(
                "sim.bytes_moved",
                amp_updates * crate::checks::BYTES_PER_AMP_UPDATE,
            );
        }
    }
    request_s
}
