//! `wire_mixed` — the serving path.
//!
//! Each round opens an in-process `zz_net::Server` over a 2-worker
//! session on the 3×3 sub-grid with a fresh scratch artifact store, and
//! two closed-loop client connections send a seeded stream of 4–9-qubit
//! compiles. About half the requests repeat a small popular set (warmed
//! during set-up, so they are whole-plan disk hits, route-memo hits, and
//! coalesce when both clients send one at once); the rest are fresh and
//! go through route, lower, schedule and store writes. A small slice also
//! asks for evaluation. The request count per round is fixed, because
//! the server never drains its session's pending batch and peak RSS
//! grows with every request served. A round serves enough requests for a
//! tail near p99 of its own, and the workload reports the median of its
//! rounds' tails.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use zz_circuit::bench::BenchmarkKind;
use zz_core::calib::CalibCache;
use zz_net::{
    read_frame, write_frame, Client, ClientError, CompileEnvelope, CompiledEnvelope, Request,
    Response, Server,
};
use zz_persist::ArtifactKind;
use zz_service::{CompileOptions, DiskStatus, PulseMethod, RequestId, Session, Target};
use zz_topology::Topology;

use crate::checks::{check_fidelity, in_parallel, plan_digest};
use crate::harness::{
    counter_delta, derive, extra_setups, matched_instance, record_pipeline, Ctx, Observer, Pass,
    Rng, TraceBook, TracedRequest,
};
use crate::paper_eval::{CONFIGS, EVAL_SEEDS};
use crate::replay::{compare, eval_config, replay_in_parallel, RealPath, Replayer};
use crate::report::{tail, HostMark, Run};
use crate::trace::{timed, Tracer};

/// Session workers behind the server.
const WORKERS: usize = 2;
/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Requests per round (identical on every commit: peak RSS grows with
/// every request served).
const REQUESTS_PER_ROUND: usize = 1000;
/// The popular set's make-up: (family, qubits, configuration).
/// Fixed, so every seed repeats the same mix of work; the seed draws the
/// instances.
const POPULAR: [(BenchmarkKind, usize, usize); 8] = [
    (BenchmarkKind::Qft, 4, 0),
    (BenchmarkKind::Ising, 9, 1),
    (BenchmarkKind::Qaoa, 6, 2),
    (BenchmarkKind::Grc, 5, 3),
    (BenchmarkKind::HiddenShift, 6, 0),
    (BenchmarkKind::Qpe, 5, 1),
    (BenchmarkKind::Ising, 7, 2),
    (BenchmarkKind::Qaoa, 8, 3),
];
/// Every other request is a popular one.
const POPULAR_EVERY: usize = 2;
/// Every this many popular picks is sent twice in a row, so both
/// clients can collide on it and coalesce.
const PAIRED_EVERY: usize = 3;
/// Every this many fresh requests asks for evaluation: two per round,
/// 9-qubit Ising chains, whose cost does not depend on the seed.
const FRESH_EVAL_EVERY: usize = 250;
/// Fresh circuits come from the seeded families (QFT has no seed),
/// cycling through families, sizes 4–9 and configurations.
const FRESH_KINDS: [BenchmarkKind; 5] = [
    BenchmarkKind::HiddenShift,
    BenchmarkKind::Qpe,
    BenchmarkKind::Qaoa,
    BenchmarkKind::Ising,
    BenchmarkKind::Grc,
];

fn device() -> Topology {
    Topology::grid(3, 3)
}

/// A seeded request: a circuit of 4–9 qubits under one of the paper
/// configurations. The label is a function of the content, so a
/// coalesced follower's echoed label equals its own.
fn envelope(
    kind: BenchmarkKind,
    n: usize,
    seed: u64,
    config: usize,
    eval: bool,
) -> CompileEnvelope {
    let (method, scheduler) = CONFIGS[config];
    let label = format!(
        "{kind}-{n}-{seed:016x}/{method}+{scheduler}{}",
        if eval { "/eval" } else { "" }
    );
    let mut env = CompileEnvelope::new(matched_instance(kind, n, seed))
        .with_options(CompileOptions::new(method, scheduler))
        .with_label(label);
    if eval {
        env = env.with_eval_seeds(EVAL_SEEDS.to_vec());
    }
    env
}

/// One round's inputs: the popular set and the request stream.
struct RoundInput {
    popular: Vec<CompileEnvelope>,
    stream: Vec<CompileEnvelope>,
}

fn round_input(seed: u64) -> RoundInput {
    let mut rng = Rng::new(seed);
    let popular: Vec<CompileEnvelope> = POPULAR
        .iter()
        .enumerate()
        .map(|(i, &(kind, n, config))| {
            envelope(kind, n, derive(seed, 1000 + i as u64), config, false)
        })
        .collect();
    // Units of one or two requests (a paired popular pick stays
    // adjacent), in a fixed mix, then shuffled by the seed.
    let mut units: Vec<Vec<CompileEnvelope>> = Vec::new();
    let (mut sent, mut fresh, mut picks) = (0, 0, 0);
    while sent < REQUESTS_PER_ROUND {
        if sent % POPULAR_EVERY == 0 {
            let pick = popular[picks % popular.len()].clone();
            picks += 1;
            if picks % PAIRED_EVERY == 0 && sent + 1 < REQUESTS_PER_ROUND {
                units.push(vec![pick.clone(), pick]);
                sent += 2;
            } else {
                units.push(vec![pick]);
                sent += 1;
            }
        } else {
            let eval = fresh % FRESH_EVAL_EVERY == 0;
            let (kind, n) = if eval {
                (BenchmarkKind::Ising, 9)
            } else {
                (
                    FRESH_KINDS[fresh % FRESH_KINDS.len()],
                    4 + (fresh / FRESH_KINDS.len()) % 6,
                )
            };
            let config = (fresh / 30) % CONFIGS.len();
            units.push(vec![envelope(kind, n, rng.next_u64(), config, eval)]);
            fresh += 1;
            sent += 1;
        }
    }
    rng.shuffle(&mut units);
    RoundInput {
        popular,
        stream: units.into_iter().flatten().collect(),
    }
}

/// A running server: its session, control handle and acceptor thread.
struct Serving {
    session: Arc<Session>,
    addr: std::net::SocketAddr,
    control: zz_net::ServerControl,
    acceptor: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Serving {
    fn stop(self) {
        self.control.shutdown();
        self.acceptor
            .join()
            .expect("the acceptor does not panic")
            .expect("the server shuts down cleanly");
    }
}

/// Builds the session and server, calibrates every pulse method and
/// warms the popular set into the store and the route memo.
fn setup(store: &PathBuf, popular: &[CompileEnvelope], tracer: Option<&Tracer>) -> Serving {
    let target = Target::builder()
        .topology(device())
        .store_dir(store)
        .calib_cache(Arc::new(CalibCache::new()))
        .build()
        .expect("the scratch store is writable");
    let session = Arc::new(Session::with_threads(target, WORKERS));
    for method in PulseMethod::ALL {
        let calibrate = || session.target().calib().residuals(method);
        timed(tracer, "calib.measure", None, 0, calibrate);
    }
    let server = Server::bind("127.0.0.1:0", Arc::clone(&session)).expect("a loopback port binds");
    let addr = server.local_addr().expect("a bound socket has an address");
    let control = server.control();
    let acceptor = std::thread::spawn(move || server.serve());
    for env in popular {
        session
            .compile(&env.clone().into_compile_request())
            .expect("popular requests compile");
    }
    Serving {
        session,
        addr,
        control,
        acceptor,
    }
}

struct Done {
    index: usize,
    latency: Duration,
    result: Result<CompiledEnvelope, String>,
    busy: bool,
}

/// Runs every round (twice when traced), then checks every distinct
/// response against an in-process compile and every evaluated plan
/// against the reference executor.
pub fn run(ctx: &Ctx, run: &mut Run, book: &mut TraceBook) {
    let rounds = crate::harness::rounds(ctx, 1);
    let inputs: Vec<RoundInput> = (0..rounds)
        .map(|r| round_input(derive(ctx.seed, r as u64)))
        .collect();
    run.note("session_workers", WORKERS);
    run.note("clients", CLIENTS);
    run.note("rounds", rounds);
    run.note("requests_per_round", REQUESTS_PER_ROUND);

    let mut checked = 0;
    for (r, input) in inputs.iter().enumerate() {
        for _ in 0..extra_setups(ctx, rounds, r) {
            let store = ctx.scratch_dir("wire-setup");
            let start = Instant::now();
            let serving = setup(&store, &input.popular, None);
            run.setup_s.push(start.elapsed().as_secs_f64());
            serving.stop();
            ctx.remove_scratch(&store);
        }
        let mut responses = HashMap::new();
        for &mode in Pass::for_run(ctx.trace) {
            let request_s = pass(ctx, r, input, mode, run, book, &mut responses);
            book.add_request_time(mode, request_s);
        }
        checked += responses.len();
        check_round(run, responses);
    }

    run.note("distinct_requests_checked", checked);
}

/// Checks a round's distinct responses against an in-process compile
/// and its evaluated plans against the reference executor, outside
/// every clock.
fn check_round(run: &mut Run, responses: HashMap<String, (CompileEnvelope, CompiledEnvelope)>) {
    let reference = Session::with_threads(
        Target::builder()
            .topology(device())
            .build()
            .expect("an in-memory target always builds"),
        1,
    );
    let checked: Vec<_> = responses.into_values().collect();
    let target = reference.target();
    for failure in in_parallel(&checked, |(env, got)| {
        let local = reference
            .compile(&env.clone().into_compile_request())
            .map_err(|e| format!("{}: in-process compile failed: {e}", env.label))?;
        if plan_digest(&local.compiled) != plan_digest(&got.compiled)
            || local.fidelity.map(f64::to_bits) != got.fidelity.map(f64::to_bits)
        {
            return Err(format!(
                "{}: the wire response differs from an in-process compile",
                env.label
            ));
        }
        match got.fidelity {
            Some(f) => check_fidelity(
                &env.label,
                &got.compiled,
                f,
                target.lambda_mean(),
                target.lambda_std(),
                &EVAL_SEEDS,
            ),
            None => Ok(()),
        }
    }) {
        run.fail_check(failure);
    }
}

/// One set-up plus one timed round; returns the summed request time.
fn pass(
    ctx: &Ctx,
    round: usize,
    input: &RoundInput,
    mode: Pass,
    run: &mut Run,
    book: &mut TraceBook,
    responses: &mut HashMap<String, (CompileEnvelope, CompiledEnvelope)>,
) -> f64 {
    let tracer = book.tracer.clone().filter(|_| mode == Pass::Traced);
    let tracer = tracer.as_ref();
    let failed_before = run.failed;
    let first_sample = run.latency_ms.len();
    let store = ctx.scratch_dir(&format!("wire-{round}-{mode:?}"));
    let replay_dirs = (mode == Pass::Traced)
        .then(|| [0, 1].map(|k| ctx.scratch_dir(&format!("wire-{round}-replay-{k}"))));

    let start = Instant::now();
    let serving = setup(&store, &input.popular, tracer.map(|t| &**t));
    run.setup_s.push(start.elapsed().as_secs_f64());

    let session = Arc::clone(&serving.session);
    let before = session.metrics().snapshot();
    let observer = (mode == Pass::Baseline).then(Observer::new);
    let first_id = book.ids(input.stream.len());
    let next = AtomicUsize::new(0);
    let barrier = Barrier::new(CLIENTS + 1);
    let mut host = HostMark::now();
    let mut t0 = Instant::now();
    let done: Vec<Done> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (next, barrier) = (&next, &barrier);
                let addr = serving.addr;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("the server accepts");
                    let mut out = Vec::new();
                    barrier.wait();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(env) = input.stream.get(index) else {
                            break;
                        };
                        let span = tracer.map(|t| t.open("request", None, first_id + index as u64));
                        let t = Instant::now();
                        let result = client.compile(env.clone());
                        let latency = t.elapsed();
                        if let (Some(t), Some(span)) = (tracer, span) {
                            t.close(span);
                        }
                        out.push(Done {
                            index,
                            latency,
                            busy: matches!(result, Err(ClientError::Busy)),
                            result: result.map_err(|e| e.to_string()),
                        });
                    }
                    out
                })
            })
            .collect();
        barrier.wait();
        host = HostMark::now();
        t0 = Instant::now();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client threads do not panic"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let (cpu_ms, steal_ms) = host.since();
    // Stream order, so the exact sums repeat bit for bit.
    let mut done = done;
    done.sort_by_key(|d| d.index);
    let after = session.metrics().snapshot();
    let calib_runs = session.target().calib().calibration_runs();
    let store_stats = session
        .target()
        .store()
        .map(|s| s.stats())
        .unwrap_or_default();
    serving.stop();

    // The traced pass replays its requests after they all finished, so
    // the replays add no contention to its requests. The first of
    // coalesced requests (same request id) in stream order is the leader;
    // its followers only waited on its job.
    let mut replays = Vec::new();
    let mut seen: HashSet<RequestId> = HashSet::new();
    let mut request_s = 0.0;
    let mut layers = 0u64;
    let mut amp_updates = 0u64;
    for d in &done {
        run.attempted += 1;
        request_s += d.latency.as_secs_f64();
        let env = &input.stream[d.index];
        let got = match &d.result {
            Ok(got) => got,
            Err(e) => {
                run.failed += 1;
                if !d.busy {
                    run.fail_check(format!("{}: {e}", env.label));
                }
                continue;
            }
        };
        if env.eval_seeds.is_some() != got.fidelity.is_some() {
            run.fail_check(format!(
                "{}: evaluation asked and answered differ",
                env.label
            ));
        }
        responses
            .entry(env.label.clone())
            .or_insert_with(|| (env.clone(), got.clone()));
        layers += got.compiled.plan.layer_count() as u64;
        if got.fidelity.is_some() {
            amp_updates += crate::checks::amp_updates(&got.compiled, EVAL_SEEDS.len(), 1);
        }
        let leader = seen.insert(got.request_id);
        let id = first_id + d.index as u64;
        let total_s = d.latency.as_secs_f64();
        match mode {
            Pass::Plain => {
                run.latency_ms.push(total_s * 1e3);
                run.quality.plan(&got.compiled);
                if let Some(f) = got.fidelity {
                    run.quality.fidelity(f);
                }
            }
            Pass::Baseline if leader => {
                let server_s = (got.compile_micros + got.queue_micros) as f64 * 1e-6;
                run.layers.add("net.self_ms", (total_s - server_s) * 1e3);
                run.layers
                    .add("service.queue_wait_ms", got.queue_micros as f64 * 1e-3);
                run.layers
                    .add("service.busy_ms", got.compile_micros as f64 * 1e-3);
            }
            Pass::Baseline => {}
            Pass::Traced => {
                replays.push((id, env, got, leader));
                book.requests.push(TracedRequest {
                    id,
                    total_s,
                    // A follower's whole request is service-side waiting.
                    server_s: if leader {
                        got.compile_micros as f64 * 1e-6
                    } else {
                        0.0
                    },
                });
            }
        }
    }
    let response_bytes = AtomicUsize::new(0);
    if let (Some(t), Some(dirs)) = (tracer, &replay_dirs) {
        let failures = replay_in_parallel(
            &replays,
            dirs.clone().map(Some),
            |replayer, &(id, env, got, leader)| {
                response_bytes.fetch_add(codec(t, id, env, got), Ordering::Relaxed);
                if leader {
                    replay_request(replayer, t, id, &session, env, got)
                } else {
                    Ok(())
                }
            },
        );
        for failure in failures {
            run.fail_check(failure);
        }
    }
    drop(session);

    match mode {
        Pass::Baseline => {
            let observer = observer.expect("the baseline pass observes");
            let count = |name| counter_delta(&before, &after, name);
            record_pipeline(run, &before, &after);
            run.layers
                .count("service.coalesced", count("session.coalesce.follower"));
            run.layers.count("net.busy", count("net.busy"));
            run.layers.count(
                "persist.hits",
                count("pipeline.compiled.disk_hit") + count("pipeline.route.disk_hit"),
            );
            run.layers
                .count("persist.writes", store_stats.writes as u64);
            run.layers.count("calib.runs", calib_runs as u64);
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
            let round_ms = &run.latency_ms[first_sample..];
            run.round_tails.extend(tail(round_ms));
            run.layers.count_f64("host.steal_ms", steal_ms);
        }
        Pass::Traced => {
            run.layers
                .count("net.response_bytes", response_bytes.into_inner() as u64);
        }
    }
    for dir in replay_dirs.iter().flatten().chain([&store]) {
        ctx.remove_scratch(dir);
    }
    request_s
}

/// Replays the wire codec for one exchange — request frame encoded and
/// decoded, response frame encoded and decoded — and returns the
/// response frame's size.
fn codec(tracer: &Tracer, id: u64, env: &CompileEnvelope, got: &CompiledEnvelope) -> usize {
    tracer.span("net.codec", None, id, || {
        let mut request = Vec::new();
        write_frame(
            &mut request,
            ArtifactKind::NetRequest,
            &Request::Compile(env.clone()),
        )
        .expect("writing to memory succeeds");
        let _: Request = read_frame(&mut request.as_slice(), ArtifactKind::NetRequest)
            .expect("a fresh frame decodes");
        let mut response = Vec::new();
        write_frame(
            &mut response,
            ArtifactKind::NetResponse,
            &Response::Compiled(Box::new(got.clone())),
        )
        .expect("writing to memory succeeds");
        let _: Response = read_frame(&mut response.as_slice(), ArtifactKind::NetResponse)
            .expect("a fresh frame decodes");
        response.len()
    })
}

/// Replays one leader request through the pipeline entry points and the
/// store, following the dispositions its response reports.
fn replay_request(
    replayer: &mut Replayer,
    tracer: &Tracer,
    id: u64,
    session: &Session,
    env: &CompileEnvelope,
    got: &CompiledEnvelope,
) -> Result<(), String> {
    let target = session.target();
    let real = RealPath {
        disk_hit: got.disk == DiskStatus::Hit,
        route_ran: !got.route_cache_hit,
        stored: true,
        measured_calib: None,
    };
    let eval = env
        .eval_seeds
        .as_ref()
        .map(|seeds| eval_config(target, seeds));
    let replayed = replayer.replay(
        Some(tracer),
        None,
        id,
        0,
        target,
        target.topology(),
        &Arc::new(env.circuit.clone()),
        &env.options,
        eval.as_ref(),
        real,
    )?;
    compare(&env.label, &replayed, &got.compiled, got.fidelity)
}
