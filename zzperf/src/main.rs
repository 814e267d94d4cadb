//! `zzperf` — the seeded end-to-end and per-layer benchmark of the ZZ
//! co-optimization service stack.
//!
//! Each workload runs in its own process against the system's front
//! doors (`zz_service::Session`, `zz_net::{Server, Client}`,
//! `zz_fleet::Fleet`), checks every output against a reference that is
//! not the code under test, and prints one JSON result line last.
//!
//! # Running
//!
//! From the repository root:
//!
//! ```text
//! cargo run --quiet --release --offline --manifest-path zzperf/Cargo.toml -- \
//!     --workload paper_eval --seed 7 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` is the traced
//! run, a separate process on the same seed, which prints the per-layer
//! metrics and writes its spans to `.zzperf/trace-<workload>-<seed>.ndjson`.
//! Scratch stores live under `.zzperf/` in the working directory; they
//! are removed, and the removal committed to disk, outside the clocks.
//! `cargo test --release --manifest-path zzperf/Cargo.toml` runs the
//! benchmark's self-tests.
//!
//! # What a run does
//!
//! Inputs are generated from `--seed` before any clock starts. A run is a
//! fixed amount of work sized from `--seconds` (about that long on a
//! 2-core host), split into rounds; each round builds its front door
//! afresh (a timed set-up: construction, calibrating every pulse method
//! the workload uses, warming its hot set) and then times its requests.
//! Fixed work keeps the exact metrics exact and the request count — which
//! peak RSS depends on — identical on every commit. Seeded families with
//! random structure are drawn at the size of the paper's own instance, and
//! every round has the same mix of families, sizes and configurations, so
//! each seed asks for the same amount of work. Load comes from one
//! process with at most two caller threads or connections; worker counts
//! are fixed and recorded, with the core count and build profile, in the
//! `{"info": …}` line printed before the result.
//!
//! # Workloads
//!
//! | workload | drives | why it exists |
//! |---|---|---|
//! | `paper_eval` | 2 callers, `Session::submit` → `JobHandle::wait`, 2 workers | The paper's Figs 20–22 evaluation: 21 core (family, size) cases on their sub-grids × 4 (pulse, scheduler) configurations, each compiled and evaluated (3 disorder seeds, no decoherence). The simulator does almost all the work, so engine changes show here. |
//! | `wire_mixed` | 2 `zz_net::Client` connections to a `Server` over a 2-worker session on the 3×3 grid with a scratch store | The serving path: half the requests repeat a popular set (whole-plan disk hits, route-memo hits, coalescing), half are fresh (route, lower, schedule, store writes); a slice is evaluated. `net`, `service` and `persist` dominate and the engine barely runs. |
//! | `fleet_dispatch` | 1 caller, `Fleet::submit` and `Fleet::advance_epoch` | The standard three-device fleet: small jobs scored by trajectory simulation on the two 12-qubit grids, larger ones by plan metrics on heavy-hex, a drift epoch every 6 jobs. The only workload running fleet scoring and steady-state re-calibration. |
//!
//! There is no compile-only workload at scale (heavy-hex and grid devices
//! of 55–256 qubits): its single-caller timings spread past the largest
//! bound across runs on a 2-vCPU host. The `bench_scale` probe covers
//! that regime; here the scheduler runs inside `paper_eval` and
//! `fleet_dispatch`, whose heavy-hex jobs reach 16 qubits.
//!
//! `paper_eval` and `wire_mixed` keep both cores busy; `fleet_dispatch`
//! leaves one idle, so only it can show a gain from parallelism inside
//! one request — which must then be checked on the first two. Decoherence
//! on registers of 8 qubits or fewer (exact density matrices, seconds per
//! job) is in no workload.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! | metric | unit | better | definition |
//! |---|---|---|---|
//! | `setup_s` | s | lower | set-up time: the run's set-ups (at least 40, spread over the run) fall into 8 interleaved groups, and this is the median of the group means; excludes input generation, scratch directories and client threads |
//! | `jobs_per_s` | 1/s | higher | operations completed per second of timed work, over the whole run |
//! | `latency_p50_ms` | ms | lower | median operation latency over the run |
//! | `latency_tail_ms` | ms | lower | the highest order statistic with at least 10 samples beyond it, over the run (`wire_mixed`: per round, median over rounds — over the whole run it would sit at p99.95, among the few evaluated requests); its percentile and the sample count are recorded in the info line |
//! | `peak_rss_mb` | MiB | lower | `VmHWM` of the workload's own process |
//! | `residual_zz_weight` | coupling-ns | lower | mean `PlanSummary::residual_zz_weight` per compiled plan (exact) |
//! | `plan_duration_us` | us | lower | mean plan duration (exact) |
//! | `fidelity_mean` | fidelity | higher | mean evaluated fidelity (`paper_eval`, the `wire_mixed` eval slice), mean winner score (`fleet_dispatch`) (exact) |
//!
//! Typed errors, `Busy` replies and panics count as failed operations.
//!
//! # Per-layer metrics (`--trace 1`) and what they should move
//!
//! The benchmark opens spans only around its own calls into a layer's
//! public functions. Layers that run inside another layer's call (the
//! pipeline inside the server, scoring inside `Fleet::submit`) are
//! measured by replaying each request through `PassManager::apply` per
//! pass, `SchedulerPass::schedule`, `CalibCache::residuals`,
//! `ArtifactStore::get`/`put` and `fidelity_of`, following the cache
//! dispositions the real response reports, and checking that the replay
//! reproduces the real output bit for bit. Timings are mean self time per
//! call; counts are totals, and those marked (x) are exact.
//!
//! The traced run makes two passes over each round's inputs. The
//! untraced pass gives the counts — read by name from session metrics
//! snapshots, one snapshot per session (the fleet's sessions are read
//! again before each re-calibration rebuilds one) — and the timings the
//! responses themselves report (`net.self_ms`, `service.*`). The traced
//! pass gives the span timings, and the counts only a replay sees
//! (`net.response_bytes`, and `fleet_dispatch`'s `sim.amp_updates`).
//! Where two callers run, the replays follow the traced pass rather than
//! running beside it, so they add no contention to its requests.
//! `trace.accounted_pct` is the share of request time the layer self
//! times account for, and `trace.overhead_pct` the request time of the
//! traced pass over the untraced pass on the same inputs.
//!
//! | layer | metrics | moves | flat on |
//! |---|---|---|---|
//! | `net` | `net.self_ms` (RTT − server compile and queue time), `net.codec_us`, `net.response_bytes` (x), `net.busy` (x) | `latency_p50_ms`, `jobs_per_s` — `wire_mixed` | all others |
//! | `service` | `service.queue_wait_ms`, `service.busy_ms`, `service.coalesced` | `latency_tail_ms` — `wire_mixed`; `jobs_per_s` — `paper_eval` | `fleet_dispatch` |
//! | `pipeline` | `pipeline.validate_us`, `pipeline.route_ms`, `pipeline.lower_ms`, `pipeline.pulse_us`, `pipeline.route_misses` (x), `pipeline.full_compiles` (x) | `jobs_per_s` — `wire_mixed`; `latency_tail_ms` — `fleet_dispatch` (heavy-hex jobs) | `paper_eval` |
//! | `sched` | `sched.zzx_ms`, `sched.par_ms`, `sched.distance_queries` (x), `sched.layers` (x) | `jobs_per_s`, `residual_zz_weight` — `fleet_dispatch`; `plan_duration_us` — all | `wire_mixed` repeats |
//! | `calib` | `calib.runs` (x), `calib.measure_ms` | `setup_s` — all; `jobs_per_s` — `fleet_dispatch` | timed phase of the other two |
//! | `sim` | `sim.eval_ms`, `sim.trajectories` (x), `sim.kernel_sweeps` (x), `sim.amp_updates` (x), `sim.bytes_moved` (x) | `jobs_per_s`, `latency_tail_ms` — `paper_eval`; `latency_p50_ms` — `fleet_dispatch` | compile-only wire requests |
//! | `persist` | `persist.get_us`, `persist.put_us`, `persist.hits`, `persist.writes` (x) | `latency_p50_ms` — `wire_mixed` | `paper_eval`, `fleet_dispatch` |
//! | `fleet` | `fleet.candidates` (x), `fleet.score_ms`, `fleet.epoch_ms`, `fleet.invalidations` (x) | `jobs_per_s`, `latency_p50_ms` — `fleet_dispatch` | all others |
//! | host | `host.cpu_ms_per_job`, `host.steal_ms` | explains wall-clock noise | — |
//!
//! `trace.spans` and `trace.requests` count what the traced run recorded.
//! `sim.amp_updates` and `sim.bytes_moved` are computed from plan size
//! (the deterministic path has no engine counter). The engine and
//! scheduler counters still reach sessions through process-global sinks,
//! so they are read from exactly one dedicated observer session.
//!
//! # Output checks
//!
//! Run outside the clocks; any failure makes the result `correct: false`.
//! Every distinct plan evaluated without decoherence (`paper_eval`, the
//! `wire_mixed` eval slice) matches the straight-line `zz_bench::reference`
//! executor to 1e-10; every wire response equals an in-process compile
//! bit for bit; every fleet winner is the argmax of its candidates, ties
//! going to the earliest-registered device. Every fleet plan checked —
//! the winners, and in the traced run every replayed candidate — passes
//! a structural check written here: each physical pulse of the
//! independently routed and lowered circuit is scheduled exactly once,
//! no layer pulses a qubit twice, and two-qubit pulses sit on device
//! couplings only. A plan-metrics fleet score recomputes from its plan
//! bit for bit. A Monte-Carlo fleet score has no independent check (the
//! reference executor draws other random streams, and at eight
//! trajectories per disorder seed no tolerance is both safe and tight);
//! the traced run replays it through `fidelity_of`. The traced run checks
//! every replay against the real output.
//!
//! Bounds — how far each end-to-end metric may worsen before a change is
//! a regression — are in `BENCHMARK.json`.

mod checks;
mod fleet_dispatch;
mod harness;
mod paper_eval;
mod replay;
mod report;
mod trace;
mod wire_mixed;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Ctx, TraceBook};
use report::{
    info_line, json_number, median, median_of_means, peak_rss_mb, result_line, tail, Metric, Run,
    SETUP_GROUPS, TAIL_BEYOND,
};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["paper_eval", "wire_mixed", "fleet_dispatch"];

/// How a per-layer metric is folded from its accumulator.
#[derive(Clone, Copy)]
enum Fold {
    /// Mean value per call (timings).
    Mean,
    /// Total over the traced run (counts, ratios).
    Total,
}

/// The per-layer metrics of the traced run: name, unit, fold.
const PER_LAYER: [(&str, &str, Fold); 38] = [
    ("net.self_ms", "ms", Fold::Mean),
    ("net.codec_us", "us", Fold::Mean),
    ("net.response_bytes", "bytes", Fold::Total),
    ("net.busy", "count", Fold::Total),
    ("service.queue_wait_ms", "ms", Fold::Mean),
    ("service.busy_ms", "ms", Fold::Mean),
    ("service.coalesced", "count", Fold::Total),
    ("pipeline.validate_us", "us", Fold::Mean),
    ("pipeline.route_ms", "ms", Fold::Mean),
    ("pipeline.lower_ms", "ms", Fold::Mean),
    ("pipeline.pulse_us", "us", Fold::Mean),
    ("pipeline.route_misses", "count", Fold::Total),
    ("pipeline.full_compiles", "count", Fold::Total),
    ("sched.zzx_ms", "ms", Fold::Mean),
    ("sched.par_ms", "ms", Fold::Mean),
    ("sched.distance_queries", "count", Fold::Total),
    ("sched.layers", "count", Fold::Total),
    ("calib.runs", "count", Fold::Total),
    ("calib.measure_ms", "ms", Fold::Mean),
    ("sim.eval_ms", "ms", Fold::Mean),
    ("sim.trajectories", "count", Fold::Total),
    ("sim.kernel_sweeps", "count", Fold::Total),
    ("sim.amp_updates", "count", Fold::Total),
    ("sim.bytes_moved", "bytes", Fold::Total),
    ("persist.get_us", "us", Fold::Mean),
    ("persist.put_us", "us", Fold::Mean),
    ("persist.hits", "count", Fold::Total),
    ("persist.writes", "count", Fold::Total),
    ("fleet.candidates", "count", Fold::Total),
    ("fleet.score_ms", "ms", Fold::Mean),
    ("fleet.epoch_ms", "ms", Fold::Mean),
    ("fleet.invalidations", "count", Fold::Total),
    ("host.cpu_ms_per_job", "ms", Fold::Mean),
    ("host.steal_ms", "ms", Fold::Total),
    ("trace.accounted_pct", "%", Fold::Total),
    ("trace.overhead_pct", "%", Fold::Total),
    ("trace.spans", "count", Fold::Total),
    ("trace.requests", "count", Fold::Total),
];

/// Per-layer counts that must repeat bit for bit across runs of one seed.
const EXACT_LAYER: [&str; 14] = [
    "net.response_bytes",
    "net.busy",
    "pipeline.route_misses",
    "pipeline.full_compiles",
    "sched.distance_queries",
    "sched.layers",
    "calib.runs",
    "sim.trajectories",
    "sim.kernel_sweeps",
    "sim.amp_updates",
    "sim.bytes_moved",
    "persist.writes",
    "fleet.candidates",
    "fleet.invalidations",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; choose one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("zzperf: {e}");
            eprintln!(
                "usage: zzperf --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".zzperf");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scratch: root.join(format!("scratch-{}", std::process::id())),
    };
    let mut run = Run::default();
    let mut book = TraceBook::new(args.trace);
    match args.workload.as_str() {
        "paper_eval" => paper_eval::run(&ctx, &mut run, &mut book),
        "wire_mixed" => wire_mixed::run(&ctx, &mut run, &mut book),
        "fleet_dispatch" => fleet_dispatch::run(&ctx, &mut run, &mut book),
        _ => unreachable!("parse_args admits only known workloads"),
    }
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    book.finish(&mut run);
    if let Some(tracer) = &book.tracer {
        let _ = std::fs::create_dir_all(&root);
        let path = root.join(format!("trace-{}-{}.ndjson", args.workload, args.seed));
        if let Err(e) = tracer.write_ndjson(&path) {
            eprintln!("zzperf: could not write {}: {e}", path.display());
        }
        run.layers
            .count("trace.spans", tracer.self_times().len() as u64);
        run.layers
            .count("trace.requests", book.requests.len() as u64);
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    run.note("workload", &args.workload);
    run.note("seed", args.seed);
    run.note("seconds", args.seconds);
    run.note("trace", args.trace as u8);
    run.note("nproc", nproc);
    run.note(
        "build_profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    run.note("setups", run.setup_s.len());
    run.note("latency_samples", run.latency_ms.len());

    let mut exact: Vec<(String, f64)> = Vec::new();
    let metrics: Vec<Metric> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit, fold)| {
                let value = match fold {
                    Fold::Mean => run.layers.mean(name),
                    Fold::Total => run.layers.sum(name),
                };
                if EXACT_LAYER.contains(&name) {
                    exact.push((name.to_string(), value));
                }
                Metric { name, unit, value }
            })
            .collect()
    } else {
        let (tail_ms, tail_pct) = if run.round_tails.is_empty() {
            tail(&run.latency_ms).unwrap_or((f64::NAN, f64::NAN))
        } else {
            let values: Vec<f64> = run.round_tails.iter().map(|t| t.0).collect();
            (median(&values), run.round_tails[0].1)
        };
        run.note("latency_tail_percentile", format!("{tail_pct:.2}"));
        run.note("latency_tail_beyond", TAIL_BEYOND);
        run.note(
            "host_steal_ms",
            format!("{:.1}", run.layers.sum("host.steal_ms")),
        );
        let quality = &run.quality;
        exact.push(("residual_zz_weight".into(), quality.residual_zz_weight()));
        exact.push(("plan_duration_us".into(), quality.plan_duration_us()));
        exact.push(("fidelity_mean".into(), quality.fidelity_mean()));
        vec![
            Metric {
                name: "setup_s",
                unit: "s",
                value: median_of_means(&run.setup_s, SETUP_GROUPS),
            },
            Metric {
                name: "jobs_per_s",
                unit: "1/s",
                value: run.completed as f64 / run.timed_s,
            },
            Metric {
                name: "latency_p50_ms",
                unit: "ms",
                value: median(&run.latency_ms),
            },
            Metric {
                name: "latency_tail_ms",
                unit: "ms",
                value: tail_ms,
            },
            Metric {
                name: "peak_rss_mb",
                unit: "MiB",
                value: peak_rss_mb().unwrap_or(f64::NAN),
            },
            Metric {
                name: "residual_zz_weight",
                unit: "coupling-ns",
                value: quality.residual_zz_weight(),
            },
            Metric {
                name: "plan_duration_us",
                unit: "us",
                value: quality.plan_duration_us(),
            },
            Metric {
                name: "fidelity_mean",
                unit: "fidelity",
                value: quality.fidelity_mean(),
            },
        ]
    };

    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        run.fail_check("a metric could not be measured");
    }
    let correct = run.check_failures.is_empty() && run.attempted > 0;
    run.note("check_failures", run.check_failures.len());

    let ms = |v: &[f64], scale: f64| {
        v.iter()
            .map(|x| format!("{:.1}", x * scale))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!("setup ms: {}", ms(&run.setup_s, 1e3));
    let deciles: Vec<f64> = (0..=10)
        .map(|d| report::quantile(&run.latency_ms, d as f64 / 10.0))
        .collect();
    eprintln!("latency deciles ms: {}", ms(&deciles, 1.0));
    for m in &metrics {
        eprintln!(
            "{:<28} {:>16} {}",
            m.name,
            format!("{:.4}", m.value),
            m.unit
        );
    }
    let exact_body: Vec<String> = exact
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_number(*v)))
        .collect();
    println!("exact {{{}}}", exact_body.join(", "));
    println!("{}", info_line(&run.info));
    println!(
        "{}",
        result_line(correct, run.attempted, run.failed, &metrics)
    );
    ExitCode::SUCCESS
}
