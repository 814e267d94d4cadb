//! Compile-path scaling probe — the 1000-qubit-class benchmark run by
//! CI.
//!
//! Sweeps a ladder of devices from the paper's 16-qubit grid up past
//! 1000 qubits (near-square grids plus an IBM-style heavy-hex lattice)
//! and compiles a brickwork circuit — nearest-neighbour CNOT layers
//! seasoned with a few medium-range CNOTs to force SWAP insertion —
//! under both schedulers. Density-matrix evaluation is impossible at
//! these sizes, so each row instead records the schedule's
//! [`PlanSummary`](zz_sched::PlanSummary) metrics (layer count, total
//! duration, residual-ZZ weight): the at-scale fidelity proxy. The
//! ladder and its circuits are [`zz_bench::scale_devices`] and
//! [`zz_bench::brickwork`]; `tests/scale.rs::scale_ladder_plans_are_pinned`
//! pins their plans exactly, so this probe is about wall time, memory
//! and completion.
//!
//! Each row — one (device, scheduler) compile, route included — runs in
//! a child process of this binary (`bench_scale --row <device>
//! <scheduler>`), one child at a time, in a fresh one-thread session.
//! The child reads its own peak RSS (`VmHWM` from `/proc/self/status`,
//! where available) right after the compile, so each row's peak is that
//! compile's own. The ZZXSched child then compiles a second circuit
//! shape on the same session and reports the session's
//! `route.graph_reuse` / `sched.distance_queries` counters — the
//! observability trail of the CSR coupling-graph cache and the lazy
//! distance oracle. Per device the probe reports route/schedule/total
//! wall time, the peaks, those counters and the min/mean/max
//! residual-ZZ weight over the device's scheduler sweep.
//!
//! Results are written as `BENCH_scale.json` (override the path with
//! the `BENCH_SCALE_OUT` environment variable) so the CI workflow can
//! track how compile-path scaling evolves across PRs. The probe fails
//! (non-zero exit) unless a ≥961-qubit device completes under both
//! ParSched and ZZXSched.

use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::Duration;

use zz_bench::{brickwork, scale_devices};
use zz_circuit::Gate;
use zz_core::{CompileOptions, SchedulerKind, Stage};
use zz_service::{CompileRequest, Session, Target};

/// The scheduler sweep of every device, in row order; the last one also
/// collects the device counters.
const SCHEDULERS: [SchedulerKind; 2] = [SchedulerKind::ParSched, SchedulerKind::ZzxSched];

/// The process's peak resident set (kB) from `/proc/self/status`;
/// `None` on platforms without procfs.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct DeviceCounters {
    device: String,
    graph_reuse: u64,
    distance_queries: u64,
    /// Plans in the device's scheduler sweep.
    plan_jobs: usize,
    /// Min/mean/max residual-ZZ weight over those plans.
    residual_zz: [f64; 3],
}

/// The child side of one row: compiles device `device`'s brickwork
/// circuit under `SCHEDULERS[scheduler]`, then prints the row's summary
/// line and `<residual-ZZ weight> <graph reuse> <distance queries>
/// <row JSON>`. `f64`'s `Display` round-trips, so the parent reads the
/// exact weight; the counters are 0 except on the last scheduler's row.
fn run_row(device: usize, scheduler: usize) {
    let (name, topo) = scale_devices().swap_remove(device);
    let kind = SCHEDULERS[scheduler];
    let qubits = topo.qubit_count();
    let circuit = brickwork(qubits);
    let target = Target::builder()
        .topology(topo)
        .build()
        .expect("in-memory targets always build");
    let session = Session::with_threads(target, 1);
    let response = session
        .submit(
            CompileRequest::new(circuit.clone())
                .with_options(CompileOptions::default().with_scheduler(kind))
                .with_label(format!("{name}/{kind}")),
        )
        .wait()
        .unwrap_or_else(|e| panic!("{name}/{kind} failed to compile: {e}"));
    let peak_rss_kb = peak_rss_kb().map_or_else(|| "null".to_string(), |kb| kb.to_string());
    let trace = response.trace.as_ref().expect("tracing is on by default");
    let (route_ms, schedule_ms) = (
        ms(trace.stage_wall(Stage::Route)),
        ms(trace.stage_wall(Stage::Schedule)),
    );
    let total_ms = ms(response.compile_time);
    let summary = response.plan_metrics();
    println!(
        "[{name:>14}] {qubits:>4}q {:>8}: route {route_ms:>9.3}ms sched {schedule_ms:>9.3}ms \
         total {total_ms:>9.3}ms ({} layers, {:.0}ns, residual-ZZ {:.0})",
        kind.to_string(),
        summary.layers,
        summary.duration_ns,
        summary.residual_zz_weight,
    );

    let (mut graph_reuse, mut distance_queries) = (0, 0);
    if scheduler + 1 == SCHEDULERS.len() {
        // A second circuit shape on the same session: its route pass
        // must pull the cached CSR coupling graph instead of rebuilding
        // it.
        let mut variant = circuit.clone();
        variant.push(Gate::X, &[0]);
        let request = CompileRequest::new(variant)
            .with_options(CompileOptions::default().with_scheduler(SchedulerKind::ZzxSched))
            .with_label(format!("{name}/variant"));
        session
            .compile(&request)
            .unwrap_or_else(|e| panic!("{name}/variant failed to compile: {e}"));
        let snapshot = session.metrics().snapshot();
        graph_reuse = snapshot.counter("route.graph_reuse").unwrap_or(0);
        distance_queries = snapshot.counter("sched.distance_queries").unwrap_or(0);
    }
    println!(
        "{} {graph_reuse} {distance_queries} {{\"device\": \"{name}\", \"qubits\": {qubits}, \
         \"scheduler\": \"{kind}\", \"gates\": {}, \"route_ms\": {route_ms:.3}, \
         \"schedule_ms\": {schedule_ms:.3}, \"total_ms\": {total_ms:.3}, \"layers\": {}, \
         \"duration_ns\": {:.1}, \"mean_nc\": {:.3}, \"residual_zz_weight\": {:.1}, \
         \"peak_rss_kb\": {peak_rss_kb}}}",
        summary.residual_zz_weight,
        circuit.gate_count(),
        summary.layers,
        summary.duration_ns,
        summary.mean_nc,
        summary.residual_zz_weight,
    );
}

/// Runs one row in a child process of this binary, echoes its summary
/// line and returns its residual-ZZ weight, counters and row JSON.
fn measure_row(device: usize, scheduler: usize) -> (f64, u64, u64, String) {
    let output = Command::new(std::env::current_exe().expect("the probe's own executable"))
        .args(["--row", &device.to_string(), &scheduler.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .expect("the row's child process starts");
    assert!(
        output.status.success(),
        "row ({device}, {scheduler}) failed"
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 row output");
    let (summary, result) = stdout.trim_end().rsplit_once('\n').expect("two row lines");
    println!("{summary}");
    let mut fields = result.splitn(4, ' ');
    let mut next = || fields.next().expect("a complete row line");
    (
        next().parse().expect("a residual-ZZ weight"),
        next().parse().expect("a reuse count"),
        next().parse().expect("a query count"),
        next().to_string(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, device, scheduler] = args.as_slice() {
        if flag == "--row" {
            let index = |s: &str| s.parse::<usize>().expect("a row index");
            run_row(index(device), index(scheduler));
            return;
        }
    }

    // Row JSON objects, and the (qubits, scheduler) each one completed.
    let mut rows: Vec<String> = Vec::new();
    let mut completed: Vec<(usize, SchedulerKind)> = Vec::new();
    let mut counters: Vec<DeviceCounters> = Vec::new();

    for (device, (name, topo)) in scale_devices().into_iter().enumerate() {
        let mut weights = Vec::new();
        let (mut graph_reuse, mut distance_queries) = (0, 0);
        for (index, &scheduler) in SCHEDULERS.iter().enumerate() {
            let (weight, reuse, queries, json) = measure_row(device, index);
            weights.push(weight);
            graph_reuse += reuse;
            distance_queries += queries;
            rows.push(json);
            completed.push((topo.qubit_count(), scheduler));
        }
        let residual_zz = [
            weights.iter().copied().fold(f64::INFINITY, f64::min),
            weights.iter().sum::<f64>() / weights.len() as f64,
            weights.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        ];
        let device = DeviceCounters {
            device: name.clone(),
            graph_reuse,
            distance_queries,
            plan_jobs: weights.len(),
            residual_zz,
        };
        println!(
            "[{:>14}] counters: route.graph_reuse {} sched.distance_queries {} \
             residual-ZZ min/mean/max {:.0}/{:.0}/{:.0}",
            device.device,
            device.graph_reuse,
            device.distance_queries,
            device.residual_zz[0],
            device.residual_zz[1],
            device.residual_zz[2],
        );
        assert!(
            device.graph_reuse >= 1,
            "{name}: the second circuit shape must reuse the cached device graph"
        );
        assert!(
            device.distance_queries >= 1,
            "{name}: ZZXSched must query the lazy distance oracle"
        );
        counters.push(device);
    }

    // The acceptance gate: a 1000-qubit-class device completed under
    // both schedulers.
    for scheduler in SCHEDULERS {
        assert!(
            completed
                .iter()
                .any(|&(qubits, kind)| qubits >= 961 && kind == scheduler),
            "no ≥961-qubit device completed under {scheduler}"
        );
    }

    let mut json = String::from("{\n  \"schema\": 1,\n  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {}{}",
            row,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n  \"counters\": [\n");
    for (i, c) in counters.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"device\": \"{}\", \"route_graph_reuse\": {}, \"sched_distance_queries\": {}, \
             \"plan_jobs\": {}, \"residual_zz_min\": {:.1}, \"residual_zz_mean\": {:.1}, \
             \"residual_zz_max\": {:.1}}}{}",
            c.device,
            c.graph_reuse,
            c.distance_queries,
            c.plan_jobs,
            c.residual_zz[0],
            c.residual_zz[1],
            c.residual_zz[2],
            if i + 1 == counters.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");

    let out = std::env::var("BENCH_SCALE_OUT").unwrap_or_else(|_| "BENCH_scale.json".into());
    std::fs::write(&out, &json).expect("snapshot file writable");
    println!("wrote {out}");
}
