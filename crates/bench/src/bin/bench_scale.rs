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
//! Per device the probe reports route/schedule/total wall time, each
//! compile's own peak RSS (`VmHWM` from `/proc/self/status`, reset
//! through `/proc/self/clear_refs` before the compile, where available),
//! the session's `route.graph_reuse` /
//! `sched.distance_queries` counters — the observability trail of the
//! CSR coupling-graph cache and the lazy distance oracle — and the
//! min/mean/max residual-ZZ weight over the device's scheduler sweep.
//!
//! Results are written as `BENCH_scale.json` (override the path with
//! the `BENCH_SCALE_OUT` environment variable) so the CI workflow can
//! track how compile-path scaling evolves across PRs. The probe fails
//! (non-zero exit) unless a ≥961-qubit device completes under both
//! ParSched and ZZXSched.

use std::fmt::Write as _;
use std::time::Duration;

use zz_bench::{brickwork, scale_devices};
use zz_circuit::Gate;
use zz_core::{CompileOptions, SchedulerKind, Stage};
use zz_service::{CompileRequest, Session, Target};

/// Resets the process's peak resident set to its current resident set,
/// so the next [`peak_rss_kb`] covers only what runs after this call.
/// Returns `false` where procfs is missing or refuses the reset.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set (kB) since the last [`reset_peak_rss`], from
/// `/proc/self/status`; `None` on platforms without procfs.
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

struct Row {
    device: String,
    qubits: usize,
    scheduler: SchedulerKind,
    gates: usize,
    route_ms: f64,
    schedule_ms: f64,
    total_ms: f64,
    layers: usize,
    duration_ns: f64,
    mean_nc: f64,
    residual_zz_weight: f64,
    peak_rss_kb: Option<u64>,
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

fn row_json(row: &Row) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"device\": \"{}\", \"qubits\": {}, \"scheduler\": \"{}\", \"gates\": {}, \
         \"route_ms\": {:.3}, \"schedule_ms\": {:.3}, \"total_ms\": {:.3}, \
         \"layers\": {}, \"duration_ns\": {:.1}, \"mean_nc\": {:.3}, \
         \"residual_zz_weight\": {:.1}, \"peak_rss_kb\": {}}}",
        row.device,
        row.qubits,
        row.scheduler,
        row.gates,
        row.route_ms,
        row.schedule_ms,
        row.total_ms,
        row.layers,
        row.duration_ns,
        row.mean_nc,
        row.residual_zz_weight,
        row.peak_rss_kb
            .map(|kb| kb.to_string())
            .unwrap_or_else(|| "null".into()),
    );
    out
}

fn main() {
    let mut rows: Vec<Row> = Vec::new();
    let mut counters: Vec<DeviceCounters> = Vec::new();

    for (name, topo) in scale_devices() {
        let qubits = topo.qubit_count();
        let circuit = brickwork(qubits);
        let gates = circuit.gate_count();
        let target = Target::builder()
            .topology(topo)
            .build()
            .expect("in-memory targets always build");
        // One session per device: the second distinct circuit shape
        // exercises the memo's device-graph cache (`route.graph_reuse`).
        let session = Session::with_threads(target, 1);

        // Submit the scheduler sweep one compile at a time through the
        // session queue. Each compile runs alone between a peak-RSS reset
        // and the read, so its row's peak is its own.
        let first_row = rows.len();
        for scheduler in [SchedulerKind::ParSched, SchedulerKind::ZzxSched] {
            let reset = reset_peak_rss();
            let outcome = session
                .submit(
                    CompileRequest::new(circuit.clone())
                        .with_options(CompileOptions::default().with_scheduler(scheduler))
                        .with_label(format!("{name}/{scheduler}")),
                )
                .wait();
            let peak_rss_kb = if reset { peak_rss_kb() } else { None };
            let response =
                outcome.unwrap_or_else(|e| panic!("{name}/{scheduler} failed to compile: {e}"));
            let trace = response.trace.as_ref().expect("tracing is on by default");
            let summary = response.plan_metrics();
            let row = Row {
                device: name.clone(),
                qubits,
                scheduler,
                gates,
                route_ms: ms(trace.stage_wall(Stage::Route)),
                schedule_ms: ms(trace.stage_wall(Stage::Schedule)),
                total_ms: ms(response.compile_time),
                layers: summary.layers,
                duration_ns: summary.duration_ns,
                mean_nc: summary.mean_nc,
                residual_zz_weight: summary.residual_zz_weight,
                peak_rss_kb,
            };
            println!(
                "[{:>14}] {:>4}q {:>8}: route {:>9.3}ms sched {:>9.3}ms total {:>9.3}ms \
                 ({} layers, {:.0}ns, residual-ZZ {:.0})",
                row.device,
                row.qubits,
                row.scheduler.to_string(),
                row.route_ms,
                row.schedule_ms,
                row.total_ms,
                row.layers,
                row.duration_ns,
                row.residual_zz_weight,
            );
            rows.push(row);
        }
        let weights: Vec<f64> = rows[first_row..]
            .iter()
            .map(|r| r.residual_zz_weight)
            .collect();
        let residual_zz = [
            weights.iter().copied().fold(f64::INFINITY, f64::min),
            weights.iter().sum::<f64>() / weights.len() as f64,
            weights.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        ];

        // A second circuit shape on the same device: its route pass must
        // pull the cached CSR coupling graph instead of rebuilding it.
        let mut variant = circuit.clone();
        variant.push(Gate::X, &[0]);
        let request = CompileRequest::new(variant)
            .with_options(CompileOptions::default().with_scheduler(SchedulerKind::ZzxSched))
            .with_label(format!("{name}/variant"));
        session
            .compile(&request)
            .unwrap_or_else(|e| panic!("{name}/variant failed to compile: {e}"));

        let snapshot = session.metrics().snapshot();
        let device = DeviceCounters {
            device: name.clone(),
            graph_reuse: snapshot.counter("route.graph_reuse").unwrap_or(0),
            distance_queries: snapshot.counter("sched.distance_queries").unwrap_or(0),
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
    for scheduler in [SchedulerKind::ParSched, SchedulerKind::ZzxSched] {
        assert!(
            rows.iter()
                .any(|r| r.qubits >= 961 && r.scheduler == scheduler),
            "no ≥961-qubit device completed under {scheduler}"
        );
    }

    let mut json = String::from("{\n  \"schema\": 1,\n  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {}{}",
            row_json(row),
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
