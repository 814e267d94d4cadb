//! Shared helpers for the experiment harness binaries.
//!
//! Each binary in this crate regenerates one figure of the paper's
//! evaluation (`fig16` … `fig28`); run e.g.
//!
//! ```text
//! cargo run -p zz-bench --release --bin fig20
//! ```
//!
//! Output is plain text: one labelled series per line, matching the rows/
//! series of the corresponding paper figure.

#![warn(missing_docs)]

use zz_circuit::bench::BenchmarkKind;
use zz_circuit::{Circuit, Gate};
use zz_service::{
    CompileOptions, CompileRequest, EvalSpec, PulseMethod, SchedulerKind, ServiceReport, Session,
    Target,
};

pub mod reference;

/// The benchmark-circuit generation seed shared by every figure binary
/// (the legacy `EvalConfig::paper_default().circuit_seed`).
pub const CIRCUIT_SEED: u64 = 7;

/// Prints a figure banner.
pub fn banner(figure: &str, description: &str) {
    println!("==================================================================");
    println!("{figure}: {description}");
    println!("==================================================================");
}

/// Formats a number in compact scientific notation for table cells.
pub fn sci(x: f64) -> String {
    if x == 0.0 {
        return "0".into();
    }
    format!("{x:9.2e}")
}

/// Formats a fidelity-like number with fixed precision.
pub fn fixed(x: f64) -> String {
    format!("{x:6.3}")
}

/// Prints one row of a table: a label followed by cells.
pub fn row(label: &str, cells: &[String]) {
    print!("{label:<24}");
    for c in cells {
        print!(" {c:>10}");
    }
    println!();
}

/// The λ/2π sweep (MHz) used by the pulse-level figures (16–19).
pub fn lambda_sweep_mhz() -> Vec<f64> {
    (0..=10).map(|k| k as f64 * 0.2).collect()
}

/// Every core benchmark at every paper size — the case axis of Figures
/// 20–22 and 24.
pub fn core_cases() -> Vec<(BenchmarkKind, usize)> {
    BenchmarkKind::CORE
        .iter()
        .flat_map(|&kind| kind.paper_sizes().iter().map(move |&n| (kind, n)))
        .collect()
}

/// A session over the paper's full 3×4 evaluation device, backed by the
/// `ZZ_CACHE_DIR` on-disk store when that variable is set — the service
/// front the figure binaries share. Per-request device overrides
/// ([`CompileRequest::on_device`]) place smaller benchmarks on their
/// paper sub-grids.
pub fn paper_session() -> Session {
    let target = Target::builder()
        .store_from_env()
        .build()
        .expect("the environment-opt-in store never fails the build");
    Session::new(target)
}

/// The smallest paper evaluation sub-grid holding `n` qubits, through
/// the service layer's typed lookup.
///
/// # Panics
///
/// Panics if `n` exceeds the paper's largest device (the harness's
/// benchmark sizes are static).
fn eval_device(n: usize) -> zz_topology::Topology {
    Target::for_qubits(n)
        .expect("paper benchmark sizes fit the evaluation devices")
        .topology()
        .clone()
}

/// Fidelity of every `case × config` cell, compiled *and evaluated*
/// through one shared [`Session`] queue (one calibration pass per pulse
/// method, one routing pass per benchmark instance; persistent across
/// runs when `ZZ_CACHE_DIR` is set).
///
/// Returns one row per case, one column per config — the table shape the
/// figure binaries print — plus the [`ServiceReport`], which the
/// binaries show via its `Display` impl (summary line + per-stage
/// timing breakdown aggregated from the responses' pipeline traces).
///
/// # Panics
///
/// Panics with the failing jobs' labels if any request errored
/// (failed jobs used to fold in silently as fidelity 0.0, skewing every
/// figure built from the table).
pub fn fidelity_table(
    cases: &[(BenchmarkKind, usize)],
    configs: &[(PulseMethod, SchedulerKind)],
    eval: &EvalSpec,
) -> (Vec<Vec<f64>>, ServiceReport) {
    let session = paper_session();
    let report = session.run(suite_requests(cases, configs, Some(eval)));
    let flat = report
        .fidelities()
        .unwrap_or_else(|e| panic!("suite evaluation aborted: {e}"));
    let table = flat.chunks(configs.len()).map(<[f64]>::to_vec).collect();
    (table, report)
}

/// The request list of a `cases × configs` suite: each benchmark
/// instance is generated once and shared, every request targets its
/// paper sub-grid, labels follow the `kind-n/method+scheduler` figure
/// convention.
pub fn suite_requests(
    cases: &[(BenchmarkKind, usize)],
    configs: &[(PulseMethod, SchedulerKind)],
    eval: Option<&EvalSpec>,
) -> Vec<CompileRequest> {
    use std::sync::Arc;
    use zz_circuit::bench::generate;

    let mut instances: std::collections::HashMap<(BenchmarkKind, usize), Arc<zz_circuit::Circuit>> =
        std::collections::HashMap::new();
    cases
        .iter()
        .flat_map(|&(kind, n)| {
            let circuit = Arc::clone(
                instances
                    .entry((kind, n))
                    .or_insert_with(|| Arc::new(generate(kind, n, CIRCUIT_SEED))),
            );
            let device = eval_device(n);
            configs.iter().map(move |&(m, s)| {
                let mut request = CompileRequest::shared(Arc::clone(&circuit))
                    .with_options(CompileOptions::new(m, s))
                    .on_device(device.clone())
                    .with_label(format!("{kind}-{n}/{m}+{s}"));
                if let Some(eval) = eval {
                    request = request.with_eval(eval.clone());
                }
                request
            })
        })
        .collect()
}

/// The compile-path scaling ladder: paper-scale grids, two at-scale
/// grids, and two heavy-hex lattices (distance 9 ≈ 200 qubits,
/// distance 21 > 1000). `bench_scale` times it and
/// `tests/scale.rs::scale_ladder_plans_are_pinned` pins its plans.
pub fn scale_devices() -> Vec<(String, zz_topology::Topology)> {
    use zz_topology::Topology;

    let mut out = Vec::new();
    for (rows, cols) in [(4, 4), (8, 8), (16, 16), (31, 31)] {
        out.push((format!("grid-{rows}x{cols}"), Topology::grid(rows, cols)));
    }
    for distance in [9, 21] {
        out.push((
            format!("heavy-hex-d{distance}"),
            Topology::heavy_hex(distance),
        ));
    }
    out
}

/// The brickwork circuit the scaling ladder compiles on an `n`-qubit
/// device: a Hadamard column, alternating nearest-neighbour CNOT layers
/// and, from 8 qubits, two medium-range CNOTs so routing has real SWAP
/// work at every size. It has 4 CNOT layers, or 2 from 500 qubits up:
/// at the top of the ladder the point is completion and the scaling
/// slope, not statement coverage.
pub fn brickwork(n: usize) -> Circuit {
    let depth = if n >= 500 { 2 } else { 4 };
    let mut circuit = Circuit::new(n);
    for q in 0..n {
        circuit.push(Gate::H, &[q]);
    }
    for layer in 0..depth {
        let mut q = layer % 2;
        while q + 1 < n {
            circuit.push(Gate::Cnot, &[q, q + 1]);
            q += 2;
        }
    }
    if n >= 8 {
        circuit.push(Gate::Cnot, &[0, n / 2]);
        circuit.push(Gate::Cnot, &[n / 4, 3 * n / 4]);
    }
    circuit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_zero_to_two_mhz() {
        let s = lambda_sweep_mhz();
        assert_eq!(s.first(), Some(&0.0));
        assert!((s.last().unwrap() - 2.0).abs() < 1e-12);
    }
}
