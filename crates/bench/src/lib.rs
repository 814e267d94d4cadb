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
//! series of the corresponding paper figure. `EXPERIMENTS.md` at the
//! workspace root records paper-vs-measured values for each figure.

#![warn(missing_docs)]

use zz_circuit::bench::BenchmarkKind;
use zz_service::{
    CompileOptions, CompileRequest, EvalSpec, PulseMethod, SchedulerKind, ServiceReport, Session,
    Target,
};

pub mod reference;
pub mod timing;

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

/// A small representative suite — three benchmark instances × the four
/// pulse/scheduler configurations, sized for the 3×3 evaluation grid —
/// shared by `examples/warm_cache.rs` and the `bench_pipeline` CI probe
/// so the documented warm-start demo and the recorded perf trajectory
/// measure the *same* workload.
pub fn demo_requests() -> Vec<CompileRequest> {
    use std::sync::Arc;
    use zz_circuit::bench::generate;

    let configs = [
        (PulseMethod::Gaussian, SchedulerKind::ParSched),
        (PulseMethod::OptCtrl, SchedulerKind::ZzxSched),
        (PulseMethod::Pert, SchedulerKind::ZzxSched),
        (PulseMethod::Dcg, SchedulerKind::ZzxSched),
    ];
    [
        (BenchmarkKind::Qft, 4),
        (BenchmarkKind::Qaoa, 6),
        (BenchmarkKind::Ising, 9),
    ]
    .iter()
    .flat_map(|&(kind, n)| {
        let circuit = Arc::new(generate(kind, n, CIRCUIT_SEED));
        configs.iter().map(move |&(m, s)| {
            CompileRequest::shared(Arc::clone(&circuit))
                .with_options(CompileOptions::new(m, s))
                .with_label(format!("{kind}-{n}/{m}+{s}"))
        })
    })
    .collect()
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
pub fn eval_device(n: usize) -> zz_topology::Topology {
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
