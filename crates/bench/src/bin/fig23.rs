//! Figure 23: 6-qubit benchmarks under ZZ crosstalk *and* decoherence,
//! `T1 = T2 ∈ {100, 200, 500, 1000}` µs.
//!
//! Decoherence is simulated by Monte-Carlo trajectory unraveling (validated
//! against exact density-matrix evolution in `zz-sim`'s tests). The whole
//! benchmark × T1 × configuration grid goes through one [`Session`] queue:
//! workers compile *and* evaluate, and the session caches route each
//! benchmark once and calibrate each pulse method once.

use std::sync::Arc;

use zz_bench::{banner, fixed, row, CIRCUIT_SEED};
use zz_circuit::bench::{generate, BenchmarkKind};
use zz_service::{
    CompileOptions, CompileRequest, EvalSpec, PulseMethod, SchedulerKind, Session, Target,
};

fn main() {
    banner(
        "Figure 23",
        "6-qubit benchmarks under ZZ crosstalk + decoherence",
    );
    let times_us = [100.0, 200.0, 500.0, 1000.0];
    let trajectories = 64;
    let configs = [
        (PulseMethod::Gaussian, SchedulerKind::ParSched),
        (PulseMethod::OptCtrl, SchedulerKind::ZzxSched),
        (PulseMethod::Pert, SchedulerKind::ZzxSched),
    ];

    let session = Session::new(Target::for_qubits(6).expect("6 qubits fit the paper devices"));
    let mut requests = Vec::new();
    for kind in BenchmarkKind::CORE {
        let circuit = Arc::new(generate(kind, 6, CIRCUIT_SEED));
        for &t in &times_us {
            for &(m, s) in &configs {
                let eval = EvalSpec::paper_default()
                    .with_seeds(vec![11, 23])
                    .with_decoherence_us(t, trajectories);
                requests.push(
                    CompileRequest::shared(Arc::clone(&circuit))
                        .with_options(CompileOptions::new(m, s))
                        .with_eval(eval)
                        .with_label(format!("{kind}-6/T{t}/{m}+{s}")),
                );
            }
        }
    }
    let report = session.run(requests);
    eprintln!("[service] {report}");
    let fidelities = report
        .fidelities()
        .unwrap_or_else(|e| panic!("suite evaluation aborted: {e}"));

    for (bi, kind) in BenchmarkKind::CORE.iter().enumerate() {
        println!("\n-- {kind}-6 --");
        row(
            "T1=T2 (us)",
            &times_us
                .iter()
                .map(|t| format!("{t:10.0}"))
                .collect::<Vec<_>>(),
        );
        for (cj, &(m, s)) in configs.iter().enumerate() {
            let series: Vec<String> = times_us
                .iter()
                .enumerate()
                .map(|(ti, _)| fixed(fidelities[bi * times_us.len() * 3 + ti * 3 + cj]))
                .collect();
            row(&format!("{m}+{s}"), &series);
        }
        let improvement: Vec<String> = times_us
            .iter()
            .enumerate()
            .map(|(ti, _)| {
                let base = fidelities[bi * times_us.len() * 3 + ti * 3];
                let ours = fidelities[bi * times_us.len() * 3 + ti * 3 + 2];
                if base > 1e-6 {
                    format!("{:8.1}x", ours / base)
                } else {
                    "inf".into()
                }
            })
            .collect();
        row("improvement", &improvement);
    }
}
