//! Domain example: a MaxCut-QAOA workload compiled four ways — every
//! combination of {Gaussian, Pert} pulses and {ParSched, ZZXSched} — to
//! show the synergy the paper's Figure 21 demonstrates: neither optimized
//! pulses nor ZZ-aware scheduling alone recovers the fidelity that the
//! co-optimization reaches.
//!
//! The four configurations go through one [`Session::run`] on the
//! session's worker queue and come back in submission order with their
//! fidelities evaluated by the workers.
//!
//! Run with: `cargo run --example qaoa_pipeline --release`

use std::sync::Arc;

use zz_circuit::bench::{generate, BenchmarkKind};
use zz_service::{
    CompileOptions, CompileRequest, EvalSpec, PulseMethod, SchedulerKind, Session, Target,
};

fn main() -> Result<(), zz_service::Error> {
    let n = 9;
    let circuit = Arc::new(generate(BenchmarkKind::Qaoa, n, 7));
    // `for_qubits` picks the paper's smallest sub-grid holding the
    // register (here the 3×3 grid).
    let session = Session::new(Target::for_qubits(n)?);

    println!(
        "QAOA-{n} on {}: {} gates ({} two-qubit)\n",
        session.target().topology().name(),
        circuit.gate_count(),
        circuit.two_qubit_gate_count()
    );
    println!(
        "{:<32} {:>8} {:>10} {:>10}",
        "configuration", "layers", "time (ns)", "fidelity"
    );

    let mut requests = Vec::new();
    for method in [PulseMethod::Gaussian, PulseMethod::Pert] {
        for sched in [SchedulerKind::ParSched, SchedulerKind::ZzxSched] {
            requests.push(
                CompileRequest::shared(Arc::clone(&circuit))
                    .with_options(CompileOptions::new(method, sched))
                    .with_eval(EvalSpec::paper_default()),
            );
        }
    }
    for outcome in session.run(requests).outcomes {
        let response = outcome?;
        println!(
            "{:<32} {:>8} {:>10.0} {:>10.4}",
            response.label,
            response.compiled.plan.layer_count(),
            response.compiled.execution_time(),
            response.fidelity.expect("eval requested")
        );
    }
    println!("\nthe bottom row (Pert + ZZXSched) is the paper's co-optimization");
    Ok(())
}
