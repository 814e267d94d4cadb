//! Hidden Shift end to end, the way a device run looks: compile, execute
//! under the ZZ error model, and *sample measurement shots* — comparing how
//! often the correct answer is read out with and without co-optimization.
//!
//! Compilation goes through the service layer (one [`Target`], one
//! [`Session`]); the shot sampling below runs the simulator's compiled
//! plan programs directly, as a readout experiment would.
//!
//! Run with: `cargo run --example hidden_shift_readout --release`

use rand::rngs::StdRng;
use rand::SeedableRng;
use zz_circuit::bench::{generate, hidden_shift_answer, BenchmarkKind};
use zz_service::{CompileOptions, CompileRequest, PulseMethod, SchedulerKind, Session, Target};
use zz_sim::executor::ZzErrorModel;
use zz_sim::program::PlanProgram;

fn main() -> Result<(), zz_service::Error> {
    let n = 6;
    let seed = 7;
    let circuit = generate(BenchmarkKind::HiddenShift, n, seed);
    let session = Session::new(Target::for_qubits(n)?);
    let device = session.target().topology().clone();
    let shift = hidden_shift_answer(n, seed);
    let shift_string: String = shift.iter().map(|b| char::from(b'0' + b)).collect();
    println!("hidden shift: |{shift_string}⟩, device {}\n", device.name());

    let shots = 4096;
    for (name, method, sched) in [
        (
            "baseline  (Gaussian + ParSched)",
            PulseMethod::Gaussian,
            SchedulerKind::ParSched,
        ),
        (
            "co-optimized (Pert + ZZXSched)",
            PulseMethod::Pert,
            SchedulerKind::ZzxSched,
        ),
    ] {
        let response = session.compile(
            &CompileRequest::new(circuit.clone())
                .with_options(CompileOptions::new(method, sched))
                .with_label(name),
        )?;
        let compiled = &response.compiled;
        let model = ZzErrorModel::sampled(
            &device,
            session.target().lambda_mean(),
            session.target().lambda_std(),
            11,
        )
        .with_residuals(compiled.residuals);
        let noisy =
            PlanProgram::compile(&compiled.plan, &device, &model, &compiled.durations).run();

        // The ideal output tells us which physical basis state encodes the
        // answer (the snake layout permutes wires).
        let ideal = PlanProgram::ideal(&compiled.plan).run();
        let answer_index = ideal
            .amplitudes()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs_sq().partial_cmp(&b.1.abs_sq()).expect("finite"))
            .map(|(i, _)| i)
            .expect("non-empty state");

        let mut rng = StdRng::seed_from_u64(42);
        let counts = noisy.sample_counts(shots, &mut rng);
        let correct = counts
            .iter()
            .find(|(idx, _)| *idx == answer_index)
            .map(|&(_, c)| c)
            .unwrap_or(0);
        println!("{name}");
        println!(
            "  correct readout: {correct}/{shots} shots ({:.1}%)",
            100.0 * correct as f64 / shots as f64
        );
        let top: Vec<String> = counts
            .iter()
            .take(3)
            .map(|(idx, c)| format!("{idx:0n$b}:{c}"))
            .collect();
        println!("  top outcomes   : {}\n", top.join("  "));
    }
    Ok(())
}
