//! Quality-side ablations of the scheduler's design choices, the knobs of
//! [`zz_sched::zzx::ZzxConfig`]:
//!
//! * the α weight of the NQ-vs-NC trade-off,
//! * the top-k path-relaxing budget,
//! * the suppression requirement `R` (strict / paper / loose).
//!
//! For each setting: mean NQ/NC over layers, relative execution time, and
//! end-to-end fidelity on a representative benchmark. All settings go
//! through ONE [`Session`] queue: the QAOA-9 circuit is routed once and
//! shared by every sweep point (the session's routing memo), and
//! calibration runs once for the whole process.

use std::sync::Arc;

use zz_bench::{banner, fixed, row, CIRCUIT_SEED};
use zz_circuit::bench::{generate, BenchmarkKind};
use zz_core::calib;
use zz_sched::zzx::Requirement;
use zz_service::{
    CompileOptions, CompileRequest, CompileResponse, Compiled, PulseMethod, Session, Target,
};
use zz_sim::executor::ZzErrorModel;
use zz_sim::program::PlanProgram;

/// Mean fidelity over the paper's disorder ensemble, with one uniform
/// cross-region residual factor instead of the plan's per-pulse table.
fn evaluate(compiled: &Compiled, target: &Target, residual: f64) -> f64 {
    let topo = &compiled.topology;
    // The same disorder ensemble every fig* binary averages over.
    let seeds = zz_service::EvalSpec::paper_default().crosstalk_seeds;
    let ideal = PlanProgram::ideal(&compiled.plan).run();
    let mut total = 0.0;
    for &seed in &seeds {
        let model = ZzErrorModel::sampled(topo, target.lambda_mean(), target.lambda_std(), seed)
            .with_residual(residual);
        let noisy = PlanProgram::compile(&compiled.plan, topo, &model, &compiled.durations).run();
        total += ideal.fidelity(&noisy);
    }
    total / seeds.len() as f64
}

fn stats_row(label: &str, compiled: &Compiled, fidelity: f64) {
    row(
        label,
        &[
            format!("{:10.2}", compiled.plan.mean_nq()),
            format!("{:10.2}", compiled.plan.mean_nc()),
            format!("{:10.0}", compiled.execution_time()),
            fixed(fidelity),
        ],
    );
}

fn main() {
    banner(
        "Ablations",
        "scheduler design choices (QAOA-9 on the 3x4 grid)",
    );
    let residual = calib::residual_factor(PulseMethod::Pert);
    let circuit = Arc::new(generate(BenchmarkKind::Qaoa, 9, CIRCUIT_SEED));
    let target = Target::builder()
        .store_from_env()
        .build()
        .expect("the environment-opt-in store never fails the build");
    let session = Session::new(target);

    let alphas = [0.0, 0.25, 0.5, 1.0, 2.0];
    let ks = [1usize, 2, 3, 5, 8];
    // `None` = the engine default, which is the paper requirement derived
    // from the device.
    let reqs: [(&str, Option<Requirement>); 3] = [
        (
            "strict (NQ<3,NC<=4)",
            Some(Requirement {
                nq_limit: 3,
                nc_limit: 4,
            }),
        ),
        ("paper (NQ<4,NC<=8)", None),
        (
            "loose (unbounded)",
            Some(Requirement {
                nq_limit: 99,
                nc_limit: 99,
            }),
        ),
    ];

    // One session batch for all three sweeps — every sweep point shares
    // the one Arc'ed circuit, which routes once for the whole batch.
    let request = |label: String, options: CompileOptions| {
        CompileRequest::shared(Arc::clone(&circuit))
            .with_options(options)
            .with_label(label)
    };
    let mut requests = Vec::new();
    for alpha in alphas {
        requests.push(request(
            format!("{alpha:4.2}"),
            CompileOptions::default().with_alpha(alpha),
        ));
    }
    for k in ks {
        requests.push(request(format!("{k}"), CompileOptions::default().with_k(k)));
    }
    for (name, req) in &reqs {
        let mut options = CompileOptions::default();
        if let Some(req) = req {
            options = options.with_requirement(*req);
        }
        requests.push(request(name.to_string(), options));
    }
    let report = session.run(requests);
    eprintln!("[service] {report}");
    let responses: Vec<&CompileResponse> = report
        .outcomes
        .iter()
        .map(|o| match o {
            Ok(response) => response,
            Err(e) => panic!("QAOA-9 fits the 3x4 grid: {e}"),
        })
        .collect();

    let fidelities: Vec<f64> = responses
        .iter()
        .map(|r| evaluate(&r.compiled, session.target(), residual))
        .collect();
    // Recover each sweep's rows by slicing the flat response/fidelity
    // lists in the same order the requests were submitted.
    let print_sweep = |responses: &[&CompileResponse], fidelities: &[f64]| {
        for (r, &f) in responses.iter().zip(fidelities) {
            stats_row(&r.label, &r.compiled, f);
        }
    };
    let (alpha_out, rest) = responses.split_at(alphas.len());
    let (k_out, req_out) = rest.split_at(ks.len());
    let (alpha_fid, rest) = fidelities.split_at(alphas.len());
    let (k_fid, req_fid) = rest.split_at(ks.len());
    let header = [
        "mean NQ".into(),
        "mean NC".into(),
        "time (ns)".into(),
        "fidelity".into(),
    ];

    println!("\n-- alpha sweep (k = 3, paper requirement) --");
    row("alpha", &header);
    print_sweep(alpha_out, alpha_fid);

    println!("\n-- k sweep (alpha = 0.5, paper requirement) --");
    row("k", &header);
    print_sweep(k_out, k_fid);

    println!("\n-- requirement sweep (alpha = 0.5, k = 3) --");
    row("requirement", &header);
    print_sweep(req_out, req_fid);
}
