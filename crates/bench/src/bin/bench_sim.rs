//! Simulation-engine speed snapshot — the perf-trajectory probe run by CI.
//!
//! Measures the precompiled execution engine (`zz_sim::program`) against
//! the straight-line executor it replaced ([`zz_bench::reference`]: one
//! amplitude sweep per coupling per layer, per-run residual scans, fresh
//! gate matrices per application, strictly sequential trajectories) on the
//! workload of the acceptance bar: a 9-qubit QAOA plan, 200 Monte-Carlo
//! trajectories under ZZ crosstalk + decoherence, plus the deterministic
//! disorder sweep of the Figure 20–22 shape.
//!
//! To keep the recorded trajectory comparable across runners, the
//! asserted Monte-Carlo speedup is measured **single-threaded** — pure
//! algorithmic gain, independent of the machine's core count. The
//! all-cores time is reported separately (`engine_parallel_ms`, next to
//! the `available_parallelism` it ran on).
//!
//! Alongside the end-to-end times, the snapshot records per-kernel
//! microbenchmarks of the batched engine (`zz_sim::batch::BatchedState`
//! at the default batch width): nanoseconds per amplitude-lane for the
//! single-qubit, two-qubit and diagonal sweeps at 8, 12 and 16 qubits —
//! so a kernel regression is attributable before it shows up in the
//! end-to-end number.
//!
//! The result is written as `BENCH_sim.json` (override the path with the
//! `BENCH_SIM_OUT` environment variable) and uploaded next to
//! `BENCH_pipeline.json` by the CI workflow, so the simulation-speed
//! trajectory is tracked per commit.

use std::time::Instant;

use zz_bench::reference;
use zz_circuit::bench::{generate, BenchmarkKind};
use zz_circuit::native::compile_to_native;
use zz_circuit::route;
use zz_linalg::c64;
use zz_sched::{zzx::ZzxConfig, zzx_schedule, GateDurations, SchedulePlan};
use zz_sim::batch::BatchedState;
use zz_sim::density::Decoherence;
use zz_sim::executor::ZzErrorModel;
use zz_sim::program::{PlanProgram, TrajectoryProgram, DEFAULT_BATCH_LANES};
use zz_topology::Topology;

fn qaoa9_plan(topo: &Topology) -> SchedulePlan {
    let circuit = generate(BenchmarkKind::Qaoa, 9, 7);
    let native = compile_to_native(&route(&circuit, topo));
    zzx_schedule(topo, &native, &ZzxConfig::paper_default(topo))
}

/// The engine's mean Monte-Carlo fidelity on `threads` workers, paying
/// the whole per-evaluation cost: the ideal reference run, the trajectory
/// program's compilation and the trajectory fan.
#[allow(clippy::too_many_arguments)]
fn engine_fidelity(
    plan: &SchedulePlan,
    topo: &Topology,
    model: &ZzErrorModel,
    deco: &Decoherence,
    d: &GateDurations,
    trajectories: usize,
    seed: u64,
    threads: usize,
) -> f64 {
    let ideal = PlanProgram::ideal(plan).run();
    TrajectoryProgram::compile(plan, topo, model, deco, d).mean_fidelity(
        &ideal,
        trajectories,
        seed,
        threads,
    )
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// ns per amplitude-lane of one batched kernel sweep, measured over
/// enough repetitions to amortize timer noise.
struct KernelRow {
    qubits: usize,
    single_ns: f64,
    two_ns: f64,
    diag_ns: f64,
}

fn kernel_row(n: usize) -> KernelRow {
    let lanes = DEFAULT_BATCH_LANES;
    let mut batch = BatchedState::zero(n, lanes);
    // ≈2^22 amplitude visits per kernel, regardless of register size.
    let reps = usize::max(1, (1usize << 22) >> n);
    let amp_lanes = (reps * (1 << n) * lanes) as f64;

    let single = {
        let m = zz_quantum::gates::x90();
        let s = m.as_slice();
        [s[0], s[1], s[2], s[3]]
    };
    let two = {
        let m = zz_quantum::gates::zx90();
        let mut out = [c64::ZERO; 16];
        out.copy_from_slice(m.as_slice());
        out
    };
    let diag: Vec<c64> = (0..1usize << n)
        .map(|i| c64::cis(1e-3 * i as f64))
        .collect();
    let (ma, mb) = (1usize << (n - 2), 1usize << 1);

    batch.kernel_single(&single, 1 << (n / 2));
    let t = Instant::now();
    for _ in 0..reps {
        batch.kernel_single(&single, 1 << (n / 2));
    }
    let single_ns = t.elapsed().as_secs_f64() * 1e9 / amp_lanes;

    batch.kernel_two(&two, ma, mb);
    let t = Instant::now();
    for _ in 0..reps {
        batch.kernel_two(&two, ma, mb);
    }
    let two_ns = t.elapsed().as_secs_f64() * 1e9 / amp_lanes;

    batch.apply_diagonal(&diag);
    let t = Instant::now();
    for _ in 0..reps {
        batch.apply_diagonal(&diag);
    }
    let diag_ns = t.elapsed().as_secs_f64() * 1e9 / amp_lanes;

    KernelRow {
        qubits: n,
        single_ns,
        two_ns,
        diag_ns,
    }
}

fn main() {
    const TRAJECTORIES: usize = 200;
    const SEED: u64 = 17;
    const ZZ_REPS: usize = 50;

    let topo = Topology::grid(3, 3);
    let plan = qaoa9_plan(&topo);
    let model =
        ZzErrorModel::sampled(&topo, zz_sim::khz(200.0), zz_sim::khz(50.0), 11).with_residual(0.05);
    let deco = Decoherence::equal_us(200.0);
    let d = GateDurations::standard();

    println!(
        "bench_sim: QAOA-9 on {}, {} layers, {TRAJECTORIES} trajectories, batch width {DEFAULT_BATCH_LANES}",
        topo.name(),
        plan.layer_count()
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Warm-up both engines once (page in code, fill allocator pools).
    let _ = reference::fidelity_with_decoherence(&plan, &topo, &model, &deco, &d, 4, SEED);
    let _ = engine_fidelity(&plan, &topo, &model, &deco, &d, 4, SEED, cores);

    // Monte-Carlo fan: the acceptance workload. The asserted speedup is
    // single-threaded vs single-threaded; the parallel time is extra.
    let t = Instant::now();
    let f_legacy =
        reference::fidelity_with_decoherence(&plan, &topo, &model, &deco, &d, TRAJECTORIES, SEED);
    let mc_legacy_ms = ms(t);
    let t = Instant::now();
    let f_engine = engine_fidelity(&plan, &topo, &model, &deco, &d, TRAJECTORIES, SEED, 1);
    let mc_engine_ms = ms(t);
    let t = Instant::now();
    let f_parallel = engine_fidelity(&plan, &topo, &model, &deco, &d, TRAJECTORIES, SEED, cores);
    let mc_parallel_ms = ms(t);
    let mc_speedup = mc_legacy_ms / mc_engine_ms;
    println!(
        "monte-carlo: legacy {mc_legacy_ms:.1} ms (F={f_legacy:.4})  engine(1 thread) {mc_engine_ms:.1} ms (F={f_engine:.4})  engine(all {cores} cores) {mc_parallel_ms:.1} ms  speedup {mc_speedup:.2}x"
    );

    // Deterministic disorder sweep: the Figure 20–22 evaluation shape —
    // one plan, several crosstalk samples. The engine computes the ideal
    // reference once per sweep; the legacy loop recomputed ideal + noisy
    // per sample.
    let seeds = [11u64, 23, 37];
    let sample = |s: u64| {
        ZzErrorModel::sampled(&topo, zz_sim::khz(200.0), zz_sim::khz(50.0), s).with_residual(0.05)
    };
    let t = Instant::now();
    let mut f_zz_legacy = 0.0;
    for _ in 0..ZZ_REPS {
        f_zz_legacy = seeds
            .iter()
            .map(|&s| {
                let m = sample(s);
                reference::run_ideal(&plan).fidelity(&reference::run_with_zz(&plan, &topo, &m, &d))
            })
            .sum::<f64>()
            / seeds.len() as f64;
    }
    let zz_legacy_ms = ms(t);
    let t = Instant::now();
    let mut f_zz_engine = 0.0;
    for _ in 0..ZZ_REPS {
        let ideal = PlanProgram::ideal(&plan).run();
        f_zz_engine = seeds
            .iter()
            .map(|&s| {
                let m = sample(s);
                ideal.fidelity(&PlanProgram::compile(&plan, &topo, &m, &d).run())
            })
            .sum::<f64>()
            / seeds.len() as f64;
    }
    let zz_engine_ms = ms(t);
    let zz_speedup = zz_legacy_ms / zz_engine_ms;
    println!(
        "disorder sweep x{ZZ_REPS}: legacy {zz_legacy_ms:.1} ms  engine {zz_engine_ms:.1} ms  speedup {zz_speedup:.2}x"
    );

    // Per-kernel microbenchmarks of the batched hot path.
    let kernels: Vec<KernelRow> = [8usize, 12, 16].iter().map(|&n| kernel_row(n)).collect();
    for k in &kernels {
        println!(
            "kernels n={:2}: single {:.2} ns/amp  two {:.2} ns/amp  diag {:.2} ns/amp",
            k.qubits, k.single_ns, k.two_ns, k.diag_ns
        );
    }

    // Sanity: the engines simulate the same physics. The deterministic
    // path must agree to numerical noise; the Monte-Carlo estimates use
    // different (both deterministic) random streams, so they agree only
    // statistically. The parallel fan must be bit-identical to the
    // single-threaded one.
    assert!(
        (f_zz_legacy - f_zz_engine).abs() < 1e-10,
        "deterministic paths diverged: {f_zz_legacy} vs {f_zz_engine}"
    );
    assert!(
        (f_legacy - f_engine).abs() < 0.05,
        "MC estimates diverged beyond sampling noise: {f_legacy} vs {f_engine}"
    );
    assert_eq!(
        f_engine.to_bits(),
        f_parallel.to_bits(),
        "thread count leaked into the Monte-Carlo mean"
    );
    assert!(
        mc_speedup >= 10.0,
        "acceptance bar: >= 10x single-threaded on the Monte-Carlo fidelity, got {mc_speedup:.2}x"
    );

    let kernel_json: Vec<String> = kernels
        .iter()
        .map(|k| {
            format!(
                "{{\"qubits\": {}, \"single_ns_per_amp\": {:.4}, \"two_ns_per_amp\": {:.4}, \"diag_ns_per_amp\": {:.4}}}",
                k.qubits, k.single_ns, k.two_ns, k.diag_ns
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": 3,\n  \"workload\": {{\"benchmark\": \"qaoa-9\", \"device\": \"{}\", \"layers\": {}, \"trajectories\": {TRAJECTORIES}, \"batch_lanes\": {DEFAULT_BATCH_LANES}}},\n  \"monte_carlo\": {{\"legacy_ms\": {mc_legacy_ms:.3}, \"engine_ms\": {mc_engine_ms:.3}, \"engine_parallel_ms\": {mc_parallel_ms:.3}, \"available_parallelism\": {cores}, \"speedup\": {mc_speedup:.3}, \"fidelity_legacy\": {f_legacy:.6}, \"fidelity_engine\": {f_engine:.6}}},\n  \"disorder_sweep\": {{\"reps\": {ZZ_REPS}, \"samples\": {}, \"legacy_ms\": {zz_legacy_ms:.3}, \"engine_ms\": {zz_engine_ms:.3}, \"speedup\": {zz_speedup:.3}}},\n  \"kernels\": [\n    {}\n  ]\n}}\n",
        topo.name(),
        plan.layer_count(),
        seeds.len(),
        kernel_json.join(",\n    "),
    );
    let out = std::env::var("BENCH_SIM_OUT").unwrap_or_else(|_| "BENCH_sim.json".into());
    std::fs::write(&out, &json).expect("snapshot file writable");
    println!("wrote {out}");
}
