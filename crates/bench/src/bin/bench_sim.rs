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
//! Each speedup is the **median of [`PAIRS`] per-pair ratios**: the
//! reference and the engine run back to back in every pair, alternating
//! which goes first, and each side repeats its run so the two sides span
//! about the same wall time. A slow stretch of a shared host then slows
//! both sides of a pair instead of one side of a single ratio. The JSON
//! records the pair and repeat counts, every pair's mean times per run
//! and every ratio.
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

/// Reference/engine pairs behind each gated speedup.
const PAIRS: usize = 7;

/// Mean time per run over `reps` back-to-back runs, and the last result.
fn timed<T>(run: &mut impl FnMut() -> T, reps: usize) -> (f64, T) {
    let t = Instant::now();
    let mut value = run();
    for _ in 1..reps {
        value = run();
    }
    (ms(t) / reps as f64, value)
}

/// [`PAIRS`] interleaved timings of the reference and the engine on the
/// same workload, alternating which runs first in each pair. Each side
/// of a pair repeats its run and records the mean time per run.
struct Paired<T> {
    /// Mean reference time per run, per pair.
    reference_ms: Vec<f64>,
    /// Mean engine time per run, per pair.
    engine_ms: Vec<f64>,
    /// Runs per pair on each side.
    reps: (usize, usize),
    /// Reference ÷ engine time, per pair.
    ratios: Vec<f64>,
    /// The last pair's results (both sides are deterministic).
    reference: T,
    engine: T,
}

impl<T> Paired<T> {
    fn run(
        (mut reference, reference_reps): (impl FnMut() -> T, usize),
        (mut engine, engine_reps): (impl FnMut() -> T, usize),
    ) -> Self {
        let (mut reference_ms, mut engine_ms) = (Vec::new(), Vec::new());
        let mut last = None;
        for pair in 0..PAIRS {
            let (r, e) = if pair % 2 == 0 {
                let r = timed(&mut reference, reference_reps);
                (r, timed(&mut engine, engine_reps))
            } else {
                let e = timed(&mut engine, engine_reps);
                (timed(&mut reference, reference_reps), e)
            };
            reference_ms.push(r.0);
            engine_ms.push(e.0);
            last = Some((r.1, e.1));
        }
        let (reference, engine) = last.expect("PAIRS is at least one");
        let ratios = reference_ms
            .iter()
            .zip(&engine_ms)
            .map(|(r, e)| r / e)
            .collect();
        Paired {
            reference_ms,
            engine_ms,
            reps: (reference_reps, engine_reps),
            ratios,
            reference,
            engine,
        }
    }

    /// The median per-pair ratio.
    fn speedup(&self) -> f64 {
        let mut sorted = self.ratios.clone();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        }
    }

    /// The pair and repeat counts, per-pair times and ratios, and the
    /// median ratio as JSON members.
    fn json(&self) -> String {
        let list = |values: &[f64]| {
            let items: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
            format!("[{}]", items.join(", "))
        };
        format!(
            "\"pairs\": {PAIRS}, \"legacy_reps\": {}, \"engine_reps\": {}, \"legacy_ms\": {}, \"engine_ms\": {}, \"ratios\": {}, \"speedup\": {:.3}",
            self.reps.0,
            self.reps.1,
            list(&self.reference_ms),
            list(&self.engine_ms),
            list(&self.ratios),
            self.speedup()
        )
    }
}

fn fmt_ratios(ratios: &[f64]) -> String {
    let items: Vec<String> = ratios.iter().map(|r| format!("{r:.2}")).collect();
    items.join(" ")
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
    let (diag_re, diag_im): (Vec<f64>, Vec<f64>) = (0..1usize << n)
        .map(|i| {
            let d = c64::cis(1e-3 * i as f64);
            (d.re, d.im)
        })
        .unzip();
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

    batch.apply_diagonal(&diag_re, &diag_im);
    let t = Instant::now();
    for _ in 0..reps {
        batch.apply_diagonal(&diag_re, &diag_im);
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
    // About the acceptance ratio, so the engine side of a Monte-Carlo
    // pair runs about as long as the reference side.
    const MC_ENGINE_REPS: usize = 10;
    const ZZ_REPS: usize = 10;

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
    let mc = Paired::run(
        (
            || {
                reference::fidelity_with_decoherence(
                    &plan,
                    &topo,
                    &model,
                    &deco,
                    &d,
                    TRAJECTORIES,
                    SEED,
                )
            },
            1,
        ),
        (
            || engine_fidelity(&plan, &topo, &model, &deco, &d, TRAJECTORIES, SEED, 1),
            MC_ENGINE_REPS,
        ),
    );
    let (f_legacy, f_engine) = (mc.reference, mc.engine);
    let t = Instant::now();
    let f_parallel = engine_fidelity(&plan, &topo, &model, &deco, &d, TRAJECTORIES, SEED, cores);
    let mc_parallel_ms = ms(t);
    let mc_speedup = mc.speedup();
    println!(
        "monte-carlo x{PAIRS} pairs ({MC_ENGINE_REPS} engine runs each): legacy/engine(1 thread) ratios {}  median {mc_speedup:.2}x  (F legacy {f_legacy:.4}, engine {f_engine:.4}; engine on all {cores} cores {mc_parallel_ms:.1} ms)",
        fmt_ratios(&mc.ratios)
    );

    // Deterministic disorder sweep: the Figure 20–22 evaluation shape —
    // one plan, several crosstalk samples. The engine computes the ideal
    // reference once per sweep; the legacy loop recomputed ideal + noisy
    // per sample.
    let seeds = [11u64, 23, 37];
    let sample = |s: u64| {
        ZzErrorModel::sampled(&topo, zz_sim::khz(200.0), zz_sim::khz(50.0), s).with_residual(0.05)
    };
    let sweep = Paired::run(
        (
            || {
                seeds
                    .iter()
                    .map(|&s| {
                        let m = sample(s);
                        reference::run_ideal(&plan)
                            .fidelity(&reference::run_with_zz(&plan, &topo, &m, &d))
                    })
                    .sum::<f64>()
                    / seeds.len() as f64
            },
            ZZ_REPS,
        ),
        (
            || {
                let ideal = PlanProgram::ideal(&plan).run();
                seeds
                    .iter()
                    .map(|&s| {
                        let m = sample(s);
                        ideal.fidelity(&PlanProgram::compile(&plan, &topo, &m, &d).run())
                    })
                    .sum::<f64>()
                    / seeds.len() as f64
            },
            ZZ_REPS,
        ),
    );
    let (f_zz_legacy, f_zz_engine) = (sweep.reference, sweep.engine);
    println!(
        "disorder sweep x{PAIRS} pairs ({ZZ_REPS} runs each side): legacy/engine ratios {}  median {:.2}x",
        fmt_ratios(&sweep.ratios),
        sweep.speedup()
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
        "acceptance bar: median of {PAIRS} paired ratios >= 10x single-threaded on the Monte-Carlo fidelity, got {mc_speedup:.2}x ({})",
        fmt_ratios(&mc.ratios)
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
        "{{\n  \"schema\": 4,\n  \"workload\": {{\"benchmark\": \"qaoa-9\", \"device\": \"{}\", \"layers\": {}, \"trajectories\": {TRAJECTORIES}, \"batch_lanes\": {DEFAULT_BATCH_LANES}}},\n  \"monte_carlo\": {{{}, \"engine_parallel_ms\": {mc_parallel_ms:.3}, \"available_parallelism\": {cores}, \"fidelity_legacy\": {f_legacy:.6}, \"fidelity_engine\": {f_engine:.6}}},\n  \"disorder_sweep\": {{\"samples\": {}, {}}},\n  \"kernels\": [\n    {}\n  ]\n}}\n",
        topo.name(),
        plan.layer_count(),
        mc.json(),
        seeds.len(),
        sweep.json(),
        kernel_json.join(",\n    "),
    );
    let out = std::env::var("BENCH_SIM_OUT").unwrap_or_else(|_| "BENCH_sim.json".into());
    std::fs::write(&out, &json).expect("snapshot file writable");
    println!("wrote {out}");
}
