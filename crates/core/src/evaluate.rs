//! Fidelity evaluation: run a compiled plan under the error model and
//! report its output-state fidelity. This is the metric behind Figures
//! 20–25.
//!
//! Following the paper's evaluation, an n-qubit benchmark runs on the
//! smallest sub-grid of the 3×4 device that holds it ([`try_device_for`]):
//! 4 → 2×2, 6 → 2×3, 9 → 3×3, 12 → 3×4 — visible in Figure 25, whose
//! baseline (#couplings of the device) grows with benchmark size.

use zz_sim::density::{Decoherence, EXACT_MAX_QUBITS};
use zz_sim::executor::{run_density, ZzErrorModel};
use zz_sim::program::{EngineStats, PlanProgram, TrajectoryProgram, DEFAULT_BATCH_LANES};
use zz_topology::Topology;

use crate::Compiled;

/// The largest evaluation device of the paper (the 3×4 grid).
pub const MAX_EVAL_QUBITS: usize = 12;

/// The Monte-Carlo trajectory seed of every built-in decoherence spec:
/// [`EvalConfig::with_decoherence_us`], the service's `EvalSpec` and the
/// fleet's scoring and ground truth. Each crosstalk seed is XORed into
/// it, so every disorder sample draws its own trajectories.
pub const DECOHERENCE_SEED: u64 = 97;

/// The smallest evaluation sub-grid holding `n` qubits, or `None` when
/// `n` exceeds the paper's largest device ([`MAX_EVAL_QUBITS`]).
///
/// The service layer's `Target::for_qubits` is the typed-error front for
/// this lookup.
///
/// # Example
///
/// ```
/// use zz_core::evaluate::try_device_for;
/// assert_eq!(try_device_for(6).map(|t| t.qubit_count()), Some(6)); // 2×3
/// assert_eq!(try_device_for(7).map(|t| t.qubit_count()), Some(9)); // 3×3
/// assert!(try_device_for(13).is_none());
/// ```
pub fn try_device_for(n: usize) -> Option<Topology> {
    [(2, 2), (2, 3), (3, 3), (3, 4)]
        .into_iter()
        .find(|(rows, cols)| rows * cols >= n)
        .map(|(rows, cols)| Topology::grid(rows, cols))
}

/// Configuration of a fidelity evaluation run.
#[derive(Clone, Debug)]
pub struct EvalConfig {
    /// Mean crosstalk strength (rad/ns).
    pub lambda_mean: f64,
    /// Crosstalk standard deviation (rad/ns).
    pub lambda_std: f64,
    /// Seeds for the per-coupling strength samples; fidelities are averaged
    /// over them.
    pub crosstalk_seeds: Vec<u64>,
    /// Seed for benchmark-circuit generation.
    pub circuit_seed: u64,
    /// Optional decoherence: `(model, trajectories, rng seed)`. Registers
    /// of up to [`EXACT_MAX_QUBITS`] qubits are evaluated exactly on
    /// density matrices; larger ones use Monte-Carlo trajectories.
    pub decoherence: Option<(Decoherence, usize, u64)>,
}

impl EvalConfig {
    /// The paper's setup: `λ ~ N(2π·200 kHz, (2π·50 kHz)²)`, averaged over
    /// 3 disorder samples, no decoherence.
    pub fn paper_default() -> Self {
        EvalConfig {
            lambda_mean: zz_sim::khz(200.0),
            lambda_std: zz_sim::khz(50.0),
            crosstalk_seeds: vec![11, 23, 37],
            circuit_seed: 7,
            decoherence: None,
        }
    }

    /// Adds decoherence (`T1 = T2 = t` µs) with the given trajectory count
    /// (used only above the exact-density-matrix register size). Never
    /// panics: [`check`](Self::check) rejects non-positive or NaN times
    /// and a zero trajectory count.
    pub fn with_decoherence_us(mut self, t: f64, trajectories: usize) -> Self {
        let t = t * 1000.0;
        self.decoherence = Some((Decoherence { t1: t, t2: t }, trajectories, DECOHERENCE_SEED));
        self
    }

    /// Why [`fidelity_of`] cannot evaluate under this config, if it
    /// cannot: a crosstalk mean or std that is NaN, infinite or negative
    /// (sampling would clamp a NaN strength to 0 and score the plan
    /// with no crosstalk at all), no seeds to average over, unphysical
    /// decoherence times, or no trajectories.
    ///
    /// # Errors
    ///
    /// Names the offending field.
    pub fn check(&self) -> Result<(), String> {
        for (field, value) in [
            ("lambda_mean", self.lambda_mean),
            ("lambda_std", self.lambda_std),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(format!(
                    "evaluation {field} must be finite and non-negative, got {value}"
                ));
            }
        }
        if self.crosstalk_seeds.is_empty() {
            return Err("evaluation has no crosstalk seeds to average over".into());
        }
        if let Some((deco, trajectories, _)) = &self.decoherence {
            deco.check()?;
            if *trajectories == 0 {
                return Err("evaluation decoherence trajectories must be at least 1, got 0".into());
            }
        }
        Ok(())
    }
}

/// [`evaluate`] without the engine's work counts: the mean fidelity.
pub fn fidelity_of(compiled: &Compiled, cfg: &EvalConfig) -> f64 {
    evaluate(compiled, cfg).0
}

/// Mean output-state fidelity of a compiled plan over the config's
/// crosstalk samples (and decoherence, when enabled), with the
/// [`EngineStats`] of the programs it compiled and ran. Callers run
/// [`EvalConfig::check`] first: a config it rejects yields NaN or
/// panics here.
///
/// The ideal reference state is computed once and reused across all
/// crosstalk seeds; each seed's noisy execution runs through the
/// precompiled programs of [`zz_sim::program`], each dropped as soon as
/// it has run. A deterministic program holds no tables (each run folds
/// its diagonals into one reused buffer), so only a trajectory
/// program's tables are ever alive, one program's at a time.
///
/// Monte-Carlo trajectories run sequentially here. A session's worker
/// pool runs submitted jobs side by side, and nesting a second
/// full-width pool per seed would oversubscribe the machine
/// quadratically. Fleet scoring gets no such fan: `Fleet::submit`
/// compiles and scores each candidate in turn on the caller thread, one
/// evaluation at a time. For a standalone parallel fan, call
/// [`TrajectoryProgram::mean_fidelity`] with a thread count directly.
pub fn evaluate(compiled: &Compiled, cfg: &EvalConfig) -> (f64, EngineStats) {
    let topo = &compiled.topology;
    let mut stats = EngineStats::default();
    let ideal = {
        let program = PlanProgram::ideal(&compiled.plan);
        stats.fused_diags += program.fused_diags();
        program.run()
    };
    let mut total = 0.0;
    for &seed in &cfg.crosstalk_seeds {
        let model = ZzErrorModel::sampled(topo, cfg.lambda_mean, cfg.lambda_std, seed)
            .with_residuals(compiled.residuals);
        total += match &cfg.decoherence {
            None => {
                let program =
                    PlanProgram::compile(&compiled.plan, topo, &model, &compiled.durations);
                stats.fused_diags += program.fused_diags();
                ideal.fidelity(&program.run())
            }
            Some((deco, trajectories, mc_seed)) => {
                if compiled.plan.qubit_count() <= EXACT_MAX_QUBITS {
                    // Exact: density-matrix evolution.
                    let dm = run_density(&compiled.plan, topo, &model, deco, &compiled.durations);
                    dm.fidelity_to_pure(&ideal.to_vector())
                } else {
                    let program = TrajectoryProgram::compile(
                        &compiled.plan,
                        topo,
                        &model,
                        deco,
                        &compiled.durations,
                    );
                    let (fidelity, fan) = program.mean_fidelity_batched(
                        &ideal,
                        *trajectories,
                        *mc_seed ^ seed,
                        1,
                        DEFAULT_BATCH_LANES,
                    );
                    stats.fused_diags += program.fused_diags();
                    stats.trajectories += fan.trajectories;
                    stats.kernel_sweeps += fan.kernel_sweeps;
                    stats.batch_walls.extend(fan.batch_walls);
                    fidelity
                }
            }
        };
    }
    (total / cfg.crosstalk_seeds.len() as f64, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompileOptions, PassManager, PulseMethod, SchedulerKind};
    use std::sync::Arc;
    use zz_circuit::bench::{generate, BenchmarkKind};

    fn small_cfg() -> EvalConfig {
        EvalConfig {
            crosstalk_seeds: vec![11],
            ..EvalConfig::paper_default()
        }
    }

    /// Compiles benchmark `kind`-`n` on its paper evaluation device and
    /// evaluates it under `cfg`.
    fn paper_fidelity(
        kind: BenchmarkKind,
        n: usize,
        method: PulseMethod,
        scheduler: SchedulerKind,
        cfg: &EvalConfig,
    ) -> f64 {
        let compiled = PassManager::builder()
            .topology(try_device_for(n).expect("paper size"))
            .options(CompileOptions::new(method, scheduler))
            .build()
            .run(Arc::new(generate(kind, n, cfg.circuit_seed)))
            .expect("fits")
            .compiled;
        fidelity_of(&compiled, cfg)
    }

    #[test]
    fn device_selection_matches_the_paper() {
        let couplings = |n| try_device_for(n).expect("paper size").coupling_count();
        assert_eq!(couplings(4), 4); // 2×2
        assert_eq!(couplings(6), 7); // 2×3
        assert_eq!(couplings(9), 12); // 3×3
        assert_eq!(couplings(12), 17); // 3×4
        assert!(try_device_for(MAX_EVAL_QUBITS + 1).is_none());
    }

    #[test]
    fn co_optimization_beats_the_baseline() {
        let cfg = small_cfg();
        let base = paper_fidelity(
            BenchmarkKind::Qft,
            4,
            PulseMethod::Gaussian,
            SchedulerKind::ParSched,
            &cfg,
        );
        let ours = paper_fidelity(
            BenchmarkKind::Qft,
            4,
            PulseMethod::Pert,
            SchedulerKind::ZzxSched,
            &cfg,
        );
        assert!(
            ours > base,
            "co-optimization ({ours}) must beat the baseline ({base})"
        );
    }

    #[test]
    fn fidelities_are_probabilities() {
        let cfg = small_cfg();
        for method in [PulseMethod::Gaussian, PulseMethod::Pert] {
            for sched in [SchedulerKind::ParSched, SchedulerKind::ZzxSched] {
                let f = paper_fidelity(BenchmarkKind::HiddenShift, 4, method, sched, &cfg);
                assert!((0.0..=1.0 + 1e-9).contains(&f), "{method}+{sched}: {f}");
            }
        }
    }

    #[test]
    fn decoherence_lowers_fidelity() {
        let cfg = small_cfg();
        let clean = paper_fidelity(
            BenchmarkKind::Ising,
            4,
            PulseMethod::Pert,
            SchedulerKind::ZzxSched,
            &cfg,
        );
        let noisy_cfg = small_cfg().with_decoherence_us(50.0, 80);
        let noisy = paper_fidelity(
            BenchmarkKind::Ising,
            4,
            PulseMethod::Pert,
            SchedulerKind::ZzxSched,
            &noisy_cfg,
        );
        assert!(noisy < clean + 1e-9, "decoherence {noisy} vs clean {clean}");
    }

    #[test]
    fn unphysical_decoherence_times_are_rejected_not_panicking() {
        for t in [0.0, f64::NAN] {
            let cfg = EvalConfig::paper_default().with_decoherence_us(t, 4);
            let err = cfg.check().expect_err("unphysical T1 = T2");
            assert!(err.contains("t1"), "T1 = T2 = {t} µs: {err}");
        }
        assert_eq!(
            EvalConfig::paper_default()
                .with_decoherence_us(60.0, 4)
                .check(),
            Ok(())
        );
    }
}
