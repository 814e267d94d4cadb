//! Output checks against references that are not the code under test.
//! They run outside the clocks; a failed check fails the run.

use std::collections::HashMap;

use zz_circuit::native::{compile_to_native, NativeOp};
use zz_circuit::Circuit;
use zz_persist::{fnv1a, Encode, Encoder};
use zz_service::Compiled;
// The reference executor's model type; only the model, not the engine
// wrappers of the same module, is used.
use zz_sim::executor::ZzErrorModel;

/// Fidelities must match the reference executor this closely.
pub const FIDELITY_TOLERANCE: f64 = 1e-10;

/// A content digest of a compiled plan (its exact codec bytes), so
/// repeated plans are checked once and plans compare bit for bit.
pub fn plan_digest(compiled: &Compiled) -> u64 {
    let mut enc = Encoder::new();
    compiled.encode(&mut enc);
    fnv1a(&enc.finish())
}

/// The mean fidelity of `compiled` over the disorder `seeds` under
/// `λ ~ N(mean, std²)`, computed by the straight-line reference executor
/// of `zz_bench::reference` (no precompiled programs, no fused kernels).
pub fn reference_fidelity(
    compiled: &Compiled,
    lambda_mean: f64,
    lambda_std: f64,
    seeds: &[u64],
) -> f64 {
    let ideal = zz_bench::reference::run_ideal(&compiled.plan);
    let total: f64 = seeds
        .iter()
        .map(|&seed| {
            let model = ZzErrorModel::sampled(&compiled.topology, lambda_mean, lambda_std, seed)
                .with_residuals(compiled.residuals);
            let noisy = zz_bench::reference::run_with_zz(
                &compiled.plan,
                &compiled.topology,
                &model,
                &compiled.durations,
            );
            ideal.fidelity(&noisy)
        })
        .sum();
    total / seeds.len() as f64
}

/// Checks one evaluated plan against the reference executor.
///
/// # Errors
///
/// Describes the mismatch.
pub fn check_fidelity(
    label: &str,
    compiled: &Compiled,
    fidelity: f64,
    lambda_mean: f64,
    lambda_std: f64,
    seeds: &[u64],
) -> Result<(), String> {
    let reference = reference_fidelity(compiled, lambda_mean, lambda_std, seeds);
    if (reference - fidelity).abs() <= FIDELITY_TOLERANCE {
        Ok(())
    } else {
        Err(format!(
            "{label}: fidelity {fidelity} but the reference executor gives {reference}"
        ))
    }
}

/// A physical pulse as a comparable key: `(kind, qubit, qubit)`.
fn pulse_key(op: &NativeOp) -> Option<(u8, usize, usize)> {
    match *op {
        NativeOp::X90 { qubit } => Some((0, qubit, qubit)),
        NativeOp::Zx90 { control, target } => Some((1, control, target)),
        NativeOp::Rz { .. } | NativeOp::Id { .. } => None,
    }
}

/// The structural check for fleet plans, written independently of the
/// scheduler: every physical pulse of the routed, lowered circuit is
/// scheduled exactly once (identity pulses aside), no layer pulses a
/// qubit twice, and every two-qubit pulse sits on a device coupling.
///
/// # Errors
///
/// Describes the first violation.
pub fn check_structure(label: &str, circuit: &Circuit, compiled: &Compiled) -> Result<(), String> {
    let topology = &compiled.topology;
    let routed = zz_circuit::try_route(circuit, topology)
        .map_err(|e| format!("{label}: reference routing failed: {e:?}"))?;
    let native = compile_to_native(&routed);

    let mut expected: HashMap<(u8, usize, usize), i64> = HashMap::new();
    for key in native.ops().iter().filter_map(pulse_key) {
        *expected.entry(key).or_default() += 1;
    }
    for (i, layer) in compiled.plan.layers.iter().enumerate() {
        let mut busy = vec![false; topology.qubit_count()];
        for op in &layer.ops {
            for q in op.qubits() {
                if q >= busy.len() || busy[q] {
                    return Err(format!("{label}: layer {i} pulses qubit {q} twice"));
                }
                busy[q] = true;
            }
            if let NativeOp::Zx90 { control, target } = *op {
                if topology.coupling_between(control, target).is_none() {
                    return Err(format!(
                        "{label}: layer {i} drives ({control}, {target}), which is no coupling"
                    ));
                }
            }
            if let Some(key) = pulse_key(op) {
                *expected.entry(key).or_default() -= 1;
            }
        }
    }
    match expected.iter().find(|(_, &n)| n != 0) {
        None => Ok(()),
        Some((op, n)) => Err(format!(
            "{label}: pulse {op:?} is scheduled {} time(s) too {}",
            n.abs(),
            if *n > 0 { "few" } else { "many" }
        )),
    }
}

/// Amplitude updates one evaluation of `compiled` performs, computed from
/// plan size (the deterministic path has no engine counter): every
/// physical pulse and every layer's fused diagonal sweeps the whole
/// `2^n` register once, for the ideal run plus each disorder seed ×
/// trajectory.
pub fn amp_updates(compiled: &Compiled, seeds: usize, trajectories: usize) -> u64 {
    let plan = &compiled.plan;
    let pulses: usize = plan
        .layers
        .iter()
        .map(|l| l.ops.iter().filter(|op| pulse_key(op).is_some()).count())
        .sum();
    let sweeps = (pulses + plan.layer_count()) as u64;
    let runs = (1 + seeds * trajectories) as u64;
    (runs * sweeps) << plan.qubit_count()
}

/// Bytes one amplitude update reads and writes (a complex `f64`, in and
/// out).
pub const BYTES_PER_AMP_UPDATE: u64 = 32;

/// Runs `check` over `items` on two threads (checks are outside the
/// clocks, but not free) and returns every failure.
pub fn in_parallel<T: Sync>(
    items: &[T],
    check: impl Fn(&T) -> Result<(), String> + Sync,
) -> Vec<String> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut failures = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break;
                        };
                        if let Err(e) = check(item) {
                            failures.push(e);
                        }
                    }
                    failures
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("check threads do not panic"))
            .collect()
    })
}
