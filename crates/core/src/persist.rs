//! Persistence glue: the [`Encode`]/[`Decode`] implementations for this
//! crate's artifact types and the cache-key derivations used by the
//! on-disk store.
//!
//! The codec and store themselves live in [`zz_persist`]; this module only
//! contributes what the orphan rule requires to live here (impls for
//! [`Compiled`] and [`SchedulerKind`]) plus the key functions that bind
//! artifacts to the *meaning* of a compilation request:
//!
//! * a **native artifact** is keyed by [`crate::pipeline::shape_key`]
//!   (circuit digest × device shape) — routing depends on nothing else;
//! * a **compiled artifact** additionally mixes in every scheduling
//!   parameter ([`compiled_artifact_key`]) — pulse method, scheduler,
//!   `α`, `k` and the suppression requirement — so two jobs share a cached
//!   plan exactly when a sequential compile would produce identical bits.
//!
//! The schema version of `zz_persist` stamps every container; key meaning
//! is additionally pinned by `tests/golden_keys.rs`, which fails whenever
//! `content_digest`/`shape_key` silently change across PRs.

use zz_circuit::Circuit;
use zz_persist::{fnv1a_mix, Decode, DecodeError, Decoder, Encode, Encoder};
use zz_sched::zzx::Requirement;
use zz_sched::{GateDurations, SchedulePlan};
use zz_sim::executor::ResidualTable;
use zz_topology::Topology;

use crate::{Compiled, PulseMethod, SchedulerKind};

/// Revision stamp of the *compilation pipeline's observable output*,
/// mixed into every disk key that caches pipeline results. Bump it when
/// routing, native translation or scheduling starts producing different
/// output for the same input (an improved heuristic, a reordered
/// emission, …) — old cache entries then simply miss, instead of serving
/// plans from the previous algorithm. Encoding changes bump
/// [`zz_persist::SCHEMA_VERSION`] instead; key-meaning changes are caught
/// by `tests/golden_keys.rs`.
pub const PIPELINE_REVISION: u32 = 1;

impl Encode for SchedulerKind {
    fn encode(&self, out: &mut Encoder) {
        out.u8(scheduler_tag(*self) as u8);
    }
}

impl Decode for SchedulerKind {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8()? {
            0 => SchedulerKind::ParSched,
            1 => SchedulerKind::ZzxSched,
            _ => return Err(DecodeError::Invalid("scheduler tag")),
        })
    }
}

impl Encode for Compiled {
    fn encode(&self, out: &mut Encoder) {
        self.plan.encode(out);
        self.topology.encode(out);
        self.durations.encode(out);
        self.method.encode(out);
        self.residuals.encode(out);
    }
}

impl Decode for Compiled {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let plan = SchedulePlan::decode(r)?;
        let topology = Topology::decode(r)?;
        let durations = GateDurations::decode(r)?;
        let method = PulseMethod::decode(r)?;
        let residuals = ResidualTable::decode(r)?;
        if plan.qubit_count() != topology.qubit_count() {
            return Err(DecodeError::Invalid("plan/topology qubit mismatch"));
        }
        // Cross-field invariants the error model indexes by: per-layer
        // suppression metrics must cover exactly the device's couplings
        // (SchedulePlan::decode alone cannot check this — it has no
        // topology in scope).
        for layer in &plan.layers {
            if layer.metrics.suppressed.len() != topology.coupling_count() {
                return Err(DecodeError::Invalid("metrics/coupling mismatch"));
            }
        }
        Ok(Compiled {
            plan,
            topology,
            durations,
            method,
            residuals,
        })
    }
}

/// The payload of an on-disk `compiled/` artifact: the [`Compiled`] plan
/// *plus the full request that produced it*. The request fields are
/// re-verified on every load ([`matches`](Self::matches)), so a 64-bit
/// key collision — between circuits or between scheduling parameters —
/// costs a recompile, never a wrong plan (the same guarantee the
/// `native/` artifacts get from storing their source circuit).
#[derive(Debug)]
pub struct CompiledArtifact {
    /// The logical circuit the plan was compiled from.
    pub circuit: Circuit,
    /// The scheduling policy of the request.
    pub scheduler: SchedulerKind,
    /// The NQ-vs-NC weight α of the request.
    pub alpha: f64,
    /// The top-k path-relaxing budget of the request.
    pub k: usize,
    /// The explicit suppression requirement, if the request had one
    /// (`None` = the topology-derived paper default).
    pub requirement: Option<Requirement>,
    /// The compiled result.
    pub compiled: Compiled,
}

impl CompiledArtifact {
    /// Whether this artifact answers exactly the given request (exact
    /// α bit pattern; topology and method are checked against the
    /// embedded [`Compiled`]).
    #[allow(clippy::too_many_arguments)]
    pub fn matches(
        &self,
        circuit: &Circuit,
        topology: &Topology,
        method: PulseMethod,
        scheduler: SchedulerKind,
        alpha: f64,
        k: usize,
        requirement: Option<Requirement>,
    ) -> bool {
        self.circuit == *circuit
            && self.compiled.topology == *topology
            && self.compiled.method == method
            && self.scheduler == scheduler
            && self.alpha.to_bits() == alpha.to_bits()
            && self.k == k
            && self.requirement == requirement
    }
}

impl Encode for CompiledArtifact {
    fn encode(&self, out: &mut Encoder) {
        self.circuit.encode(out);
        self.scheduler.encode(out);
        out.f64(self.alpha);
        out.usize(self.k);
        self.requirement.encode(out);
        self.compiled.encode(out);
    }
}

impl Decode for CompiledArtifact {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(CompiledArtifact {
            circuit: Circuit::decode(r)?,
            scheduler: SchedulerKind::decode(r)?,
            alpha: r.f64()?,
            k: r.usize()?,
            requirement: Option::decode(r)?,
            compiled: Compiled::decode(r)?,
        })
    }
}

/// Stable on-disk tag of a pulse method (independent of enum ordering).
fn method_tag(method: PulseMethod) -> u64 {
    match method {
        PulseMethod::Gaussian => 0,
        PulseMethod::OptCtrl => 1,
        PulseMethod::Pert => 2,
        PulseMethod::Dcg => 3,
    }
}

/// Stable on-disk tag of a scheduler.
fn scheduler_tag(scheduler: SchedulerKind) -> u64 {
    match scheduler {
        SchedulerKind::ParSched => 0,
        SchedulerKind::ZzxSched => 1,
    }
}

/// The on-disk key of a compiled plan: the routing shape key extended with
/// every parameter the output depends on — pulse method, scheduler, exact
/// α bit pattern, `k`, the suppression requirement (`None`, the
/// topology-derived paper default, is keyed distinctly from any explicit
/// requirement), the calibration strength `λ` (a plan embeds residuals
/// measured at that strength), and [`PIPELINE_REVISION`]. Collisions are
/// harmless: the stored [`CompiledArtifact`] re-verifies the full request
/// on load.
pub fn compiled_artifact_key(
    shape: u64,
    method: PulseMethod,
    scheduler: SchedulerKind,
    alpha: f64,
    k: usize,
    requirement: Option<Requirement>,
) -> u64 {
    let mut h = fnv1a_mix(shape, PIPELINE_REVISION as u64);
    h = fnv1a_mix(h, crate::calib::calibration_lambda().to_bits());
    h = fnv1a_mix(h, method_tag(method));
    h = fnv1a_mix(h, scheduler_tag(scheduler));
    h = fnv1a_mix(h, alpha.to_bits());
    h = fnv1a_mix(h, k as u64);
    match requirement {
        None => h = fnv1a_mix(h, 0),
        Some(req) => {
            h = fnv1a_mix(h, 1);
            h = fnv1a_mix(h, req.nq_limit as u64);
            h = fnv1a_mix(h, req.nc_limit as u64);
        }
    }
    h
}

/// The on-disk key of a routed `native/` artifact: the shape key stamped
/// with [`PIPELINE_REVISION`], so a routing-algorithm change invalidates
/// cached translations (the in-memory memo keeps using the bare
/// [`crate::pipeline::shape_key`] — it never outlives the process).
pub fn native_artifact_key(shape: u64) -> u64 {
    fnv1a_mix(shape, PIPELINE_REVISION as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PassManager;
    use std::sync::Arc;
    use zz_circuit::bench::{generate, BenchmarkKind};
    use zz_persist::roundtrip;

    /// QFT-4 (seed 7) compiled on the 2×2 grid.
    fn compile(method: PulseMethod, scheduler: SchedulerKind) -> Compiled {
        PassManager::builder()
            .topology(Topology::grid(2, 2))
            .pulse_method(method)
            .scheduler(scheduler)
            .build()
            .run(Arc::new(generate(BenchmarkKind::Qft, 4, 7)))
            .expect("fits")
            .compiled
    }

    #[test]
    fn compiled_roundtrips_bit_identically() {
        for (method, scheduler) in [
            (PulseMethod::Gaussian, SchedulerKind::ParSched),
            (PulseMethod::Pert, SchedulerKind::ZzxSched),
            (PulseMethod::Dcg, SchedulerKind::ZzxSched),
        ] {
            let compiled = compile(method, scheduler);
            let back = roundtrip(&compiled).expect("roundtrip");
            assert_eq!(compiled, back, "{method}+{scheduler}");
        }
    }

    #[test]
    fn compiled_artifact_verifies_its_request() {
        let circuit = generate(BenchmarkKind::Qft, 4, 7);
        let topo = Topology::grid(2, 2);
        let compiled = compile(PulseMethod::Pert, SchedulerKind::ZzxSched);
        let artifact = CompiledArtifact {
            circuit: circuit.clone(),
            scheduler: SchedulerKind::ZzxSched,
            alpha: 0.5,
            k: 3,
            requirement: None,
            compiled,
        };
        let back = roundtrip(&artifact).expect("roundtrip");
        assert!(back.matches(
            &circuit,
            &topo,
            PulseMethod::Pert,
            SchedulerKind::ZzxSched,
            0.5,
            3,
            None
        ));
        // Any drifting request field — as under a key collision — rejects.
        let mut other = circuit.clone();
        other.push(zz_circuit::Gate::X, &[0]);
        assert!(!back.matches(
            &other,
            &topo,
            PulseMethod::Pert,
            SchedulerKind::ZzxSched,
            0.5,
            3,
            None
        ));
        assert!(!back.matches(
            &circuit,
            &topo,
            PulseMethod::Pert,
            SchedulerKind::ZzxSched,
            0.25,
            3,
            None
        ));
        assert!(!back.matches(
            &circuit,
            &topo,
            PulseMethod::Pert,
            SchedulerKind::ZzxSched,
            0.5,
            3,
            Some(Requirement {
                nq_limit: 4,
                nc_limit: 8
            })
        ));
    }

    #[test]
    fn corrupt_metrics_width_is_a_decode_error_not_a_panic() {
        // A Compiled whose layer metrics cover fewer couplings than its
        // topology must be rejected at decode time (the error model would
        // index out of bounds otherwise).
        let mut compiled = compile(PulseMethod::Pert, SchedulerKind::ZzxSched);
        for layer in &mut compiled.plan.layers {
            layer.metrics.suppressed.truncate(1);
        }
        assert_eq!(
            roundtrip(&compiled).unwrap_err(),
            DecodeError::Invalid("metrics/coupling mismatch")
        );
    }

    #[test]
    fn scheduler_kind_roundtrips() {
        for s in [SchedulerKind::ParSched, SchedulerKind::ZzxSched] {
            assert_eq!(s, roundtrip(&s).unwrap());
        }
    }

    #[test]
    fn compiled_keys_separate_every_parameter() {
        let shape = 0x1234_5678_9abc_def0;
        let base = compiled_artifact_key(
            shape,
            PulseMethod::Pert,
            SchedulerKind::ZzxSched,
            0.5,
            3,
            None,
        );
        let variants = [
            compiled_artifact_key(
                shape ^ 1,
                PulseMethod::Pert,
                SchedulerKind::ZzxSched,
                0.5,
                3,
                None,
            ),
            compiled_artifact_key(
                shape,
                PulseMethod::Dcg,
                SchedulerKind::ZzxSched,
                0.5,
                3,
                None,
            ),
            compiled_artifact_key(
                shape,
                PulseMethod::Pert,
                SchedulerKind::ParSched,
                0.5,
                3,
                None,
            ),
            compiled_artifact_key(
                shape,
                PulseMethod::Pert,
                SchedulerKind::ZzxSched,
                0.25,
                3,
                None,
            ),
            compiled_artifact_key(
                shape,
                PulseMethod::Pert,
                SchedulerKind::ZzxSched,
                0.5,
                4,
                None,
            ),
            compiled_artifact_key(
                shape,
                PulseMethod::Pert,
                SchedulerKind::ZzxSched,
                0.5,
                3,
                Some(Requirement {
                    nq_limit: 4,
                    nc_limit: 8,
                }),
            ),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, *v, "variant {i} must key apart");
        }
    }
}
