//! Persistence glue: the [`Encode`]/[`Decode`] implementations for this
//! crate's artifact types and the key of the one artifact the pipeline
//! keeps on disk, the whole compiled plan.
//!
//! The codec and store themselves live in [`zz_persist`]; this module only
//! contributes what the orphan rule requires to live here (impls for
//! [`Compiled`], [`SchedulerKind`] and [`CompileOptions`], the wire and
//! coalescing form of a request) plus [`compiled_artifact_key`], which
//! binds a `compiled/` artifact to the *meaning* of its request: the
//! routing shape ([`crate::pipeline::shape_key`], circuit digest × device
//! shape) mixed with every scheduling parameter of the [`CompileOptions`]
//! — pulse method, scheduler, `α`, `k` and the suppression requirement —
//! so two jobs share a cached plan exactly when a sequential compile
//! would produce identical bits.
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

use crate::{CompileOptions, Compiled, PulseMethod, SchedulerKind};

/// Revision stamp of the *compilation pipeline's observable output*,
/// mixed into the whole-plan disk key. Bump it when
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

/// Each knob as given: an unset α, k or R encodes as `None`, not as the
/// default it resolves to.
impl Encode for CompileOptions {
    fn encode(&self, out: &mut Encoder) {
        self.method.encode(out);
        self.scheduler.encode(out);
        self.alpha.encode(out);
        self.k.encode(out);
        self.requirement.encode(out);
    }
}

impl Decode for CompileOptions {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(CompileOptions {
            method: Decode::decode(r)?,
            scheduler: Decode::decode(r)?,
            alpha: Decode::decode(r)?,
            k: Decode::decode(r)?,
            requirement: Decode::decode(r)?,
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
/// *plus the full request that produced it*, with α and k resolved to
/// the values the scheduler ran with. The request fields are
/// re-verified on every load ([`matches`](Self::matches)), so a 64-bit
/// key collision — between circuits or between scheduling parameters —
/// costs a recompile, never a wrong plan.
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
    /// The artifact recording `compiled` as the answer to compiling
    /// `circuit` under `options`.
    pub fn new(circuit: Circuit, options: &CompileOptions, compiled: Compiled) -> Self {
        CompiledArtifact {
            circuit,
            scheduler: options.scheduler,
            alpha: options.alpha_or_default(),
            k: options.k_or_default(),
            requirement: options.requirement,
            compiled,
        }
    }

    /// Whether this artifact answers exactly the given request (exact
    /// α bit pattern after defaults resolve; topology and method are
    /// checked against the embedded [`Compiled`]).
    pub fn matches(
        &self,
        circuit: &Circuit,
        topology: &Topology,
        options: &CompileOptions,
    ) -> bool {
        self.circuit == *circuit
            && self.compiled.topology == *topology
            && self.compiled.method == options.method
            && self.scheduler == options.scheduler
            && self.alpha.to_bits() == options.alpha_or_default().to_bits()
            && self.k == options.k_or_default()
            && self.requirement == options.requirement
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
/// α bit pattern and `k` (an unset knob keys as the default it resolves
/// to), the suppression requirement (`None`, the topology-derived paper
/// default, is keyed distinctly from any explicit requirement), the
/// calibration strength `λ` (a plan embeds residuals measured at that
/// strength), and [`PIPELINE_REVISION`]. Collisions are harmless: the
/// stored [`CompiledArtifact`] re-verifies the full request on load.
pub fn compiled_artifact_key(shape: u64, options: &CompileOptions) -> u64 {
    let mut h = fnv1a_mix(shape, PIPELINE_REVISION as u64);
    h = fnv1a_mix(h, crate::calib::calibration_lambda().to_bits());
    h = fnv1a_mix(h, method_tag(options.method));
    h = fnv1a_mix(h, scheduler_tag(options.scheduler));
    h = fnv1a_mix(h, options.alpha_or_default().to_bits());
    h = fnv1a_mix(h, options.k_or_default() as u64);
    match options.requirement {
        None => h = fnv1a_mix(h, 0),
        Some(req) => {
            h = fnv1a_mix(h, 1);
            h = fnv1a_mix(h, req.nq_limit as u64);
            h = fnv1a_mix(h, req.nc_limit as u64);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{DEFAULT_ALPHA, DEFAULT_K};
    use crate::PassManager;
    use std::sync::Arc;
    use zz_circuit::bench::{generate, BenchmarkKind};
    use zz_persist::roundtrip;

    /// QFT-4 (seed 7) compiled on the 2×2 grid.
    fn compile(method: PulseMethod, scheduler: SchedulerKind) -> Compiled {
        PassManager::builder()
            .topology(Topology::grid(2, 2))
            .options(CompileOptions::new(method, scheduler))
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
        let options = CompileOptions::default();
        let compiled = compile(options.method, options.scheduler);
        let artifact = CompiledArtifact::new(circuit.clone(), &options, compiled);
        let back = roundtrip(&artifact).expect("roundtrip");
        assert!(back.matches(&circuit, &topo, &options));
        // Defaults resolve before matching: naming α = 0.5 is the same request.
        assert!(back.matches(&circuit, &topo, &options.with_alpha(DEFAULT_ALPHA)));
        // Any drifting request field — as under a key collision — rejects.
        let mut other = circuit.clone();
        other.push(zz_circuit::Gate::X, &[0]);
        assert!(!back.matches(&other, &topo, &options));
        assert!(!back.matches(&circuit, &topo, &options.with_alpha(0.25)));
        assert!(!back.matches(
            &circuit,
            &topo,
            &options.with_requirement(Requirement {
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
    fn compile_options_roundtrip_every_knob() {
        let tuned = CompileOptions::new(PulseMethod::Dcg, SchedulerKind::ParSched)
            .with_alpha(0.25)
            .with_k(5)
            .with_requirement(Requirement {
                nq_limit: 2,
                nc_limit: 3,
            });
        for options in [CompileOptions::default(), tuned] {
            assert_eq!(roundtrip(&options).expect("roundtrip"), options);
        }
    }

    #[test]
    fn compiled_keys_separate_every_parameter() {
        let shape = 0x1234_5678_9abc_def0;
        let options = CompileOptions::default();
        let base = compiled_artifact_key(shape, &options);
        assert_eq!(
            base,
            compiled_artifact_key(shape, &options.with_alpha(DEFAULT_ALPHA).with_k(DEFAULT_K)),
            "an unset knob keys as its default"
        );
        let variants = [
            compiled_artifact_key(shape ^ 1, &options),
            compiled_artifact_key(shape, &options.with_method(PulseMethod::Dcg)),
            compiled_artifact_key(shape, &options.with_scheduler(SchedulerKind::ParSched)),
            compiled_artifact_key(shape, &options.with_alpha(0.25)),
            compiled_artifact_key(shape, &options.with_k(4)),
            compiled_artifact_key(
                shape,
                &options.with_requirement(Requirement {
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
