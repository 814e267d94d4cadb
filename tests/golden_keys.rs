//! Golden-value regression tests for the on-disk cache keys and the
//! compile path's output.
//!
//! `Circuit::content_digest` and `zz_core::pipeline::shape_key` key the
//! persistent artifact store ([`zz_persist`]), so their outputs are part
//! of the on-disk format: if either silently changed meaning, a warm cache
//! would serve artifacts for the *wrong* circuits. These tests pin exact
//! outputs for fixed inputs. If one fails because a key function had to
//! change, bump [`zz_persist::SCHEMA_VERSION`] in the same PR and update
//! the pinned values — never update the values alone.
//!
//! The same pattern pins what the compile path produces: the codec bytes
//! of the `Compiled` plan for the full (pulse method × scheduler) matrix
//! and for non-default (α, k, R) requests. A change that alters them must
//! bump `zz_core::persist::PIPELINE_REVISION` (or the schema version, for
//! an encoding change) alongside the new values. The requests and their
//! pinned digests live in `tests/common/mod.rs`, which `tests/service.rs`
//! shares. The wire bytes of a compile request and of every error reply,
//! and the whole-plan disk keys of two option sets, are pinned the same
//! way: a request and its failure have one encoding each, on the wire
//! and in the store.
//!
//! The simulator's output on the same compiled plans is pinned too: the
//! raw amplitude bits of the ideal and ZZ-noisy program runs, and the
//! exact bits of `fidelity_of` without and with decoherence. The engine
//! is otherwise checked against the reference executor only to a
//! tolerance, so these pins are what lets its internals change without
//! its numbers moving.
//!
//! The pulse level below the compile path is pinned the same way: the
//! bits of every method's residual table at the fleet profiles' crosstalk
//! strengths, drifted and not, and of `expm_taylor` on seeded inputs that
//! take no squaring and three.

mod common;

use common::{codec_digest, matrix_cases, parameter_cases, PINNED_COMPILES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zz_circuit::bench::{generate, BenchmarkKind};
use zz_circuit::{Circuit, Gate};
use zz_core::calib::measure_residuals_at;
use zz_core::evaluate::{fidelity_of, EvalConfig};
use zz_core::persist::compiled_artifact_key;
use zz_core::pipeline::shape_key;
use zz_core::{CoOptError, Compiled};
use zz_linalg::expm::expm_taylor;
use zz_linalg::{c64, Matrix};
use zz_net::{CompileEnvelope, Request, Response};
use zz_persist::fnv1a;
use zz_pool::{default_threads, parallel_map};
use zz_sched::zzx::Requirement;
use zz_service::{
    CompileOptions, CompileRequest, Error, PulseMethod, SchedulerKind, Session, Target,
};
use zz_sim::executor::ZzErrorModel;
use zz_sim::program::PlanProgram;
use zz_sim::{khz, StateVector};
use zz_topology::Topology;

/// A fixed hand-built circuit with parameter-free gates.
fn bell_plus() -> Circuit {
    let mut c = Circuit::new(3);
    c.push(Gate::H, &[0])
        .push(Gate::Cnot, &[0, 1])
        .push(Gate::X, &[2])
        .push(Gate::Swap, &[1, 2]);
    c
}

/// A fixed circuit whose digest depends on exact angle bit patterns.
fn rotations() -> Circuit {
    let mut c = Circuit::new(2);
    c.push(Gate::Rx(0.5), &[0])
        .push(Gate::Rz(-std::f64::consts::PI), &[1])
        .push(Gate::U3(0.1, 0.2, 0.3), &[0])
        .push(Gate::Rzz(2.0_f64.sqrt()), &[0, 1]);
    c
}

#[test]
fn content_digest_is_pinned() {
    assert_eq!(
        bell_plus().content_digest(),
        0xf7205d647c7aa7edu64,
        "bell_plus"
    );
    assert_eq!(
        rotations().content_digest(),
        0xdef101fe87bc4d90u64,
        "rotations"
    );
    // Seeded benchmark generation feeds the same keys, so its stability is
    // pinned too (kind, size and seed are part of the figure pipeline).
    assert_eq!(
        generate(BenchmarkKind::Qft, 4, 7).content_digest(),
        0x3f047223346b62e1u64,
        "qft-4 seed 7"
    );
}

#[test]
fn shape_key_is_pinned() {
    assert_eq!(
        shape_key(&bell_plus(), &Topology::grid(2, 2)),
        0x8c6121df6931459eu64
    );
    assert_eq!(
        shape_key(&bell_plus(), &Topology::ibmq_vigo()),
        0xea4aa0ec0710b3acu64
    );
    assert_eq!(
        shape_key(&rotations(), &Topology::line(2)),
        0x44471d4ef01894eau64
    );
    // The at-scale lattice added by the compile-path scaling work: its
    // shape keys join the on-disk format the moment large-device
    // artifacts are cached, so they are pinned like the paper grids.
    assert_eq!(
        shape_key(&bell_plus(), &Topology::heavy_hex(3)),
        0x712055fcf0b62175u64
    );
}

#[test]
fn digests_depend_on_angle_bits_not_angle_values() {
    // −0.0 == 0.0 numerically, but the bit patterns differ, so the digests
    // must differ: caches key exact compilation inputs.
    let mut pos = Circuit::new(1);
    pos.push(Gate::Rz(0.0), &[0]);
    let mut neg = Circuit::new(1);
    neg.push(Gate::Rz(-0.0), &[0]);
    assert_ne!(pos.content_digest(), neg.content_digest());
}

/// A request that sets every optional knob: α = 0.25, k = 5, R = {2, 3}.
fn tuned_options() -> CompileOptions {
    CompileOptions::new(PulseMethod::Dcg, SchedulerKind::ZzxSched)
        .with_alpha(0.25)
        .with_k(5)
        .with_requirement(Requirement {
            nq_limit: 2,
            nc_limit: 3,
        })
}

/// Every service error a session can return, as the server answers it.
/// A `Validate` holding a routing failure goes out as a `Route` error
/// carrying the same detail string.
fn error_responses() -> Vec<(&'static str, Response)> {
    let job = || "qft-9".to_string();
    let detail = || "the detail".to_string();
    [
        (
            "validate",
            Error::Validate {
                job: job(),
                source: CoOptError::CircuitTooLarge {
                    needed: 9,
                    available: 4,
                },
            },
        ),
        (
            "validate-route",
            Error::Validate {
                job: job(),
                source: CoOptError::RouteUnreachable { from: 3, to: 7 },
            },
        ),
        (
            "route",
            Error::Route {
                job: job(),
                detail: detail(),
            },
        ),
        ("persist", Error::Persist { detail: detail() }),
        (
            "eval",
            Error::Eval {
                job: job(),
                detail: detail(),
            },
        ),
        (
            "worker",
            Error::Worker {
                job: job(),
                detail: detail(),
            },
        ),
    ]
    .into_iter()
    .map(|(label, error)| (label, Response::Error(error)))
    .collect()
}

const PINNED_ERROR_RESPONSES: [(&str, u64); 6] = [
    ("validate", 0x39de9bc973ff48f1),
    ("validate-route", 0xb230b56fb90a7f9e),
    ("route", 0xf78bf5bd2fdbf12b),
    ("persist", 0x14ab8147d0aa0a67),
    ("eval", 0xaf28e53954acea12),
    ("worker", 0xfd76d3591ebde667),
];

#[test]
fn error_response_bytes_are_pinned() {
    let actual: Vec<(&str, u64)> = error_responses()
        .iter()
        .map(|(label, response)| (*label, codec_digest(response)))
        .collect();
    assert_eq!(actual, PINNED_ERROR_RESPONSES);
}

/// The non-finite-angle rejection (wire tag 6), pinned apart from the
/// older error responses so their pin stays as it was.
#[test]
fn non_finite_angle_error_bytes_are_pinned() {
    let response = Response::Error(Error::Validate {
        job: "qft-9".to_string(),
        source: CoOptError::NonFiniteAngle { gate: 3 },
    });
    assert_eq!(codec_digest(&response), 0x54bf6ee22d30cc35);
}

/// The out-of-range option rejection (wire tag 7), pinned apart from the
/// older error responses so their pins stay as they were.
#[test]
fn invalid_option_error_bytes_are_pinned() {
    let response = Response::Error(Error::Validate {
        job: "qft-9".to_string(),
        source: CoOptError::InvalidOption {
            field: "alpha".to_string(),
        },
    });
    assert_eq!(codec_digest(&response), 0x88255104c7862ee6);
}

/// The encoded compile requests: default options, and every knob set.
fn compile_requests() -> [Request; 2] {
    [
        Request::Compile(CompileEnvelope::new(bell_plus())),
        Request::Compile(
            CompileEnvelope::new(bell_plus())
                .with_options(tuned_options())
                .with_label("tuned")
                .with_eval_seeds(vec![11, 23]),
        ),
    ]
}

#[test]
fn compile_request_bytes_are_pinned() {
    let [default, tuned] = compile_requests().map(|request| codec_digest(&request));
    assert_eq!(default, 0x85fe5b6992bbc829, "default options");
    assert_eq!(tuned, 0x239f4a558702f878, "α = 0.25, k = 5, R = {{2, 3}}");
}

/// The whole-plan disk keys of bell_plus on the 2×2 grid.
fn compiled_keys() -> [u64; 2] {
    let shape = shape_key(&bell_plus(), &Topology::grid(2, 2));
    [CompileOptions::default(), tuned_options()]
        .map(|options| compiled_artifact_key(shape, &options))
}

#[test]
fn compiled_artifact_keys_are_pinned() {
    let [default, tuned] = compiled_keys();
    assert_eq!(default, 0xfb7776da797b0c27, "default options");
    assert_eq!(tuned, 0x5781d48737c70786, "α = 0.25, k = 5, R = {{2, 3}}");
}

/// Every compile case, compiled through a one-worker session.
fn compiled_cases() -> Vec<(String, Compiled)> {
    matrix_cases()
        .into_iter()
        .chain(parameter_cases())
        .map(|(label, topology, circuit, options)| {
            let target = Target::builder()
                .topology(topology)
                .build()
                .expect("no store");
            let compiled = Session::with_threads(target, 1)
                .compile(&CompileRequest::new(circuit).with_options(options))
                .expect("fits")
                .compiled;
            (label, compiled)
        })
        .collect()
}

/// `(case, plan digest, residual-table digest, Compiled digest)` for
/// every compile case.
fn compiled_digests() -> Vec<(String, u64, u64, u64)> {
    compiled_cases()
        .into_iter()
        .map(|(label, compiled)| {
            (
                label,
                codec_digest(&compiled.plan),
                codec_digest(&compiled.residuals),
                codec_digest(&compiled),
            )
        })
        .collect()
}

#[test]
fn compiled_digests_are_pinned() {
    let actual = compiled_digests();
    assert_eq!(actual.len(), PINNED_COMPILES.len());
    for (
        (label, plan, residuals, compiled),
        (pinned_label, pinned_plan, pinned_residuals, pinned_compiled),
    ) in actual.iter().zip(PINNED_COMPILES)
    {
        assert_eq!(label, pinned_label);
        assert_eq!(
            *residuals, pinned_residuals,
            "{label}: calibration numerics drifted (residual table)"
        );
        assert_eq!(
            *plan, pinned_plan,
            "{label}: compile path drifted (schedule plan)"
        );
        assert_eq!(
            *compiled, pinned_compiled,
            "{label}: Compiled bytes drifted outside plan and residuals"
        );
    }
}

/// Appends the raw bits of every amplitude (real then imaginary part).
fn push_amplitude_bits(bytes: &mut Vec<u8>, state: &StateVector) {
    for a in state.amplitudes() {
        bytes.extend(a.re.to_bits().to_le_bytes());
        bytes.extend(a.im.to_bits().to_le_bytes());
    }
}

/// `(case, amplitude digest, fidelity bits, decoherent fidelity bits)`
/// for every compile case. The amplitude digest covers the ideal run and
/// then one ZZ-noisy run; the fidelities are `fidelity_of` at the paper's
/// defaults, without and with `T1 = T2 = 60 µs` (exact density matrices
/// on the 6-qubit cases, 24 Monte-Carlo trajectories on the 9-qubit ones).
/// Cases are evaluated on all cores: each is a pure function of its plan.
fn simulator_outputs() -> Vec<(String, u64, u64, u64)> {
    let cases = compiled_cases();
    parallel_map(cases.len(), default_threads(), |i| {
        let (label, compiled) = &cases[i];
        let topo = &compiled.topology;
        let model = ZzErrorModel::sampled(topo, khz(200.0), khz(50.0), 11)
            .with_residuals(compiled.residuals);
        let mut bytes = Vec::new();
        push_amplitude_bits(&mut bytes, &PlanProgram::ideal(&compiled.plan).run());
        push_amplitude_bits(
            &mut bytes,
            &PlanProgram::compile(&compiled.plan, topo, &model, &compiled.durations).run(),
        );
        let paper = EvalConfig::paper_default();
        let clean = fidelity_of(compiled, &paper);
        let decoherent = fidelity_of(compiled, &paper.with_decoherence_us(60.0, 24));
        (
            label.clone(),
            fnv1a(&bytes),
            clean.to_bits(),
            decoherent.to_bits(),
        )
    })
}

/// `(case, amplitude digest, fidelity bits, decoherent fidelity bits)`
/// for every case of [`simulator_outputs`], in order.
const PINNED_SIMULATIONS: [(&str, u64, u64, u64); 10] = [
    (
        "qaoa-6/Gaussian+ParSched",
        0x926aa239b3b15616,
        0x3fd0a51eab5174a1,
        0x3fcfd583d9d5cf3b,
    ),
    (
        "qaoa-6/Gaussian+ZZXSched",
        0xe7f4c4539d98b5fc,
        0x3fe24631b00237b0,
        0x3fe144744c4baec0,
    ),
    (
        "qaoa-6/OptCtrl+ParSched",
        0x72581c6864c1307f,
        0x3fd7f1d77041f815,
        0x3fd6e6679213dcab,
    ),
    (
        "qaoa-6/OptCtrl+ZZXSched",
        0xec4346f3d923d398,
        0x3fe9ee534bc6b903,
        0x3fe88944fbc4f530,
    ),
    (
        "qaoa-6/Pert+ParSched",
        0xdd00ea90ab410782,
        0x3fd94d20d1074a00,
        0x3fd834309eb29b30,
    ),
    (
        "qaoa-6/Pert+ZZXSched",
        0x441e2d9815e3c5f7,
        0x3fee7cb0fb6784b5,
        0x3fecdce00d709a44,
    ),
    (
        "qaoa-6/DCG+ParSched",
        0xd59e1a71498439cd,
        0x3f7907e50b63a339,
        0x3f82696f1674e933,
    ),
    (
        "qaoa-6/DCG+ZZXSched",
        0x47daf1f445318a8b,
        0x3fb3be758b49e147,
        0x3fae84bf80b67df1,
    ),
    (
        "qft-9/alpha=0.25,k=1,R=paper",
        0xcfc9373a72d7fdef,
        0x3fc10cdb7a2b19c7,
        0x3fbd5673dcf993c8,
    ),
    (
        "qft-9/alpha=2,k=8,R=3/5",
        0x4a8d79d6cfd059ae,
        0x3fb7720888ac66d3,
        0x3fb57f7edf5388b9,
    ),
];

#[test]
fn simulator_outputs_are_pinned() {
    let actual = simulator_outputs();
    assert_eq!(actual.len(), PINNED_SIMULATIONS.len());
    for (
        (label, amplitudes, clean, decoherent),
        (pinned_label, pinned_amps, pinned_clean, pinned_deco),
    ) in actual.iter().zip(PINNED_SIMULATIONS)
    {
        assert_eq!(label, pinned_label);
        assert_eq!(
            *amplitudes, pinned_amps,
            "{label}: program amplitudes drifted"
        );
        assert_eq!(
            *clean,
            pinned_clean,
            "{label}: fidelity drifted ({} vs pinned {})",
            f64::from_bits(*clean),
            f64::from_bits(pinned_clean)
        );
        assert_eq!(
            *decoherent,
            pinned_deco,
            "{label}: decoherent fidelity drifted ({} vs pinned {})",
            f64::from_bits(*decoherent),
            f64::from_bits(pinned_deco)
        );
    }
}

/// Circuits narrower than their device, so their plans drive only some
/// of the device's qubits: QFT-4 and HiddenShift-6 on the 3×4 grid under
/// both ends of the method × scheduler matrix, and QAOA-4 on the 3×3
/// grid.
fn narrow_cases() -> Vec<(String, Compiled)> {
    use BenchmarkKind::{HiddenShift, Qaoa, Qft};
    let gau_par = CompileOptions::new(PulseMethod::Gaussian, SchedulerKind::ParSched);
    let pert_zzx = CompileOptions::new(PulseMethod::Pert, SchedulerKind::ZzxSched);
    let (grid_3x4, grid_3x3) = (Topology::grid(3, 4), Topology::grid(3, 3));
    [
        ("qft-4@3x4", &grid_3x4, Qft, 4, gau_par),
        ("qft-4@3x4", &grid_3x4, Qft, 4, pert_zzx),
        ("hs-6@3x4", &grid_3x4, HiddenShift, 6, gau_par),
        ("hs-6@3x4", &grid_3x4, HiddenShift, 6, pert_zzx),
        ("qaoa-4@3x3", &grid_3x3, Qaoa, 4, pert_zzx),
    ]
    .into_iter()
    .map(|(name, topology, kind, n, options)| {
        assert!(
            n < topology.qubit_count(),
            "{name} must leave qubits undriven"
        );
        let target = Target::builder()
            .topology(topology.clone())
            .build()
            .expect("no store");
        let compiled = Session::with_threads(target, 1)
            .compile(&CompileRequest::new(generate(kind, n, 7)).with_options(options))
            .expect("fits")
            .compiled;
        (format!("{name}/{}", options.default_label()), compiled)
    })
    .collect()
}

/// Appends every amplitude's bits like [`push_amplitude_bits`], with
/// both signed zeros written as `+0.0`: amplitudes a plan never reaches
/// are exact zeros whose sign carries no value.
fn push_value_bits(bytes: &mut Vec<u8>, state: &StateVector) {
    let unsigned_zero = |x: f64| if x == 0.0 { 0.0f64 } else { x };
    for a in state.amplitudes() {
        bytes.extend(unsigned_zero(a.re).to_bits().to_le_bytes());
        bytes.extend(unsigned_zero(a.im).to_bits().to_le_bytes());
    }
}

/// `(case, amplitude digest, fidelity bits, decoherent fidelity bits)`
/// for every case of [`narrow_cases`], measured as in
/// [`simulator_outputs`] but with signed zeros folded in the digest. The
/// 9- and 12-qubit devices are above the exact density-matrix size, so
/// the decoherent fidelity comes from 24 Monte-Carlo trajectories.
fn narrow_simulator_outputs() -> Vec<(String, u64, u64, u64)> {
    let cases = narrow_cases();
    parallel_map(cases.len(), default_threads(), |i| {
        let (label, compiled) = &cases[i];
        let topo = &compiled.topology;
        let model = ZzErrorModel::sampled(topo, khz(200.0), khz(50.0), 11)
            .with_residuals(compiled.residuals);
        let mut bytes = Vec::new();
        push_value_bits(&mut bytes, &PlanProgram::ideal(&compiled.plan).run());
        push_value_bits(
            &mut bytes,
            &PlanProgram::compile(&compiled.plan, topo, &model, &compiled.durations).run(),
        );
        let paper = EvalConfig::paper_default();
        let clean = fidelity_of(compiled, &paper);
        let decoherent = fidelity_of(compiled, &paper.with_decoherence_us(60.0, 24));
        (
            label.clone(),
            fnv1a(&bytes),
            clean.to_bits(),
            decoherent.to_bits(),
        )
    })
}

/// `(case, amplitude digest, fidelity bits, decoherent fidelity bits)`
/// for every case of [`narrow_simulator_outputs`], in order.
const PINNED_NARROW_SIMULATIONS: [(&str, u64, u64, u64); 5] = [
    (
        "qft-4@3x4/Gaussian+ParSched",
        0x03498f9ca9fa22ff,
        0x3fc210abf91f067f,
        0x3fc20dd0d0ecbac3,
    ),
    (
        "qft-4@3x4/Pert+ZZXSched",
        0x3d537fae7f8db1b6,
        0x3fed0e4ceaa8b50f,
        0x3fecd269a1aac484,
    ),
    (
        "hs-6@3x4/Gaussian+ParSched",
        0x2b92a53faf5cb44c,
        0x3fea8fc98626d0ef,
        0x3fe8dca50658ba9f,
    ),
    (
        "hs-6@3x4/Pert+ZZXSched",
        0x5dc0bf6fc8c9e39b,
        0x3fefd65e444b428c,
        0x3fee12eed556edf3,
    ),
    (
        "qaoa-4@3x3/Pert+ZZXSched",
        0xaf2d8aed0fd76119,
        0x3fef46b82d0544a0,
        0x3fedf873d268bce8,
    ),
];

#[test]
fn driven_register_outputs_are_pinned() {
    let actual = narrow_simulator_outputs();
    assert_eq!(actual.len(), PINNED_NARROW_SIMULATIONS.len());
    for (
        (label, amplitudes, clean, decoherent),
        (pinned_label, pinned_amps, pinned_clean, pinned_deco),
    ) in actual.iter().zip(PINNED_NARROW_SIMULATIONS)
    {
        assert_eq!(label, pinned_label);
        assert_eq!(
            *amplitudes, pinned_amps,
            "{label}: program amplitudes drifted"
        );
        assert_eq!(
            *clean,
            pinned_clean,
            "{label}: fidelity drifted ({} vs pinned {})",
            f64::from_bits(*clean),
            f64::from_bits(pinned_clean)
        );
        assert_eq!(
            *decoherent,
            pinned_deco,
            "{label}: decoherent fidelity drifted ({} vs pinned {})",
            f64::from_bits(*decoherent),
            f64::from_bits(pinned_deco)
        );
    }
}

/// `(method@strength, residual bits digest)` for every pulse method at the
/// three fleet profiles' crosstalk strengths (15, 200 and 350 kHz) and
/// at each drifted by ×1.08. The digest covers the exact bits of the
/// table's `X90`, identity, `ZX90`-control and `ZX90`-target factors.
fn calibration_sweep() -> Vec<(String, u64)> {
    let mut cases = Vec::new();
    for strength in [15.0, 200.0, 350.0] {
        for drift in [1.0, 1.08] {
            for method in PulseMethod::ALL {
                cases.push((method, strength, drift));
            }
        }
    }
    parallel_map(cases.len(), default_threads(), |i| {
        let (method, strength, drift) = cases[i];
        let table = measure_residuals_at(method, khz(strength) * drift);
        let mut bytes = Vec::new();
        for factor in [table.x90, table.id, table.zx90_control, table.zx90_target] {
            bytes.extend(factor.to_bits().to_le_bytes());
        }
        (format!("{method}@{strength}kHz×{drift}"), fnv1a(&bytes))
    })
}

const PINNED_CALIBRATIONS: [(&str, u64); 24] = [
    ("Gaussian@15kHz×1", 0x635b53b1bd4ed270),
    ("OptCtrl@15kHz×1", 0xf569966fd3b508f4),
    ("Pert@15kHz×1", 0x9dd9a4de8e536eae),
    ("DCG@15kHz×1", 0x8ec06e87b80defa0),
    ("Gaussian@15kHz×1.08", 0x250341c43b4fb453),
    ("OptCtrl@15kHz×1.08", 0xb5ce1bbd58375226),
    ("Pert@15kHz×1.08", 0xf2ce8e07dfae23b2),
    ("DCG@15kHz×1.08", 0x96da6e82fefaf412),
    ("Gaussian@200kHz×1", 0x845a8e1f1b71550b),
    ("OptCtrl@200kHz×1", 0x0f2498a277f14230),
    ("Pert@200kHz×1", 0xeb0ee08559da5772),
    ("DCG@200kHz×1", 0x8df6ad0bba185a2b),
    ("Gaussian@200kHz×1.08", 0xc7abc89342e815b4),
    ("OptCtrl@200kHz×1.08", 0x8207ab95754fd533),
    ("Pert@200kHz×1.08", 0x09801d2d87ec4b97),
    ("DCG@200kHz×1.08", 0x5f0813b4a7d472aa),
    ("Gaussian@350kHz×1", 0xb6b788ef070ef500),
    ("OptCtrl@350kHz×1", 0x0514cbc703151ab8),
    ("Pert@350kHz×1", 0x0404eb29344dc75e),
    ("DCG@350kHz×1", 0xda6367f329cb4d29),
    ("Gaussian@350kHz×1.08", 0xcfec7ff4eb838efb),
    ("OptCtrl@350kHz×1.08", 0xbb39bd64cc5de623),
    ("Pert@350kHz×1.08", 0xc5ecdac1e9f9e209),
    ("DCG@350kHz×1.08", 0x8f68c750aa90f4f3),
];

#[test]
fn calibration_sweep_is_pinned() {
    let actual = calibration_sweep();
    assert_eq!(actual.len(), PINNED_CALIBRATIONS.len());
    for ((label, digest), (pinned_label, pinned)) in actual.iter().zip(PINNED_CALIBRATIONS) {
        assert_eq!(label, pinned_label);
        assert_eq!(*digest, pinned, "{label}: residual factors drifted");
    }
}

/// `(case, result bits digest)` of `expm_taylor` on seeded anti-Hermitian
/// `M = −i·H` of sizes 4, 8, 10 and 16, with `H = A + A†` for uniform
/// random complex `A`, scaled so that the kernel's norm bound
/// `max |Mᵢⱼ| · n` is 0.3 (no squaring) or 3 (three squarings).
fn taylor_outputs() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for n in [4, 8, 10, 16] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut entry = || c64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
        let a = Matrix::from_fn(n, n, |_, _| entry());
        let h = &a + &a.dagger();
        for bound in [0.3, 3.0] {
            let dt = bound / (h.max_norm() * n as f64);
            let e = expm_taylor(&h.scale(c64::new(0.0, -dt)));
            let mut bytes = Vec::new();
            for z in e.as_slice() {
                bytes.extend(z.re.to_bits().to_le_bytes());
                bytes.extend(z.im.to_bits().to_le_bytes());
            }
            out.push((format!("n={n},bound={bound}"), fnv1a(&bytes)));
        }
    }
    out
}

const PINNED_TAYLOR: [(&str, u64); 8] = [
    ("n=4,bound=0.3", 0xfc15477590c7f065),
    ("n=4,bound=3", 0xc69bbdaf2f981e66),
    ("n=8,bound=0.3", 0x5bc851a87ff6e108),
    ("n=8,bound=3", 0xcbc06e785160258f),
    ("n=10,bound=0.3", 0xa6530f8407b21b97),
    ("n=10,bound=3", 0xc786ffb416af3d61),
    ("n=16,bound=0.3", 0x23d7e83583291eb3),
    ("n=16,bound=3", 0x7c2b0ae78dc0043f),
];

#[test]
fn taylor_kernel_outputs_are_pinned() {
    let actual = taylor_outputs();
    assert_eq!(actual.len(), PINNED_TAYLOR.len());
    for ((label, digest), (pinned_label, pinned)) in actual.iter().zip(PINNED_TAYLOR) {
        assert_eq!(label, pinned_label);
        assert_eq!(*digest, pinned, "{label}: expm_taylor drifted");
    }
}

#[test]
#[ignore = "helper for regenerating pinned values after an intentional schema bump"]
fn print_current_keys() {
    println!("bell_plus  digest: {:#018x}", bell_plus().content_digest());
    println!("rotations  digest: {:#018x}", rotations().content_digest());
    println!(
        "qft-4/7    digest: {:#018x}",
        generate(BenchmarkKind::Qft, 4, 7).content_digest()
    );
    println!(
        "bell@2x2   shape:  {:#018x}",
        shape_key(&bell_plus(), &Topology::grid(2, 2))
    );
    println!(
        "bell@vigo  shape:  {:#018x}",
        shape_key(&bell_plus(), &Topology::ibmq_vigo())
    );
    println!(
        "rot@line2  shape:  {:#018x}",
        shape_key(&rotations(), &Topology::line(2))
    );
    println!(
        "bell@hhd3  shape:  {:#018x}",
        shape_key(&bell_plus(), &Topology::heavy_hex(3))
    );
    for (label, response) in error_responses() {
        println!("    (\"{label}\", {:#018x}),", codec_digest(&response));
    }
    for request in compile_requests() {
        println!("request digest: {:#018x}", codec_digest(&request));
    }
    for key in compiled_keys() {
        println!("compiled key:   {key:#018x}");
    }
    for (label, plan, residuals, compiled) in compiled_digests() {
        println!("    (\"{label}\", {plan:#018x}, {residuals:#018x}, {compiled:#018x}),");
    }
    for (label, amplitudes, clean, decoherent) in simulator_outputs() {
        println!("    (\"{label}\", {amplitudes:#018x}, {clean:#018x}, {decoherent:#018x}),");
    }
    for (label, amplitudes, clean, decoherent) in narrow_simulator_outputs() {
        println!("    (\"{label}\", {amplitudes:#018x}, {clean:#018x}, {decoherent:#018x}),");
    }
    for (label, digest) in calibration_sweep().into_iter().chain(taylor_outputs()) {
        println!("    (\"{label}\", {digest:#018x}),");
    }
}
