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
//! shares.

mod common;

use common::{codec_digest, matrix_cases, parameter_cases, PINNED_COMPILES};
use zz_circuit::bench::{generate, BenchmarkKind};
use zz_circuit::{Circuit, Gate};
use zz_core::pipeline::shape_key;
use zz_service::{CompileRequest, Session, Target};
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

/// `(case, plan digest, residual-table digest, Compiled digest)` for
/// every compile case, compiled through a session.
fn compiled_digests() -> Vec<(String, u64, u64, u64)> {
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
    for (label, plan, residuals, compiled) in compiled_digests() {
        println!("    (\"{label}\", {plan:#018x}, {residuals:#018x}, {compiled:#018x}),");
    }
}
