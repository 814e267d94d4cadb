//! Compile requests whose output is pinned bit for bit, shared by
//! `tests/golden_keys.rs` (which pins the digests) and `tests/service.rs`
//! (which checks both session paths against them).

use zz_circuit::bench::{generate, BenchmarkKind};
use zz_circuit::Circuit;
use zz_persist::{fnv1a, Encode, Encoder};
use zz_sched::zzx::Requirement;
use zz_service::{CompileOptions, PulseMethod, SchedulerKind};
use zz_topology::Topology;

/// A labelled compile request: `(label, device, circuit, options)`.
pub type CompileCase = (String, Topology, Circuit, CompileOptions);

/// The digest of a value's exact codec bytes.
pub fn codec_digest(value: &impl Encode) -> u64 {
    let mut enc = Encoder::new();
    value.encode(&mut enc);
    fnv1a(&enc.finish())
}

/// Every (method, scheduler) pair on QAOA-6 over the 2×3 grid.
pub fn matrix_cases() -> Vec<CompileCase> {
    let mut cases = Vec::new();
    for method in PulseMethod::ALL {
        for scheduler in [SchedulerKind::ParSched, SchedulerKind::ZzxSched] {
            cases.push((
                format!("qaoa-6/{method}+{scheduler}"),
                Topology::grid(2, 3),
                generate(BenchmarkKind::Qaoa, 6, 7),
                CompileOptions::new(method, scheduler),
            ));
        }
    }
    cases
}

/// Non-default (α, k, R) requests on QFT-9 over the 3×3 grid.
pub fn parameter_cases() -> Vec<CompileCase> {
    let requirement = Requirement {
        nq_limit: 3,
        nc_limit: 5,
    };
    let mut cases = Vec::new();
    for (alpha, k, requirement) in [(0.25, 1, None), (2.0, 8, Some(requirement))] {
        let mut options = CompileOptions::default().with_alpha(alpha).with_k(k);
        if let Some(r) = requirement {
            options = options.with_requirement(r);
        }
        let r = requirement.map_or("paper".to_string(), |r: Requirement| {
            format!("{}/{}", r.nq_limit, r.nc_limit)
        });
        cases.push((
            format!("qft-9/alpha={alpha},k={k},R={r}"),
            Topology::grid(3, 3),
            generate(BenchmarkKind::Qft, 9, 7),
            options,
        ));
    }
    cases
}

/// `(case, plan digest, residual-table digest, Compiled digest)` for every
/// case of [`matrix_cases`] then [`parameter_cases`]. Recorded while the
/// retired sequential and batch compile facades still compiled these
/// requests, and all three paths agreed on every digest.
pub const PINNED_COMPILES: [(&str, u64, u64, u64); 10] = [
    (
        "qaoa-6/Gaussian+ParSched",
        0xc9e11bf1419b1b34,
        0x845a8e1f1b71550b,
        0xd921afc8eb45b6af,
    ),
    (
        "qaoa-6/Gaussian+ZZXSched",
        0xbf2d63548203c996,
        0x845a8e1f1b71550b,
        0xb15c3afe7e2a4ef1,
    ),
    (
        "qaoa-6/OptCtrl+ParSched",
        0xc9e11bf1419b1b34,
        0x0f2498a277f14230,
        0xafe03e4006b16c5b,
    ),
    (
        "qaoa-6/OptCtrl+ZZXSched",
        0xbf2d63548203c996,
        0x0f2498a277f14230,
        0x748f69c20f125d39,
    ),
    (
        "qaoa-6/Pert+ParSched",
        0xc9e11bf1419b1b34,
        0xeb0ee08559da5772,
        0x807a98bdef4b97f8,
    ),
    (
        "qaoa-6/Pert+ZZXSched",
        0xbf2d63548203c996,
        0xeb0ee08559da5772,
        0x1904715bf044f3c6,
    ),
    (
        "qaoa-6/DCG+ParSched",
        0xc9e11bf1419b1b34,
        0x8df6ad0bba185a2b,
        0xa416360d16ee192e,
    ),
    (
        "qaoa-6/DCG+ZZXSched",
        0xbf2d63548203c996,
        0x8df6ad0bba185a2b,
        0x2a447fde8d403608,
    ),
    (
        "qft-9/alpha=0.25,k=1,R=paper",
        0xe8a7be9348eacddf,
        0xeb0ee08559da5772,
        0xc0c4c528181fcdbc,
    ),
    (
        "qft-9/alpha=2,k=8,R=3/5",
        0x5d6fd6b57cbeaf84,
        0xeb0ee08559da5772,
        0x3c4b2b91d3509db5,
    ),
];
