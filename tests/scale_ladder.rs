//! The `bench_scale` device ladder ([`zz_bench::scale_devices`], each
//! rung compiling [`zz_bench::brickwork`]), pinned exactly: for every
//! rung × scheduler, the plan's layer count, its residual-ZZ weight and the
//! `sched.distance_queries` the compile made. These are deterministic
//! counts, so any change to routing, scheduling or the plan metrics
//! shows here as an exact diff.
//!
//! ParSched runs on all six rungs, up to the 1071-qubit heavy-hex
//! lattice; ZZXSched runs on the two grids a debug build compiles in
//! well under a second (under ZZXSched, grid-16×16 and heavy-hex-d9
//! take 5–9 s each in debug).
//!
//! This file is a test binary of its own, holding a single test, on
//! purpose. `sched.distance_queries` reaches every live session through
//! the process-global `zz_sched::obs` sink (ROADMAP item 3), so any test
//! running concurrently in the same binary that schedules with ZZXSched
//! would inflate the pinned counts.

use zz_bench::{brickwork, scale_devices};
use zz_core::{CompileOptions, SchedulerKind};
use zz_service::{CompileRequest, Session, Target};

/// The rungs ZZXSched is pinned on.
const ZZX_RUNGS: [&str; 2] = ["grid-4x4", "grid-8x8"];

#[test]
fn scale_ladder_plans_are_pinned() {
    let mut got = Vec::new();
    for (name, topo) in scale_devices() {
        let circuit = brickwork(topo.qubit_count());
        let target = Target::builder()
            .topology(topo)
            .build()
            .expect("in-memory targets always build");
        let session = Session::with_threads(target, 1);
        let queries = || {
            session
                .metrics()
                .snapshot()
                .counter("sched.distance_queries")
                .unwrap_or(0)
        };
        for scheduler in [SchedulerKind::ParSched, SchedulerKind::ZzxSched] {
            if scheduler == SchedulerKind::ZzxSched && !ZZX_RUNGS.contains(&name.as_str()) {
                continue;
            }
            let before = queries();
            let response = session
                .compile(
                    &CompileRequest::new(circuit.clone())
                        .with_options(CompileOptions::default().with_scheduler(scheduler)),
                )
                .unwrap_or_else(|e| panic!("{name}/{scheduler} failed to compile: {e}"));
            let plan = response.plan_metrics();
            got.push(format!(
                "{name} {scheduler}: {} layers, residual-ZZ {:?}, {} distance queries",
                plan.layers,
                plan.residual_zz_weight,
                queries() - before
            ));
        }
    }
    let expected = [
        "grid-4x4 ParSched: 18 layers, residual-ZZ 5800.0, 0 distance queries",
        "grid-4x4 ZZXSched: 31 layers, residual-ZZ 2880.0, 1264 distance queries",
        "grid-8x8 ParSched: 52 layers, residual-ZZ 104540.0, 0 distance queries",
        "grid-8x8 ZZXSched: 157 layers, residual-ZZ 137520.0, 103268 distance queries",
        "grid-16x16 ParSched: 88 layers, residual-ZZ 800380.0, 0 distance queries",
        "grid-31x31 ParSched: 288 layers, residual-ZZ 10605860.0, 0 distance queries",
        "heavy-hex-d9 ParSched: 343 layers, residual-ZZ 1278860.0, 0 distance queries",
        "heavy-hex-d21 ParSched: 509 layers, residual-ZZ 12266960.0, 0 distance queries",
    ];
    assert_eq!(got, expected, "the scale ladder moved:\n{}", got.join("\n"));
}
