//! Fidelity-predictive dispatch across a heterogeneous fleet, through a
//! calibration-drift epoch.
//!
//! A [`Fleet`] of the three shipped device profiles (the paper's 3×4
//! grid, a tunable-coupler grid with order-of-magnitude weaker residual
//! ZZ, and an always-on heavy-hex lattice) receives a mixed job stream.
//! Each job is compiled and scored on every backend that can hold it —
//! simulated fidelity where the device fits under the 12-qubit
//! evaluation ceiling, a plan-metrics proxy above it — and dispatched to
//! the best predicted backend. An
//! [`advance_epoch`](Fleet::advance_epoch) call then drifts every
//! device's ground-truth λ; any device past the
//! invalidation threshold is re-characterized (fresh calibration cache,
//! epoch-salted artifact keys) before the stream continues.
//!
//! ```text
//! cargo run --release --example fleet_dispatch
//! ```

use zz_circuit::bench::{generate, BenchmarkKind};
use zz_fleet::{Fleet, FleetConfig};
use zz_service::CompileOptions;

fn main() {
    // A tight threshold so the single drift epoch below visibly
    // re-characterizes part of the fleet.
    let config = FleetConfig {
        seed: 0x5eed,
        invalidation_threshold: 0.05,
        threads_per_device: 1,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::standard(config).expect("the standard fleet builds");
    println!("fleet: {:?}", fleet.devices());

    let stream = [
        (BenchmarkKind::Qft, 4),
        (BenchmarkKind::HiddenShift, 6),
        (BenchmarkKind::Qft, 16), // only the 18-qubit heavy-hex fits
    ];
    for (kind, qubits) in stream {
        let dispatch = fleet
            .submit(generate(kind, qubits, 5), CompileOptions::default())
            .expect("some backend holds the job");
        println!("\n{kind} on {qubits} qubits -> {}", dispatch.device);
        for candidate in &dispatch.candidates {
            let marker = if candidate.device == dispatch.device {
                "*"
            } else {
                " "
            };
            println!(
                "  {marker} {:>16}  score {:.4}  ({:?})",
                candidate.device, candidate.score, candidate.kind
            );
        }
    }

    // One calibration epoch: every ground-truth λ drifts; devices past
    // the threshold get a fresh calibration cache and epoch-salted
    // artifact keys, so no stale residual table is ever reused.
    let epoch = fleet.advance_epoch().expect("the epoch advances");
    println!("\nepoch {}:", epoch.epoch);
    for inv in &epoch.invalidations {
        println!(
            "  recalibrated {:>16}  λ {:.6} -> {:.6} rad/ns ({:.1}% drift)",
            inv.device,
            inv.previous_lambda,
            inv.new_lambda,
            inv.deviation * 100.0
        );
    }
    if epoch.invalidations.is_empty() {
        println!("  all devices within threshold");
    }

    // The same small job after drift: scores shift with the new
    // calibrations, and dispatch may re-route.
    let dispatch = fleet
        .submit(
            generate(BenchmarkKind::Qft, 4, 5),
            CompileOptions::default(),
        )
        .expect("dispatches");
    println!("\nQFT on 4 qubits after drift -> {}", dispatch.device);
    for candidate in &dispatch.candidates {
        println!(
            "    {:>16}  score {:.4}  ({:?})",
            candidate.device, candidate.score, candidate.kind
        );
    }

    println!("\n{}", fleet.report());
}
