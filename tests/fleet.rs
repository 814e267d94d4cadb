//! Fleet-level integration tests: dispatch determinism across thread
//! counts, drift-driven calibration invalidation (no stale disk
//! artifact is ever reused), per-device shard isolation and per-device
//! engine and scheduler counters, and typed errors for degenerate
//! scoring configs and device profiles.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use zz_circuit::bench::{generate, BenchmarkKind};
use zz_fleet::{DeviceProfile, DriftModel, Fleet, FleetConfig, FleetError, ScoreKind};
use zz_service::{CompileOptions, CompileRequest, DiskStatus, Error};

fn scratch_dir(label: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "zz-fleet-{label}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A small config: single eval seed and few trajectories keep the
/// simulation-scored candidates fast without touching determinism.
fn fast_config(threads: usize) -> FleetConfig {
    FleetConfig {
        seed: 7,
        threads_per_device: threads,
        eval_seeds: vec![11],
        trajectories: 4,
        ..FleetConfig::default()
    }
}

/// The mixed job stream every determinism assertion replays: two small
/// jobs all three backends can hold, and one 16-qubit job only the
/// 18-qubit heavy-hex device fits.
fn job_stream() -> Vec<(BenchmarkKind, usize)> {
    vec![
        (BenchmarkKind::Qft, 4),
        (BenchmarkKind::Qft, 16),
        (BenchmarkKind::HiddenShift, 6),
    ]
}

/// Runs the standard job stream (with one drift epoch in the middle)
/// and records every decision bit-exactly, with the scoring path each
/// winner took.
fn run_stream(threads: usize) -> Vec<String> {
    let mut fleet = Fleet::standard(fast_config(threads)).expect("standard fleet builds");
    let mut decisions = Vec::new();
    for (round, (kind, n)) in job_stream().into_iter().enumerate() {
        if round == 2 {
            let epoch = fleet.advance_epoch().expect("epoch advances");
            for inv in &epoch.invalidations {
                decisions.push(format!(
                    "invalidate {} {:016x}",
                    inv.device,
                    inv.new_lambda.to_bits()
                ));
            }
        }
        let dispatch = fleet
            .submit(generate(kind, n, 5), CompileOptions::default())
            .expect("dispatches");
        for candidate in &dispatch.candidates {
            decisions.push(format!(
                "candidate {} {:016x}",
                candidate.device,
                candidate.score.to_bits()
            ));
        }
        let winner = dispatch
            .candidates
            .iter()
            .find(|c| c.device == dispatch.device)
            .expect("the winner is a candidate");
        decisions.push(format!(
            "dispatch {} -> {} {:016x} {:?}",
            dispatch.label,
            dispatch.device,
            dispatch.score.to_bits(),
            winner.kind
        ));
    }
    decisions
}

/// `run_stream(1)`'s decisions, pinned across commits: a change that
/// moves every score alike still agrees with itself at any thread
/// count, but not with this list. The small jobs had three candidates,
/// the 16-qubit job one.
const PINNED_DECISIONS: [&str; 10] = [
    "candidate paper-grid 3fed268f0db0205e",
    "candidate tunable-coupler 3feffb7a3febc2a5",
    "candidate heavy-hex-static 3f5c2ba7decfa88b",
    "dispatch job-1-Pert+ZZXSched -> tunable-coupler 3feffb7a3febc2a5 Simulated",
    "candidate heavy-hex-static 1ac0be35c2dadd1e",
    "dispatch job-2-Pert+ZZXSched -> heavy-hex-static 1ac0be35c2dadd1e PlanMetrics",
    "candidate paper-grid 3fefb848bbfdd462",
    "candidate tunable-coupler 3fefff98bd94d457",
    "candidate heavy-hex-static 3fc9e93742039be3",
    "dispatch job-3-Pert+ZZXSched -> tunable-coupler 3fefff98bd94d457 Simulated",
];

#[test]
fn dispatch_decisions_are_bit_identical_at_any_thread_count() {
    let single = run_stream(1);
    assert_eq!(
        single,
        PINNED_DECISIONS,
        "the dispatch decisions moved:\n{}",
        single.join("\n")
    );
    let pooled = run_stream(4);
    assert_eq!(single, pooled, "thread count changed a dispatch decision");
    // Both scoring paths won a job.
    for kind in [ScoreKind::Simulated, ScoreKind::PlanMetrics] {
        let suffix = format!(" {kind:?}");
        assert!(
            single
                .iter()
                .any(|d| d.starts_with("dispatch") && d.ends_with(&suffix)),
            "no job was won through {kind:?} scoring"
        );
    }
}

/// A small stream on one 12-qubit device that decoheres fast
/// (`T1 = T2 = 5 µs`), over 16 trajectories, so its Monte-Carlo
/// trajectories jump and phase-flip (over `fast_config`'s 4 none fires).
/// Unlike [`PINNED_DECISIONS`], these scores depend on every trajectory
/// draw, the undriven qubits' draws included: replaying the 4- and
/// 6-qubit jobs without the undriven qubits' draws moves both scores.
fn run_decohering_stream() -> Vec<String> {
    let mut fleet = Fleet::new(FleetConfig {
        trajectories: 16,
        ..fast_config(1)
    });
    fleet
        .add_device(DeviceProfile {
            name: "fast-decay".into(),
            t1_us: 5.0,
            t2_us: 5.0,
            ..DeviceProfile::paper_grid()
        })
        .expect("a physical profile");
    [(BenchmarkKind::Qft, 4), (BenchmarkKind::HiddenShift, 6)]
        .into_iter()
        .map(|(kind, n)| {
            let dispatch = fleet
                .submit(generate(kind, n, 5), CompileOptions::default())
                .expect("dispatches");
            format!(
                "dispatch {} -> {} {:016x} {:?}",
                dispatch.label,
                dispatch.device,
                dispatch.score.to_bits(),
                dispatch.candidates[0].kind
            )
        })
        .collect()
}

/// `run_decohering_stream()`'s decisions, pinned across commits.
const PINNED_DECOHERING_DECISIONS: [&str; 2] = [
    "dispatch job-1-Pert+ZZXSched -> fast-decay 3fe64fb7845e2a0c Simulated",
    "dispatch job-2-Pert+ZZXSched -> fast-decay 3fe5c379b47c65e6 Simulated",
];

#[test]
fn decohering_dispatch_scores_are_pinned() {
    let decisions = run_decohering_stream();
    assert_eq!(
        decisions,
        PINNED_DECOHERING_DECISIONS,
        "the decohering scores moved:\n{}",
        decisions.join("\n")
    );
}

#[test]
fn same_seed_makes_identical_fleets_twice() {
    assert_eq!(run_stream(2), run_stream(2));
}

/// A threshold strictly between the smallest and largest epoch-1
/// deviations of the shipped profiles, so one `advance_epoch` provably
/// invalidates *some but not all* devices — computed from the
/// deterministic drift walk rather than hard-coded.
fn partitioning_threshold(config: &FleetConfig) -> f64 {
    let drift = DriftModel::new(config.seed).with_step(config.drift_step);
    let deviations: Vec<f64> = DeviceProfile::standard_fleet()
        .iter()
        .map(|p| (drift.lambda_at(p.lambda_mean, &p.name, 1) - p.lambda_mean).abs() / p.lambda_mean)
        .collect();
    let lo = deviations.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = deviations.iter().cloned().fold(0.0, f64::max);
    assert!(lo < hi, "deviations must differ to partition the fleet");
    (lo + hi) / 2.0
}

#[test]
fn drift_invalidates_exactly_the_drifted_devices_and_leaves_other_shards_warm() {
    let dir = scratch_dir("drift");
    let mut config = fast_config(1);
    config.store_root = Some(dir.clone());
    config.invalidation_threshold = partitioning_threshold(&config);
    let drift = DriftModel::new(config.seed).with_step(config.drift_step);

    let mut fleet = Fleet::standard(config.clone()).expect("standard fleet builds");
    let circuit = || generate(BenchmarkKind::Qft, 4, 5);

    // Warm every shard: the submit compiles on all three backends.
    fleet
        .submit(circuit(), CompileOptions::default())
        .expect("warms the fleet");
    let warm = fleet.report();

    // Predict the partition from the pure drift function, then check
    // the epoch agrees.
    let expected: Vec<String> = DeviceProfile::standard_fleet()
        .iter()
        .filter(|p| {
            let dev =
                (drift.lambda_at(p.lambda_mean, &p.name, 1) - p.lambda_mean).abs() / p.lambda_mean;
            dev > config.invalidation_threshold
        })
        .map(|p| p.name.clone())
        .collect();
    assert!(
        !expected.is_empty(),
        "seed must drift someone past threshold"
    );
    assert!(expected.len() < 3, "seed must leave someone calibrated");

    let epoch = fleet.advance_epoch().expect("epoch advances");
    let invalidated: Vec<String> = epoch
        .invalidations
        .iter()
        .map(|i| i.device.clone())
        .collect();
    assert_eq!(
        invalidated, expected,
        "exactly the drifted devices recalibrate"
    );

    // Recompile the same circuit on every device it fits; the stale
    // compiled artifact must never be served on an invalidated device.
    for profile in DeviceProfile::standard_fleet() {
        if profile.topology().qubit_count() < 4 {
            continue;
        }
        let session = fleet.session(&profile.name).expect("registered");
        let response = session
            .compile(&CompileRequest::new(circuit()))
            .expect("compiles");
        if invalidated.contains(&profile.name) {
            assert_eq!(
                response.disk,
                DiskStatus::Miss,
                "{}: a post-drift compile reused a stale disk artifact",
                profile.name
            );
        } else {
            assert_eq!(
                response.disk,
                DiskStatus::Hit,
                "{}: an undrifted device lost its warm artifact",
                profile.name
            );
        }
    }

    // Invalidated devices re-characterized from scratch (one fresh
    // calibration run on the new cache, zero disk hits for it); warm
    // devices never re-ran calibration.
    let after = fleet.report();
    for (w, a) in warm.devices.iter().zip(&after.devices) {
        assert_eq!(w.device, a.device);
        if invalidated.contains(&a.device) {
            assert_eq!(a.invalidations, 1, "{}", a.device);
            assert_eq!(
                a.calibration_runs, 1,
                "{}: the fresh cache must measure, not load stale residuals",
                a.device
            );
            assert_eq!(a.calibrated_epoch, 1, "{}", a.device);
        } else {
            assert_eq!(a.invalidations, 0, "{}", a.device);
            assert_eq!(
                a.calibration_runs, w.calibration_runs,
                "{}: no recalibration without drift",
                a.device
            );
            assert_eq!(a.calibrated_epoch, 0, "{}", a.device);
        }
    }

    let _ = std::fs::remove_dir_all(&dir);

    // A fixed walk pinned across commits: which devices three epochs of
    // seed 0x5eed at threshold 0.05 recalibrate, and to which λ. The
    // walk needs no dispatch.
    let mut walker = Fleet::standard(FleetConfig {
        seed: 0x5eed,
        invalidation_threshold: 0.05,
        ..fast_config(1)
    })
    .expect("standard fleet builds");
    let walk: Vec<String> = (0..3)
        .map(|_| {
            let epoch = walker.advance_epoch().expect("epoch advances");
            let devices: Vec<String> = epoch
                .invalidations
                .iter()
                .map(|i| format!("{} {:016x}", i.device, i.new_lambda.to_bits()))
                .collect();
            format!("epoch {}: [{}]", epoch.epoch, devices.join(", "))
        })
        .collect();
    assert_eq!(
        walk,
        [
            "epoch 1: [paper-grid 3f5381788dfb9925, tunable-coupler 3f1a083e09b05ba0]",
            "epoch 2: []",
            "epoch 3: [paper-grid 3f548d4c12c3d7c7]",
        ],
        "the drift partition moved:\n{}",
        walk.join("\n")
    );
}

#[test]
fn damaging_one_shard_leaves_the_others_fully_warm() {
    let dir = scratch_dir("shards");
    let mut config = fast_config(1);
    config.store_root = Some(dir.clone());

    // Warm every device's shard, then tear the fleet down.
    {
        let mut fleet = Fleet::standard(config.clone()).expect("builds");
        fleet
            .submit(
                generate(BenchmarkKind::Qft, 4, 5),
                CompileOptions::default(),
            )
            .expect("warms the fleet");
        let report = fleet.report();
        for device in &report.devices {
            let stats = device.store.expect("store configured");
            assert!(stats.writes > 0, "{}: shard never written", device.device);
        }
    }

    // Destroy the paper-grid shard only.
    std::fs::remove_dir_all(dir.join("paper-grid")).expect("shard dir exists");

    // A fresh fleet over the same root: the damaged device recompiles
    // from scratch, every other device is served from its warm shard.
    let fleet = Fleet::standard(config).expect("builds");
    for profile in DeviceProfile::standard_fleet() {
        let session = fleet.session(&profile.name).expect("registered");
        let response = session
            .compile(&CompileRequest::new(generate(BenchmarkKind::Qft, 4, 5)))
            .expect("compiles");
        if profile.name == "paper-grid" {
            assert_eq!(response.disk, DiskStatus::Miss, "damaged shard must miss");
        } else {
            assert_eq!(
                response.disk,
                DiskStatus::Hit,
                "{}: another device's damage evicted this warm shard",
                profile.name
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_metrics_track_dispatch_and_invalidation() {
    let mut fleet = Fleet::standard(fast_config(1)).expect("builds");
    fleet
        .submit(
            generate(BenchmarkKind::Qft, 4, 5),
            CompileOptions::default(),
        )
        .expect("dispatches");
    let mut config = fast_config(1);
    config.invalidation_threshold = 0.0; // any drift recalibrates
    let mut drifty = Fleet::standard(config).expect("builds");
    drifty.advance_epoch().expect("advances");

    let snap = fleet.registry().snapshot();
    assert_eq!(snap.counter("fleet.dispatch"), Some(1));
    let winner = fleet
        .report()
        .devices
        .iter()
        .any(|d| snap.counter(&format!("fleet.device.{}.jobs", d.device)) == Some(1));
    assert!(winner, "the winning device's job counter ticked");

    let snap = drifty.registry().snapshot();
    assert_eq!(snap.counter("fleet.drift.invalidations"), Some(3));
    assert_eq!(snap.gauge("fleet.epoch"), Some(1));
}

/// Each device's session counts only its own work: one QFT-4 dispatch
/// schedules once on every candidate, and only the two devices scored
/// by simulation run trajectories (4 each at one eval seed).
#[test]
fn engine_and_scheduler_counters_are_scoped_to_each_device() {
    let mut fleet = Fleet::standard(fast_config(1)).expect("builds");
    fleet
        .submit(
            generate(BenchmarkKind::Qft, 4, 5),
            CompileOptions::default(),
        )
        .expect("dispatches");

    let got: Vec<String> = fleet
        .devices()
        .into_iter()
        .map(|device| {
            let snap = fleet
                .session(device)
                .expect("registered")
                .metrics()
                .snapshot();
            format!(
                "{device}: {} trajectories, {} schedules",
                snap.counter("engine.trajectories").unwrap_or(0),
                snap.counter("sched.schedules").unwrap_or(0)
            )
        })
        .collect();
    assert_eq!(
        got,
        [
            "paper-grid: 4 trajectories, 1 schedules",
            "tunable-coupler: 4 trajectories, 1 schedules",
            "heavy-hex-static: 0 trajectories, 1 schedules",
        ]
    );
}

/// A ground-truth probe simulates on the device's session and counts
/// there like a dispatch's scoring: one QFT-4 call on the 12-qubit paper
/// grid (trajectories, not exact density matrices) runs trajectories ×
/// eval seeds and records one evaluation time.
#[test]
fn ground_truth_simulation_is_counted_in_the_device_session() {
    let config = FleetConfig {
        eval_seeds: vec![11, 23],
        ..fast_config(1)
    };
    let expected = (config.trajectories * config.eval_seeds.len()) as u64;
    let mut fleet = Fleet::new(config);
    fleet
        .add_device(DeviceProfile::paper_grid())
        .expect("the paper grid registers");
    let counts = |fleet: &Fleet| {
        let snap = fleet
            .session("paper-grid")
            .expect("registered")
            .metrics()
            .snapshot();
        let evals = snap
            .histogram("session.eval.wall_us")
            .expect("eval histogram registered")
            .count;
        (snap.counter("engine.trajectories").unwrap_or(0), evals)
    };
    assert_eq!(counts(&fleet), (0, 0));
    let fidelity = fleet
        .ground_truth_fidelity(
            "paper-grid",
            generate(BenchmarkKind::Qft, 4, 5),
            CompileOptions::default(),
        )
        .expect("the paper grid evaluates");
    assert!(fidelity > 0.0 && fidelity <= 1.0 + 1e-9, "{fidelity}");
    assert_eq!(counts(&fleet), (expected, 1));
}

/// Asserts a fleet failure is the service's typed evaluation error on
/// `device`, with a detail naming `field`.
fn assert_eval_error<T: std::fmt::Debug>(result: Result<T, FleetError>, device: &str, field: &str) {
    match result {
        Err(FleetError::Service {
            device: failed,
            source: Error::Eval { detail, .. },
        }) => {
            assert_eq!(failed, device);
            assert!(detail.contains(field), "{field} not named in: {detail}");
        }
        other => panic!("expected an Eval error naming {field}, got {other:?}"),
    }
}

/// Scoring configs the session rejects are rejected the same way by the
/// ground-truth probe — no NaN from an empty seed average, no panic
/// from a zero-trajectory fan (the 12-qubit paper grid is above the
/// exact density-matrix size, so its scoring runs trajectories).
#[test]
fn degenerate_scoring_configs_are_typed_eval_errors() {
    let qaoa = || generate(BenchmarkKind::Qaoa, 9, 7);
    for (config, field) in [
        (
            FleetConfig {
                eval_seeds: vec![],
                ..fast_config(1)
            },
            "seeds",
        ),
        (
            FleetConfig {
                trajectories: 0,
                ..fast_config(1)
            },
            "trajectories",
        ),
    ] {
        let mut fleet = Fleet::new(config);
        fleet
            .add_device(DeviceProfile::paper_grid())
            .expect("the paper grid registers");
        assert_eval_error(
            fleet.ground_truth_fidelity("paper-grid", qaoa(), CompileOptions::default()),
            "paper-grid",
            field,
        );
        // Refused before anything compiles.
        let requests = fleet
            .session("paper-grid")
            .expect("registered")
            .metrics()
            .snapshot()
            .counter("session.requests");
        assert_eq!(requests, Some(0), "{field}");
        assert_eval_error(
            fleet.submit(qaoa(), CompileOptions::default()),
            "paper-grid",
            field,
        );
    }
}

/// An unphysical profile (`T2 > 2·T1`) is refused at registration, not
/// by a panic on the next dispatch.
#[test]
fn unphysical_profiles_are_refused_at_registration() {
    let mut profile = DeviceProfile::paper_grid();
    profile.t2_us = 3.0 * profile.t1_us;
    let mut fleet = Fleet::new(fast_config(1));
    assert_eval_error(fleet.add_device(profile), "paper-grid", "t2");
    assert!(fleet.devices().is_empty());
    assert!(matches!(
        fleet.submit(
            generate(BenchmarkKind::Qaoa, 9, 7),
            CompileOptions::default()
        ),
        Err(FleetError::NoEligibleBackend { qubits: 9 })
    ));
}
