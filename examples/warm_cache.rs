//! Cold vs. warm compilation through the on-disk artifact store.
//!
//! Two passes compile the same benchmark suite — three benchmark
//! instances × four pulse/scheduler configurations, each on its paper
//! sub-grid. Each pass uses a *fresh* [`Session`] and a *fresh*
//! calibration cache — as a new process would — so the only state they
//! share is the cache directory. The first pass pays for pulse-level
//! calibration, routing and scheduling and publishes every artifact; the
//! second pass serves everything from disk.
//!
//! ```text
//! cargo run --release --example warm_cache
//! ```
//!
//! Set `ZZ_CACHE_DIR` to persist the cache across invocations (the `fig*`
//! binaries honor the same variable); by default this example uses a
//! scratch directory and removes it at the end.

use std::sync::Arc;
use std::time::Instant;

use zz_bench::suite_requests;
use zz_circuit::bench::BenchmarkKind;
use zz_core::calib::CalibCache;
use zz_persist::CACHE_DIR_ENV;
use zz_service::{CompileRequest, PulseMethod, SchedulerKind, ServiceReport, Session, Target};
use zz_topology::Topology;

fn suite() -> Vec<CompileRequest> {
    let cases = [
        (BenchmarkKind::Qft, 4),
        (BenchmarkKind::Qaoa, 6),
        (BenchmarkKind::Ising, 9),
    ];
    let configs = [
        (PulseMethod::Gaussian, SchedulerKind::ParSched),
        (PulseMethod::OptCtrl, SchedulerKind::ZzxSched),
        (PulseMethod::Pert, SchedulerKind::ZzxSched),
        (PulseMethod::Dcg, SchedulerKind::ZzxSched),
    ];
    suite_requests(&cases, &configs, None)
}

fn run_pass(name: &str, dir: &std::path::Path) -> ServiceReport {
    // A fresh session *and* a fresh calibration cache: nothing carries
    // over in memory, exactly like a new process.
    let target = Target::builder()
        .topology(Topology::grid(3, 3))
        .store_dir(dir)
        .calib_cache(Arc::new(CalibCache::new()))
        .build()
        .expect("cache directory is writable");
    let session = Session::new(target);
    let t0 = Instant::now();
    let report = session.run(suite());
    println!("{name:>5} pass: {report}");
    println!("{:>11} {:.1?} end to end", "", t0.elapsed());
    report
}

fn main() {
    let (dir, ephemeral) = match std::env::var(CACHE_DIR_ENV) {
        Ok(d) if !d.is_empty() => (std::path::PathBuf::from(d), false),
        _ => (
            std::env::temp_dir().join(format!("zz-warm-cache-{}", std::process::id())),
            true,
        ),
    };
    println!("artifact store: {}", dir.display());

    let cold = run_pass("cold", &dir);
    let warm = run_pass("warm", &dir);

    assert_eq!(warm.calibration_runs, 0, "warm pass must not calibrate");
    assert_eq!(warm.route_misses, 0, "warm pass must not route");
    for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
        let (c, w) = (
            c.as_ref().expect("cold compiled"),
            w.as_ref().expect("warm compiled"),
        );
        assert_eq!(
            c.compiled, w.compiled,
            "{} must be bit-identical across passes",
            c.label
        );
    }
    // The per-stage traces make the mechanism visible: warm jobs are
    // whole-plan disk hits, so no stage beyond validation executed.
    for stats in warm.stage_stats() {
        if stats.stage != zz_core::Stage::Validate {
            assert_eq!(stats.executed, 0, "warm pass ran stage {}", stats.stage);
        }
    }
    let speedup = cold.cpu_time().as_secs_f64() / warm.cpu_time().as_secs_f64().max(1e-9);
    println!("compile-time speedup (cpu): {speedup:.1}x; outputs bit-identical");

    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        println!("cache kept at {} (set by ${CACHE_DIR_ENV})", dir.display());
    }
}
