//! Cold vs. warm compilation through the on-disk artifact store.
//!
//! Two passes compile the same benchmark suite — three benchmark
//! instances × four pulse/scheduler configurations, each on its paper
//! sub-grid. Each pass uses a *fresh* [`Session`] and a *fresh*
//! calibration cache — as a new process would — so the only state they
//! share is the cache directory. The first pass pays for pulse-level
//! calibration, routing and scheduling and publishes each request's
//! whole compiled plan; the second pass serves every plan from disk.
//!
//! ```text
//! cargo run --release --example warm_cache
//! ```
//!
//! Set `ZZ_CACHE_DIR` to persist the cache across invocations (the `fig*`
//! binaries honor the same variable); by default this example uses a
//! scratch directory and removes it at the end. When the directory
//! already holds `compiled/` plans at start, the first pass must be
//! served from disk as well — a warm start in a brand-new process. CI
//! checks it by running the example twice over one directory:
//!
//! ```text
//! dir=$(mktemp -d)
//! ZZ_CACHE_DIR="$dir" cargo run --release --example warm_cache
//! ZZ_CACHE_DIR="$dir" cargo run --release --example warm_cache
//! ```

use std::sync::Arc;
use std::time::Instant;

use zz_bench::suite_requests;
use zz_circuit::bench::BenchmarkKind;
use zz_core::calib::CalibCache;
use zz_core::Stage;
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

/// Asserts that every request of `pass` was a whole-plan disk hit: no
/// calibration, no routing, no stage beyond validation.
fn assert_served_from_disk(report: &ServiceReport, pass: &str) {
    assert_eq!(
        report.disk_hits,
        report.outcomes.len(),
        "{pass} pass must be all whole-plan disk hits"
    );
    assert_eq!(report.calibration_runs, 0, "{pass} pass must not calibrate");
    assert_eq!(report.route_misses, 0, "{pass} pass must not route");
    for stats in report.stage_stats() {
        if stats.stage != Stage::Validate {
            assert_eq!(stats.executed, 0, "{pass} pass ran stage {}", stats.stage);
        }
    }
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
    // Plans left by an earlier process make this one's first pass warm.
    let warm_at_start =
        std::fs::read_dir(dir.join("compiled")).is_ok_and(|mut plans| plans.next().is_some());

    let cold = run_pass(if warm_at_start { "first" } else { "cold" }, &dir);
    if warm_at_start {
        assert_served_from_disk(&cold, "first (store warm at start)");
    }
    let warm = run_pass("warm", &dir);
    assert_served_from_disk(&warm, "warm");
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
    let speedup = cold.cpu_time().as_secs_f64() / warm.cpu_time().as_secs_f64().max(1e-9);
    println!("compile-time speedup (cpu): {speedup:.1}x; outputs bit-identical");

    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        println!("cache kept at {} (set by ${CACHE_DIR_ENV})", dir.display());
    }
}
