//! Integration tests of the on-disk compilation cache: a warm start in a
//! fresh session with reset calibration state must reproduce the cold
//! pass bit-identically with zero recompilation, and every failure mode of
//! the cache (corruption, truncation, stale versions, unwritable
//! directories) must degrade to recompilation — never to an error.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use zz_circuit::bench::{generate, BenchmarkKind};
use zz_core::calib::CalibCache;
use zz_persist::ArtifactStore;
use zz_service::{
    CompileOptions, CompileRequest, Compiled, PulseMethod, SchedulerKind, ServiceReport, Session,
    Target,
};
use zz_topology::Topology;

fn scratch_dir(label: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "zz-persist-it-{label}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A small suite exercising both schedulers, three pulse methods and two
/// distinct circuit shapes.
fn suite_jobs() -> Vec<CompileRequest> {
    let qft = Arc::new(generate(BenchmarkKind::Qft, 4, 7));
    let ising = Arc::new(generate(BenchmarkKind::Ising, 6, 7));
    let configs = [
        (PulseMethod::Gaussian, SchedulerKind::ParSched),
        (PulseMethod::Pert, SchedulerKind::ZzxSched),
        (PulseMethod::Dcg, SchedulerKind::ZzxSched),
    ];
    [qft, ising]
        .iter()
        .flat_map(|c| {
            configs.iter().map(move |&(m, s)| {
                CompileRequest::shared(Arc::clone(c)).with_options(CompileOptions::new(m, s))
            })
        })
        .collect()
}

/// A session over a `suite_jobs()`-sized device with isolated calibration
/// state, backed by a store at `dir` (which, unlike `store_dir`, degrades
/// silently when the directory is unusable).
fn session_at(dir: &PathBuf, calib: Arc<CalibCache>) -> Session {
    Session::new(
        Target::builder()
            .topology(Topology::grid(3, 3))
            .store(Arc::new(ArtifactStore::at(dir)))
            .calib_cache(calib)
            .build()
            .expect("a given store never fails the build"),
    )
}

/// The compiled plans of a drained batch, in submission order.
fn plans(report: &ServiceReport) -> Vec<&Compiled> {
    report
        .outcomes
        .iter()
        .map(|o| &o.as_ref().expect("compiled").compiled)
        .collect()
}

#[test]
fn warm_start_is_bit_identical_with_zero_calibration_and_routing() {
    let dir = scratch_dir("warm");
    let jobs = suite_jobs().len();

    // Cold pass: fresh cache directory, fresh calibration state — every
    // job misses disk, calibration actually measures, every shape routes.
    let cold_calib = Arc::new(CalibCache::new());
    let cold = session_at(&dir, Arc::clone(&cold_calib)).run(suite_jobs());
    assert_eq!(cold.error_count(), 0, "{cold}");
    assert_eq!(cold.disk_hits, 0, "{cold}");
    assert_eq!(cold.disk_misses, jobs, "{cold}");
    assert!(cold.calibration_runs > 0, "{cold}");
    assert!(cold.route_misses > 0, "{cold}");
    assert_eq!(cold_calib.calibration_runs(), cold.calibration_runs);

    // Warm pass: a *new* compiler and *reset* calibration state, backed by
    // the same directory. Everything must come from disk: zero pulse-level
    // measurements, zero routing passes, all compiled plans served.
    let warm_calib = Arc::new(CalibCache::new());
    let warm = session_at(&dir, Arc::clone(&warm_calib)).run(suite_jobs());
    assert_eq!(warm.error_count(), 0, "{warm}");
    assert_eq!(warm.calibration_runs, 0, "{warm}");
    assert_eq!(warm_calib.calibration_runs(), 0);
    assert_eq!(warm.route_misses, 0, "{warm}");
    assert_eq!(warm.disk_hits, jobs, "{warm}");
    assert_eq!(warm.disk_misses, 0, "{warm}");
    assert!(
        warm.to_string()
            .contains(&format!("routing {jobs} cached / 0 routed")),
        "{warm}"
    );

    // The stage traces agree: every warm job is a whole-plan disk hit,
    // so no stage beyond validation executed anywhere in the batch.
    for stats in warm.stage_stats() {
        if stats.stage == zz_core::Stage::Validate {
            assert_eq!(stats.executed, jobs, "{warm}");
        } else {
            assert_eq!(stats.executed, 0, "warm {} ran: {warm}", stats.stage);
        }
    }
    for response in warm.successes() {
        assert_eq!(
            response.trace.as_ref().expect("traced").compiled_cache,
            zz_core::pipeline::CacheDisposition::DiskHit,
            "{}",
            response.label
        );
    }

    // And the outputs are bit-identical, field for field.
    assert_eq!(
        plans(&cold),
        plans(&warm),
        "plans diverged across the disk round-trip"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_cache_files_are_recompiled_silently() {
    let dir = scratch_dir("damaged");
    let jobs = suite_jobs().len();
    let cold = session_at(&dir, Arc::new(CalibCache::new())).run(suite_jobs());
    assert_eq!(cold.error_count(), 0, "{cold}");

    // The store holds whole plans only: one `compiled/` file per
    // distinct request, and no other kind directory.
    let kinds: Vec<_> = std::fs::read_dir(&dir)
        .expect("cold pass must populate the cache")
        .map(|entry| entry.expect("listable").file_name())
        .collect();
    assert_eq!(kinds, ["compiled"], "only whole plans are stored");

    let mut files = walk(&dir);
    assert_eq!(files.len(), jobs, "one artifact per distinct request");

    // Damage every artifact in the cache in a rotating style: truncate,
    // corrupt a payload byte, stamp a stale schema version.
    files.sort();
    for (i, path) in files.iter().enumerate() {
        let bytes = std::fs::read(path).expect("artifact readable");
        let mangled = match i % 3 {
            0 => bytes[..bytes.len() / 2].to_vec(), // truncated
            1 => {
                let mut b = bytes;
                let last = b.len() - 1;
                b[last] ^= 0x55; // corrupted payload
                b
            }
            _ => {
                let mut b = bytes;
                b[4..8].copy_from_slice(&u32::MAX.to_le_bytes()); // stale version
                b
            }
        };
        std::fs::write(path, mangled).expect("artifact writable");
    }

    // The warm pass sees only damaged files: every read is a miss, every
    // job recompiles successfully, and the outputs still match the cold
    // pass bit for bit.
    let recovery = session_at(&dir, Arc::new(CalibCache::new())).run(suite_jobs());
    assert_eq!(recovery.error_count(), 0, "{recovery}");
    assert_eq!(recovery.disk_hits, 0, "{recovery}");
    assert_eq!(recovery.disk_misses, jobs, "{recovery}");
    assert!(recovery.calibration_runs > 0, "{recovery}");
    assert_eq!(
        plans(&cold),
        plans(&recovery),
        "plans diverged after cache damage"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_cache_dir_degrades_to_in_memory_compilation() {
    // Root the store under a regular *file*, so neither directories nor
    // artifacts can ever be created: the batch must behave exactly like a
    // store-less session, erroring nowhere.
    let dir = scratch_dir("unwritable");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"not a directory").expect("blocker file");

    let jobs = suite_jobs().len();
    let report = session_at(&blocker.join("cache"), Arc::new(CalibCache::new())).run(suite_jobs());
    assert_eq!(report.error_count(), 0, "{report}");
    assert_eq!(report.disk_hits, 0, "{report}");
    assert_eq!(report.disk_misses, jobs, "{report}");

    // Same results as a session with no store at all.
    let baseline = Session::new(
        Target::builder()
            .topology(Topology::grid(3, 3))
            .calib_cache(Arc::new(CalibCache::new()))
            .build()
            .expect("no store"),
    )
    .run(suite_jobs());
    assert_eq!(
        plans(&report),
        plans(&baseline),
        "plans diverged between degraded-store and store-less compilation"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recursively lists the files under `dir`.
fn walk(dir: &PathBuf) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(walk(&path));
        } else {
            out.push(path);
        }
    }
    out
}
