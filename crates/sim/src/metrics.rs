//! Engine-side instrumentation hooks.
//!
//! `zz_sim` sits *below* `zz_obs` in the crate graph (`zz_obs` depends
//! on `zz_persist`, which depends on this crate), so the engine cannot
//! register metrics into an observability registry directly. Instead it
//! exposes an [`EngineSink`] trait: upstream layers (the service
//! session) install sinks via [`register_sink`], and the engine forwards
//! one event per Monte-Carlo trajectory batch plus one per program
//! compilation. A sink returns `false` once its backing registry is gone
//! and is pruned on the next flush.
//!
//! Recording is deliberately coarse: one sink flush per *batch* (tens
//! of milliseconds of kernel work), never per sweep, so instrumentation
//! stays invisible in profiles.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Receiver for engine events. Implementations must be cheap and
/// lock-light; they are called from worker threads mid-simulation.
///
/// Each method returns whether the sink is still alive — a `false`
/// drops it from the registered set.
pub trait EngineSink: Send + Sync {
    /// One trajectory batch finished: `trajectories` lanes were run,
    /// `kernel_sweeps` full-statevector passes executed, in `elapsed`.
    fn batch(&self, trajectories: u64, kernel_sweeps: u64, elapsed: Duration) -> bool;

    /// A program compilation fused `merges` diagonal sweeps away.
    fn fused_diags(&self, merges: u64) -> bool;
}

fn sinks() -> &'static Mutex<Vec<Arc<dyn EngineSink>>> {
    static SINKS: OnceLock<Mutex<Vec<Arc<dyn EngineSink>>>> = OnceLock::new();
    SINKS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Installs a sink that will receive engine events until it reports
/// itself dead (see [`EngineSink`]).
pub fn register_sink(sink: Arc<dyn EngineSink>) {
    sinks()
        .lock()
        .expect("engine sink registry poisoned")
        .push(sink);
}

/// Records one completed trajectory batch and flushes it to the sinks.
pub(crate) fn record_batch(trajectories: u64, kernel_sweeps: u64, elapsed: Duration) {
    let mut sinks = sinks().lock().expect("engine sink registry poisoned");
    sinks.retain(|s| s.batch(trajectories, kernel_sweeps, elapsed));
}

/// Records diagonal sweeps eliminated during compilation.
pub(crate) fn record_fused(merges: u64) {
    if merges == 0 {
        return;
    }
    let mut sinks = sinks().lock().expect("engine sink registry poisoned");
    sinks.retain(|s| s.fused_diags(merges));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Probe {
        batches: AtomicU64,
        fused: AtomicU64,
        alive: std::sync::atomic::AtomicBool,
    }

    impl EngineSink for Probe {
        fn batch(&self, trajectories: u64, _sweeps: u64, _elapsed: Duration) -> bool {
            self.batches.fetch_add(trajectories, Ordering::Relaxed);
            self.alive.load(Ordering::Relaxed)
        }
        fn fused_diags(&self, merges: u64) -> bool {
            self.fused.fetch_add(merges, Ordering::Relaxed);
            self.alive.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn sinks_receive_events_and_dead_sinks_are_pruned() {
        let probe = Arc::new(Probe {
            batches: AtomicU64::new(0),
            fused: AtomicU64::new(0),
            alive: std::sync::atomic::AtomicBool::new(true),
        });
        register_sink(probe.clone());

        record_batch(4, 10, Duration::from_micros(5));
        record_fused(3);

        assert!(probe.batches.load(Ordering::Relaxed) >= 4);
        assert!(probe.fused.load(Ordering::Relaxed) >= 3);

        // Kill the probe: the next flush must prune it.
        probe.alive.store(false, Ordering::Relaxed);
        record_batch(1, 1, Duration::ZERO);
        let count = probe.batches.load(Ordering::Relaxed);
        record_batch(1, 1, Duration::ZERO);
        assert_eq!(probe.batches.load(Ordering::Relaxed), count);
    }
}
