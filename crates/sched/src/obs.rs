//! Scheduler-side instrumentation hooks.
//!
//! `zz_sched` sits below `zz_obs` in the crate graph, so — like the
//! simulation engine (`zz_sim::metrics`) — it cannot register counters
//! into an observability registry directly. It exposes the same sink
//! pattern instead: upstream layers (the service session) install a
//! [`SchedSink`] via [`register_sink`] and receive one event per
//! scheduled circuit. A sink returns `false` once its backing registry
//! is gone and is pruned on the next flush.
//!
//! Recording is coarse: one flush per *schedule* (a whole circuit), never
//! per distance lookup, so instrumentation stays out of the hot loop.

use std::sync::{Arc, Mutex, OnceLock};

/// Receiver for scheduler events. Implementations must be cheap and
/// lock-light; they are called at the end of each scheduling run.
///
/// Each method returns whether the sink is still alive — a `false`
/// drops it from the registered set.
pub trait SchedSink: Send + Sync {
    /// One circuit finished scheduling; its distance heuristic served
    /// `queries` qubit-pair distance lookups (0 when Case 2 never ran).
    fn distance_queries(&self, queries: u64) -> bool;
}

fn sinks() -> &'static Mutex<Vec<Arc<dyn SchedSink>>> {
    static SINKS: OnceLock<Mutex<Vec<Arc<dyn SchedSink>>>> = OnceLock::new();
    SINKS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Installs a sink that will receive scheduler events until it reports
/// itself dead (see [`SchedSink`]).
pub fn register_sink(sink: Arc<dyn SchedSink>) {
    sinks()
        .lock()
        .expect("sched sink registry poisoned")
        .push(sink);
}

/// Records one finished scheduling run and flushes it to the sinks.
pub(crate) fn record_distance_queries(queries: u64) {
    let mut sinks = sinks().lock().expect("sched sink registry poisoned");
    sinks.retain(|s| s.distance_queries(queries));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Probe {
        queries: AtomicU64,
        alive: std::sync::atomic::AtomicBool,
    }

    impl SchedSink for Probe {
        fn distance_queries(&self, queries: u64) -> bool {
            self.queries.fetch_add(queries, Ordering::Relaxed);
            self.alive.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn sinks_receive_events_and_dead_sinks_are_pruned() {
        let probe = Arc::new(Probe {
            queries: AtomicU64::new(0),
            alive: std::sync::atomic::AtomicBool::new(true),
        });
        register_sink(probe.clone());

        record_distance_queries(7);
        assert!(probe.queries.load(Ordering::Relaxed) >= 7);

        // Kill the probe: the next flush must prune it.
        probe.alive.store(false, Ordering::Relaxed);
        record_distance_queries(1);
        let count = probe.queries.load(Ordering::Relaxed);
        record_distance_queries(1);
        assert_eq!(probe.queries.load(Ordering::Relaxed), count);
    }
}
