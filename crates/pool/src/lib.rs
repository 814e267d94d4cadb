//! `zz_pool` — the workspace's one worker-pool primitive.
//!
//! Two idioms live here, at the bottom of the dependency graph, so every
//! crate above can share them:
//!
//! * [`parallel_map`] — run `f(0..count)` on up to `threads` scoped OS
//!   threads, output in input order. Results are **bit-identical for any
//!   thread count**: work distribution only decides *who* computes an
//!   index, never *what* is computed or where it lands.
//! * [`TaskPool`] — a fixed set of long-lived workers draining one shared
//!   queue of boxed closures; submissions from any number of callers
//!   interleave, and dropping the pool drains outstanding tasks before
//!   joining.
//! * [`default_threads`] — the pool width used when callers don't pick
//!   one (every available core).
//!
//! `zz_sim`'s trajectory fan-out and the service session workers both
//! schedule through this crate.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Runs `f(0..count)` on up to `threads` OS threads, preserving input
/// order in the output. With `threads <= 1` (or a single item) the work
/// runs inline on the calling thread — same results, no spawn overhead.
pub fn parallel_map<T: Send, F: Fn(usize) -> T + Sync>(
    count: usize,
    threads: usize,
    f: F,
) -> Vec<T> {
    if threads <= 1 || count <= 1 {
        return (0..count).map(f).collect();
    }
    let mut results: Vec<Option<T>> = (0..count).map(|_| None).collect();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<&mut Option<T>>> = results.iter_mut().map(Mutex::new).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(count) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let value = f(i);
                **slots[i].lock().expect("no poisoned slots") = Some(value);
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index computed"))
        .collect()
}

/// The pool width used when callers don't pick one: every available core
/// (4 when the core count is unavailable).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(4)
}

/// A unit of work for a [`TaskPool`].
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// A fixed set of long-lived worker threads draining one shared task
/// queue.
///
/// Unlike the scoped per-call fan-out of [`parallel_map`], these workers
/// live as long as the pool: submissions from any number of
/// [`execute`](TaskPool::execute) calls interleave on one queue, so a
/// service can keep accepting jobs while earlier ones still run. Tasks
/// are plain boxed closures; result plumbing (handles, ordering) belongs
/// to the caller. Dropping the pool closes the queue and joins every
/// worker — outstanding tasks finish first.
#[derive(Debug)]
pub struct TaskPool {
    sender: Option<Sender<Task>>,
    workers: Vec<JoinHandle<()>>,
}

impl TaskPool {
    /// Spawns a pool of `threads` workers (clamped to ≥ 1), named
    /// `zz-pool-worker-{i}`.
    pub fn new(threads: usize) -> Self {
        let (sender, receiver) = channel::<Task>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads.max(1))
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("zz-pool-worker-{i}"))
                    .spawn(move || worker_loop(&receiver))
                    .expect("spawning a worker thread")
            })
            .collect();
        TaskPool {
            sender: Some(sender),
            workers,
        }
    }

    /// The pool's worker count.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a task; returns `false` when the queue is already torn
    /// down (the pool is being dropped).
    pub fn execute(&self, task: Task) -> bool {
        match &self.sender {
            Some(sender) => sender.send(task).is_ok(),
            None => false,
        }
    }
}

fn worker_loop(receiver: &Mutex<Receiver<Task>>) {
    loop {
        // Hold the queue lock only for the dequeue, never while running.
        let task = match receiver.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => break, // a sibling panicked holding the lock
        };
        match task {
            Ok(task) => task(),
            Err(_) => break, // queue closed: the pool is shutting down
        }
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        self.sender.take(); // close the queue: workers drain and exit
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(100, 8, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_preserves_order_at_any_width() {
        for threads in [1, 2, 8] {
            let out = parallel_map(37, threads, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_is_thread_count_deterministic() {
        // A floating-point reduction whose result would drift if the
        // output order (and therefore any sequential reduction over it)
        // depended on scheduling.
        let reference: Vec<f64> = parallel_map(101, 1, |i| (i as f64 * 0.7).sin());
        for threads in [2, 3, 8, 64] {
            let out = parallel_map(101, threads, |i| (i as f64 * 0.7).sin());
            let same = out
                .iter()
                .zip(&reference)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "results must be bit-identical at {threads} threads");
        }
    }

    #[test]
    fn task_pool_drop_drains_outstanding_tasks() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = TaskPool::new(3);
            assert_eq!(pool.threads(), 3);
            for _ in 0..64 {
                let counter = Arc::clone(&counter);
                assert!(pool.execute(Box::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                })));
            }
        } // drop joins the workers
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn task_pool_width_is_clamped() {
        assert_eq!(TaskPool::new(0).threads(), 1);
    }
}
