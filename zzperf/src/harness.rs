//! Plumbing every workload shares: the run context, seeded choices,
//! scratch directories, the traced-run book-keeping and the process-wide
//! counter observer.

use std::path::PathBuf;
use std::sync::Arc;

use zz_circuit::bench::{generate, BenchmarkKind};
use zz_circuit::Circuit;
use zz_service::{MetricsSnapshot, Session, Target};

use crate::replay::WORK_SPANS;
use crate::report::Run;
use crate::trace::Tracer;

/// One invocation's parameters.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// The workload seed: every input derives from it.
    pub seed: u64,
    /// The requested measuring time; workloads size their fixed amount
    /// of work from it.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Root of this process's scratch directories (inside the checkout).
    pub scratch: PathBuf,
}

impl Ctx {
    /// Removes scratch directory `dir` and commits the removal to disk,
    /// so the file system's deferred work lands here, outside every
    /// clock, rather than inside the next timed phase.
    pub fn remove_scratch(&self, dir: &std::path::Path) {
        let _ = std::fs::remove_dir_all(dir);
        if let Ok(root) = std::fs::File::open(&self.scratch) {
            let _ = root.sync_all();
        }
    }

    /// A fresh, empty scratch directory `name` under this run's root.
    pub fn scratch_dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("the scratch root is writable");
        dir
    }
}

/// What one pass over a round's inputs is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// The untraced run: end-to-end metrics.
    Plain,
    /// The traced run's untraced pass: exact counts, host readings, the
    /// timings responses report, and the request time tracing overhead
    /// is measured against.
    Baseline,
    /// The traced run's traced pass: spans and replays.
    Traced,
}

impl Pass {
    /// The passes a run makes over each round.
    pub fn for_run(trace: bool) -> &'static [Pass] {
        if trace {
            &[Pass::Baseline, Pass::Traced]
        } else {
            &[Pass::Plain]
        }
    }
}

/// Rounds a run makes: one per `seconds_per_round` requested seconds.
/// The traced run makes half as many, since it runs each round twice
/// and replays the traced one.
pub fn rounds(ctx: &Ctx, seconds_per_round: u64) -> usize {
    let rounds = ctx.seconds.div_ceil(seconds_per_round).max(1);
    if ctx.trace {
        rounds.div_ceil(2) as usize
    } else {
        rounds as usize
    }
}

/// A run measures at least this many set-ups, adding set-up-only
/// iterations when it has fewer rounds, so each of the
/// [`SETUP_GROUPS`](crate::report::SETUP_GROUPS) groups that `setup_s`
/// averages holds several set-ups spread over the whole run.
const MIN_SETUPS: usize = 40;

/// Set-up-only iterations to run before round `round` of `rounds`: the
/// shortfall to [`MIN_SETUPS`], spread evenly over the rounds so the
/// set-up samples span the whole run (host speed drifts over seconds).
/// None in traced runs, which report no set-up time.
pub fn extra_setups(ctx: &Ctx, rounds: usize, round: usize) -> usize {
    if ctx.trace {
        return 0;
    }
    let extra = MIN_SETUPS.saturating_sub(rounds);
    extra * (round + 1) / rounds - extra * round / rounds
}

/// SplitMix64 finalizer: a well-mixed 64-bit function of `x`.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seed derived from `seed` and a salt (round number, stream id).
pub fn derive(seed: u64, salt: u64) -> u64 {
    mix(seed ^ mix(salt))
}

/// A seeded instance of benchmark `kind` on `n` qubits with exactly as
/// many gates as the paper's own instance (circuit seed 7). Families
/// with random structure (QAOA's graph) vary in size from seed to seed,
/// and that size, not the seed, sets the cost of compiling and
/// simulating them; matching it keeps every seed's workload equally
/// heavy while the instances still differ.
pub fn matched_instance(kind: BenchmarkKind, n: usize, seed: u64) -> Circuit {
    let size = generate(kind, n, 7).gate_count();
    let mut attempt = 0;
    loop {
        let circuit = generate(kind, n, derive(seed, attempt));
        if circuit.gate_count() == size || attempt == 255 {
            return circuit;
        }
        attempt += 1;
    }
}

/// A small deterministic generator for the benchmark's own choices
/// (request mix, job order); circuit generators take derived seeds.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A session kept alive only as a metrics sink. The engine and scheduler
/// counters still reach sessions through process-global sinks, so every
/// live session counts every session's traffic; reading them from this
/// one session, and from no other, counts the process's traffic once.
pub struct Observer {
    session: Session,
    start: MetricsSnapshot,
}

impl Observer {
    /// Starts observing.
    pub fn new() -> Self {
        let target = Target::for_qubits(4).expect("the 2x2 grid always builds");
        let session = Session::with_threads(target, 1);
        let start = session.metrics().snapshot();
        Observer { session, start }
    }

    /// Growth of counter `name` since [`new`](Self::new).
    pub fn delta(&self, name: &str) -> u64 {
        let now = self.session.metrics().snapshot().counter(name).unwrap_or(0);
        now - self.start.counter(name).unwrap_or(0)
    }
}

impl Observer {
    /// Records the engine and scheduler counts observed so far.
    pub fn record(&self, run: &mut Run) {
        let layers = &mut run.layers;
        layers.count(
            "sched.distance_queries",
            self.delta("sched.distance_queries"),
        );
        layers.count("sim.trajectories", self.delta("engine.trajectories"));
        layers.count("sim.kernel_sweeps", self.delta("engine.kernel_sweeps"));
    }
}

/// Records the pipeline counts of one session between two snapshots:
/// routes computed (not served from a memo or store) and full compiles
/// (scheduling ran).
pub fn record_pipeline(run: &mut Run, before: &MetricsSnapshot, after: &MetricsSnapshot) {
    let count = |name| counter_delta(before, after, name);
    run.layers.count(
        "pipeline.route_misses",
        count("pipeline.route.miss") + count("pipeline.route.uncached"),
    );
    run.layers.count(
        "pipeline.full_compiles",
        count("pipeline.schedule.uncached"),
    );
}

/// Growth of counter `name` between two snapshots of one session.
pub fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
}

/// One traced request's real-path numbers.
#[derive(Clone, Copy, Debug)]
pub struct TracedRequest {
    /// Request id shared by its spans.
    pub id: u64,
    /// The request's measured time (s).
    pub total_s: f64,
    /// The part the server or session reported as its own work, which
    /// the replay re-measures (s); 0 when the replay covers the whole
    /// request.
    pub server_s: f64,
}

/// What the traced run keeps besides the spans.
#[derive(Debug, Default)]
pub struct TraceBook {
    /// The span store (present in traced runs only).
    pub tracer: Option<Arc<Tracer>>,
    /// Every traced request.
    pub requests: Vec<TracedRequest>,
    /// Summed request time of the untraced passes (s).
    pub untraced_request_s: f64,
    /// Summed request time of the traced passes (s).
    pub traced_request_s: f64,
    next_id: u64,
}

impl TraceBook {
    /// A book for a traced (`trace`) or untraced run.
    pub fn new(trace: bool) -> Self {
        TraceBook {
            tracer: trace.then(|| Arc::new(Tracer::default())),
            next_id: 1,
            ..TraceBook::default()
        }
    }

    /// Reserves `n` consecutive request ids and returns the first.
    pub fn ids(&mut self, n: usize) -> u64 {
        let first = self.next_id;
        self.next_id += n as u64;
        first
    }

    /// Adds one pass's summed request time to the overhead comparison.
    pub fn add_request_time(&mut self, pass: Pass, seconds: f64) {
        match pass {
            Pass::Baseline => self.untraced_request_s += seconds,
            Pass::Traced => self.traced_request_s += seconds,
            Pass::Plain => {}
        }
    }

    /// Folds the spans into the per-layer metrics of `run`: mean self
    /// time per call of every layer span, the share of request time the
    /// layers account for, and the tracing overhead.
    pub fn finish(&self, run: &mut Run) {
        let Some(tracer) = &self.tracer else {
            return;
        };
        let mut work_by_request: std::collections::HashMap<u64, f64> = Default::default();
        for (span, self_s) in tracer.self_times() {
            let (metric, scale) = match span.name {
                "pipeline.validate" => ("pipeline.validate_us", 1e6),
                "pipeline.route" => ("pipeline.route_ms", 1e3),
                "pipeline.lower" => ("pipeline.lower_ms", 1e3),
                "pipeline.pulse" => ("pipeline.pulse_us", 1e6),
                "calib.measure" => ("calib.measure_ms", 1e3),
                "sched.zzx" => ("sched.zzx_ms", 1e3),
                "sched.par" => ("sched.par_ms", 1e3),
                "sim.eval" => ("sim.eval_ms", 1e3),
                "persist.get" => ("persist.get_us", 1e6),
                "persist.put" => ("persist.put_us", 1e6),
                "fleet.score" => ("fleet.score_ms", 1e3),
                "fleet.epoch" => ("fleet.epoch_ms", 1e3),
                "net.codec" => ("net.codec_us", 1e6),
                _ => continue,
            };
            run.layers.add(metric, self_s * scale);
            if span.request != 0 && WORK_SPANS.contains(&span.name) {
                *work_by_request.entry(span.request).or_default() += self_s;
            }
        }
        let total: f64 = self.requests.iter().map(|r| r.total_s).sum();
        let accounted: f64 = self
            .requests
            .iter()
            .map(|r| r.total_s - r.server_s + work_by_request.get(&r.id).copied().unwrap_or(0.0))
            .sum();
        if total > 0.0 {
            run.layers
                .set("trace.accounted_pct", 100.0 * accounted / total);
        }
        if self.untraced_request_s > 0.0 {
            run.layers.set(
                "trace.overhead_pct",
                100.0 * (self.traced_request_s / self.untraced_request_s - 1.0),
            );
        }
    }
}
