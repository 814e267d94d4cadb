//! The traced replay: one request re-run through the inner layers'
//! public entry points, with a span around each call.
//!
//! The pipeline runs inside the session (and the server, and the fleet),
//! where the benchmark cannot open spans. So after the real request
//! returns, the traced run replays it through `PassManager::apply` per
//! pass, `SchedulerPass::schedule`, `CalibCache::residuals`,
//! `ArtifactStore::get`/`put` and `fidelity_of`, doing exactly the work
//! the real path's response says it did (a route-memo hit is not
//! re-routed, a whole-plan disk hit is a store read), and the caller
//! checks that the replay's output equals the real output.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;

use zz_circuit::native::NativeCircuit;
use zz_circuit::Circuit;
use zz_core::calib::CalibCache;
use zz_core::evaluate::{fidelity_of, EvalConfig};
use zz_core::pipeline::{
    durations_for, scheduler_pass_for, shape_key, CacheDisposition, Logical, LowerPass,
    PassManager, RoutePass, ValidatePass,
};
use zz_persist::{fnv1a, fnv1a_mix, ArtifactKind, ArtifactStore};
use zz_service::{CompileOptions, Compiled, PipelineTrace, SchedulerKind, Target};
use zz_topology::Topology;

use crate::checks::plan_digest;
use crate::trace::{timed, Tracer};

/// What the real path did for one request, as its response shows it.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealPath {
    /// The whole compiled plan came from the artifact store.
    pub disk_hit: bool,
    /// Routing and lowering executed (not served from a cache).
    pub route_ran: bool,
    /// The target has an artifact store, so executed stages were written.
    pub stored: bool,
    /// The pulse stage measured a fresh calibration at `(λ, epoch)`
    /// instead of reading a warm cache.
    pub measured_calib: Option<(f64, u64)>,
}

/// A replayed request's outputs.
#[derive(Debug)]
pub struct Replayed {
    /// The compiled plan the replay produced.
    pub compiled: Compiled,
    /// The replayed fidelity, when the request was evaluated.
    pub fidelity: Option<f64>,
}

/// Replay state that mirrors the real path's caches: the native
/// translations already produced per device and shape, and a scratch
/// artifact store for replayed reads and writes.
pub struct Replayer {
    managers: HashMap<usize, PassManager>,
    natives: HashMap<(usize, u64), Arc<NativeCircuit>>,
    store: Option<ArtifactStore>,
    stored_plans: HashSet<u64>,
}

/// Span names whose self time is work the replay reproduces; their sum
/// per request accounts for the server-side part of the request time.
pub const WORK_SPANS: [&str; 11] = [
    "pipeline.validate",
    "pipeline.route",
    "pipeline.lower",
    "pipeline.pulse",
    "calib.measure",
    "sched.zzx",
    "sched.par",
    "sim.eval",
    "persist.get",
    "persist.put",
    "fleet.score",
];

impl Replayer {
    /// A replayer; `store_dir` enables replayed store reads and writes.
    pub fn new(store_dir: Option<PathBuf>) -> Self {
        Replayer {
            managers: HashMap::new(),
            natives: HashMap::new(),
            store: store_dir.map(ArtifactStore::at),
            stored_plans: HashSet::new(),
        }
    }

    /// Whether the replay already holds the native translation of
    /// `circuit` on device `device` (so the real path's route memo would
    /// hit too).
    pub fn has_native(&self, device: usize, circuit: &Circuit, topology: &Topology) -> bool {
        self.natives
            .contains_key(&(device, shape_key(circuit, topology)))
    }

    /// Forgets device `device`'s translations (its session was rebuilt,
    /// so its route memo starts empty).
    pub fn forget_device(&mut self, device: usize) {
        self.natives.retain(|(d, _), _| *d != device);
    }

    fn ensure_manager(&mut self, device: usize, topology: &Topology) {
        self.managers.entry(device).or_insert_with(|| {
            let manager = PassManager::builder().topology(topology.clone()).build();
            // The real session's coupling graph is warm before its first
            // timed request; so is the replay's.
            let _ = manager.memo().coupling_graph(manager.topology());
            manager
        });
    }

    /// Replays one request on device `device` of `target`. `tracer`
    /// `None` replays without spans (used to fill state the real path
    /// had before the request).
    ///
    /// # Errors
    ///
    /// Returns a description when a replayed pass fails.
    #[allow(clippy::too_many_arguments)]
    pub fn replay(
        &mut self,
        tracer: Option<&Tracer>,
        parent: Option<usize>,
        request: u64,
        device: usize,
        target: &Target,
        topology: &Topology,
        circuit: &Arc<Circuit>,
        options: &CompileOptions,
        eval: Option<&EvalConfig>,
        real: RealPath,
    ) -> Result<Replayed, String> {
        let mut trace = PipelineTrace::default();
        self.ensure_manager(device, topology);
        let manager = &self.managers[&device];
        let logical = timed(tracer, "pipeline.validate", parent, request, || {
            manager.apply(
                &ValidatePass,
                Logical {
                    circuit: Arc::clone(circuit),
                },
                CacheDisposition::NotCached,
                &mut trace,
            )
        })
        .map_err(|e| format!("replayed validation failed: {e}"))?;

        let compiled = if real.disk_hit {
            let key = plan_key(circuit, topology, options);
            if !self.stored_plans.contains(&key) {
                // The store was filled before this request (set-up or an
                // earlier round); fill the replay store the same way,
                // without spans.
                let fill = RealPath {
                    route_ran: !self.has_native(device, circuit, topology),
                    disk_hit: false,
                    ..real
                };
                self.replay(
                    None, None, request, device, target, topology, circuit, options, None, fill,
                )?;
            }
            let store = self
                .store
                .as_ref()
                .ok_or("disk hit without a replay store")?;
            timed(tracer, "persist.get", parent, request, || {
                store.get::<Compiled>(ArtifactKind::Compiled, key)
            })
            .ok_or("replayed store read missed")?
        } else {
            let shape = shape_key(circuit, topology);
            let native = match self.natives.get(&(device, shape)) {
                Some(native) if !real.route_ran => Arc::clone(native),
                _ => {
                    // Route when the real path routed; otherwise the real
                    // path held a translation the replay lacks, so fill
                    // it without spans.
                    let t = if real.route_ran { tracer } else { None };
                    let manager = &self.managers[&device];
                    let routed = timed(t, "pipeline.route", parent, request, || {
                        manager.apply(&RoutePass, logical, CacheDisposition::Miss, &mut trace)
                    })
                    .map_err(|e| format!("replayed routing failed: {e}"))?;
                    let lowered = timed(t, "pipeline.lower", parent, request, || {
                        manager.apply(&LowerPass, routed, CacheDisposition::Miss, &mut trace)
                    })
                    .map_err(|e| format!("replayed lowering failed: {e}"))?;
                    let native = lowered.circuit;
                    if let (true, Some(store)) = (real.stored, &self.store) {
                        timed(t, "persist.put", parent, request, || {
                            store.put(
                                ArtifactKind::Native,
                                shape,
                                &((&**circuit, topology), &*native),
                            )
                        });
                    }
                    self.natives.insert((device, shape), Arc::clone(&native));
                    native
                }
            };

            let pass = scheduler_pass_for(
                options.scheduler,
                options.alpha_or_default(),
                options.k_or_default(),
                options.requirement,
            );
            let sched_span = match options.scheduler {
                SchedulerKind::ZzxSched => "sched.zzx",
                SchedulerKind::ParSched => "sched.par",
            };
            let plan = timed(tracer, sched_span, parent, request, || {
                pass.schedule(topology, &native)
            });
            let residuals = match real.measured_calib {
                Some((lambda, epoch)) => timed(tracer, "calib.measure", parent, request, || {
                    CalibCache::at(lambda, epoch).residuals(options.method)
                }),
                None => timed(tracer, "pipeline.pulse", parent, request, || {
                    target.calib().residuals(options.method)
                }),
            };
            let compiled = Compiled {
                plan,
                topology: topology.clone(),
                durations: target
                    .durations()
                    .copied()
                    .unwrap_or_else(|| durations_for(options.method)),
                method: options.method,
                residuals,
            };
            if let (true, Some(store)) = (real.stored, &self.store) {
                let key = plan_key(circuit, topology, options);
                timed(tracer, "persist.put", parent, request, || {
                    store.put(ArtifactKind::Compiled, key, &compiled)
                });
                self.stored_plans.insert(key);
            }
            compiled
        };

        let fidelity = eval.map(|cfg| {
            timed(tracer, "sim.eval", parent, request, || {
                fidelity_of(&compiled, cfg)
            })
        });
        Ok(Replayed { compiled, fidelity })
    }
}

/// Replays `items` after a two-caller pass on two threads, each with a
/// replayer of its own (over its own store directory, when given), as
/// the real requests ran on two workers — so the replays meet the same
/// contention for the cores, without adding any to the timed requests.
/// Returns every failure.
pub fn replay_in_parallel<T: Sync>(
    items: &[T],
    store_dirs: [Option<PathBuf>; 2],
    replay: impl Fn(&mut Replayer, &T) -> Result<(), String> + Sync,
) -> Vec<String> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        let workers: Vec<_> = store_dirs
            .into_iter()
            .map(|dir| {
                let (next, replay) = (&next, &replay);
                s.spawn(move || {
                    let mut replayer = Replayer::new(dir);
                    let mut failures = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break;
                        };
                        if let Err(e) = replay(&mut replayer, item) {
                            failures.push(e);
                        }
                    }
                    failures
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("replay threads do not panic"))
            .collect()
    })
}

/// The replay store's key for a compiled plan: device shape × options.
fn plan_key(circuit: &Circuit, topology: &Topology, options: &CompileOptions) -> u64 {
    fnv1a_mix(
        shape_key(circuit, topology),
        fnv1a(format!("{options:?}").as_bytes()),
    )
}

/// The evaluation a session runs for `seeds` on `target` (no
/// decoherence) — `EvalSpec::to_config` rebuilt from public parts.
pub fn eval_config(target: &Target, seeds: &[u64]) -> EvalConfig {
    EvalConfig {
        lambda_mean: target.lambda_mean(),
        lambda_std: target.lambda_std(),
        crosstalk_seeds: seeds.to_vec(),
        circuit_seed: 0,
        decoherence: None,
    }
}

/// Compares a replay with the real path's output, bit for bit.
///
/// # Errors
///
/// Describes the first difference.
pub fn compare(
    label: &str,
    replayed: &Replayed,
    compiled: &Compiled,
    fidelity: Option<f64>,
) -> Result<(), String> {
    if plan_digest(&replayed.compiled) != plan_digest(compiled) {
        return Err(format!(
            "{label}: the replayed plan differs from the real one"
        ));
    }
    if replayed.fidelity.map(f64::to_bits) != fidelity.map(f64::to_bits) {
        return Err(format!(
            "{label}: replayed fidelity {:?} but the real path reported {fidelity:?}",
            replayed.fidelity
        ));
    }
    Ok(())
}
