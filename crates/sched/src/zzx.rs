//! Algorithm 2: the ZZXSched crosstalk-aware scheduler.
//!
//! Gates are scheduled layer by layer from the schedulable set. Two cases
//! (paper Sec 6):
//!
//! * **Case 1 — only single-qubit gates.** Run α-optimal suppression with no
//!   constraints; on bipartite devices this yields complete suppression. The
//!   side of the cut covering more schedulable gates executes (plus identity
//!   pulses on its remaining qubits); the other side waits one layer.
//! * **Case 2 — two-qubit gates present.** Try to schedule all of them at
//!   once; if the resulting cut violates the suppression requirement `R`,
//!   split by the distance heuristic: the two *closest* gates seed two
//!   groups, remaining gates join by *largest* distance while `R` holds, and
//!   the bigger group executes (Theorem 6.1: the top-K closest pairs always
//!   end up in different layers).
//!
//! Every layer runs Algorithm 1 ([`alpha_optimal_suppression`]) at least
//! once, and most of those calls repeat an involved-qubit set the same
//! schedule already solved: every single-qubit-only layer asks for the
//! empty set, Case 2 retries a ready set that carried over from the last
//! layer, and the chosen group's final plan repeats its last greedy try.
//! Algorithm 1 is pure in (device, set, α, k), and all but the set are
//! fixed for one schedule, so ZZXSched solves each set once per schedule
//! and reuses its plan after that.

use std::collections::HashMap;

use zz_circuit::native::{NativeCircuit, NativeOp};
use zz_topology::Topology;

use crate::metrics::cut_metrics;
use crate::plan::{DependencyTracker, Layer, SchedulePlan};
use crate::suppression::{alpha_optimal_suppression, SuppressionPlan};

/// Lazily computed single-source BFS distance rows.
///
/// The distance heuristic of Case 2 only ever queries distances between
/// qubits touched by simultaneously-ready two-qubit gates, so materializing
/// the full `O(n²)` matrix up front (as the scheduler previously did) is
/// wasted work and memory on large devices. Rows are computed on first use
/// via [`Topology::distances_from`] and cached for the rest of the schedule.
struct DistanceOracle<'t> {
    topo: &'t Topology,
    /// Cached rows; an empty row means "not yet computed" (a computed row
    /// always has `qubit_count ≥ 1` entries).
    rows: Vec<Vec<usize>>,
    /// Number of `distance` lookups served (returned by
    /// [`zzx_schedule_counted`]).
    queries: u64,
}

impl<'t> DistanceOracle<'t> {
    fn new(topo: &'t Topology) -> Self {
        DistanceOracle {
            topo,
            rows: vec![Vec::new(); topo.qubit_count()],
            queries: 0,
        }
    }

    fn distance(&mut self, a: usize, b: usize) -> usize {
        self.queries += 1;
        if self.rows[a].is_empty() {
            self.rows[a] = self.topo.distances_from(a);
        }
        self.rows[a][b]
    }

    /// The paper's inter-gate distance: the sum of qubit-pair distances.
    fn gate_distance(&mut self, ops: &[NativeOp], a: usize, b: usize) -> usize {
        let (qa, qb) = (ops[a].qubits(), ops[b].qubits());
        qa.iter()
            .map(|&x| qb.iter().map(|&y| self.distance(x, y)).sum::<usize>())
            .sum()
    }

    /// Distance from gate `g` to the nearest member of `group`.
    fn group_distance(&mut self, ops: &[NativeOp], g: usize, group: &[usize]) -> usize {
        group
            .iter()
            .map(|&m| self.gate_distance(ops, g, m))
            .min()
            .unwrap_or(usize::MAX)
    }
}

/// Algorithm 1's plan per involved-qubit set, for one schedule.
///
/// A hash map rather than a scan: large devices solve thousands of
/// distinct sets in one schedule.
struct SuppressionMemo<'t> {
    topo: &'t Topology,
    alpha: f64,
    k: usize,
    plans: HashMap<Vec<usize>, SuppressionPlan>,
    /// Number of sets solved, i.e. memo misses (returned by
    /// [`zzx_schedule_counted`]).
    solves: u64,
}

impl<'t> SuppressionMemo<'t> {
    fn new(topo: &'t Topology, config: &ZzxConfig) -> Self {
        SuppressionMemo {
            topo,
            alpha: config.alpha,
            k: config.k,
            plans: HashMap::new(),
            solves: 0,
        }
    }

    /// The α-optimal plan for `involved`, which must be sorted and free of
    /// duplicates so that each set has one key.
    fn plan(&mut self, involved: Vec<usize>) -> &SuppressionPlan {
        debug_assert!(involved.windows(2).all(|w| w[0] < w[1]));
        let (topo, alpha, k) = (self.topo, self.alpha, self.k);
        let solves = &mut self.solves;
        self.plans.entry(involved).or_insert_with_key(|q| {
            *solves += 1;
            alpha_optimal_suppression(topo, q, alpha, k)
        })
    }
}

/// The suppression requirement `R` (paper Sec 6, Setup in Sec 7.3): a cut is
/// acceptable when `NQ < nq_limit` and `NC ≤ nc_limit`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Requirement {
    /// Exclusive upper bound on `NQ`.
    pub nq_limit: usize,
    /// Inclusive upper bound on `NC`.
    pub nc_limit: usize,
}

impl Requirement {
    /// The paper's setup: `NQ < max_degree(G)` and `NC ≤ |E|/2`.
    pub fn paper_default(topo: &Topology) -> Self {
        Requirement {
            nq_limit: topo.max_degree(),
            nc_limit: topo.coupling_count() / 2,
        }
    }

    /// Checks a plan against the requirement.
    fn satisfied_by(&self, plan: &SuppressionPlan) -> bool {
        plan.metrics.nq < self.nq_limit && plan.metrics.nc <= self.nc_limit
    }
}

/// The paper's NQ-vs-NC weight α of Algorithm 1.
pub const DEFAULT_ALPHA: f64 = 0.5;

/// The paper's top-k path-relaxing budget of Algorithm 1.
pub const DEFAULT_K: usize = 3;

/// Configuration of ZZXSched.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ZzxConfig {
    /// NQ-vs-NC weight of the α-optimal suppression objective.
    pub alpha: f64,
    /// Number of shortest dual paths per matched pair (Path Relaxing).
    pub k: usize,
    /// Suppression requirement for simultaneous two-qubit gates.
    pub requirement: Requirement,
}

impl ZzxConfig {
    /// The paper's evaluation parameters: [`DEFAULT_ALPHA`],
    /// [`DEFAULT_K`] and `R` as in [`Requirement::paper_default`].
    pub fn paper_default(topo: &Topology) -> Self {
        ZzxConfig {
            alpha: DEFAULT_ALPHA,
            k: DEFAULT_K,
            requirement: Requirement::paper_default(topo),
        }
    }
}

/// The work one ZZXSched schedule did, for the caller to record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScheduleCounts {
    /// Qubit-pair distance lookups of the Case-2 heuristic (0 when Case 2
    /// never ran).
    pub distance_queries: u64,
    /// Distinct involved-qubit sets Algorithm 1 solved: each is solved
    /// once per schedule, however often its layers ask for it.
    pub suppression_solves: u64,
}

/// Schedules `circuit` with the ZZ-aware policy (Algorithm 2).
///
/// # Panics
///
/// Panics if the circuit uses more qubits than the device has.
///
/// # Example
///
/// ```
/// use zz_circuit::native::{NativeCircuit, NativeOp};
/// use zz_sched::zzx::{zzx_schedule, ZzxConfig};
/// use zz_topology::Topology;
///
/// let topo = Topology::grid(3, 4);
/// let mut c = NativeCircuit::new(12);
/// for q in 0..12 { c.push(NativeOp::X90 { qubit: q }); }
/// let plan = zzx_schedule(&topo, &c, &ZzxConfig::paper_default(&topo));
/// // Single-qubit gates split over the two bipartition classes: 2 layers,
/// // each with complete suppression.
/// assert_eq!(plan.layer_count(), 2);
/// assert!(plan.layers.iter().all(|l| l.metrics.nc == 0));
/// ```
pub fn zzx_schedule(topo: &Topology, circuit: &NativeCircuit, config: &ZzxConfig) -> SchedulePlan {
    zzx_schedule_counted(topo, circuit, config).0
}

/// [`zzx_schedule`] (and panics like it), also returning the work it did:
/// its Case-2 distance lookups and its suppression solves.
pub fn zzx_schedule_counted(
    topo: &Topology,
    circuit: &NativeCircuit,
    config: &ZzxConfig,
) -> (SchedulePlan, ScheduleCounts) {
    assert!(
        circuit.qubit_count() <= topo.qubit_count(),
        "circuit does not fit on the device"
    );
    let n = topo.qubit_count();
    let mut oracle = DistanceOracle::new(topo);
    let mut memo = SuppressionMemo::new(topo, config);
    let mut plan = SchedulePlan::new(n);
    let mut tracker = DependencyTracker::new(circuit);

    loop {
        let rz = tracker.flush_rz();
        let ready = tracker.ready_physical();
        if ready.is_empty() {
            plan.final_rz = rz;
            break;
        }
        let ops: Vec<NativeOp> = ready.iter().map(|&i| tracker.circuit().ops()[i]).collect();
        let two_q: Vec<usize> = (0..ops.len())
            .filter(|&j| matches!(ops[j], NativeOp::Zx90 { .. }))
            .collect();

        // Decide the cut and which ready ops execute.
        let (suppression, selected) = if two_q.is_empty() {
            schedule_case1(&mut memo, &ops)
        } else {
            schedule_case2(&mut memo, &config.requirement, &ops, &two_q, &mut oracle)
        };

        // Identity supplementation (paper: qubits in S not involved in any
        // schedulable gate get identity pulses).
        let sg_qubits = {
            let mut v = vec![false; n];
            for op in &ops {
                for q in op.qubits() {
                    v[q] = true;
                }
            }
            v
        };
        let mut layer_ops: Vec<NativeOp> = selected.iter().map(|&j| ops[j]).collect();
        for (q, &has_gate) in sg_qubits.iter().enumerate() {
            if suppression.pulsed[q] && !has_gate {
                layer_ops.push(NativeOp::Id { qubit: q });
            }
        }

        // Actual per-qubit status (differs from the intended cut on S-qubits
        // whose gates were deferred) and the metrics that follow from it.
        let mut pulsed = vec![false; n];
        for op in &layer_ops {
            for q in op.qubits() {
                pulsed[q] = true;
            }
        }
        let metrics = cut_metrics(topo, &pulsed);

        debug_assert!(!selected.is_empty(), "every layer must make progress");
        for &j in &selected {
            tracker.take_physical(ready[j]);
        }
        plan.layers.push(Layer {
            rz_before: rz,
            ops: layer_ops,
            pulsed,
            metrics,
        });
    }
    debug_assert_eq!(tracker.remaining(), 0, "all ops scheduled");
    debug_assert!(plan.validate().is_ok());
    let counts = ScheduleCounts {
        distance_queries: oracle.queries,
        suppression_solves: memo.solves,
    };
    (plan, counts)
}

/// Case 1: only single-qubit gates are schedulable.
fn schedule_case1(
    memo: &mut SuppressionMemo<'_>,
    ops: &[NativeOp],
) -> (SuppressionPlan, Vec<usize>) {
    let sp = memo.plan(Vec::new());
    // Orient the cut so S covers more schedulable gates.
    let count = |pulsed: &[bool]| {
        ops.iter()
            .filter(|op| op.qubits().iter().all(|&q| pulsed[q]))
            .count()
    };
    let sp = {
        let flipped = sp.flipped();
        if count(&flipped.pulsed) > count(&sp.pulsed) {
            flipped
        } else {
            sp.clone()
        }
    };
    let selected: Vec<usize> = (0..ops.len())
        .filter(|&j| ops[j].qubits().iter().all(|&q| sp.pulsed[q]))
        .collect();
    (sp, selected)
}

/// Case 2: two-qubit gates are present (`TwoQSchedule` + `Schedule`).
fn schedule_case2(
    memo: &mut SuppressionMemo<'_>,
    requirement: &Requirement,
    ops: &[NativeOp],
    two_q: &[usize],
    oracle: &mut DistanceOracle<'_>,
) -> (SuppressionPlan, Vec<usize>) {
    let qubits_of = |group: &[usize]| -> Vec<usize> {
        let mut v: Vec<usize> = group.iter().flat_map(|&j| ops[j].qubits()).collect();
        v.sort_unstable();
        v.dedup();
        v
    };

    // Try scheduling every two-qubit gate simultaneously.
    let sp_all = memo.plan(qubits_of(two_q));
    let chosen_2q: Vec<usize>;
    let sp: SuppressionPlan;
    if requirement.satisfied_by(sp_all) || two_q.len() == 1 {
        chosen_2q = two_q.to_vec();
        sp = sp_all.clone();
    } else {
        // Distance heuristic: separate the two closest gates, grow greedily
        // by largest distance while the requirement holds.
        let (mut seed_a, mut seed_b, mut best_d) = (two_q[0], two_q[1], usize::MAX);
        for (i, &a) in two_q.iter().enumerate() {
            for &b in &two_q[i + 1..] {
                let d = oracle.gate_distance(ops, a, b);
                if d < best_d {
                    best_d = d;
                    seed_a = a;
                    seed_b = b;
                }
            }
        }
        let mut group_a = vec![seed_a];
        let mut group_b = vec![seed_b];
        let mut pool: Vec<usize> = two_q
            .iter()
            .copied()
            .filter(|&g| g != seed_a && g != seed_b)
            .collect();
        while !pool.is_empty() {
            // The (gate, group) pair with the maximum distance.
            let mut best: Option<(usize, bool, usize)> = None; // (pool idx, to_a, d)
            for (pi, &g) in pool.iter().enumerate() {
                for to_a in [true, false] {
                    let d = oracle.group_distance(ops, g, if to_a { &group_a } else { &group_b });
                    if best.map(|(_, _, bd)| d > bd).unwrap_or(true) {
                        best = Some((pi, to_a, d));
                    }
                }
            }
            let (pi, to_a, _) = best.expect("pool is non-empty");
            let g = pool[pi];
            let target: Vec<usize> = if to_a {
                group_a.iter().chain([&g]).copied().collect()
            } else {
                group_b.iter().chain([&g]).copied().collect()
            };
            if requirement.satisfied_by(memo.plan(qubits_of(&target))) {
                if to_a {
                    group_a.push(g);
                } else {
                    group_b.push(g);
                }
                pool.swap_remove(pi);
            } else {
                break;
            }
        }
        let m = if group_a.len() >= group_b.len() {
            group_a
        } else {
            group_b
        };
        sp = memo.plan(qubits_of(&m)).clone();
        chosen_2q = m;
    }

    // Schedule procedure: the chosen two-qubit gates plus every schedulable
    // single-qubit gate lying in S.
    let mut selected = chosen_2q;
    for (j, op) in ops.iter().enumerate() {
        if matches!(op, NativeOp::Zx90 { .. }) {
            continue;
        }
        if op.qubits().iter().all(|&q| sp.pulsed[q]) {
            selected.push(j);
        }
    }
    selected.sort_unstable();
    selected.dedup();
    (sp, selected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zz_circuit::native::compile_to_native;
    use zz_circuit::{route, Circuit, Gate};
    use zz_quantum::gates::equal_up_to_phase;

    fn compile_on(topo: &Topology, c: &Circuit) -> NativeCircuit {
        compile_to_native(&route(c, topo))
    }

    #[test]
    fn single_qubit_layers_get_complete_suppression_on_grid() {
        let topo = Topology::grid(3, 4);
        let mut c = Circuit::new(12);
        for q in 0..12 {
            c.push(Gate::Rx(std::f64::consts::FRAC_PI_2), &[q]);
        }
        let native = compile_on(&topo, &c);
        let plan = zzx_schedule(&topo, &native, &ZzxConfig::paper_default(&topo));
        for layer in &plan.layers {
            assert_eq!(layer.metrics.nc, 0, "1q layer must be fully suppressed");
            assert_eq!(layer.metrics.nq, 1);
        }
    }

    #[test]
    fn preserves_the_circuit_unitary() {
        let topo = Topology::grid(2, 3);
        let mut c = Circuit::new(6);
        c.push(Gate::H, &[0])
            .push(Gate::Cnot, &[0, 1])
            .push(Gate::Cnot, &[2, 5])
            .push(Gate::T, &[3])
            .push(Gate::Cnot, &[3, 4])
            .push(Gate::H, &[5]);
        let native = compile_on(&topo, &c);
        let plan = zzx_schedule(&topo, &native, &ZzxConfig::paper_default(&topo));
        assert!(plan.validate().is_ok());
        assert!(
            equal_up_to_phase(&plan.unitary(), &native.unitary(), 1e-9),
            "ZZXSched must preserve the computation"
        );
    }

    #[test]
    fn identity_supplementation_happens() {
        let topo = Topology::grid(3, 4);
        let mut c = Circuit::new(12);
        c.push(Gate::Rx(1.0), &[5]);
        let native = compile_on(&topo, &c);
        let plan = zzx_schedule(&topo, &native, &ZzxConfig::paper_default(&topo));
        assert!(
            plan.identity_count() > 0,
            "idle qubits must receive identity pulses"
        );
    }

    #[test]
    fn mean_nc_beats_parsched() {
        let topo = Topology::grid(3, 4);
        let c = zz_circuit::bench::generate(zz_circuit::bench::BenchmarkKind::Qaoa, 8, 3);
        let native = compile_on(&topo, &c);
        let par = crate::parsched::par_schedule(&topo, &native);
        let zzx = zzx_schedule(&topo, &native, &ZzxConfig::paper_default(&topo));
        assert!(
            zzx.mean_nc() < par.mean_nc(),
            "zzx {} !< par {}",
            zzx.mean_nc(),
            par.mean_nc()
        );
        assert!(zzx.validate().is_ok());
    }

    #[test]
    fn benchmark_schedule_preserves_unitary_small_device() {
        // The dense-unitary equivalence check is exponential in qubits, so
        // it runs on a 6-qubit device here (the 12-qubit case is covered by
        // statevector-level tests in zz-sim).
        let topo = Topology::grid(2, 3);
        let c = zz_circuit::bench::generate(zz_circuit::bench::BenchmarkKind::Qaoa, 5, 3);
        let native = compile_on(&topo, &c);
        let zzx = zzx_schedule(&topo, &native, &ZzxConfig::paper_default(&topo));
        assert!(
            equal_up_to_phase(&zzx.unitary(), &native.unitary(), 1e-7),
            "benchmark schedule must preserve the computation"
        );
    }

    #[test]
    fn close_two_qubit_gates_are_separated() {
        // Three parallel CNOTs as in the paper's Figure 13/15: the two
        // closest must end in different layers when R forces a split.
        let topo = Topology::grid(3, 3);
        let mut c = NativeCircuit::new(9);
        // Gates on couplings (0,3), (4,1), (2,5) — paper's CNOT1,4 CNOT5,2
        // CNOT3,6 in 1-indexed row-major labels.
        c.push(NativeOp::Zx90 {
            control: 0,
            target: 3,
        });
        c.push(NativeOp::Zx90 {
            control: 4,
            target: 1,
        });
        c.push(NativeOp::Zx90 {
            control: 2,
            target: 5,
        });
        let tight = ZzxConfig {
            requirement: Requirement {
                nq_limit: 3,
                nc_limit: 4,
            },
            ..ZzxConfig::paper_default(&topo)
        };
        let plan = zzx_schedule(&topo, &c, &tight);
        assert!(plan.layer_count() >= 2, "requirement must force a split");
        // Find which layer each gate landed in.
        let layer_of = |ctrl: usize| -> usize {
            plan.layers
                .iter()
                .position(|l| {
                    l.ops
                        .iter()
                        .any(|op| matches!(op, NativeOp::Zx90 { control, .. } if *control == ctrl))
                })
                .expect("gate scheduled")
        };
        // Gates (0,3) and (4,1) are the closest pair; they must differ.
        assert_ne!(layer_of(0), layer_of(4));
    }

    #[test]
    fn single_qubit_layers_solve_the_empty_set_once() {
        // The doc example: 12 `X90` on the 3×4 grid, two Case-1 layers
        // that both ask for the unconstrained plan.
        let topo = Topology::grid(3, 4);
        let mut c = NativeCircuit::new(12);
        for q in 0..12 {
            c.push(NativeOp::X90 { qubit: q });
        }
        let (plan, counts) = zzx_schedule_counted(&topo, &c, &ZzxConfig::paper_default(&topo));
        assert_eq!(plan.layer_count(), 2);
        assert_eq!(
            counts,
            ScheduleCounts {
                distance_queries: 0,
                suppression_solves: 1,
            }
        );
    }

    #[test]
    fn recurring_ready_sets_are_solved_once() {
        // The three CNOTs of `close_two_qubit_gates_are_separated`, four
        // times over: R splits every block, so the same ready sets recur.
        // Every layer asks for at least one plan, so fewer solves than
        // layers means the repeats were served from the memo.
        let topo = Topology::grid(3, 3);
        let mut c = NativeCircuit::new(9);
        for _ in 0..4 {
            for (control, target) in [(0, 3), (4, 1), (2, 5)] {
                c.push(NativeOp::Zx90 { control, target });
            }
        }
        let tight = ZzxConfig {
            requirement: Requirement {
                nq_limit: 3,
                nc_limit: 4,
            },
            ..ZzxConfig::paper_default(&topo)
        };
        let (plan, counts) = zzx_schedule_counted(&topo, &c, &tight);
        assert!(counts.distance_queries > 0, "R must force Case-2 splits");
        assert!(
            counts.suppression_solves < plan.layer_count() as u64,
            "{} solves for {} layers",
            counts.suppression_solves,
            plan.layer_count()
        );
    }

    #[test]
    fn requirement_paper_default_values() {
        let topo = Topology::grid(3, 4);
        let r = Requirement::paper_default(&topo);
        assert_eq!(r.nq_limit, 4);
        assert_eq!(r.nc_limit, 8);
    }
}
