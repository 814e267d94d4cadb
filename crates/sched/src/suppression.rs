//! Algorithm 1: α-optimal suppression on planar topologies.
//!
//! Given the qubits `Q` that must carry gate pulses this layer, find a
//! status cut `(S, T)` with `Q ⊆ S` minimizing `α·NQ + NC`. The paper's key
//! insight (Theorem 3.1, after Hadlock) is the duality between remaining
//! sets of cuts and **odd-vertex pairings** of the dual graph; the algorithm
//! is:
//!
//! 1. **Delete Edges** — remove `E*_Q` (duals of couplings internal to `Q`)
//!    from the dual graph;
//! 2. **Vertex Matching** — pair the odd-degree dual vertices by
//!    minimum-total-distance perfect matching;
//! 3. **Path Relaxing** — consider the top-k shortest dual paths per matched
//!    pair, greedily trading path length (`NC`) against region size (`NQ`);
//! 4. **Add Edges / Cut Inducing / Check** — re-insert `E*_Q`, contract the
//!    primal counterparts of the chosen pairing, 2-color the quotient, and
//!    keep the candidate only if all of `Q` lands in one partition.
//!
//! The returned plan always exists: the trivial cut `S = Q` (no identity
//! supplementation) is used as a fallback and competes on the same
//! objective.

use zz_graph::{bfs_distances, matching::min_cost_perfect_matching, two_color, yen};
use zz_graph::{ColorConstraint, Path};
use zz_topology::Topology;

use crate::metrics::{cut_metrics, CutMetrics};

/// The outcome of α-optimal suppression for one layer.
#[derive(Clone, Debug)]
pub struct SuppressionPlan {
    /// Per-qubit status: `true` = in `S` (receives a pulse: gate or
    /// identity). When the layer has gates, `S` contains all their qubits.
    pub pulsed: Vec<bool>,
    /// Metrics of the induced cut.
    pub metrics: CutMetrics,
}

impl SuppressionPlan {
    /// The objective value `α·NQ + NC`.
    pub fn score(&self, alpha: f64) -> f64 {
        alpha * self.metrics.nq as f64 + self.metrics.nc as f64
    }

    /// The same cut with the roles of `S` and `T` exchanged (metrics are
    /// invariant; only the pulse orientation changes). Meaningful only for
    /// layers without gates.
    pub fn flipped(&self) -> SuppressionPlan {
        SuppressionPlan {
            pulsed: self.pulsed.iter().map(|&b| !b).collect(),
            metrics: self.metrics.clone(),
        }
    }
}

/// Runs Algorithm 1.
///
/// `involved` is `Q`, the set of qubits that carry gates this layer (empty
/// for pure-identity layers). `alpha` weighs `NQ` against `NC`; `k` is the
/// number of shortest paths considered per matched pair.
///
/// The plan is a pure function of (`topo`, `involved`, `alpha`, `k`), so
/// [`zzx_schedule`](crate::zzx_schedule), whose device, α and k are fixed
/// for the whole schedule, solves each involved-qubit set once per
/// schedule and reuses the plan for every layer that asks for it again.
///
/// # Panics
///
/// Panics if any qubit index in `involved` is out of range.
///
/// # Example
///
/// ```
/// use zz_sched::alpha_optimal_suppression;
/// use zz_topology::Topology;
///
/// // A bipartite grid admits complete suppression when no gates constrain
/// // the cut (paper Sec 5.1).
/// let plan = alpha_optimal_suppression(&Topology::grid(3, 4), &[], 0.5, 3);
/// assert_eq!(plan.metrics.nc, 0);
/// assert_eq!(plan.metrics.nq, 1);
/// ```
pub fn alpha_optimal_suppression(
    topo: &Topology,
    involved: &[usize],
    alpha: f64,
    k: usize,
) -> SuppressionPlan {
    let n = topo.qubit_count();
    for &q in involved {
        assert!(q < n, "involved qubit {q} out of range");
    }
    let in_q = {
        let mut v = vec![false; n];
        for &q in involved {
            v[q] = true;
        }
        v
    };

    // Fallback: pulse exactly Q. Always a valid cut.
    let trivial = SuppressionPlan {
        metrics: cut_metrics(topo, &in_q),
        pulsed: in_q.clone(),
    };
    let mut best = trivial;

    // Step 0 (Delete Edges): remove the duals of couplings internal to Q.
    let dual = topo.dual();
    let e_q: Vec<usize> = topo
        .couplings()
        .iter()
        .enumerate()
        .filter(|&(_, &(u, v))| in_q[u] && in_q[v])
        .map(|(e, _)| e)
        .collect();
    let gd = dual.graph().without_edges(&e_q);

    // Step 1 (Vertex Matching).
    let odd = gd.odd_vertices();
    debug_assert!(
        odd.len().is_multiple_of(2),
        "odd-degree vertices come in pairs"
    );
    let mut pair_paths: Vec<Vec<Path>> = Vec::new();
    if !odd.is_empty() {
        let dist: Vec<Vec<usize>> = odd.iter().map(|&v| bfs_distances(&gd, v)).collect();
        let cost = |i: usize, j: usize| {
            let d = dist[i][odd[j]];
            if d == usize::MAX {
                1e12
            } else {
                d as f64
            }
        };
        let matching = min_cost_perfect_matching(odd.len(), cost);
        for (i, j) in matching {
            let paths = yen(&gd, odd[i], odd[j], k.max(1));
            if paths.is_empty() {
                // A matched pair became unreachable after Delete Edges: no
                // pairing through this matching exists; fall back.
                return best;
            }
            pair_paths.push(paths);
        }
    }

    // Candidate evaluation: union of chosen path edges + E_Q is contracted;
    // everything else must cross the cut.
    let evaluate = |choice: &[usize]| -> Option<SuppressionPlan> {
        let mut contracted = vec![false; topo.coupling_count()];
        for (pi, &ci) in choice.iter().enumerate() {
            for &e in &pair_paths[pi][ci].edges {
                contracted[e] = true;
            }
        }
        for &e in &e_q {
            contracted[e] = true;
        }
        let constraints: Vec<ColorConstraint> = topo
            .couplings()
            .iter()
            .enumerate()
            .map(|(e, &(u, v))| {
                if contracted[e] {
                    ColorConstraint::same(u, v)
                } else {
                    ColorConstraint::differ(u, v)
                }
            })
            .collect();
        let colors = two_color(n, &constraints)?;
        // Check: all of Q in one partition.
        let orient = if let Some(&q0) = involved.first() {
            if involved.iter().any(|&q| colors[q] != colors[q0]) {
                return None;
            }
            colors[q0]
        } else {
            true
        };
        let pulsed: Vec<bool> = colors.iter().map(|&c| c == orient).collect();
        let metrics = cut_metrics(topo, &pulsed);
        Some(SuppressionPlan { pulsed, metrics })
    };

    // Step 2 (Path Relaxing): greedy single-pair relaxation, starting from
    // all-shortest paths, moving while the objective improves.
    let mut choice = vec![0usize; pair_paths.len()];
    if let Some(plan) = evaluate(&choice) {
        if plan.score(alpha) < best.score(alpha) {
            best = plan;
        }
    }
    loop {
        let mut best_step: Option<(usize, SuppressionPlan)> = None;
        for pi in 0..pair_paths.len() {
            if choice[pi] + 1 >= pair_paths[pi].len() {
                continue;
            }
            let mut cand = choice.clone();
            cand[pi] += 1;
            if let Some(plan) = evaluate(&cand) {
                let better_than_step = best_step
                    .as_ref()
                    .map(|(_, p)| plan.score(alpha) < p.score(alpha))
                    .unwrap_or(true);
                if better_than_step {
                    best_step = Some((pi, plan));
                }
            }
        }
        match best_step {
            Some((pi, plan)) if plan.score(alpha) < best.score(alpha) => {
                choice[pi] += 1;
                best = plan;
            }
            _ => break,
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bipartite_devices_get_complete_suppression() {
        for topo in [
            Topology::grid(2, 2),
            Topology::grid(3, 4),
            Topology::line(5),
            Topology::ibmq_vigo(),
        ] {
            let plan = alpha_optimal_suppression(&topo, &[], 0.5, 3);
            assert_eq!(plan.metrics.nc, 0, "NC > 0 on {}", topo.name());
            assert_eq!(plan.metrics.nq, 1, "NQ > 1 on {}", topo.name());
            // The plan must be a proper 2-coloring: every edge crosses.
            for &(u, v) in topo.couplings() {
                assert_ne!(plan.pulsed[u], plan.pulsed[v]);
            }
        }
    }

    #[test]
    fn gate_qubits_always_land_in_s() {
        let topo = Topology::grid(3, 4);
        for q_set in [vec![0usize, 1], vec![5, 6], vec![0, 1, 10, 11]] {
            let plan = alpha_optimal_suppression(&topo, &q_set, 0.5, 3);
            for &q in &q_set {
                assert!(plan.pulsed[q], "gate qubit {q} not pulsed");
            }
        }
    }

    #[test]
    fn single_two_qubit_gate_keeps_nc_small() {
        let topo = Topology::grid(3, 4);
        // A gate on the coupling (0, 1): only a couple of couplings can stay
        // unsuppressed.
        let plan = alpha_optimal_suppression(&topo, &[0, 1], 0.5, 3);
        assert!(plan.metrics.nc <= 3, "NC = {}", plan.metrics.nc);
        assert!(plan.metrics.nq <= 4, "NQ = {}", plan.metrics.nq);
    }

    #[test]
    fn line_with_gate_has_single_unsuppressed_coupling() {
        let topo = Topology::line(5);
        let plan = alpha_optimal_suppression(&topo, &[1, 2], 0.5, 3);
        assert_eq!(plan.metrics.nc, 1); // only the gate's own coupling
        assert_eq!(plan.metrics.nq, 2);
    }

    #[test]
    fn non_bipartite_device_trades_nq_for_nc() {
        // On the grid-with-diagonal, α = 0 should minimize NC outright;
        // large α should prefer smaller regions at equal-or-higher NC.
        let topo = Topology::grid_with_diagonal();
        let low = alpha_optimal_suppression(&topo, &[], 0.0, 4);
        let high = alpha_optimal_suppression(&topo, &[], 10.0, 4);
        assert!(low.metrics.nc >= 1, "odd faces force NC ≥ 1");
        assert!(high.metrics.nq <= low.metrics.nq);
        assert!(high.metrics.nc >= low.metrics.nc);
        // The α=0 solution must beat the trivial all-idle cut.
        assert!(low.metrics.nc <= 2);
    }

    #[test]
    fn score_uses_alpha() {
        let plan = SuppressionPlan {
            pulsed: vec![true],
            metrics: CutMetrics {
                nc: 3,
                nq: 2,
                suppressed: vec![],
            },
        };
        assert_eq!(plan.score(0.5), 4.0);
        assert_eq!(plan.flipped().pulsed, vec![false]);
    }

    #[test]
    fn distant_gates_stay_suppressible() {
        // Two far-apart 2q gates on a 3×4 grid should still allow a valid
        // cut with all four qubits in S.
        let topo = Topology::grid(3, 4);
        let plan = alpha_optimal_suppression(&topo, &[0, 1, 10, 11], 0.5, 3);
        for q in [0, 1, 10, 11] {
            assert!(plan.pulsed[q]);
        }
        // Both gate couplings are necessarily unsuppressed; the cut should
        // not add many more.
        assert!(plan.metrics.nc <= 5, "NC = {}", plan.metrics.nc);
    }
}
