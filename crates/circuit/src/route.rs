//! Greedy SWAP routing onto a device topology.

use std::fmt;

use zz_graph::{shortest_path_with, BfsScratch, MultiGraph};
use zz_topology::Topology;

use crate::{Circuit, Gate};

/// A routing failure: no coupling path exists between two physical qubits.
///
/// [`Topology`] validates connectivity at construction, so this cannot occur
/// for in-tree devices — it exists so a violated invariant (e.g. a
/// disconnected coupling graph handed to [`try_route_with`]) surfaces as a
/// typed error instead of panicking a service worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteError {
    /// The physical qubit the two-qubit gate starts from.
    pub from: usize,
    /// The physical qubit that could not be reached.
    pub to: usize,
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no coupling path between physical qubits {} and {} (disconnected device graph)",
            self.from, self.to
        )
    }
}

impl std::error::Error for RouteError {}

/// Routes a logical circuit onto a device: the result acts on the device's
/// physical qubits and every two-qubit gate touches a coupled pair, with
/// SWAP gates inserted along shortest paths where needed.
///
/// Logical qubit `i` starts at the `i`-th qubit of the device's *snake
/// order* (row-major with alternating row direction), which keeps
/// consecutive logical qubits physically adjacent on grids — the dominant
/// interaction pattern of the NISQ benchmarks. The mapping evolves as SWAPs
/// are inserted. Because fidelity is always evaluated by simulating the
/// *routed* circuit both ideally and noisily, the final permutation needs
/// no undoing.
///
/// # Panics
///
/// Panics if the circuit has more qubits than the device.
///
/// # Example
///
/// ```
/// use zz_circuit::{route, Circuit, Gate};
/// use zz_topology::Topology;
///
/// let mut c = Circuit::new(4);
/// c.push(Gate::Cnot, &[0, 2]); // diagonally opposite under the snake layout
/// let routed = route(&c, &Topology::grid(2, 2));
/// // A SWAP was inserted, then the CNOT acts on neighbors.
/// assert!(routed.ops().len() > 1);
/// for op in routed.ops() {
///     if op.gate.arity() == 2 {
///         let (u, v) = (op.qubits[0], op.qubits[1]);
///         assert!(Topology::grid(2, 2).coupling_between(u, v).is_some());
///     }
/// }
/// ```
pub fn route(circuit: &Circuit, topo: &Topology) -> Circuit {
    try_route(circuit, topo).expect("device topologies are connected")
}

/// Fallible variant of [`route`]: returns a [`RouteError`] instead of
/// panicking when two physical qubits have no coupling path.
///
/// # Panics
///
/// Panics if the circuit has more qubits than the device (a size mismatch
/// is a validation error, not a routing outcome; the pipeline's validate
/// pass rejects it before routing).
pub fn try_route(circuit: &Circuit, topo: &Topology) -> Result<Circuit, RouteError> {
    try_route_with(circuit, topo, &topo.to_multigraph())
}

/// [`try_route`] against a caller-supplied coupling graph of `topo`.
///
/// Building the [`MultiGraph`] is `O(V + E)`; callers routing many circuits
/// onto the same device (the service pipeline) build it once and pass it
/// here, instead of once per call.
///
/// # Panics
///
/// Panics if the circuit has more qubits than the device, or if `graph`
/// does not have one vertex per device qubit.
pub fn try_route_with(
    circuit: &Circuit,
    topo: &Topology,
    graph: &MultiGraph,
) -> Result<Circuit, RouteError> {
    assert!(
        circuit.qubit_count() <= topo.qubit_count(),
        "circuit needs {} qubits but device has {}",
        circuit.qubit_count(),
        topo.qubit_count()
    );
    let n = topo.qubit_count();
    assert_eq!(
        graph.vertex_count(),
        n,
        "coupling graph does not match the device"
    );

    // layout[logical] = physical, starting from the snake order; the inverse
    // map makes each SWAP an O(1) update instead of an O(n) scan.
    let snake = snake_order(topo);
    let mut layout: Vec<usize> = snake[..circuit.qubit_count()].to_vec();
    let mut phys_to_logical: Vec<Option<usize>> = vec![None; n];
    for (l, &p) in layout.iter().enumerate() {
        phys_to_logical[p] = Some(l);
    }
    let mut scratch = BfsScratch::new();
    let mut out = Circuit::new(n);

    for op in circuit.ops() {
        match op.qubits.as_slice() {
            &[q] => {
                out.push(op.gate, &[layout[q]]);
            }
            &[a, b] => {
                let (mut pa, pb) = (layout[a], layout[b]);
                if topo.coupling_between(pa, pb).is_none() {
                    let path = shortest_path_with(graph, pa, pb, &mut scratch)
                        .ok_or(RouteError { from: pa, to: pb })?;
                    // Walk `a` toward `b`, swapping along the path until
                    // adjacent.
                    for &w in &path.vertices[1..path.vertices.len() - 1] {
                        out.push(Gate::Swap, &[pa, w]);
                        // Whichever logical qubits sit on pa and w exchange
                        // places.
                        let (la, lw) = (phys_to_logical[pa], phys_to_logical[w]);
                        if let Some(l) = la {
                            layout[l] = w;
                        }
                        if let Some(l) = lw {
                            layout[l] = pa;
                        }
                        phys_to_logical[pa] = lw;
                        phys_to_logical[w] = la;
                        pa = w;
                    }
                }
                out.push(op.gate, &[layout[a], layout[b]]);
            }
            other => unreachable!("gates act on 1 or 2 qubits, got {other:?}"),
        }
    }
    Ok(out)
}

/// Device qubits ordered along a "snake": ascending by the y coordinate,
/// with x alternating direction per row, so consecutive entries are
/// adjacent on grid devices.
fn snake_order(topo: &Topology) -> Vec<usize> {
    let mut rows: Vec<(i64, Vec<usize>)> = Vec::new();
    let mut order: Vec<usize> = (0..topo.qubit_count()).collect();
    order.sort_by(|&a, &b| {
        let (ax, ay) = topo.coord(a);
        let (bx, by) = topo.coord(b);
        (ay, ax).partial_cmp(&(by, bx)).expect("finite coordinates")
    });
    for q in order {
        let (_, y) = topo.coord(q);
        let key = (y * 1024.0).round() as i64;
        match rows.last_mut() {
            Some((last, row)) if *last == key => row.push(q),
            _ => rows.push((key, vec![q])),
        }
    }
    let mut out = Vec::with_capacity(topo.qubit_count());
    for (i, (_, mut row)) in rows.into_iter().enumerate() {
        if i % 2 == 1 {
            row.reverse();
        }
        out.extend(row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use zz_quantum::gates::equal_up_to_phase;

    /// Applies a permutation to the wires of a unitary: returns P† U P where
    /// P maps logical basis states onto their physical positions.
    fn permute_unitary(u: &zz_linalg::Matrix, perm: &[usize], n: usize) -> zz_linalg::Matrix {
        // perm[logical] = physical.
        let dim = 1usize << n;
        let map_index = |i: usize| -> usize {
            let mut j = 0usize;
            for (l, &p) in perm.iter().enumerate().take(n) {
                let bit = (i >> (n - 1 - l)) & 1;
                if bit == 1 {
                    j |= 1 << (n - 1 - p);
                }
            }
            j
        };
        let mut out = zz_linalg::Matrix::zeros(dim, dim);
        for r in 0..dim {
            for c in 0..dim {
                out[(map_index(r), map_index(c))] = u[(r, c)];
            }
        }
        out
    }

    #[test]
    fn adjacent_gates_pass_through() {
        let topo = Topology::line(3);
        let mut c = Circuit::new(3);
        c.push(Gate::Cnot, &[0, 1]).push(Gate::Cnot, &[1, 2]);
        let routed = route(&c, &topo);
        assert_eq!(routed.ops().len(), 2);
        assert!(routed.unitary().approx_eq(&c.unitary(), 1e-12));
    }

    #[test]
    fn distant_gate_gets_swaps() {
        let topo = Topology::line(3);
        let mut c = Circuit::new(3);
        c.push(Gate::Cnot, &[0, 2]);
        let routed = route(&c, &topo);
        let swaps = routed.ops().iter().filter(|o| o.gate == Gate::Swap).count();
        assert_eq!(swaps, 1);
        for op in routed.ops() {
            if op.gate.arity() == 2 {
                assert!(topo.coupling_between(op.qubits[0], op.qubits[1]).is_some());
            }
        }
    }

    #[test]
    fn routed_circuit_equals_original_up_to_final_permutation() {
        let topo = Topology::grid(2, 3);
        let mut c = Circuit::new(6);
        c.push(Gate::H, &[0])
            .push(Gate::Cnot, &[0, 5])
            .push(Gate::Cnot, &[2, 3])
            .push(Gate::T, &[5])
            .push(Gate::Cnot, &[4, 1]);
        let routed = route(&c, &topo);

        // Recover the final layout by replaying the SWAPs from the snake
        // starting layout.
        let mut layout: Vec<usize> = snake_order(&topo)[..6].to_vec();
        for op in routed.ops() {
            if op.gate == Gate::Swap {
                let (a, b) = (op.qubits[0], op.qubits[1]);
                for l in layout.iter_mut() {
                    if *l == a {
                        *l = b;
                    } else if *l == b {
                        *l = a;
                    }
                }
            }
        }
        // The routed unitary reads logical wire l from its snake start
        // position and leaves it at its final position:
        // routed = P(final) · U_logical · P(snake)†.
        let u_logical = c.unitary();
        let routed_u = routed.unitary();
        let dim = 1usize << 6;
        let map_with = |wires: &[usize], i: usize| -> usize {
            let mut j = 0usize;
            for (l, &w) in wires.iter().enumerate().take(6) {
                if (i >> (5 - l)) & 1 == 1 {
                    j |= 1 << (5 - w);
                }
            }
            j
        };
        let start: Vec<usize> = snake_order(&topo)[..6].to_vec();
        let mut expected = zz_linalg::Matrix::zeros(dim, dim);
        for r in 0..dim {
            for col in 0..dim {
                expected[(map_with(&layout, r), map_with(&start, col))] = u_logical[(r, col)];
            }
        }
        assert!(
            equal_up_to_phase(&routed_u, &expected, 1e-9),
            "routing changed the computation"
        );
        let _ = permute_unitary; // helper retained for future tests
    }

    #[test]
    fn snake_order_keeps_consecutive_qubits_adjacent() {
        for topo in [
            Topology::grid(3, 4),
            Topology::grid(2, 3),
            Topology::line(5),
        ] {
            let snake = snake_order(&topo);
            for w in snake.windows(2) {
                assert!(
                    topo.coupling_between(w[0], w[1]).is_some(),
                    "snake broke adjacency on {} between {} and {}",
                    topo.name(),
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn line_structured_circuits_route_without_swaps() {
        // Logical line-neighbor gates must not require SWAPs on a grid.
        let topo = Topology::grid(3, 4);
        let mut c = Circuit::new(12);
        for i in 0..11 {
            c.push(Gate::Cnot, &[i, i + 1]);
        }
        let routed = route(&c, &topo);
        let swaps = routed.ops().iter().filter(|o| o.gate == Gate::Swap).count();
        assert_eq!(swaps, 0, "snake layout should avoid all SWAPs");
    }

    #[test]
    #[should_panic(expected = "circuit needs")]
    fn rejects_oversized_circuit() {
        let mut c = Circuit::new(5);
        c.push(Gate::H, &[4]);
        let _ = route(&c, &Topology::grid(2, 2));
    }
}
