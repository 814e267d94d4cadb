//! The device topology type.

use std::collections::VecDeque;
use std::fmt;

use zz_graph::MultiGraph;

use crate::dual::Dual;
use crate::faces::{trace_faces, Face, FaceStore};

/// Errors produced when constructing a [`Topology`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// An edge referenced a qubit index ≥ the qubit count.
    QubitOutOfRange {
        /// The offending qubit index.
        qubit: usize,
    },
    /// An edge connected a qubit to itself.
    SelfCoupling {
        /// The qubit with the self-coupling.
        qubit: usize,
    },
    /// The same coupling was listed twice.
    DuplicateCoupling {
        /// First endpoint.
        u: usize,
        /// Second endpoint.
        v: usize,
    },
    /// The coupling graph is not connected.
    Disconnected,
    /// Two qubits share the same coordinates (no valid embedding).
    CoincidentCoordinates {
        /// First qubit.
        a: usize,
        /// Second qubit.
        b: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::QubitOutOfRange { qubit } => {
                write!(f, "coupling references qubit {qubit} outside the device")
            }
            TopologyError::SelfCoupling { qubit } => {
                write!(f, "qubit {qubit} cannot couple to itself")
            }
            TopologyError::DuplicateCoupling { u, v } => {
                write!(f, "coupling {u}-{v} listed more than once")
            }
            TopologyError::Disconnected => write!(f, "coupling graph is not connected"),
            TopologyError::CoincidentCoordinates { a, b } => {
                write!(f, "qubits {a} and {b} share coordinates")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// A connected planar device topology with a straight-line embedding.
///
/// See the [crate-level docs](crate) for the role this plays in the
/// suppression algorithm; constructors for the devices used in the paper's
/// evaluation are provided ([`Topology::grid`], [`Topology::line`],
/// [`Topology::ibmq_vigo`]), plus scale-oriented ones for the 100–1000+
/// qubit regime ([`Topology::heavy_hex`], and [`Topology::grid`] with large
/// dimensions).
///
/// The rotation system and faces are stored flat ([`u32`] CSR arrays, same
/// policy as `zz_graph::MultiGraph`), so a 1000-qubit topology costs a
/// handful of allocations rather than thousands.
#[derive(Clone, Debug, PartialEq)]
pub struct Topology {
    name: String,
    coords: Vec<(f64, f64)>,
    edges: Vec<(usize, usize)>,
    /// CSR offsets into `rot_packed`: the CCW neighbor list of qubit `q` is
    /// `rot_packed[rot_offsets[q]..rot_offsets[q + 1]]`.
    rot_offsets: Vec<u32>,
    /// Neighbors in counter-clockwise order as `(neighbor, edge id)`.
    rot_packed: Vec<(u32, u32)>,
    faces: FaceStore,
    outer_face: usize,
}

impl Topology {
    /// Builds a topology from qubit coordinates and couplings.
    ///
    /// The embedding is taken at face value: couplings must not cross when
    /// drawn as straight lines (all built-in constructors satisfy this; it
    /// is not re-verified here).
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] if a coupling is out of range, a
    /// self-loop, duplicated, if the graph is disconnected, or if two qubits
    /// coincide geometrically.
    pub fn new(
        name: impl Into<String>,
        coords: Vec<(f64, f64)>,
        edges: Vec<(usize, usize)>,
    ) -> Result<Self, TopologyError> {
        let n = coords.len();
        assert!(
            n < u32::MAX as usize && edges.len() < u32::MAX as usize,
            "qubit and coupling counts must fit in u32 indices"
        );
        let mut seen = std::collections::HashSet::new();
        for &(u, v) in &edges {
            if u >= n {
                return Err(TopologyError::QubitOutOfRange { qubit: u });
            }
            if v >= n {
                return Err(TopologyError::QubitOutOfRange { qubit: v });
            }
            if u == v {
                return Err(TopologyError::SelfCoupling { qubit: u });
            }
            if !seen.insert((u.min(v), u.max(v))) {
                return Err(TopologyError::DuplicateCoupling { u, v });
            }
        }
        // Coincidence check via sort (the earlier all-pairs scan was O(n²),
        // noticeable at 1000 qubits). `total_cmp` gives a total order; actual
        // equality is still decided by `==` on adjacent entries, so -0.0 and
        // 0.0 compare coincident exactly as before.
        let mut by_coord: Vec<usize> = (0..n).collect();
        by_coord.sort_by(|&a, &b| {
            coords[a]
                .0
                .total_cmp(&coords[b].0)
                .then(coords[a].1.total_cmp(&coords[b].1))
        });
        for w in by_coord.windows(2) {
            let (a, b) = (w[0].min(w[1]), w[0].max(w[1]));
            if coords[a] == coords[b] {
                return Err(TopologyError::CoincidentCoordinates { a, b });
            }
        }

        // Normalize edges to (min, max) and build the rotation system.
        let edges: Vec<(usize, usize)> = edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        let mut rotation: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for (id, &(u, v)) in edges.iter().enumerate() {
            rotation[u].push((v, id));
            rotation[v].push((u, id));
        }
        for (u, nbrs) in rotation.iter_mut().enumerate() {
            let (ux, uy) = coords[u];
            nbrs.sort_by(|&(a, _), &(b, _)| {
                let ang = |q: usize| {
                    let (x, y) = coords[q];
                    (y - uy).atan2(x - ux)
                };
                ang(a).partial_cmp(&ang(b)).expect("finite coordinates")
            });
        }

        // Connectivity check (BFS).
        if n > 0 {
            let mut visited = vec![false; n];
            visited[0] = true;
            let mut queue = VecDeque::from([0usize]);
            let mut count = 1;
            while let Some(u) = queue.pop_front() {
                for &(v, _) in &rotation[u] {
                    if !visited[v] {
                        visited[v] = true;
                        count += 1;
                        queue.push_back(v);
                    }
                }
            }
            if count != n {
                return Err(TopologyError::Disconnected);
            }
        }

        let faces = trace_faces(&rotation, &edges);
        let outer_face = find_outer_face(&faces, &coords);

        // Flatten the rotation system into CSR form; the nested Vecs above
        // are construction-time scaffolding only.
        let mut rot_offsets = Vec::with_capacity(n + 1);
        let mut rot_packed = Vec::with_capacity(2 * edges.len());
        rot_offsets.push(0u32);
        for nbrs in &rotation {
            rot_packed.extend(nbrs.iter().map(|&(v, e)| (v as u32, e as u32)));
            rot_offsets.push(rot_packed.len() as u32);
        }

        Ok(Topology {
            name: name.into(),
            coords,
            edges,
            rot_offsets,
            rot_packed,
            faces: FaceStore::from_faces(&faces),
            outer_face,
        })
    }

    /// A `rows × cols` grid device — the paper's evaluation topology
    /// (3×4 for 12 qubits). Qubit `r·cols + c` sits at `(c, r)`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn grid(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
        let mut coords = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                coords.push((c as f64, r as f64));
            }
        }
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let q = r * cols + c;
                if c + 1 < cols {
                    edges.push((q, q + 1));
                }
                if r + 1 < rows {
                    edges.push((q, q + cols));
                }
            }
        }
        Topology::new(format!("grid-{rows}x{cols}"), coords, edges)
            .expect("grid construction is always valid")
    }

    /// A 1-D chain of `n` qubits (the Ramsey experiment device is `line(3)`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn line(n: usize) -> Self {
        assert!(n > 0, "line needs at least one qubit");
        let coords = (0..n).map(|i| (i as f64, 0.0)).collect();
        let edges = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        Topology::new(format!("line-{n}"), coords, edges)
            .expect("line construction is always valid")
    }

    /// The 5-qubit IBMQ Vigo device of the paper's Figure 1.
    pub fn ibmq_vigo() -> Self {
        let coords = vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 1.0), (1.0, 2.0)];
        let edges = vec![(0, 1), (1, 2), (1, 3), (3, 4)];
        Topology::new("ibmq-vigo", coords, edges).expect("vigo construction is always valid")
    }

    /// A heavy-hex patch (the lattice of current IBM Quantum devices): two
    /// five-qubit rows joined by bridge qubits at columns 0, 2 and 4,
    /// forming two hexagonal cells with degree-3 junctions. Bipartite and
    /// planar, so the complete-suppression result applies.
    pub fn heavy_hex_cell() -> Self {
        // Row 0: qubits 0..=4 at y = 0; bridges: 5, 6, 7 at y = 1 under
        // columns 0/2/4; row 1: qubits 8..=12 at y = 2.
        let mut coords = Vec::new();
        for c in 0..5 {
            coords.push((c as f64, 0.0));
        }
        coords.push((0.0, 1.0));
        coords.push((2.0, 1.0));
        coords.push((4.0, 1.0));
        for c in 0..5 {
            coords.push((c as f64, 2.0));
        }
        let mut edges = vec![];
        for c in 0..4usize {
            edges.push((c, c + 1)); // top row
            edges.push((8 + c, 8 + c + 1)); // bottom row
        }
        edges.push((0, 5));
        edges.push((5, 8));
        edges.push((2, 6));
        edges.push((6, 10));
        edges.push((4, 7));
        edges.push((7, 12));
        Topology::new("heavy-hex-cell", coords, edges).expect("construction is always valid")
    }

    /// A distance-`d` heavy-hex lattice — the topology family of large IBM
    /// Quantum devices, and the scale target of this repository's compile
    /// path (route + schedule run on it; statevector evaluation does not).
    ///
    /// `d` qubit rows of `2d − 1` qubits each are joined by bridge qubits:
    /// even gaps bridge at columns `x ≡ 0 (mod 4)`, odd gaps at
    /// `x ≡ 2 (mod 4)`, producing the hexagonal 12-coupling cells of the
    /// heavy-hex lattice. The result is planar, bipartite (so the paper's
    /// complete-suppression theorem applies), and max-degree 3.
    /// `heavy_hex(21)` has 1071 qubits.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn heavy_hex(d: usize) -> Self {
        assert!(d > 0, "heavy-hex distance must be positive");
        let width = 2 * d - 1;
        let mut coords = Vec::new();
        let mut edges = Vec::new();
        // Row qubits: row r occupies ids r·width .. (r+1)·width at y = 2r.
        for r in 0..d {
            for x in 0..width {
                coords.push((x as f64, (2 * r) as f64));
            }
        }
        for r in 0..d {
            for x in 1..width {
                edges.push((r * width + x - 1, r * width + x));
            }
        }
        // Bridge qubits, numbered after all row qubits, gap by gap.
        for r in 0..d - 1 {
            let phase = if r % 2 == 0 { 0 } else { 2 };
            for x in (phase..width).step_by(4) {
                let b = coords.len();
                coords.push((x as f64, (2 * r + 1) as f64));
                edges.push((r * width + x, b));
                edges.push((b, (r + 1) * width + x));
            }
        }
        Topology::new(format!("heavy-hex-{d}"), coords, edges)
            .expect("heavy-hex construction is always valid")
    }

    /// A 3×3 grid with one diagonal coupling added — a small non-bipartite
    /// device exhibiting the NQ/NC trade-off of the paper's Figure 10.
    pub fn grid_with_diagonal() -> Self {
        let mut coords = Vec::new();
        for r in 0..3 {
            for c in 0..3 {
                coords.push((c as f64, r as f64));
            }
        }
        let mut edges = Vec::new();
        for r in 0..3usize {
            for c in 0..3usize {
                let q = r * 3 + c;
                if c + 1 < 3 {
                    edges.push((q, q + 1));
                }
                if r + 1 < 3 {
                    edges.push((q, q + 3));
                }
            }
        }
        edges.push((0, 4)); // diagonal: creates two triangular faces
        Topology::new("grid3x3+diag", coords, edges).expect("construction is always valid")
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of qubits.
    pub fn qubit_count(&self) -> usize {
        self.coords.len()
    }

    /// Number of couplings.
    pub fn coupling_count(&self) -> usize {
        self.edges.len()
    }

    /// The couplings as `(u, v)` pairs with `u < v`; the index in this slice
    /// is the coupling's edge id.
    pub fn couplings(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Embedding coordinates of qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn coord(&self, q: usize) -> (f64, f64) {
        self.coords[q]
    }

    /// Neighbors of qubit `q` in counter-clockwise order, as
    /// `(neighbor, edge id)`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn neighbors(&self, q: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.rotation(q)
            .iter()
            .map(|&(v, e)| (v as usize, e as usize))
    }

    /// The CCW incidence slice of qubit `q` in the flat rotation system.
    #[inline]
    fn rotation(&self, q: usize) -> &[(u32, u32)] {
        &self.rot_packed[self.rot_offsets[q] as usize..self.rot_offsets[q + 1] as usize]
    }

    /// Degree of qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn degree(&self, q: usize) -> usize {
        (self.rot_offsets[q + 1] - self.rot_offsets[q]) as usize
    }

    /// Maximum degree over all qubits (used by the paper's suppression
    /// requirement `NQ < max_degree`).
    pub fn max_degree(&self) -> usize {
        (0..self.qubit_count())
            .map(|q| self.degree(q))
            .max()
            .unwrap_or(0)
    }

    /// The edge id of the coupling between `u` and `v`, if present.
    ///
    /// `O(deg)` via the rotation system (the earlier linear scan over all
    /// couplings was a hot spot when lowering large circuits).
    pub fn coupling_between(&self, u: usize, v: usize) -> Option<usize> {
        if u >= self.qubit_count() || v >= self.qubit_count() || u == v {
            return None;
        }
        self.rotation(u)
            .iter()
            .find(|&&(w, _)| w as usize == v)
            .map(|&(_, e)| e as usize)
    }

    /// The faces of the planar embedding (the outer face included).
    pub fn faces(&self) -> &FaceStore {
        &self.faces
    }

    /// Index (into [`Topology::faces`]) of the outer face.
    pub fn outer_face(&self) -> usize {
        self.outer_face
    }

    /// Builds the dual multigraph of the embedding.
    pub fn dual(&self) -> Dual {
        Dual::of(self)
    }

    /// The primal graph as a [`MultiGraph`] (edge ids preserved).
    pub fn to_multigraph(&self) -> MultiGraph {
        MultiGraph::from_edges(self.qubit_count(), &self.edges)
    }

    /// BFS distances from qubit `q` to every qubit, computed directly on the
    /// rotation system (no intermediate graph build).
    ///
    /// Schedulers query distance rows on demand instead of materializing
    /// the full `O(n²)` matrix up front.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn distances_from(&self, q: usize) -> Vec<usize> {
        let n = self.qubit_count();
        assert!(q < n, "qubit out of range");
        let mut dist = vec![usize::MAX; n];
        dist[q] = 0;
        let mut queue = VecDeque::with_capacity(n);
        queue.push_back(q as u32);
        while let Some(u) = queue.pop_front() {
            let du = dist[u as usize];
            for &(v, _) in self.rotation(u as usize) {
                if dist[v as usize] == usize::MAX {
                    dist[v as usize] = du + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// All-pairs BFS distances between qubits, through the primal
    /// [`MultiGraph`] rather than the rotation system — the oracle
    /// [`Topology::distances_from`] is checked against.
    #[cfg(test)]
    fn distance_matrix(&self) -> Vec<Vec<usize>> {
        let graph = self.to_multigraph();
        (0..self.qubit_count())
            .map(|q| zz_graph::bfs_distances(&graph, q))
            .collect()
    }

    /// Returns `true` if the coupling graph is bipartite (two-colorable) —
    /// the class of devices on which complete suppression is achievable
    /// (paper Sec 5.1).
    pub fn is_bipartite(&self) -> bool {
        let constraints: Vec<_> = self
            .edges
            .iter()
            .map(|&(u, v)| zz_graph::ColorConstraint::differ(u, v))
            .collect();
        zz_graph::two_color(self.qubit_count(), &constraints).is_some()
    }
}

/// The outer face is the one with the most negative signed area (interior
/// faces of a counter-clockwise rotation system trace positive loops); for
/// tree-like topologies the single face (area 0) is the outer face.
fn find_outer_face(faces: &[Face], coords: &[(f64, f64)]) -> usize {
    let mut best = 0;
    let mut best_area = f64::INFINITY;
    for (i, face) in faces.iter().enumerate() {
        let vs = &face.vertices;
        let mut area = 0.0;
        for k in 0..vs.len() {
            let (x1, y1) = coords[vs[k]];
            let (x2, y2) = coords[vs[(k + 1) % vs.len()]];
            area += x1 * y2 - x2 * y1;
        }
        if area / 2.0 < best_area {
            best_area = area / 2.0;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_counts() {
        let g = Topology::grid(3, 4);
        assert_eq!(g.qubit_count(), 12);
        assert_eq!(g.coupling_count(), 17);
        assert_eq!(g.max_degree(), 4);
        assert!(g.is_bipartite());
    }

    #[test]
    fn euler_formula_holds() {
        for t in [
            Topology::grid(2, 2),
            Topology::grid(3, 4),
            Topology::line(5),
            Topology::ibmq_vigo(),
            Topology::grid_with_diagonal(),
        ] {
            let v = t.qubit_count();
            let e = t.coupling_count();
            let f = t.faces().len();
            assert_eq!(v + f, e + 2, "Euler failed for {}", t.name());
        }
    }

    #[test]
    fn line_has_single_face() {
        let l = Topology::line(4);
        assert_eq!(l.faces().len(), 1);
        assert_eq!(l.outer_face(), 0);
    }

    #[test]
    fn grid_faces_are_squares_plus_outer() {
        let g = Topology::grid(3, 4);
        assert_eq!(g.faces().len(), 7); // 6 interior squares + outer
        let interior: Vec<_> = g
            .faces()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != g.outer_face())
            .map(|(_, f)| f.edge_count())
            .collect();
        assert_eq!(interior.len(), 6);
        assert!(
            interior.iter().all(|&l| l == 4),
            "interior faces are 4-cycles: {interior:?}"
        );
        assert_eq!(g.faces().face(g.outer_face()).edge_count(), 10); // boundary length
    }

    #[test]
    fn diagonal_creates_triangles() {
        let t = Topology::grid_with_diagonal();
        let tri_count = t
            .faces()
            .iter()
            .enumerate()
            .filter(|(i, f)| *i != t.outer_face() && f.edge_count() == 3)
            .count();
        assert_eq!(tri_count, 2);
        assert!(!t.is_bipartite());
    }

    #[test]
    fn heavy_hex_cell_properties() {
        let h = Topology::heavy_hex_cell();
        assert_eq!(h.qubit_count(), 13);
        assert_eq!(h.coupling_count(), 14);
        assert!(h.is_bipartite());
        // Two hexagonal interior faces + the outer face.
        assert_eq!(h.faces().len(), 3);
        assert_eq!(h.qubit_count() + h.faces().len(), h.coupling_count() + 2);
        assert_eq!(h.max_degree(), 3);
        // The middle-column junctions are the degree-3 qubits.
        assert_eq!(h.degree(2), 3);
        assert_eq!(h.degree(10), 3);
    }

    #[test]
    fn heavy_hex_lattice_properties() {
        let h = Topology::heavy_hex(3);
        // 3 rows × 5 qubits + 3 bridges (gap 0 at x = 0, 4; gap 1 at x = 2).
        assert_eq!(h.qubit_count(), 18);
        assert_eq!(h.coupling_count(), 18);
        assert!(h.is_bipartite());
        assert_eq!(h.max_degree(), 3);
        // Euler: one hexagonal interior cell + the outer face.
        assert_eq!(h.faces().len(), 2);
        assert_eq!(h.qubit_count() + h.faces().len(), h.coupling_count() + 2);
    }

    #[test]
    fn heavy_hex_reaches_1000_qubits() {
        let h = Topology::heavy_hex(21);
        assert_eq!(h.qubit_count(), 1071);
        assert!(h.is_bipartite());
        assert_eq!(h.max_degree(), 3);
        // Spot-check the on-demand distance query against the geometry:
        // opposite corners of a 41-wide, 21-row lattice.
        let d = h.distances_from(0);
        assert_eq!(d[40], 40);
        assert!(d.iter().all(|&x| x != usize::MAX), "lattice is connected");
    }

    #[test]
    fn distances_from_matches_matrix() {
        for t in [
            Topology::grid(3, 4),
            Topology::heavy_hex(2),
            Topology::ibmq_vigo(),
        ] {
            let m = t.distance_matrix();
            for (q, row) in m.iter().enumerate() {
                assert_eq!(t.distances_from(q), *row, "row {q} of {}", t.name());
            }
        }
    }

    #[test]
    fn vigo_is_a_tree() {
        let v = Topology::ibmq_vigo();
        assert_eq!(v.faces().len(), 1);
        assert!(v.is_bipartite());
        assert_eq!(v.coupling_between(1, 3), Some(2));
        assert_eq!(v.coupling_between(0, 4), None);
    }

    #[test]
    fn distance_matrix_grid() {
        let g = Topology::grid(2, 2);
        let d = g.distance_matrix();
        assert_eq!(d[0][3], 2);
        assert_eq!(d[0][1], 1);
        assert_eq!(d[0][0], 0);
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(
            Topology::new("bad", vec![(0.0, 0.0)], vec![(0, 1)]).err(),
            Some(TopologyError::QubitOutOfRange { qubit: 1 })
        );
        assert_eq!(
            Topology::new("bad", vec![(0.0, 0.0), (1.0, 0.0)], vec![(0, 0)]).err(),
            Some(TopologyError::SelfCoupling { qubit: 0 })
        );
        assert_eq!(
            Topology::new("bad", vec![(0.0, 0.0), (1.0, 0.0)], vec![(0, 1), (1, 0)]).err(),
            Some(TopologyError::DuplicateCoupling { u: 1, v: 0 })
        );
        assert_eq!(
            Topology::new(
                "bad",
                vec![(0.0, 0.0), (1.0, 0.0), (5.0, 5.0)],
                vec![(0, 1)]
            )
            .err(),
            Some(TopologyError::Disconnected)
        );
    }

    #[test]
    fn each_coupling_borders_two_face_slots() {
        let g = Topology::grid(3, 3);
        let mut incidence = vec![0usize; g.coupling_count()];
        for f in g.faces().iter() {
            for e in f.edges() {
                incidence[e] += 1;
            }
        }
        assert!(incidence.iter().all(|&c| c == 2));
    }
}
