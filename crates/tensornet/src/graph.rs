//! The tensor-network graph `G = (V, E)`.
//!
//! Vertices are tensors, edges are shared dimensions. For qubit circuits
//! every edge has weight 2 and connects at most two tensors; edges incident
//! to a single tensor are the network's open (output) indices.

use crate::sets;
use qtn_circuit::network::NetworkBuild;
use qtn_tensor::{IndexId, IndexSet};

/// A tensor network as an undirected graph with size-2 edges.
///
/// Vertices are identified by dense `usize` ids. Contracting two vertices
/// removes them and appends a new vertex (SSA style), so ids of intermediate
/// tensors never collide with original ones — contraction trees reference
/// original vertex ids only for their leaves.
#[derive(Debug, Clone)]
pub struct TensorNetwork {
    /// Per-vertex sorted index lists; `None` once contracted away.
    vertices: Vec<Option<Vec<IndexId>>>,
    /// Per-edge incident vertex lists (at most 2 entries while the network is
    /// a simple tensor network).
    edge_vertices: Vec<Vec<usize>>,
    /// Number of currently active (un-contracted) vertices.
    active: usize,
}

impl TensorNetwork {
    /// Build a network from per-tensor index sets.
    pub fn new(tensors: &[IndexSet]) -> Self {
        let num_indices =
            tensors.iter().flat_map(|t| t.iter()).max().map(|m| m as usize + 1).unwrap_or(0);
        let mut edge_vertices = vec![Vec::new(); num_indices];
        let mut vertices = Vec::with_capacity(tensors.len());
        for (v, t) in tensors.iter().enumerate() {
            let mut idx: Vec<IndexId> = t.iter().collect();
            idx.sort_unstable();
            for &e in &idx {
                edge_vertices[e as usize].push(v);
            }
            vertices.push(Some(idx));
        }
        let active = vertices.len();
        Self { vertices, edge_vertices, active }
    }

    /// Build from a circuit conversion result (structure only; the tensor
    /// data stays with the caller).
    pub fn from_build(build: &NetworkBuild) -> Self {
        let sets: Vec<IndexSet> = build.nodes.iter().map(|n| n.data.indices().clone()).collect();
        Self::new(&sets)
    }

    /// Total number of vertex slots ever created (original + intermediates).
    pub fn num_slots(&self) -> usize {
        self.vertices.len()
    }

    /// Number of vertices not yet contracted away.
    pub fn num_active(&self) -> usize {
        self.active
    }

    /// Ids of all active vertices.
    pub fn active_vertices(&self) -> Vec<usize> {
        (0..self.vertices.len()).filter(|&v| self.vertices[v].is_some()).collect()
    }

    /// Whether a vertex is still active.
    pub fn is_active(&self, v: usize) -> bool {
        self.vertices.get(v).map(|x| x.is_some()).unwrap_or(false)
    }

    /// The sorted index list of a vertex.
    ///
    /// # Panics
    /// Panics if the vertex has been contracted away.
    pub fn indices(&self, v: usize) -> &[IndexId] {
        self.vertices[v].as_deref().expect("vertex has been contracted away")
    }

    /// Rank of a vertex's tensor.
    pub fn rank(&self, v: usize) -> usize {
        self.indices(v).len()
    }

    /// Edges incident to exactly one tensor (open/output indices).
    pub fn open_indices(&self) -> Vec<IndexId> {
        (0..self.edge_vertices.len() as IndexId)
            .filter(|&e| self.edge_vertices[e as usize].len() == 1)
            .collect()
    }

    /// Active vertices adjacent to `v` (sharing at least one edge).
    pub fn neighbors(&self, v: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.neighbor_overlaps(v, &mut out);
        out.into_iter().map(|(u, _)| u).collect()
    }

    /// Active vertices adjacent to `v`, in first-seen order, each with the
    /// number of edges it shares with `v` — `|s_v ∩ s_u|`, read off the
    /// edge lists instead of merging the two index sets. Written into
    /// `out` (cleared first).
    pub(crate) fn neighbor_overlaps(&self, v: usize, out: &mut Vec<(usize, usize)>) {
        out.clear();
        for &e in self.indices(v) {
            for &u in &self.edge_vertices[e as usize] {
                if u != v && self.is_active(u) {
                    match out.iter_mut().find(|(w, _)| *w == u) {
                        Some((_, shared)) => *shared += 1,
                        None => out.push((u, 1)),
                    }
                }
            }
        }
    }

    /// The index list the contraction of `a` and `b` would produce
    /// (symmetric difference of their index sets), without modifying the
    /// network.
    pub fn contraction_indices(&self, a: usize, b: usize) -> Vec<IndexId> {
        sets::sym_diff(self.indices(a), self.indices(b))
    }

    /// Contract vertices `a` and `b`, returning the id of the new vertex.
    ///
    /// # Panics
    /// Panics if either vertex is inactive or if `a == b`.
    pub fn contract(&mut self, a: usize, b: usize) -> usize {
        assert_ne!(a, b, "cannot contract a vertex with itself");
        let out = self.contraction_indices(a, b);
        let new_id = self.vertices.len();
        // Detach a and b from their edges, attach the new vertex to the
        // surviving (un-contracted) edges.
        for &v in &[a, b] {
            let idx = self.vertices[v].take().expect("vertex already contracted");
            for e in idx {
                self.edge_vertices[e as usize].retain(|&x| x != v);
            }
        }
        for &e in &out {
            self.edge_vertices[e as usize].push(new_id);
        }
        self.vertices.push(Some(out));
        self.active -= 1;
        new_id
    }

    /// Largest tensor rank among active vertices.
    pub fn max_rank(&self) -> usize {
        self.active_vertices().iter().map(|&v| self.rank(v)).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain4() -> TensorNetwork {
        // T0[0] - T1[0,1] - T2[1,2] - T3[2]
        TensorNetwork::new(&[
            IndexSet::new(vec![0]),
            IndexSet::new(vec![0, 1]),
            IndexSet::new(vec![1, 2]),
            IndexSet::new(vec![2]),
        ])
    }

    #[test]
    fn construction_counts() {
        let g = chain4();
        assert_eq!(g.num_active(), 4);
        assert_eq!(g.edge_vertices.len(), 3);
        assert_eq!(g.rank(1), 2);
        assert!(g.open_indices().is_empty());
    }

    #[test]
    fn neighbors_and_shared() {
        let g = chain4();
        assert_eq!(g.neighbors(1), vec![0, 2]);
        // Vertices are neighbours exactly when they share an index.
        assert!(!g.neighbors(0).contains(&3));
    }

    #[test]
    fn contraction_indices_symmetric_difference() {
        let g = chain4();
        assert_eq!(g.contraction_indices(1, 2), vec![0, 2]);
        assert_eq!(g.contraction_indices(0, 1), vec![1]);
        // Disconnected pair: outer product keeps everything.
        assert_eq!(g.contraction_indices(0, 3), vec![0, 2]);
    }

    #[test]
    fn contract_updates_graph() {
        let mut g = chain4();
        let v = g.contract(1, 2);
        assert_eq!(g.num_active(), 3);
        assert!(!g.is_active(1));
        assert!(!g.is_active(2));
        assert_eq!(g.indices(v), &[0, 2]);
        assert_eq!(g.neighbors(v), vec![0, 3]);
        // Contract everything down to a scalar.
        let v2 = g.contract(v, 0);
        let v3 = g.contract(v2, 3);
        assert_eq!(g.num_active(), 1);
        assert_eq!(g.rank(v3), 0);
    }

    #[test]
    fn open_indices_detected() {
        let g = TensorNetwork::new(&[IndexSet::new(vec![0, 1]), IndexSet::new(vec![1, 2])]);
        assert_eq!(g.open_indices(), vec![0, 2]);
    }

    #[test]
    fn from_build_matches_nodes() {
        use qtn_circuit::{circuit_to_network, Circuit, Gate, OutputSpec};
        let mut c = Circuit::new(2);
        c.push1(Gate::H, 0).push2(Gate::Cz, 0, 1);
        let b = circuit_to_network(&c, &OutputSpec::Amplitude(vec![0, 0]));
        let g = TensorNetwork::from_build(&b);
        assert_eq!(g.num_active(), b.nodes.len());
        assert!(g.open_indices().is_empty());
    }

    #[test]
    #[should_panic(expected = "contracted away")]
    fn using_contracted_vertex_panics() {
        let mut g = chain4();
        g.contract(0, 1);
        g.indices(0);
    }

    #[test]
    fn neighbor_overlaps_count_shared_edges() {
        use qtn_circuit::{circuit_to_network, OutputSpec, RqcConfig};
        let c = RqcConfig::small(3, 3, 6, 2).build();
        let mut g = TensorNetwork::from_build(&circuit_to_network(
            &c,
            &OutputSpec::Amplitude(vec![0; c.num_qubits()]),
        ));
        let mut overlaps = Vec::new();
        // Check the fresh network, then again after contracting a few
        // adjacent pairs (higher-rank intermediates, retired vertices).
        for _ in 0..3 {
            for v in g.active_vertices() {
                g.neighbor_overlaps(v, &mut overlaps);
                let naive: Vec<(usize, usize)> = g
                    .active_vertices()
                    .into_iter()
                    .filter(|&u| u != v)
                    .map(|u| (u, g.indices(u).iter().filter(|e| g.indices(v).contains(e)).count()))
                    .filter(|&(_, shared)| shared > 0)
                    .collect();
                let mut sorted = overlaps.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, naive, "vertex {v}");
            }
            for _ in 0..5 {
                let v = g.active_vertices()[0];
                let u = g.neighbors(v)[0];
                g.contract(v, u);
            }
        }
    }

    #[test]
    fn max_rank_tracks_intermediates() {
        let mut g = chain4();
        assert_eq!(g.max_rank(), 2);
        let v = g.contract(0, 3); // outer product of the two rank-1 ends
        assert_eq!(g.rank(v), 2);
        assert_eq!(g.max_rank(), 2);
    }
}
