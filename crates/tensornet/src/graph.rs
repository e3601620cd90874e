//! The tensor-network graph `G = (V, E)`.
//!
//! Vertices are tensors, edges are shared dimensions. For qubit circuits
//! every edge has weight 2 and connects at most two tensors; edges incident
//! to a single tensor are the network's open (output) indices.

use crate::sets;
use qtn_circuit::network::NetworkBuild;
use qtn_tensor::{IndexId, IndexSet};

/// An empty end of an edge in [`TensorNetwork`]'s endpoint table.
const NO_VERTEX: u32 = u32::MAX;

/// A tensor network as an undirected graph with size-2 edges.
///
/// Vertices are identified by dense `usize` ids. Contracting two vertices
/// removes them and appends a new vertex (SSA style), so ids of intermediate
/// tensors never collide with original ones — contraction trees reference
/// original vertex ids only for their leaves.
///
/// The graph is three flat arrays, so a clone is three copies: every
/// vertex's sorted index list back to back in one arena, each vertex's
/// range in it, and each edge's two endpoints. A contraction appends its
/// result's list to the arena and rewrites the endpoints of the edges it
/// touches.
#[derive(Debug, Clone)]
pub struct TensorNetwork {
    /// Every vertex's sorted index list, back to back in vertex order. A
    /// contracted vertex's list stays in place, unreferenced.
    arena: Vec<IndexId>,
    /// Per vertex slot, its list's `(start, end)` in `arena`; `None` once
    /// contracted away.
    spans: Vec<Option<(u32, u32)>>,
    /// Per edge, its active incident vertices, occupied ends first and
    /// [`NO_VERTEX`] for an empty end: an edge joins at most two tensors.
    ends: Vec<[u32; 2]>,
    /// Number of currently active (un-contracted) vertices.
    active: usize,
}

/// Record vertex `v` as an end of an edge.
///
/// # Panics
/// Panics if the edge already joins two vertices.
fn attach(ends: &mut [u32; 2], v: u32) {
    match ends {
        [NO_VERTEX, _] => ends[0] = v,
        [_, NO_VERTEX] => ends[1] = v,
        _ => panic!("an edge joins at most two tensors"),
    }
}

/// Remove vertex `v` from an edge's ends, keeping the occupied end first.
fn detach(ends: &mut [u32; 2], v: u32) {
    if ends[0] == v {
        *ends = [ends[1], NO_VERTEX];
    } else if ends[1] == v {
        ends[1] = NO_VERTEX;
    }
}

impl TensorNetwork {
    /// Build a network from per-tensor index sets.
    ///
    /// # Panics
    /// Panics if an index appears in more than two tensors.
    pub fn new(tensors: &[IndexSet]) -> Self {
        Self::from_lists(tensors.iter().map(IndexSet::axes))
    }

    /// Build from a circuit conversion result (structure only; the tensor
    /// data stays with the caller).
    pub fn from_build(build: &NetworkBuild) -> Self {
        Self::from_lists(build.nodes.iter().map(|n| n.data.indices().axes()))
    }

    /// Build from each vertex's index list, in vertex order.
    fn from_lists<'a>(lists: impl Iterator<Item = &'a [IndexId]>) -> Self {
        let mut arena = Vec::new();
        let mut spans = Vec::new();
        for list in lists {
            let start = arena.len();
            arena.extend_from_slice(list);
            arena[start..].sort_unstable();
            spans.push(Some((span_bound(start), span_bound(arena.len()))));
        }
        let num_indices = arena.iter().max().map_or(0, |&m| m as usize + 1);
        let mut ends = vec![[NO_VERTEX; 2]; num_indices];
        for (v, span) in spans.iter().enumerate() {
            let (start, end) = span.expect("every vertex starts active");
            for &e in &arena[start as usize..end as usize] {
                attach(&mut ends[e as usize], vertex_id(v));
            }
        }
        let active = spans.len();
        Self { arena, spans, ends, active }
    }

    /// Total number of vertex slots ever created (original + intermediates).
    pub fn num_slots(&self) -> usize {
        self.spans.len()
    }

    /// Number of vertices not yet contracted away.
    pub fn num_active(&self) -> usize {
        self.active
    }

    /// Ids of all active vertices.
    pub fn active_vertices(&self) -> Vec<usize> {
        (0..self.spans.len()).filter(|&v| self.spans[v].is_some()).collect()
    }

    /// Whether a vertex is still active.
    pub fn is_active(&self, v: usize) -> bool {
        self.spans.get(v).is_some_and(Option::is_some)
    }

    /// The sorted index list of a vertex.
    ///
    /// # Panics
    /// Panics if the vertex has been contracted away.
    pub fn indices(&self, v: usize) -> &[IndexId] {
        let (start, end) = self.spans[v].expect("vertex has been contracted away");
        &self.arena[start as usize..end as usize]
    }

    /// Rank of a vertex's tensor.
    pub fn rank(&self, v: usize) -> usize {
        self.indices(v).len()
    }

    /// Edges incident to exactly one tensor (open/output indices).
    pub fn open_indices(&self) -> Vec<IndexId> {
        (0..self.ends.len() as IndexId)
            .filter(|&e| matches!(self.ends[e as usize], [v, NO_VERTEX] if v != NO_VERTEX))
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
    /// endpoint table instead of merging the two index sets. Written into
    /// `out` (cleared first).
    pub(crate) fn neighbor_overlaps(&self, v: usize, out: &mut Vec<(usize, usize)>) {
        out.clear();
        for &e in self.indices(v) {
            for &u in &self.ends[e as usize] {
                let u = u as usize;
                if u != v && u != NO_VERTEX as usize {
                    match out.iter_mut().find(|(w, _)| *w == u) {
                        Some((_, shared)) => *shared += 1,
                        None => out.push((u, 1)),
                    }
                }
            }
        }
    }

    /// Contract vertices `a` and `b`, returning the id of the new vertex,
    /// whose index list is the symmetric difference of theirs. Allocates
    /// only when the arena or the slot table outgrows its capacity.
    ///
    /// # Panics
    /// Panics if either vertex is inactive or if `a == b`.
    pub fn contract(&mut self, a: usize, b: usize) -> usize {
        assert_ne!(a, b, "cannot contract a vertex with itself");
        let new_id = self.spans.len();
        let (a_start, a_end) = self.spans[a].take().expect("vertex already contracted");
        let (b_start, b_end) = self.spans[b].take().expect("vertex already contracted");
        let (a_range, b_range) =
            (a_start as usize..a_end as usize, b_start as usize..b_end as usize);
        // Detach a and b from their edges.
        for (v, range) in [(a, a_range.clone()), (b, b_range.clone())] {
            for &e in &self.arena[range] {
                detach(&mut self.ends[e as usize], vertex_id(v));
            }
        }
        // Append a Δ b to the arena and attach the new vertex to it.
        let start = self.arena.len();
        self.arena.resize(start + a_range.len() + b_range.len(), 0);
        let (lists, out) = self.arena.split_at_mut(start);
        let len = sets::sym_diff_to(&lists[a_range], &lists[b_range], out);
        self.arena.truncate(start + len);
        for &e in &self.arena[start..] {
            attach(&mut self.ends[e as usize], vertex_id(new_id));
        }
        self.spans.push(Some((span_bound(start), span_bound(start + len))));
        self.active -= 1;
        new_id
    }
}

/// A vertex id as the endpoint table stores it.
fn vertex_id(v: usize) -> u32 {
    u32::try_from(v).ok().filter(|&v| v != NO_VERTEX).expect("too many vertices")
}

/// An arena offset as a span stores it.
fn span_bound(offset: usize) -> u32 {
    u32::try_from(offset).expect("index arena too large")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::{greedy_path, PathConfig};
    use crate::simplify::simplify_network;
    use qtn_circuit::{circuit_to_network, OutputSpec, RqcConfig};

    /// The graph as it was stored before the flat arrays: one list per
    /// vertex and one per edge. The oracle for the new storage.
    #[derive(Clone)]
    struct ListNetwork {
        vertices: Vec<Option<Vec<IndexId>>>,
        edge_vertices: Vec<Vec<usize>>,
    }

    impl ListNetwork {
        fn new(tensors: &[IndexSet]) -> Self {
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
            Self { vertices, edge_vertices }
        }

        fn active_vertices(&self) -> Vec<usize> {
            (0..self.vertices.len()).filter(|&v| self.vertices[v].is_some()).collect()
        }

        fn indices(&self, v: usize) -> &[IndexId] {
            self.vertices[v].as_deref().expect("vertex has been contracted away")
        }

        fn open_indices(&self) -> Vec<IndexId> {
            (0..self.edge_vertices.len() as IndexId)
                .filter(|&e| self.edge_vertices[e as usize].len() == 1)
                .collect()
        }

        fn neighbors(&self, v: usize) -> Vec<usize> {
            let mut out: Vec<usize> = Vec::new();
            for &e in self.indices(v) {
                for &u in &self.edge_vertices[e as usize] {
                    if u != v && self.vertices[u].is_some() && !out.contains(&u) {
                        out.push(u);
                    }
                }
            }
            out
        }

        fn contract(&mut self, a: usize, b: usize) -> usize {
            let out = sets::sym_diff(self.indices(a), self.indices(b));
            let new_id = self.vertices.len();
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
            new_id
        }
    }

    /// Every vertex slot, active or not, reads the same in both graphs.
    fn assert_same(g: &TensorNetwork, old: &ListNetwork, what: &str) {
        assert_eq!(g.num_slots(), old.vertices.len(), "{what}");
        assert_eq!(g.active_vertices(), old.active_vertices(), "{what}");
        assert_eq!(g.num_active(), old.active_vertices().len(), "{what}");
        assert_eq!(g.open_indices(), old.open_indices(), "{what}");
        for v in 0..g.num_slots() {
            assert_eq!(g.is_active(v), old.vertices[v].is_some(), "{what}: vertex {v}");
            if g.is_active(v) {
                assert_eq!(g.indices(v), old.indices(v), "{what}: vertex {v}");
                assert_eq!(g.neighbors(v), old.neighbors(v), "{what}: vertex {v}");
            }
        }
    }

    #[test]
    fn flat_storage_replays_paths_like_per_vertex_lists() {
        let mut replayed = 0;
        for (rows, cols, cycles, seed) in
            [(3, 3, 8, 1), (3, 4, 10, 2), (4, 4, 8, 3), (4, 5, 10, 4), (5, 5, 8, 5), (3, 5, 12, 6)]
        {
            let c = RqcConfig::small(rows, cols, cycles, seed).build();
            let n = c.num_qubits();
            for output in [
                OutputSpec::Amplitude(vec![0; n]),
                OutputSpec::Open { fixed: vec![0; n], open: vec![0, n - 1] },
            ] {
                let build = circuit_to_network(&c, &output);
                let sets: Vec<IndexSet> =
                    build.nodes.iter().map(|node| node.data.indices().clone()).collect();
                let g = TensorNetwork::from_build(&build);
                let old = ListNetwork::new(&sets);
                assert_same(&g, &old, "fresh");
                let mut simplified = g.clone();
                let mut pairs = simplify_network(&mut simplified);
                let path = PathConfig { temperature: 0.5, seed };
                pairs.extend(greedy_path(&mut simplified.clone(), &path));
                let (mut g, mut old) = (g, old);
                for (k, &(a, b)) in pairs.iter().enumerate() {
                    assert_eq!(g.contract(a, b), old.contract(a, b));
                    // Every slot after each of the first steps, then a sample.
                    if k < 8 || k % 16 == 0 || k + 1 == pairs.len() {
                        assert_same(&g, &old, &format!("{rows}x{cols}x{cycles} step {k}"));
                    }
                }
                assert_eq!(g.num_active(), 1);
                replayed += 1;
            }
        }
        assert!(replayed >= 10);
    }

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
        assert_eq!(g.ends.len(), 3);
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
        for (a, b, want) in [(1, 2, vec![0, 2]), (0, 1, vec![1]), (0, 3, vec![0, 2])] {
            // The last pair is disconnected: an outer product keeps everything.
            let mut g = chain4();
            let v = g.contract(a, b);
            assert_eq!(g.indices(v), want);
        }
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
    #[should_panic(expected = "at most two tensors")]
    fn hyperedges_are_rejected() {
        TensorNetwork::new(&[
            IndexSet::new(vec![0]),
            IndexSet::new(vec![0]),
            IndexSet::new(vec![0]),
        ]);
    }

    #[test]
    fn from_build_matches_nodes() {
        use qtn_circuit::{Circuit, Gate};
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
}
