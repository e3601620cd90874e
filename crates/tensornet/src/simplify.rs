//! Network simplification (pre-processing).
//!
//! Following cotengra/quimb's pre-process step referenced in §2.1.2, rank-1
//! and rank-2 tensors are absorbed into a neighbouring tensor before path
//! search: initial states, projections and single-qubit gates never increase
//! the rank of the tensor they are merged into, so absorbing them shrinks
//! the network by an order of magnitude without affecting the achievable
//! contraction complexity.
//!
//! The simplification is expressed as a prefix of the contraction path (a
//! list of vertex pairs in the network's SSA ids), so the planner can search
//! on the simplified graph while the executor replays the exact same merges
//! on the numeric tensors.

use crate::graph::TensorNetwork;

/// Absorb rank-1 and rank-2 tensors into neighbours, mutating `network` and
/// returning the contraction pairs that were applied (SSA vertex ids).
///
/// A tensor is absorbed only if the merge does not increase its neighbour's
/// rank. The procedure iterates to a fixed point, so chains of single-qubit
/// gates collapse completely.
pub fn simplify_network(network: &mut TensorNetwork) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    // Scratch: one vertex's neighbours with their shared-edge counts.
    let mut adjacent = Vec::new();
    loop {
        let mut progress = false;
        let verts = network.active_vertices();
        for v in verts {
            if !network.is_active(v) {
                continue;
            }
            let rank = network.rank(v);
            if rank > 2 {
                continue;
            }
            // Pick the neighbour for which the merge gives the smallest
            // resulting rank, `|s_v Δ s_u| = |s_v| + |s_u| - 2 |s_v ∩ s_u|`;
            // require that it does not exceed the neighbour's current rank
            // (true whenever at least one index is shared and rank(v) <= 2
            // shares all-but-one). Ties keep the first-seen neighbour.
            network.neighbor_overlaps(v, &mut adjacent);
            let mut best: Option<(usize, usize)> = None;
            for &(u, shared) in &adjacent {
                let result_rank = rank + network.rank(u) - 2 * shared;
                if result_rank <= network.rank(u)
                    && best.map(|(_, r)| result_rank < r).unwrap_or(true)
                {
                    best = Some((u, result_rank));
                }
            }
            if let Some((u, _)) = best {
                network.contract(v, u);
                pairs.push((v, u));
                progress = true;
            }
        }
        if !progress {
            break;
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtn_circuit::{circuit_to_network, sycamore_rqc, Circuit, Gate, OutputSpec, RqcConfig};
    use qtn_tensor::IndexSet;

    #[test]
    fn absorbs_rank1_chain() {
        // T0[0] - T1[0,1] - T2[1]: everything should collapse to a scalar.
        let mut g = TensorNetwork::new(&[
            IndexSet::new(vec![0]),
            IndexSet::new(vec![0, 1]),
            IndexSet::new(vec![1]),
        ]);
        let pairs = simplify_network(&mut g);
        assert_eq!(g.num_active(), 1);
        assert_eq!(pairs.len(), 2);
        let last = g.active_vertices()[0];
        assert_eq!(g.rank(last), 0);
    }

    #[test]
    fn keeps_high_rank_tensors() {
        // Two rank-3 tensors sharing one edge must not be merged.
        let mut g =
            TensorNetwork::new(&[IndexSet::new(vec![0, 1, 2]), IndexSet::new(vec![2, 3, 4])]);
        let pairs = simplify_network(&mut g);
        assert!(pairs.is_empty());
        assert_eq!(g.num_active(), 2);
    }

    #[test]
    fn circuit_network_collapses_single_qubit_gates() {
        let mut c = Circuit::new(3);
        c.push1(Gate::H, 0)
            .push1(Gate::T, 0)
            .push1(Gate::SqrtX, 1)
            .push2(Gate::Cz, 0, 1)
            .push1(Gate::SqrtY, 2)
            .push2(Gate::sycamore_fsim(), 1, 2)
            .push1(Gate::H, 0);
        let b = circuit_to_network(&c, &OutputSpec::Amplitude(vec![0, 0, 0]));
        let mut g = TensorNetwork::from_build(&b);
        let before = g.num_active();
        simplify_network(&mut g);
        let after = g.num_active();
        assert!(after < before / 2, "simplification too weak: {before} -> {after}");
        // Remaining tensors come from two-qubit gates only (possibly merged).
        assert!(g.active_vertices().into_iter().all(|v| g.rank(v) <= 4));
    }

    #[test]
    fn sycamore_m10_simplifies_to_two_qubit_backbone() {
        let c = sycamore_rqc(10, 1);
        let b = circuit_to_network(&c, &OutputSpec::Amplitude(vec![0; 53]));
        let mut g = TensorNetwork::from_build(&b);
        let before = g.num_active();
        simplify_network(&mut g);
        let after = g.num_active();
        // inits + projections + ~11*53 single-qubit gates all absorbed.
        assert!(after <= c.two_qubit_gate_count() + 5, "{before} -> {after}");
        assert!(after > 50);
    }

    #[test]
    fn replaying_pairs_reproduces_simplified_graph() {
        let cfg = RqcConfig::small(3, 3, 6, 2);
        let c = cfg.build();
        let b = circuit_to_network(&c, &OutputSpec::Amplitude(vec![0; 9]));
        let original = TensorNetwork::from_build(&b);
        let mut g = original.clone();
        let pairs = simplify_network(&mut g);
        // Replay on a fresh copy.
        let mut replay = original.clone();
        for &(a, v) in &pairs {
            replay.contract(a, v);
        }
        assert_eq!(replay.num_active(), g.num_active());
        let mut a: Vec<_> = g.active_vertices().iter().map(|&v| g.indices(v).to_vec()).collect();
        let mut b2: Vec<_> =
            replay.active_vertices().iter().map(|&v| replay.indices(v).to_vec()).collect();
        a.sort();
        b2.sort();
        assert_eq!(a, b2);
    }
}
