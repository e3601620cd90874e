//! Tensor-network graphs, contraction trees and contraction-path search.
//!
//! This crate implements the structural layer of the simulator, mirroring the
//! notation of §2.1.1 of the paper: a tensor network is an undirected graph
//! `G = (V, E)` whose vertices are tensors and whose edges are shared
//! dimensions (all of weight 2 for qubit networks). A contraction order is
//! represented as a rooted binary [`ContractionTree`]; its time complexity is
//! Eq. (1) of the paper and its space cost is the largest intermediate
//! tensor. Randomised greedy path search (standing in for cotengra's
//! hyper-optimised search) produces contraction trees, and the stem
//! extractor identifies the computationally intensive backbone on which the
//! slicing machinery of `qtn-slicing` operates.

#![warn(missing_docs)]

pub mod classify;
pub mod cost;
pub mod graph;
pub mod lifetime;
pub mod path;
pub mod refine;
mod sets;
pub mod simplify;
pub mod stem;
pub mod tree;

pub use classify::{
    classify_nodes, dependency_masks, ordinal_words, DependencyMasks, NodeClass, NodeClassification,
};
pub use cost::{log2_add, log2_sum, LogCost};
pub use graph::TensorNetwork;
pub use lifetime::{analyze_memory, BufferInterval, MemoryPlan, PhaseMemoryPlan};
pub use path::{greedy_path, random_greedy_paths, PathConfig};
pub use refine::{
    defer_projector_joins, refine_path, BatchRefineReport, RefineObjective, RefineReport,
};
pub use simplify::simplify_network;
pub use stem::{extract_stem, Stem, StemStep};
pub use tree::{ContractionTree, TreeNode};
