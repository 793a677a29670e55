//! # bigraph — weighted bipartite graph substrate
//!
//! This crate provides the graph infrastructure that the significant
//! (α,β)-community search library ([`scs`](https://docs.rs/scs)) is built
//! on: a compact CSR representation of undirected, edge-weighted bipartite
//! graphs, plus the supporting machinery a reproduction of Wang et al.
//! (ICDE 2021) needs:
//!
//! * [`graph::BipartiteGraph`] — immutable CSR storage with per-edge ids
//!   so algorithms can keep weights and liveness flags in flat arrays;
//! * [`builder::GraphBuilder`] — validated construction with duplicate
//!   handling;
//! * [`edgelist`] — KONECT-style TSV reading/writing;
//! * [`unionfind::UnionFind`] / [`unionfind::ComponentTracker`] — the
//!   union-find structure the expansion algorithm (Algorithm 5 in the
//!   paper) uses, extended with the per-component statistics needed for
//!   the Lemma 7/8 pruning rules;
//! * [`subgraph`] — edge-induced subgraphs and connected components;
//! * [`generators`] — synthetic bipartite graph generators (uniform,
//!   Chung–Lu power-law, planted communities, bicliques);
//! * [`weights`] — the four weight models evaluated in the paper's
//!   Table III (all-equal, uniform, skew-normal, random walk with restart);
//! * [`metrics`] — bipartite density, Jaccard similarity and rating
//!   statistics used by the effectiveness experiments;
//! * [`workspace`] — reusable, epoch-stamped scratch memory
//!   ([`workspace::Workspace`]) that keeps the whole query pipeline
//!   allocation-free after warm-up.
//!
//! Vertices live in a single `u32` id space: upper vertices first
//! (`0..n_upper`), then lower vertices. [`Vertex`] is a transparent
//! newtype; use [`BipartiteGraph::upper`]/[`BipartiteGraph::lower`] or the
//! [`Side`] accessors to move between the typed view and raw indices.

// No unsafe in this crate — and none may creep in.
#![forbid(unsafe_code)]

pub mod builder;
pub mod edgelist;
pub mod generators;
pub mod graph;
pub mod metrics;
pub mod projection;
pub mod subgraph;
pub mod unionfind;
pub mod weights;
pub mod workspace;

pub use builder::{BuildError, DuplicatePolicy, GraphBuilder};
pub use graph::{BipartiteGraph, EdgeId, Side, Vertex};
pub use subgraph::Subgraph;
pub use unionfind::UnionFind;
pub use workspace::{EdgeMap, EdgeSet, VertexMap, VertexSet, Workspace};

/// Edge weight type used throughout the library.
///
/// Weights are compared with [`f64::total_cmp`]; the algorithms never rely
/// on arithmetic beyond comparison, so any totally ordered value that fits
/// an `f64` (ratings, counts, RWR relevance scores) works.
pub type Weight = f64;
