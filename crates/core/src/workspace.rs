//! Per-thread reusable scratch for the full two-step query pipeline.
//!
//! A [`QueryWorkspace`] bundles everything a significant-community query
//! needs besides the graph and the index: the graph-sized epoch-stamped
//! buffers of [`bigraph::workspace::Workspace`] (used by index retrieval,
//! the online baselines and threshold-profile builds), the edge bitset
//! [`crate::Answer::edges_into`] emits through, and the community-sized
//! local scratch of the second-step kernels (the re-indexed
//! [`LocalGraph`], liveness sets, degree arrays, sort orders, the
//! expansion heap and component tracker). Everything
//! grows monotonically to the largest query served, so a warm workspace
//! answers an unbounded query stream with zero further heap allocations.
//!
//! One workspace serves one thread: the serving layer gives each worker
//! its own, reused across queries and across index epoch swaps.
//!
//! # Example
//!
//! ```
//! use bigraph::builder::figure2_example;
//! use scs::{Algorithm, CommunitySearch, QueryWorkspace};
//!
//! let search = CommunitySearch::new(figure2_example());
//! let mut ws = QueryWorkspace::new();
//! let q = search.graph().upper(2);
//! let mut out = Vec::new();
//! // Same answers as `significant_community`, no per-query allocation.
//! search.significant_community_into(q, 2, 2, Algorithm::Auto, &mut ws, &mut out);
//! assert_eq!(out, search.significant_community(q, 2, 2, Algorithm::Auto).edges());
//! assert!(ws.heap_bytes() > 0);
//! ```

use crate::local::LocalGraph;
use crate::query::expand::HeapEdge;
use crate::query::profile::EdgeBits;
use bigraph::unionfind::ComponentTracker;
use bigraph::workspace::{EdgeSet, VertexSet, Workspace};
use bigraph::EdgeId;

/// Community-sized scratch of the second-step kernels. Field roles are
/// by convention, like [`Workspace`]'s; every kernel documents what it
/// clobbers.
#[derive(Debug, Default)]
pub(crate) struct LocalScratch {
    /// Live local edges of the kernel in progress (peel liveness,
    /// expansion's inserted set, …).
    pub alive: EdgeSet,
    /// Secondary local edge set (expansion's `G*` while `alive` backs a
    /// validation peel).
    pub added: EdgeSet,
    /// Local BFS/DFS discovery marks.
    pub visited: VertexSet,
    /// Live local degrees.
    pub deg: Vec<u32>,
    /// Weight-sorted local edge order.
    pub order: Vec<u32>,
    /// Candidate edge subsets (binary-search probes, expansion's `C*`).
    pub subset: Vec<u32>,
    /// Edges removed in the current peel iteration (for rollback).
    pub removed: Vec<u32>,
    /// Cascade worklist of local vertex ids.
    pub cascade: Vec<u32>,
    /// Traversal stack of local vertex ids.
    pub stack: Vec<u32>,
    /// Local result edges.
    pub out: Vec<u32>,
    /// Distinct weights (binary search over thresholds).
    pub weights: Vec<f64>,
    /// Backing store of the expansion max-heap.
    pub heap: Vec<HeapEdge>,
    /// Union-find component tracker for the expansion.
    pub tracker: ComponentTracker,
}

impl LocalScratch {
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.alive.heap_bytes()
            + self.added.heap_bytes()
            + self.visited.heap_bytes()
            + self.deg.capacity() * size_of::<u32>()
            + self.order.capacity() * size_of::<u32>()
            + self.subset.capacity() * size_of::<u32>()
            + self.removed.capacity() * size_of::<u32>()
            + self.cascade.capacity() * size_of::<u32>()
            + self.stack.capacity() * size_of::<u32>()
            + self.out.capacity() * size_of::<u32>()
            + self.weights.capacity() * size_of::<f64>()
            + self.heap.capacity() * size_of::<HeapEdge>()
    }
}

/// Reusable scratch memory for the whole query path (see the
/// [module docs](self)).
#[derive(Debug, Default)]
pub struct QueryWorkspace {
    /// Graph-sized scratch: index retrieval, online peels, baselines and
    /// threshold-profile builds.
    pub(crate) base: Workspace,
    /// The re-indexed community, rebuilt in place per query.
    pub(crate) local: LocalGraph,
    /// Step-1 result: the community's global edge ids.
    pub(crate) community: Vec<EdgeId>,
    /// Community-sized kernel scratch.
    pub(crate) scratch: LocalScratch,
    /// Edge bitset [`crate::Answer::edges_into`] emits through; empty
    /// until the first emission.
    pub(crate) bits: EdgeBits,
}

impl QueryWorkspace {
    /// An empty workspace; every buffer grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures the community-sized scratch can serve a local graph with
    /// `n` vertices and `m` edges. Grow-only, like
    /// [`Workspace::fit_sizes`].
    pub(crate) fn fit_local(&mut self, n: usize, m: usize) {
        use bigraph::workspace::grow_vec as grow;
        let s = &mut self.scratch;
        s.alive.ensure(m);
        s.added.ensure(m);
        s.visited.ensure(n);
        grow(&mut s.deg, n);
        grow(&mut s.order, m);
        grow(&mut s.subset, m);
        grow(&mut s.removed, m);
        grow(&mut s.cascade, n);
        grow(&mut s.stack, n);
        grow(&mut s.out, m);
        grow(&mut s.weights, m);
        grow(&mut s.heap, m);
    }

    /// The graph-sized base workspace (index retrieval, baselines).
    pub(crate) fn base_mut(&mut self) -> &mut Workspace {
        &mut self.base
    }

    /// Runs step 1 through `f`, which receives the base workspace and
    /// the community output buffer as disjoint borrows.
    pub(crate) fn retrieve_community(&mut self, f: impl FnOnce(&mut Workspace, &mut Vec<EdgeId>)) {
        f(&mut self.base, &mut self.community)
    }

    /// Temporarily moves the community buffer out (so a second-step
    /// kernel can borrow the rest of the workspace mutably); pair with
    /// [`Self::restore_community`].
    pub(crate) fn take_community(&mut self) -> Vec<EdgeId> {
        std::mem::take(&mut self.community)
    }

    /// Returns the buffer taken by [`Self::take_community`].
    pub(crate) fn restore_community(&mut self, community: Vec<EdgeId>) {
        self.community = community;
    }

    /// Resident heap bytes across every buffer — what it costs to keep
    /// this workspace warm. Reported by the service layer as its
    /// workers' scratch residency.
    pub fn heap_bytes(&self) -> usize {
        self.base.heap_bytes()
            + self.local.heap_bytes()
            + self.community.capacity() * std::mem::size_of::<EdgeId>()
            + self.scratch.heap_bytes()
            + self.bits.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_local_grows_once_then_reuses() {
        let mut ws = QueryWorkspace::new();
        ws.fit_local(10, 20);
        let bytes = ws.heap_bytes();
        assert!(bytes > 0);
        ws.fit_local(10, 20);
        ws.fit_local(4, 4);
        assert_eq!(ws.heap_bytes(), bytes, "warm fits must not grow");
        ws.fit_local(100, 300);
        assert!(ws.heap_bytes() > bytes, "bigger community grows the pool");
    }
}
