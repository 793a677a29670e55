//! Compact local re-indexing for the SCS query algorithms.
//!
//! The whole point of the paper's two-step paradigm is that the second
//! step (peeling / expansion) works on `C_{α,β}(q)`, which is usually far
//! smaller than `G`. To make that real, the [`LocalGraph`] re-indexes the
//! community's vertices and edges into dense local ids so every per-query
//! array is `O(size(C))`, not `O(n + m)`.
//!
//! A `LocalGraph` is itself reusable scratch: [`LocalGraph::rebuild`]
//! refills the structure in place from a new edge set, so a warm local
//! graph (held inside [`crate::QueryWorkspace`]) re-indexes community
//! after community without touching the allocator.

use bigraph::workspace::{EdgeSet, VertexSet};
use bigraph::{BipartiteGraph, EdgeId, Subgraph, Vertex, Weight};

/// A community re-indexed with dense local vertex/edge ids.
///
/// Local vertex ids preserve the global order, and since global ids place
/// the upper layer first, local ids `0..n_upper_local` are exactly the
/// upper vertices.
#[derive(Debug, Clone, Default)]
pub(crate) struct LocalGraph {
    /// Global vertex per local id (sorted ascending).
    verts: Vec<Vertex>,
    /// Number of upper-layer vertices (they occupy local ids `0..this`).
    n_upper_local: usize,
    /// Global edge id per local edge.
    edge_globals: Vec<EdgeId>,
    /// Local endpoints per local edge: `(upper_local, lower_local)`.
    edge_ends: Vec<(u32, u32)>,
    /// Weight per local edge.
    weights: Vec<Weight>,
    /// CSR adjacency: `adj[starts[v]..starts[v+1]]` = `(nbr_local, edge_local)`.
    starts: Vec<u32>,
    adj: Vec<(u32, u32)>,
    /// Build-time scratch (degree counts, CSR cursors), kept for reuse.
    build_degree: Vec<u32>,
    build_cursor: Vec<u32>,
}

impl LocalGraph {
    /// Builds a fresh local graph from a community subgraph.
    /// `O(size(C) log size(C))`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn new(sub: &Subgraph<'_>) -> Self {
        let mut lg = LocalGraph::default();
        lg.rebuild(sub.graph(), sub.edges());
        lg
    }

    /// Refills the local graph in place from `edges` of `g`, reusing
    /// every buffer — allocation-free once the buffers have grown to the
    /// largest community seen. `O(size(C) log size(C))`.
    pub fn rebuild(&mut self, g: &BipartiteGraph, edges: &[EdgeId]) {
        self.verts.clear();
        for &e in edges {
            let (u, l) = g.endpoints(e);
            self.verts.push(u); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
            self.verts.push(l); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
        }
        self.verts.sort_unstable();
        self.verts.dedup();
        self.n_upper_local = self.verts.partition_point(|&v| g.is_upper(v));

        let m = edges.len();
        let nv = self.verts.len();
        self.edge_globals.clear();
        self.edge_ends.clear();
        self.weights.clear();
        self.build_degree.clear();
        self.build_degree.resize(nv, 0); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
        for &e in edges {
            let (u, l) = g.endpoints(e);
            let lu = self
                .verts
                .binary_search(&u)
                .expect("endpoint of community edge") as u32;
            let ll = self
                .verts
                .binary_search(&l)
                .expect("endpoint of community edge") as u32;
            self.edge_globals.push(e); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
            self.edge_ends.push((lu, ll)); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
            self.weights.push(g.weight(e)); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
            self.build_degree[lu as usize] += 1;
            self.build_degree[ll as usize] += 1;
        }
        self.starts.clear();
        let mut acc = 0u32;
        self.starts.push(0); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
        for &d in &self.build_degree {
            acc += d;
            self.starts.push(acc); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
        }
        self.build_cursor.clear();
        self.build_cursor.extend_from_slice(&self.starts[..nv]);
        self.adj.clear();
        self.adj.resize(2 * m, (0u32, 0u32)); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
        for (le, &(lu, ll)) in self.edge_ends.iter().enumerate() {
            self.adj[self.build_cursor[lu as usize] as usize] = (ll, le as u32);
            self.build_cursor[lu as usize] += 1;
            self.adj[self.build_cursor[ll as usize] as usize] = (lu, le as u32);
            self.build_cursor[ll as usize] += 1;
        }
    }

    /// Number of local vertices.
    #[inline]
    pub fn n_vertices(&self) -> usize {
        self.verts.len()
    }

    /// Number of local edges.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.edge_globals.len()
    }

    /// Number of upper-layer vertices (local ids `0..n_upper_local`).
    #[inline]
    pub fn n_upper_local(&self) -> usize {
        self.n_upper_local
    }

    /// `true` iff local vertex `lv` is in the upper layer.
    #[inline]
    pub fn is_upper_local(&self, lv: u32) -> bool {
        (lv as usize) < self.n_upper_local
    }

    /// Degree requirement of local vertex `lv` under constraints (α,β).
    #[inline]
    pub fn need(&self, lv: u32, alpha: u32, beta: u32) -> u32 {
        if self.is_upper_local(lv) {
            alpha
        } else {
            beta
        }
    }

    /// Local id of global vertex `v`, if present.
    #[inline]
    pub fn local_of(&self, v: Vertex) -> Option<u32> {
        self.verts.binary_search(&v).ok().map(|i| i as u32)
    }

    /// Global vertex of local id `lv`.
    #[cfg_attr(not(test), allow(dead_code))]
    #[inline]
    pub fn global_of(&self, lv: u32) -> Vertex {
        self.verts[lv as usize]
    }

    /// Global edge id of local edge `le`.
    #[inline]
    pub fn edge_global(&self, le: u32) -> EdgeId {
        self.edge_globals[le as usize]
    }

    /// Local endpoints `(upper_local, lower_local)` of local edge `le`.
    #[inline]
    pub fn ends(&self, le: u32) -> (u32, u32) {
        self.edge_ends[le as usize]
    }

    /// Weight of local edge `le`.
    #[inline]
    pub fn weight(&self, le: u32) -> Weight {
        self.weights[le as usize]
    }

    /// `(min, max)` edge weight, or `None` when the edge set is empty —
    /// the all-equal-weights fast-path test without a [`Subgraph`].
    pub fn weight_bounds(&self) -> Option<(Weight, Weight)> {
        let mut it = self.weights.iter().copied();
        let first = it.next()?;
        let (mut lo, mut hi) = (first, first);
        for w in it {
            if w.total_cmp(&lo).is_lt() {
                lo = w;
            }
            if w.total_cmp(&hi).is_gt() {
                hi = w;
            }
        }
        Some((lo, hi))
    }

    /// Adjacency of local vertex `lv`: `(neighbor_local, edge_local)`.
    #[inline]
    pub fn adjacency(&self, lv: u32) -> &[(u32, u32)] {
        let i = lv as usize;
        &self.adj[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// Full local degree of `lv`.
    #[inline]
    pub fn full_degree(&self, lv: u32) -> u32 {
        self.starts[lv as usize + 1] - self.starts[lv as usize]
    }

    /// Fills `out` with all local edge ids sorted by weight (ascending
    /// when `asc`, else descending); ties broken by edge id for
    /// determinism.
    // scs-contract: no-alloc — kernels draw every buffer from the caller's workspace; warm queries must stay heap-silent.
    pub fn edges_by_weight_into(&self, asc: bool, out: &mut Vec<u32>) {
        out.clear();
        out.extend(0..self.n_edges() as u32); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
        out.sort_unstable_by(|&a, &b| {
            let cmp = self.weights[a as usize].total_cmp(&self.weights[b as usize]);
            let cmp = cmp.then(a.cmp(&b));
            if asc {
                cmp
            } else {
                cmp.reverse()
            }
        });
    }

    /// Converts a set of live local edges back into a [`Subgraph`] of the
    /// original graph.
    #[cfg(test)]
    pub fn to_subgraph<'g>(
        &self,
        g: &'g BipartiteGraph,
        live: impl Iterator<Item = u32>,
    ) -> Subgraph<'g> {
        Subgraph::from_edges(g, live.map(|le| self.edge_global(le)).collect())
    }

    /// Appends the global edge ids of the local edges in `live` to `out`.
    pub fn extend_globals(&self, live: &[u32], out: &mut Vec<EdgeId>) {
        out.extend(live.iter().map(|&le| self.edge_global(le)));
    }

    /// The shared result epilogue of every kernel: maps the local edges
    /// in `live` to global ids and normalises `out` to the sorted,
    /// deduplicated form [`Subgraph::from_edges`] would produce.
    pub fn emit_globals(&self, live: &[u32], out: &mut Vec<EdgeId>) {
        self.extend_globals(live, out);
        out.sort_unstable();
        out.dedup();
    }

    /// DFS over edges alive in `alive` from `start`; fills `out` with the
    /// local edge ids of `start`'s connected component. `visited` and
    /// `stack` are reusable scratch (cleared here); `out` is cleared too.
    // scs-contract: no-alloc — kernels draw every buffer from the caller's workspace; warm queries must stay heap-silent.
    pub fn component_edges_into(
        &self,
        start: u32,
        alive: &EdgeSet,
        visited: &mut VertexSet,
        stack: &mut Vec<u32>,
        out: &mut Vec<u32>,
    ) {
        visited.ensure(self.n_vertices());
        visited.clear();
        stack.clear();
        out.clear();
        visited.insert_id(start as usize);
        stack.push(start); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
        while let Some(x) = stack.pop() {
            for &(nbr, le) in self.adjacency(x) {
                if !alive.contains_id(le as usize) {
                    continue;
                }
                if self.is_upper_local(x) {
                    out.push(le); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
                }
                if visited.insert_id(nbr as usize) {
                    stack.push(nbr); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
                }
            }
        }
    }

    /// Resident heap bytes across the structure and its build scratch.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.verts.capacity() * size_of::<Vertex>()
            + self.edge_globals.capacity() * size_of::<EdgeId>()
            + self.edge_ends.capacity() * size_of::<(u32, u32)>()
            + self.weights.capacity() * size_of::<Weight>()
            + self.starts.capacity() * size_of::<u32>()
            + self.adj.capacity() * size_of::<(u32, u32)>()
            + self.build_degree.capacity() * size_of::<u32>()
            + self.build_cursor.capacity() * size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::GraphBuilder;

    fn fixture() -> (BipartiteGraph, Subgraph<'static>) {
        // Leak for 'static in tests only.
        let mut b = GraphBuilder::new();
        b.add_edge(0, 0, 5.0);
        b.add_edge(0, 1, 3.0);
        b.add_edge(1, 0, 4.0);
        b.add_edge(1, 1, 1.0);
        b.add_edge(2, 2, 9.0); // separate component
        let g: &'static BipartiteGraph = Box::leak(Box::new(b.build().unwrap()));
        let sub = Subgraph::full(g);
        (g.clone(), sub)
    }

    #[test]
    fn local_ids_keep_layers_contiguous() {
        let (_, sub) = fixture();
        let lg = LocalGraph::new(&sub);
        assert_eq!(lg.n_vertices(), 6);
        assert_eq!(lg.n_upper_local(), 3);
        for lv in 0..lg.n_vertices() as u32 {
            let g = sub.graph();
            assert_eq!(lg.is_upper_local(lv), g.is_upper(lg.global_of(lv)));
        }
    }

    #[test]
    fn adjacency_roundtrip() {
        let (_, sub) = fixture();
        let g = sub.graph();
        let lg = LocalGraph::new(&sub);
        for lv in 0..lg.n_vertices() as u32 {
            let gv = lg.global_of(lv);
            assert_eq!(lg.local_of(gv), Some(lv));
            assert_eq!(lg.full_degree(lv) as usize, g.degree(gv));
            for &(nbr, le) in lg.adjacency(lv) {
                let ge = lg.edge_global(le);
                assert_eq!(g.other_endpoint(ge, gv), lg.global_of(nbr));
                assert_eq!(lg.weight(le), g.weight(ge));
            }
        }
    }

    #[test]
    fn subset_community() {
        let (_, sub) = fixture();
        let g = sub.graph();
        let comp = sub.component_of(g.upper(0));
        let lg = LocalGraph::new(&comp);
        assert_eq!(lg.n_vertices(), 4);
        assert_eq!(lg.n_edges(), 4);
        assert_eq!(lg.local_of(g.upper(2)), None);
    }

    #[test]
    fn rebuild_reuses_buffers_across_communities() {
        let (_, sub) = fixture();
        let g = sub.graph();
        let mut lg = LocalGraph::new(&sub);
        assert_eq!(lg.n_edges(), 5);
        let comp = sub.component_of(g.upper(0));
        lg.rebuild(g, comp.edges());
        assert_eq!(lg.n_vertices(), 4);
        assert_eq!(lg.n_edges(), 4);
        assert_eq!(lg.local_of(g.upper(2)), None);
        // Shrinking then growing again keeps the structure consistent.
        lg.rebuild(g, sub.edges());
        assert_eq!(lg.n_vertices(), 6);
        assert_eq!(lg.n_edges(), 5);
        assert!(lg.heap_bytes() > 0);
        for lv in 0..lg.n_vertices() as u32 {
            assert_eq!(lg.full_degree(lv) as usize, g.degree(lg.global_of(lv)));
        }
    }

    #[test]
    fn weight_ordering() {
        let (_, sub) = fixture();
        let lg = LocalGraph::new(&sub);
        let mut asc = Vec::new();
        lg.edges_by_weight_into(true, &mut asc);
        let ws: Vec<f64> = asc.iter().map(|&e| lg.weight(e)).collect();
        assert!(ws.windows(2).all(|w| w[0] <= w[1]));
        let mut desc = Vec::new();
        lg.edges_by_weight_into(false, &mut desc);
        let ws: Vec<f64> = desc.iter().map(|&e| lg.weight(e)).collect();
        assert!(ws.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(lg.weight_bounds(), Some((1.0, 9.0)));
    }

    #[test]
    fn component_dfs_and_back_conversion() {
        let (_, sub) = fixture();
        let g = sub.graph();
        let lg = LocalGraph::new(&sub);
        let mut alive = EdgeSet::new();
        alive.ensure(lg.n_edges());
        alive.clear();
        for le in 0..lg.n_edges() {
            alive.insert_id(le);
        }
        let mut visited = VertexSet::new();
        let mut stack = Vec::new();
        let mut comp = Vec::new();
        let q = lg.local_of(g.upper(0)).unwrap();
        lg.component_edges_into(q, &alive, &mut visited, &mut stack, &mut comp);
        assert_eq!(comp.len(), 4);
        let back = lg.to_subgraph(g, comp.iter().copied());
        assert_eq!(back.size(), 4);
        assert!(!back.contains_vertex(g.upper(2)));
        let mut globals = Vec::new();
        lg.extend_globals(&comp, &mut globals);
        globals.sort_unstable();
        assert_eq!(globals, back.edges());

        // Killing the edges incident to u0 isolates it.
        for &(_, le) in lg.adjacency(q) {
            alive.remove_id(le as usize);
        }
        lg.component_edges_into(q, &alive, &mut visited, &mut stack, &mut comp);
        assert!(comp.is_empty());
    }

    #[test]
    fn need_respects_sides() {
        let (_, sub) = fixture();
        let lg = LocalGraph::new(&sub);
        assert_eq!(lg.need(0, 3, 7), 3); // upper
        assert_eq!(lg.need(lg.n_upper_local() as u32, 3, 7), 7); // first lower
    }
}
