//! Online (α,β)-core computation and the online query algorithm `Qo`.
//!
//! `Qo` (Ding et al., CIKM'17) computes the (α,β)-core by peeling the
//! whole graph from scratch and then extracts the connected component of
//! the query vertex — the index-free baseline of the paper's Fig. 8.

use bigraph::workspace::Workspace;
use bigraph::{BipartiteGraph, EdgeId, Subgraph, Vertex};
use std::collections::VecDeque;

/// Vertex membership of an (α,β)-core, plus live degrees.
#[derive(Debug, Clone)]
pub struct CoreMembership {
    alpha: usize,
    beta: usize,
    alive: Vec<bool>,
    degree: Vec<u32>,
    n_alive: usize,
}

impl CoreMembership {
    /// The α constraint this membership was computed for.
    pub fn alpha(&self) -> usize {
        self.alpha
    }

    /// The β constraint this membership was computed for.
    pub fn beta(&self) -> usize {
        self.beta
    }

    /// `true` iff `v` belongs to the (α,β)-core.
    #[inline]
    pub fn contains(&self, v: Vertex) -> bool {
        self.alive[v.index()]
    }

    /// Degree of `v` inside the core (0 if not a member).
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        self.degree[v.index()] as usize
    }

    /// Number of member vertices.
    pub fn n_vertices(&self) -> usize {
        self.n_alive
    }

    /// `true` iff the core is empty.
    pub fn is_empty(&self) -> bool {
        self.n_alive == 0
    }

    /// Member vertices in id order.
    pub fn vertices<'a>(&'a self, g: &'a BipartiteGraph) -> impl Iterator<Item = Vertex> + 'a {
        g.vertices().filter(move |&v| self.alive[v.index()])
    }

    /// All edges of the core (both endpoints alive), as a [`Subgraph`].
    pub fn edges<'g>(&self, g: &'g BipartiteGraph) -> Subgraph<'g> {
        let edges: Vec<EdgeId> = g
            .edge_ids()
            .filter(|&e| {
                let (u, l) = g.endpoints(e);
                self.alive[u.index()] && self.alive[l.index()]
            })
            .collect();
        Subgraph::from_edges(g, edges)
    }
}

/// Computes the (α,β)-core of `g` by iterative peeling — `O(m)` time.
///
/// The core is the *maximal* subgraph in which every upper vertex has
/// degree ≥ α and every lower vertex degree ≥ β (Definition 1); peeling
/// under-degree vertices until fixpoint yields exactly that subgraph.
///
/// Thin wrapper over [`abcore_in`] that allocates a throwaway
/// [`Workspace`]; callers issuing many queries should hold a workspace
/// and use the `_in` form.
pub fn abcore(g: &BipartiteGraph, alpha: usize, beta: usize) -> CoreMembership {
    let mut ws = Workspace::new();
    let n_alive = abcore_in(g, alpha, beta, &mut ws);
    let n = g.n_vertices();
    let mut alive = vec![false; n];
    let mut degree = vec![0u32; n];
    for v in g.vertices() {
        if !ws.dead.contains(v) {
            alive[v.index()] = true;
            degree[v.index()] = ws.degree[v];
        }
    }
    CoreMembership {
        alpha,
        beta,
        alive,
        degree,
        n_alive,
    }
}

/// Allocation-free (α,β)-core peel into a reusable [`Workspace`].
///
/// On return, `ws.dead` holds exactly the vertices peeled away
/// (`!ws.dead.contains(v)` ⇔ `v` is in the core) and `ws.degree[v]` is
/// the core degree of every surviving vertex (values for dead vertices
/// are unspecified). Clobbers `ws.dead`, `ws.degree` and `ws.queue`.
/// Returns the number of core vertices.
pub fn abcore_in(g: &BipartiteGraph, alpha: usize, beta: usize, ws: &mut Workspace) -> usize {
    assert!(alpha >= 1 && beta >= 1, "degree constraints must be >= 1");
    ws.fit(g);
    ws.dead.clear();
    ws.queue.clear();
    let Workspace {
        dead,
        degree,
        queue,
        ..
    } = ws;
    let n = g.n_vertices();
    for v in g.vertices() {
        degree[v] = g.degree(v) as u32;
    }
    let mut n_alive = n;
    for v in g.vertices() {
        let need = if g.is_upper(v) { alpha } else { beta } as u32;
        if degree[v] < need {
            dead.insert(v); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
            queue.push(v.0); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
        }
    }
    n_alive -= queue.len();
    while let Some(vi) = queue.pop() {
        for &w in g.neighbors(Vertex(vi)) {
            if dead.contains(w) {
                continue;
            }
            degree[w] -= 1;
            let need = if g.is_upper(w) { alpha } else { beta } as u32;
            if degree[w] < need {
                dead.insert(w); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
                n_alive -= 1;
                queue.push(w.0); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
            }
        }
    }
    n_alive
}

/// The online query algorithm `Qo`: computes the (α,β)-community
/// `C_{α,β}(q)` — the connected component of `q` inside the (α,β)-core —
/// by peeling from scratch and BFS. `O(m)` time per query.
///
/// Returns the empty subgraph when `q` is not in the (α,β)-core.
///
/// Thin wrapper over [`abcore_community_into`] with a throwaway
/// [`Workspace`].
pub fn abcore_community<'g>(
    g: &'g BipartiteGraph,
    q: Vertex,
    alpha: usize,
    beta: usize,
) -> Subgraph<'g> {
    let mut out = Vec::new();
    abcore_community_into(g, q, alpha, beta, &mut Workspace::new(), &mut out);
    Subgraph::from_edges(g, out)
}

/// Fully allocation-free `Qo`: peels the (α,β)-core with [`abcore_in`],
/// then BFS-extracts `q`'s component into `out` (cleared first; sorted
/// and deduplicated like [`Subgraph::from_edges`]). Clobbers `ws.dead`,
/// `ws.degree`, `ws.visited` and `ws.queue`.
// scs-contract: no-alloc — kernels draw every buffer from the caller's workspace; warm queries must stay heap-silent.
pub fn abcore_community_into(
    g: &BipartiteGraph,
    q: Vertex,
    alpha: usize,
    beta: usize,
    ws: &mut Workspace,
    out: &mut Vec<EdgeId>,
) {
    out.clear();
    abcore_in(g, alpha, beta, ws);
    if ws.dead.contains(q) {
        return;
    }
    ws.visited.clear();
    ws.queue.clear();
    let Workspace {
        visited,
        dead,
        queue,
        ..
    } = ws;
    visited.insert(q); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
    queue.push(q.0); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
    while let Some(xi) = queue.pop() {
        let x = Vertex(xi);
        for (w, e) in g.neighbors_with_edges(x) {
            if dead.contains(w) {
                continue;
            }
            if g.is_upper(x) {
                out.push(e); // record each edge from its upper endpoint; contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
            }
            // contract-ok: warm workspace scratch; growth is cold
            if visited.insert(w) {
                queue.push(w.0); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
            }
        }
    }
    out.sort_unstable();
    out.dedup();
}

/// BFS extraction of `q`'s component within a precomputed core
/// membership. Shared by `Qo` and `Qv`.
pub fn community_in_core<'g>(
    g: &'g BipartiteGraph,
    core: &CoreMembership,
    q: Vertex,
) -> Subgraph<'g> {
    if !core.contains(q) {
        return Subgraph::empty(g);
    }
    let mut visited = vec![false; g.n_vertices()];
    let mut edges: Vec<EdgeId> = Vec::new();
    let mut queue = VecDeque::new();
    visited[q.index()] = true;
    queue.push_back(q);
    while let Some(x) = queue.pop_front() {
        for (w, e) in g.neighbors_with_edges(x) {
            if !core.contains(w) {
                continue;
            }
            if g.is_upper(x) {
                edges.push(e); // record each edge from its upper endpoint
            }
            if !visited[w.index()] {
                visited[w.index()] = true;
                queue.push_back(w);
            }
        }
    }
    Subgraph::from_edges(g, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::builder::{figure2_example, GraphBuilder};
    use bigraph::generators::{complete_biclique, random_bipartite};
    use bigraph::Subgraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn biclique_core() {
        let g = complete_biclique(3, 4);
        let core = abcore(&g, 4, 3);
        assert_eq!(core.n_vertices(), 7);
        assert!(!core.is_empty());
        let too_much = abcore(&g, 5, 3);
        assert!(too_much.is_empty());
        assert_eq!(core.alpha(), 4);
        assert_eq!(core.beta(), 3);
    }

    #[test]
    fn degrees_inside_core() {
        let mut b = GraphBuilder::new();
        // 2x2 biclique + pendant.
        b.add_edge(0, 0, 1.0);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 0, 1.0);
        b.add_edge(1, 1, 1.0);
        b.add_edge(2, 0, 1.0);
        let g = b.build().unwrap();
        let core = abcore(&g, 2, 2);
        assert!(core.contains(g.upper(0)));
        assert!(!core.contains(g.upper(2)));
        // l0 has raw degree 3 but core degree 2.
        assert_eq!(core.degree(g.lower(0)), 2);
        assert_eq!(core.degree(g.upper(2)), 0);
        assert_eq!(core.vertices(&g).count(), 4);
        assert_eq!(core.edges(&g).size(), 4);
    }

    #[test]
    fn matches_generic_peel() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5 {
            let g = random_bipartite(25, 25, 120, &mut rng);
            for a in 1..=4 {
                for b in 1..=4 {
                    let fast = abcore(&g, a, b).edges(&g);
                    let brute = Subgraph::full(&g).peel_to_core(a, b);
                    assert!(fast.same_edges(&brute), "α={a} β={b}");
                }
            }
        }
    }

    #[test]
    fn figure2_community_of_u3() {
        let g = figure2_example();
        let u3 = g.upper(2);
        let c = abcore_community(&g, u3, 2, 2);
        // Paper: Figure 2(b) — 13 edges over u1..u4, v1..v4.
        assert_eq!(c.size(), 13);
        let (us, ls) = c.layer_vertices();
        assert_eq!(us.len(), 4);
        assert_eq!(ls.len(), 4);
        assert!(c.is_connected());
        assert!(c.satisfies_degrees(2, 2));
    }

    #[test]
    fn missing_query_vertex_gives_empty() {
        let g = figure2_example();
        // u5 (paper id) has degree 1, so it is not in the (2,2)-core.
        let c = abcore_community(&g, g.upper(4), 2, 2);
        assert!(c.is_empty());
    }

    #[test]
    fn community_is_component_not_whole_core() {
        // Two disjoint 2x2 bicliques.
        let mut b = GraphBuilder::new();
        for (uo, lo) in [(0, 0), (2, 2)] {
            for du in 0..2 {
                for dl in 0..2 {
                    b.add_edge(uo + du, lo + dl, 1.0);
                }
            }
        }
        let g = b.build().unwrap();
        let core = abcore(&g, 2, 2);
        assert_eq!(core.n_vertices(), 8);
        let c = abcore_community(&g, g.upper(0), 2, 2);
        assert_eq!(c.size(), 4);
        assert!(!c.contains_vertex(g.upper(2)));
    }

    #[test]
    #[should_panic(expected = "degree constraints")]
    fn zero_alpha_panics() {
        let g = complete_biclique(2, 2);
        abcore(&g, 0, 1);
    }

    #[test]
    fn reused_workspace_matches_fresh_wrappers() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut ws = Workspace::new();
        let mut out = Vec::new();
        let mut bytes = Vec::new();
        // Graphs of different sizes through one workspace: membership,
        // degrees and communities must match the allocating wrappers.
        for (nu, nl, m) in [(20, 20, 90), (35, 30, 180), (10, 12, 40)] {
            let g = random_bipartite(nu, nl, m, &mut rng);
            for (a, b) in [(1, 1), (2, 2), (2, 3)] {
                let fresh = abcore(&g, a, b);
                let n_alive = abcore_in(&g, a, b, &mut ws);
                assert_eq!(n_alive, fresh.n_vertices());
                for v in g.vertices() {
                    assert_eq!(!ws.dead.contains(v), fresh.contains(v), "{v:?}");
                    if fresh.contains(v) {
                        assert_eq!(ws.degree[v] as usize, fresh.degree(v), "{v:?}");
                    }
                }
                for qi in 0..nu.min(5) {
                    let q = g.upper(qi);
                    abcore_community_into(&g, q, a, b, &mut ws, &mut out);
                    let direct = abcore_community(&g, q, a, b);
                    assert_eq!(out, direct.edges(), "α={a} β={b} q={q:?}");
                }
            }
            bytes.push(ws.heap_bytes());
        }
        assert_eq!(bytes[2], bytes[1], "the smaller graph grew the workspace");
    }
}
