//! `SCS-Peel` (Algorithm 4): extract the significant (α,β)-community by
//! repeatedly deleting the minimum-weight edge group and cascading degree
//! violations until the query vertex fails, then rolling back the last
//! iteration and taking `q`'s connected component.
//!
//! The kernels run entirely on the community-sized scratch of a
//! [`QueryWorkspace`] — epoch-stamped liveness sets instead of per-query
//! `vec![bool]` buffers — so a warm workspace peels without allocating.

use crate::local::LocalGraph;
use crate::workspace::{LocalScratch, QueryWorkspace};
use bigraph::workspace::EdgeSet;
use bigraph::{BipartiteGraph, EdgeId, Subgraph, Vertex};

/// Degree-peels an arbitrary subset of local edges to its (α,β)-core.
/// On return `alive` holds the surviving edges and `deg` the live degree
/// of every local vertex (edges outside `subset` are dead with no degree
/// contribution). `queue` is worklist scratch. All three are reset here.
pub(crate) fn degree_peel_in(
    lg: &LocalGraph,
    subset: &[u32],
    alpha: u32,
    beta: u32,
    alive: &mut EdgeSet,
    deg: &mut Vec<u32>,
    queue: &mut Vec<u32>,
) {
    alive.ensure(lg.n_edges());
    alive.clear();
    deg.clear();
    deg.resize(lg.n_vertices(), 0); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
    for &le in subset {
        alive.insert_id(le as usize);
        let (a, b) = lg.ends(le);
        deg[a as usize] += 1;
        deg[b as usize] += 1;
    }
    queue.clear();
    for v in 0..lg.n_vertices() as u32 {
        let d = deg[v as usize];
        if d > 0 && d < lg.need(v, alpha, beta) {
            queue.push(v); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
        }
    }
    while let Some(v) = queue.pop() {
        for &(nbr, le) in lg.adjacency(v) {
            if !alive.remove_id(le as usize) {
                continue;
            }
            deg[v as usize] -= 1;
            deg[nbr as usize] -= 1;
            let nd = deg[nbr as usize];
            if nd > 0 && nd < lg.need(nbr, alpha, beta) {
                queue.push(nbr); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
            }
            // A vertex that hits degree 0 has no edges left; nothing to
            // cascade for it.
        }
    }
}

/// The weighted peeling loop of Algorithm 4 over the live edge set in
/// `s.alive`.
///
/// Preconditions: `(s.alive, s.deg)` describe a subgraph in which every
/// vertex satisfies its (α,β) degree constraint and `s.deg[lq] > 0`.
/// `order_asc` lists all live local edges sorted by weight ascending
/// (dead entries are skipped). Clobbers `s.removed`, `s.cascade`,
/// `s.visited` and `s.stack`; leaves the local edges of the significant
/// community of `lq` in `s.out`.
pub(crate) fn weighted_peel_in(
    lg: &LocalGraph,
    lq: u32,
    alpha: u32,
    beta: u32,
    order_asc: &[u32],
    s: &mut LocalScratch,
) {
    debug_assert!(s.deg[lq as usize] >= lg.need(lq, alpha, beta));
    s.removed.clear();
    s.cascade.clear();
    let mut i = 0;
    while i < order_asc.len() {
        // Skip edges already dead (outside the subset or removed earlier).
        while i < order_asc.len() && !s.alive.contains_id(order_asc[i] as usize) {
            i += 1;
        }
        if i >= order_asc.len() {
            break;
        }
        let w_min = lg.weight(order_asc[i]);
        s.removed.clear();
        // Remove the whole minimum-weight group.
        while i < order_asc.len() && lg.weight(order_asc[i]).total_cmp(&w_min).is_eq() {
            let le = order_asc[i];
            i += 1;
            if !s.alive.remove_id(le as usize) {
                continue;
            }
            s.removed.push(le); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
            let (a, b) = lg.ends(le);
            for v in [a, b] {
                s.deg[v as usize] -= 1;
                let d = s.deg[v as usize];
                if d > 0 && d < lg.need(v, alpha, beta) {
                    s.cascade.push(v); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
                }
            }
        }
        // Cascade removals of under-degree vertices.
        while let Some(v) = s.cascade.pop() {
            for &(nbr, le) in lg.adjacency(v) {
                if !s.alive.remove_id(le as usize) {
                    continue;
                }
                s.removed.push(le); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
                s.deg[v as usize] -= 1;
                s.deg[nbr as usize] -= 1;
                let nd = s.deg[nbr as usize];
                if nd > 0 && nd < lg.need(nbr, alpha, beta) {
                    s.cascade.push(nbr); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
                }
            }
        }
        // Did q fail this iteration? Then the state at the iteration's
        // start (removed ∪ still-alive) is the answer graph G′ of
        // Algorithm 4 line 21; q's component of it is R.
        if s.deg[lq as usize] < lg.need(lq, alpha, beta) {
            for &le in &s.removed {
                s.alive.insert_id(le as usize);
            }
            let LocalScratch {
                alive,
                visited,
                stack,
                out,
                ..
            } = s;
            lg.component_edges_into(lq, alive, visited, stack, out);
            return;
        }
    }
    unreachable!("peeling always dequalifies q before the edge list runs out");
}

/// Allocation-free `SCS-Peel`: extracts the significant (α,β)-community
/// of `q` from its (α,β)-community given as a sorted edge-id slice.
/// `out` is cleared first and receives the sorted result edges. All
/// scratch comes from `ws`; a warm workspace makes this heap-silent.
// scs-contract: no-alloc — kernels draw every buffer from the caller's workspace; warm queries must stay heap-silent.
pub fn scs_peel_into(
    g: &BipartiteGraph,
    community: &[EdgeId],
    q: Vertex,
    alpha: usize,
    beta: usize,
    ws: &mut QueryWorkspace,
    out: &mut Vec<EdgeId>,
) {
    out.clear();
    if community.is_empty() {
        return;
    }
    ws.local.rebuild(g, community);
    ws.fit_local(ws.local.n_vertices(), ws.local.n_edges());
    let QueryWorkspace {
        local: lg,
        scratch: s,
        ..
    } = ws;
    let lq = lg
        .local_of(q)
        .expect("query vertex must belong to its community");
    // All-equal weights: the community itself is the answer.
    if let Some((lo, hi)) = lg.weight_bounds() {
        if lo.total_cmp(&hi).is_eq() {
            out.extend_from_slice(community);
            out.sort_unstable();
            out.dedup();
            return;
        }
    }
    lg.edges_by_weight_into(true, &mut s.order);
    // Initial liveness — the whole community — lives in the workspace
    // edge-set instead of a per-query `vec![true; n_edges]`.
    s.alive.ensure(lg.n_edges());
    s.alive.clear();
    for le in 0..lg.n_edges() {
        s.alive.insert_id(le);
    }
    s.deg.clear();
    s.deg
        .extend((0..lg.n_vertices() as u32).map(|v| lg.full_degree(v))); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
    let order = std::mem::take(&mut s.order);
    weighted_peel_in(lg, lq, alpha as u32, beta as u32, &order, s);
    s.order = order;
    lg.emit_globals(&s.out, out);
}

/// `SCS-Peel`: extracts the significant (α,β)-community of `q` from its
/// (α,β)-community.
///
/// `community` must be `C_{α,β}(q)` (e.g. from
/// [`crate::index::DeltaIndex::query_community`]); passing the empty
/// subgraph yields the empty result.
///
/// Thin wrapper over [`scs_peel_into`] with a throwaway workspace.
/// Complexity: `O(sort(C) + size(C))` time, `O(size(C))` space.
pub fn scs_peel<'g>(
    g: &'g BipartiteGraph,
    community: &Subgraph<'g>,
    q: Vertex,
    alpha: usize,
    beta: usize,
) -> Subgraph<'g> {
    let mut out = Vec::new();
    let ws = &mut QueryWorkspace::new();
    scs_peel_into(g, community.edges(), q, alpha, beta, ws, &mut out);
    Subgraph::from_edges(g, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::DeltaIndex;
    use bigraph::builder::figure2_example;
    use bigraph::GraphBuilder;

    #[test]
    fn figure2_significant_2_2_community() {
        // Example 1 of the paper: the significant (2,2)-community of u3
        // is {(u3,v1),(u3,v2),(u4,v1),(u4,v2)}.
        let g = figure2_example();
        let idx = DeltaIndex::build(&g);
        let q = g.upper(2); // u3
        let c = idx.query_community(&g, q, 2, 2);
        assert_eq!(c.size(), 13);
        let r = scs_peel(&g, &c, q, 2, 2);
        assert_eq!(r.size(), 4);
        let expect = [
            (g.upper(2), g.lower(0)),
            (g.upper(2), g.lower(1)),
            (g.upper(3), g.lower(0)),
            (g.upper(3), g.lower(1)),
        ];
        for (u, v) in expect {
            let e = g.find_edge(u, v).unwrap();
            assert!(r.contains_edge(e), "missing ({u:?},{v:?})");
        }
        // f(R) = w(u3, v2) = 13.
        assert_eq!(r.min_weight(), Some(13.0));
    }

    #[test]
    fn all_equal_weights_return_community() {
        let mut b = GraphBuilder::new();
        for u in 0..3 {
            for l in 0..3 {
                b.add_edge(u, l, 7.0);
            }
        }
        let g = b.build().unwrap();
        let idx = DeltaIndex::build(&g);
        let c = idx.query_community(&g, g.upper(0), 2, 2);
        let r = scs_peel(&g, &c, g.upper(0), 2, 2);
        assert!(r.same_edges(&c));
    }

    #[test]
    fn empty_community_empty_result() {
        let g = figure2_example();
        let c = Subgraph::empty(&g);
        let r = scs_peel(&g, &c, g.upper(0), 2, 2);
        assert!(r.is_empty());
    }

    #[test]
    fn result_satisfies_all_constraints() {
        let g = figure2_example();
        let idx = DeltaIndex::build(&g);
        for (a, b) in [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)] {
            for qi in 0..4 {
                let q = g.upper(qi);
                let c = idx.query_community(&g, q, a, b);
                if c.is_empty() {
                    continue;
                }
                let r = scs_peel(&g, &c, q, a, b);
                assert!(!r.is_empty(), "α={a} β={b} q={q:?}");
                assert!(r.is_connected());
                assert!(r.contains_vertex(q));
                assert!(r.satisfies_degrees(a, b));
            }
        }
    }

    #[test]
    fn reused_workspace_matches_fresh() {
        let g = figure2_example();
        let idx = DeltaIndex::build(&g);
        let mut ws = QueryWorkspace::new();
        let mut out = Vec::new();
        for (a, b) in [(2, 2), (3, 3), (2, 3)] {
            for qi in 0..4 {
                let q = g.upper(qi);
                let c = idx.query_community(&g, q, a, b);
                if c.is_empty() {
                    continue;
                }
                let fresh = scs_peel(&g, &c, q, a, b);
                scs_peel_into(&g, c.edges(), q, a, b, &mut ws, &mut out);
                assert_eq!(out, fresh.edges(), "α={a} β={b} q={q:?}");
            }
        }
    }
}
