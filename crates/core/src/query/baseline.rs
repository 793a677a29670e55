//! `SCS-Baseline`: the strawman of the paper's Section V-A — expansion
//! that starts from the connected component of `q` in the *whole graph*
//! instead of from `C_{α,β}(q)`, i.e. the two-step framework's first step
//! is skipped. Used as the comparison bar in Fig. 12 / Fig. 13.

use crate::query::expand::{scs_expand_into, ExpandOptions};
use crate::workspace::QueryWorkspace;
use bicore::abcore::abcore_in;
use bigraph::workspace::Workspace;
use bigraph::{BipartiteGraph, EdgeId, Subgraph, Vertex};

/// `SCS-Baseline`: computes the significant (α,β)-community of `q` by
/// running the expansion algorithm over the connected component of `q`
/// in `G`. Correct but slow — the search space is the whole component,
/// not the (α,β)-community.
///
/// Thin wrapper over [`scs_baseline_into`] with a throwaway workspace.
pub fn scs_baseline<'g>(
    g: &'g BipartiteGraph,
    q: Vertex,
    alpha: usize,
    beta: usize,
) -> Subgraph<'g> {
    let mut out = Vec::new();
    scs_baseline_into(g, q, alpha, beta, &mut QueryWorkspace::new(), &mut out);
    Subgraph::from_edges(g, out)
}

/// Allocation-free `SCS-Baseline`; `out` is cleared first and receives
/// the sorted result edges. The component extraction and the
/// q-in-core guard both run on the graph-sized workspace buffers
/// (flat stamped sets) instead of the old hash-map peel.
// scs-contract: no-alloc — kernels draw every buffer from the caller's workspace; warm queries must stay heap-silent.
pub fn scs_baseline_into(
    g: &BipartiteGraph,
    q: Vertex,
    alpha: usize,
    beta: usize,
    ws: &mut QueryWorkspace,
    out: &mut Vec<EdgeId>,
) {
    out.clear();
    // The connected component of q in G, by flat DFS.
    ws.base.fit(g);
    ws.base.visited.clear();
    ws.base.queue.clear();
    ws.community.clear();
    {
        let QueryWorkspace {
            base, community, ..
        } = ws;
        let Workspace { visited, queue, .. } = base;
        visited.insert(q); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
        queue.push(q.0); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
        while let Some(xi) = queue.pop() {
            let x = Vertex(xi);
            for (w, e) in g.neighbors_with_edges(x) {
                if g.is_upper(x) {
                    community.push(e); // record each edge from its upper endpoint; contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
                }
                // contract-ok: warm workspace scratch; growth is cold
                if visited.insert(w) {
                    queue.push(w.0); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
                }
            }
        }
        community.sort_unstable();
    }
    if ws.community.is_empty() {
        return;
    }
    // The expansion machinery tolerates a start graph that is not an
    // (α,β)-core: validation peels candidate components before accepting.
    // The final unconditional validation of the expansion assumes the
    // input community itself qualifies, which is not guaranteed here, so
    // guard: if q is not in the (α,β)-core of G — equivalently, of its
    // component, since peeling never crosses component boundaries — the
    // answer is empty.
    abcore_in(g, alpha, beta, &mut ws.base);
    if ws.base.dead.contains(q) {
        return;
    }
    let community = std::mem::take(&mut ws.community);
    scs_expand_into(
        g,
        &community,
        q,
        alpha,
        beta,
        ExpandOptions::default(),
        ws,
        out,
    );
    ws.community = community;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::DeltaIndex;
    use crate::query::peel::scs_peel;
    use bigraph::builder::figure2_example;
    use bigraph::generators::random_bipartite;
    use bigraph::weights::WeightModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn figure2_matches_indexed_algorithms() {
        let g = figure2_example();
        let q = g.upper(2);
        let r = scs_baseline(&g, q, 2, 2);
        assert_eq!(r.size(), 4);
        assert_eq!(r.min_weight(), Some(13.0));
    }

    #[test]
    fn random_graphs_match_peel() {
        let mut rng = StdRng::seed_from_u64(500);
        let mut ws = QueryWorkspace::new();
        let mut out = Vec::new();
        for trial in 0..3 {
            let g0 = random_bipartite(16, 16, 110 + 10 * trial, &mut rng);
            let g = WeightModel::Uniform { lo: 1.0, hi: 9.0 }.apply(&g0, &mut rng);
            let idx = DeltaIndex::build(&g);
            for a in 1..=3 {
                for b in 1..=3 {
                    for qi in 0..4 {
                        let q = g.upper(qi);
                        let c = idx.query_community(&g, q, a, b);
                        let rb = scs_baseline(&g, q, a, b);
                        if c.is_empty() {
                            assert!(rb.is_empty(), "α={a} β={b} q={q:?}");
                            continue;
                        }
                        let rp = scs_peel(&g, &c, q, a, b);
                        assert!(rb.same_edges(&rp), "α={a} β={b} q={q:?}");
                        // Workspace-reusing form agrees.
                        scs_baseline_into(&g, q, a, b, &mut ws, &mut out);
                        assert_eq!(out, rb.edges(), "α={a} β={b} q={q:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn query_vertex_outside_any_core() {
        let g = figure2_example();
        // u500 has degree 1: no (2,2)-community.
        let r = scs_baseline(&g, g.upper(499), 2, 2);
        assert!(r.is_empty());
    }

    #[test]
    fn isolated_vertex() {
        let mut b = bigraph::GraphBuilder::new();
        b.add_edge(0, 0, 1.0);
        b.ensure_upper(3);
        let g = b.build().unwrap();
        let r = scs_baseline(&g, g.upper(2), 1, 1);
        assert!(r.is_empty());
    }
}
