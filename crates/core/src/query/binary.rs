//! `SCS-Binary`: binary search over the distinct edge weights of the
//! community (the alternative the paper discusses in the Section IV-B
//! remark). Each probe peels the weight-filtered community to its
//! (α,β)-core and checks whether the query vertex survives; the answer is
//! the component of `q` at the largest feasible weight.
//!
//! Every probe reuses the [`QueryWorkspace`]'s subset/liveness/degree
//! buffers, so the `O(log W)` probes perform zero allocations on a warm
//! workspace — previously each probe allocated three community-sized
//! arrays.

use crate::local::LocalGraph;
use crate::query::peel::degree_peel_in;
use crate::workspace::{LocalScratch, QueryWorkspace};
use bigraph::{BipartiteGraph, EdgeId, Subgraph, Vertex, Weight};

/// `SCS-Binary`: finds the significant (α,β)-community by binary search
/// on the weight threshold. `O(log W · size(C))` time where `W` is the
/// number of distinct weights in the community.
///
/// Thin wrapper over [`scs_binary_into`] with a throwaway workspace.
pub fn scs_binary<'g>(
    g: &'g BipartiteGraph,
    community: &Subgraph<'g>,
    q: Vertex,
    alpha: usize,
    beta: usize,
) -> Subgraph<'g> {
    let mut out = Vec::new();
    let ws = &mut QueryWorkspace::new();
    scs_binary_into(g, community.edges(), q, alpha, beta, ws, &mut out);
    Subgraph::from_edges(g, out)
}

/// `feasible(w)`: `q` survives the (α,β)-peel of `{edges of weight ≥ w}`.
/// Leaves the surviving edges in `s.alive` and degrees in `s.deg`.
fn feasible(
    lg: &LocalGraph,
    w: Weight,
    lq: u32,
    alpha: u32,
    beta: u32,
    s: &mut LocalScratch,
) -> bool {
    s.subset.clear();
    s.subset
        .extend((0..lg.n_edges() as u32).filter(|&le| lg.weight(le) >= w)); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
    let subset = std::mem::take(&mut s.subset);
    degree_peel_in(
        lg,
        &subset,
        alpha,
        beta,
        &mut s.alive,
        &mut s.deg,
        &mut s.cascade,
    );
    s.subset = subset;
    s.deg[lq as usize] >= lg.need(lq, alpha, beta)
}

/// Allocation-free `SCS-Binary` over a community given as a sorted
/// edge-id slice; `out` is cleared first and receives the sorted result
/// edges.
// scs-contract: no-alloc — kernels draw every buffer from the caller's workspace; warm queries must stay heap-silent.
pub fn scs_binary_into(
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
    let (alpha, beta) = (alpha as u32, beta as u32);

    // Distinct weights, ascending.
    s.weights.clear();
    s.weights
        .extend((0..lg.n_edges() as u32).map(|le| lg.weight(le))); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
    s.weights.sort_unstable_by(|a, b| a.total_cmp(b));
    s.weights.dedup_by(|a, b| a.total_cmp(b).is_eq());
    let weights = std::mem::take(&mut s.weights);

    // Invariant: weights[lo] feasible, weights[hi] infeasible (hi may be
    // one past the end). Feasibility is monotone: feasible at the minimum
    // weight (the community itself), infeasible beyond the maximum.
    let mut lo = 0usize;
    let mut hi = weights.len();
    debug_assert!(
        feasible(lg, weights[0], lq, alpha, beta, s),
        "community itself qualifies"
    );
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if feasible(lg, weights[mid], lq, alpha, beta, s) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // Re-peel at the answer threshold so `s.alive` holds its core.
    let ok = feasible(lg, weights[lo], lq, alpha, beta, s);
    assert!(ok, "lo is feasible by invariant");
    s.weights = weights;
    let LocalScratch {
        alive,
        visited,
        stack,
        out: lout,
        ..
    } = s;
    lg.component_edges_into(lq, alive, visited, stack, lout);
    lg.emit_globals(&s.out, out);
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
    fn figure2_matches_peel() {
        let g = figure2_example();
        let idx = DeltaIndex::build(&g);
        let q = g.upper(2);
        let c = idx.query_community(&g, q, 2, 2);
        let r = scs_binary(&g, &c, q, 2, 2);
        assert_eq!(r.size(), 4);
        assert_eq!(r.min_weight(), Some(13.0));
    }

    #[test]
    fn random_graphs_match_peel() {
        let mut rng = StdRng::seed_from_u64(400);
        let mut ws = QueryWorkspace::new();
        let mut out = Vec::new();
        for trial in 0..4 {
            let g0 = random_bipartite(18, 18, 120 + trial * 12, &mut rng);
            let g = WeightModel::Ratings { levels: 5 }.apply(&g0, &mut rng);
            let idx = DeltaIndex::build(&g);
            for a in 1..=3 {
                for b in 1..=3 {
                    for qi in 0..5 {
                        let q = g.lower(qi);
                        let c = idx.query_community(&g, q, a, b);
                        if c.is_empty() {
                            continue;
                        }
                        let rp = scs_peel(&g, &c, q, a, b);
                        let rb = scs_binary(&g, &c, q, a, b);
                        assert!(rb.same_edges(&rp), "α={a} β={b} q={q:?}");
                        // The reused-workspace form gives the same answer.
                        scs_binary_into(&g, c.edges(), q, a, b, &mut ws, &mut out);
                        assert_eq!(out, rb.edges(), "α={a} β={b} q={q:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn few_distinct_weights() {
        // The paper notes SCS-Binary shines when the number of distinct
        // weights is small; make sure a 2-level weighting works.
        let mut rng = StdRng::seed_from_u64(401);
        let g0 = random_bipartite(15, 15, 100, &mut rng);
        let g = g0.reweighted(|e, _, _| if e.index() % 2 == 0 { 1.0 } else { 2.0 });
        let idx = DeltaIndex::build(&g);
        let q = g.upper(0);
        let c = idx.query_community(&g, q, 2, 2);
        if c.is_empty() {
            return;
        }
        let rp = scs_peel(&g, &c, q, 2, 2);
        let rb = scs_binary(&g, &c, q, 2, 2);
        assert!(rb.same_edges(&rp));
    }

    #[test]
    fn empty_community() {
        let g = figure2_example();
        assert!(scs_binary(&g, &Subgraph::empty(&g), g.upper(0), 2, 2).is_empty());
    }
}
