//! Independent verification oracle for significant (α,β)-communities.
//!
//! This module re-derives the answer from Definition 5 alone, using only
//! the generic (slow) subgraph operations of `bigraph` — none of the
//! optimized index/peel/expand machinery. The test suites use it to
//! cross-check every fast algorithm.

use bigraph::{BipartiteGraph, Subgraph, Vertex, Weight};

/// The maximum weight `w` such that the subgraph of `community` induced
/// by edges of weight ≥ `w` still contains `q` in a connected,
/// degree-satisfying piece — i.e. `f(R)`. Linear scan over distinct
/// weights (deliberately naive).
pub fn max_feasible_weight(
    community: &Subgraph<'_>,
    q: Vertex,
    alpha: usize,
    beta: usize,
) -> Option<Weight> {
    let mut weights: Vec<Weight> = community
        .edges()
        .iter()
        .map(|&e| community.graph().weight(e))
        .collect();
    weights.sort_unstable_by(|a, b| b.total_cmp(a)); // descending
    weights.dedup_by(|a, b| a.total_cmp(b).is_eq());
    for w in weights {
        let core = community.filter_min_weight(w).peel_to_core(alpha, beta);
        if core.contains_vertex(q) {
            return Some(w);
        }
    }
    None
}

/// Reference implementation of the significant (α,β)-community: the
/// component of `q` in the (α,β)-core of the `f(R)`-filtered community.
pub fn reference_significant_community<'g>(
    community: &Subgraph<'g>,
    q: Vertex,
    alpha: usize,
    beta: usize,
) -> Subgraph<'g> {
    match max_feasible_weight(community, q, alpha, beta) {
        None => Subgraph::empty(community.graph()),
        Some(w) => community
            .filter_min_weight(w)
            .peel_to_core(alpha, beta)
            .component_of(q),
    }
}

/// Checks every clause of Definition 5 for a candidate result `r`, given
/// the community it was extracted from. Returns a human-readable error on
/// the first violation.
pub fn verify_significant(
    g: &BipartiteGraph,
    community: &Subgraph<'_>,
    q: Vertex,
    alpha: usize,
    beta: usize,
    r: &Subgraph<'_>,
) -> Result<(), String> {
    if community.is_empty() {
        return if r.is_empty() {
            Ok(())
        } else {
            Err("result must be empty when the community is empty".into())
        };
    }
    if r.is_empty() {
        return Err("result must be nonempty when the community is nonempty".into());
    }
    // 1) Connectivity: connected and contains q.
    if !r.contains_vertex(q) {
        return Err(format!("result does not contain the query vertex {q:?}"));
    }
    if !r.is_connected() {
        return Err("result is not connected".into());
    }
    // 2) Cohesiveness.
    if !r.satisfies_degrees(alpha, beta) {
        return Err(format!(
            "result violates the (α={alpha}, β={beta}) degree constraint"
        ));
    }
    // Result must live inside the community.
    if !r.edges().iter().all(|&e| community.contains_edge(e)) {
        return Err("result contains edges outside the community".into());
    }
    // 3) Maximality: f(r) is the max feasible weight, and r is the full
    // component at that weight.
    let f_r = r.min_weight().expect("nonempty");
    let best =
        max_feasible_weight(community, q, alpha, beta).expect("community itself is feasible");
    if f_r.total_cmp(&best).is_ne() {
        return Err(format!(
            "f(R) = {f_r} but the maximum feasible weight is {best}"
        ));
    }
    let reference = reference_significant_community(community, q, alpha, beta);
    if !r.same_edges(&reference) {
        return Err(format!(
            "result is not edge-maximal: has {} edges, reference has {}",
            r.size(),
            reference.size()
        ));
    }
    let _ = g;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bicore::abcore::abcore_community;
    use bigraph::builder::figure2_example;

    #[test]
    fn oracle_on_figure2() {
        let g = figure2_example();
        let q = g.upper(2);
        let c = abcore_community(&g, q, 2, 2);
        assert_eq!(max_feasible_weight(&c, q, 2, 2), Some(13.0));
        let r = reference_significant_community(&c, q, 2, 2);
        assert_eq!(r.size(), 4);
        assert!(verify_significant(&g, &c, q, 2, 2, &r).is_ok());
    }

    #[test]
    fn oracle_rejects_bad_candidates() {
        let g = figure2_example();
        let q = g.upper(2);
        let c = abcore_community(&g, q, 2, 2);
        // The whole community is connected and satisfies degrees but is
        // not weight-maximal.
        let err = verify_significant(&g, &c, q, 2, 2, &c).unwrap_err();
        assert!(err.contains("f(R)"), "{err}");
        // The empty result is rejected for a nonempty community.
        let err = verify_significant(&g, &c, q, 2, 2, &Subgraph::empty(&g)).unwrap_err();
        assert!(err.contains("nonempty"), "{err}");
    }

    #[test]
    fn empty_community_accepts_only_empty() {
        let g = figure2_example();
        let q = g.upper(499);
        let c = abcore_community(&g, q, 2, 2);
        assert!(c.is_empty());
        assert!(verify_significant(&g, &c, q, 2, 2, &Subgraph::empty(&g)).is_ok());
    }

    #[test]
    fn workspace_variants_satisfy_the_definition() {
        // The oracle is the definitional ground truth; the reused-
        // workspace entry points must satisfy every clause of
        // Definition 5 just like the fresh-allocation paths do.
        use crate::workspace::QueryWorkspace;
        use crate::{Algorithm, CommunitySearch};
        let search = CommunitySearch::new(figure2_example());
        let g = search.graph();
        let mut ws = QueryWorkspace::new();
        let mut out = Vec::new();
        for (a, b) in [(2, 2), (3, 3), (2, 3)] {
            for qi in 0..4 {
                let q = g.upper(qi);
                let c = abcore_community(g, q, a, b);
                if c.is_empty() {
                    continue;
                }
                for algo in [Algorithm::Peel, Algorithm::Expand, Algorithm::Binary] {
                    search.significant_community_into(q, a, b, algo, &mut ws, &mut out);
                    let r = Subgraph::from_edges(g, out.clone());
                    verify_significant(g, &c, q, a, b, &r)
                        .unwrap_or_else(|e| panic!("{algo} α={a} β={b} q={q:?}: {e}"));
                }
            }
        }
    }
}
