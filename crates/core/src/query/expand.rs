//! `SCS-Expand` (Algorithm 5): extract the significant (α,β)-community by
//! inserting edges in weight-descending order into an initially empty
//! graph `G*`, maintaining connected components with union-find, and
//! validating the query vertex's component `C*` only when the cheap
//! pruning rules (Lemmas 7 and 8) pass and `C*` has grown by a factor of
//! ε since the last validation (ε = 2 minimizes total validation work).
//!
//! Unlike `SCS-Peel`, which must sort the whole community up front, the
//! expansion consumes edges lazily from a max-heap and sorts only the
//! candidate component at each validation — so when the result is much
//! smaller than the community (small α, β), most of the community's
//! edges are never ordered at all. This is where the Fig. 13 crossover
//! between the two algorithms comes from.
//!
//! All working state (heap backing store, inserted-edge set, component
//! tracker, validation buffers) lives in the [`QueryWorkspace`], so a
//! warm workspace expands without heap allocations.

use crate::local::LocalGraph;
use crate::query::peel::{degree_peel_in, weighted_peel_in};
use crate::workspace::{LocalScratch, QueryWorkspace};
use bigraph::{BipartiteGraph, EdgeId, Subgraph, Vertex, Weight};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The expansion factor ε the paper derives as optimal (Section IV-B).
pub const DEFAULT_EPSILON: f64 = 2.0;

/// Max-heap key: weight with total order, ties on edge id for
/// determinism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HeapEdge {
    w: Weight,
    le: u32,
}

impl Eq for HeapEdge {}

impl Ord for HeapEdge {
    fn cmp(&self, other: &Self) -> Ordering {
        self.w
            .total_cmp(&other.w)
            .then_with(|| other.le.cmp(&self.le))
    }
}

impl PartialOrd for HeapEdge {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// `SCS-Expand` with the default [`ExpandOptions`] (ε = 2, both
/// pruning lemmas).
///
/// `community` must be `C_{α,β}(q)`; the paper's baseline variant that
/// expands over the whole graph component instead lives in
/// [`crate::query::baseline::scs_baseline`].
///
/// Thin wrapper over [`scs_expand_into`] with a throwaway workspace.
pub fn scs_expand<'g>(
    g: &'g BipartiteGraph,
    community: &Subgraph<'g>,
    q: Vertex,
    alpha: usize,
    beta: usize,
) -> Subgraph<'g> {
    let mut out = Vec::new();
    let (opts, ws) = (ExpandOptions::default(), &mut QueryWorkspace::new());
    scs_expand_into(g, community.edges(), q, alpha, beta, opts, ws, &mut out);
    Subgraph::from_edges(g, out)
}

/// Tuning knobs for [`scs_expand_into`], used by the ablation study
/// (`ablation_expand` in the bench crate) to quantify what each of the
/// paper's design choices buys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpandOptions {
    /// Geometric validation factor (> 1); the paper derives ε = 2.
    pub epsilon: f64,
    /// Apply the Lemma 7 edge-count bound before validating.
    pub use_lemma7: bool,
    /// Apply the Lemma 8 degree-census bound before validating.
    pub use_lemma8: bool,
}

impl Default for ExpandOptions {
    fn default() -> Self {
        ExpandOptions {
            epsilon: DEFAULT_EPSILON,
            use_lemma7: true,
            use_lemma8: true,
        }
    }
}

/// Allocation-free `SCS-Expand` over a community given as a sorted
/// edge-id slice, with full control over the pruning heuristics; `out`
/// is cleared first and receives the sorted result edges.
///
/// # Panics
/// Panics unless `opts.epsilon > 1`.
// scs-contract: no-alloc — kernels draw every buffer from the caller's workspace; warm queries must stay heap-silent.
#[allow(clippy::too_many_arguments)] // the wrapper's arguments plus options and scratch
pub fn scs_expand_into(
    g: &BipartiteGraph,
    community: &[EdgeId],
    q: Vertex,
    alpha: usize,
    beta: usize,
    opts: ExpandOptions,
    ws: &mut QueryWorkspace,
    out: &mut Vec<EdgeId>,
) {
    let epsilon = opts.epsilon;
    assert!(epsilon > 1.0, "expansion parameter must exceed 1");
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

    // All-equal weights: the answer is q's component of the input's
    // (α,β)-core. For a genuine C_{α,β}(q) that is the input itself, but
    // SCS-Baseline feeds this function a whole graph component, so peel
    // defensively (with the flat-array kernel — this is the fast path).
    if let Some((lo, hi)) = lg.weight_bounds() {
        if lo.total_cmp(&hi).is_eq() {
            s.subset.clear();
            s.subset.extend(0..lg.n_edges() as u32); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
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
            if s.deg[lq as usize] < lg.need(lq, alpha, beta) {
                return;
            }
            let LocalScratch {
                alive,
                visited,
                stack,
                out: lout,
                ..
            } = s;
            lg.component_edges_into(lq, alive, visited, stack, lout);
            lg.emit_globals(&s.out, out);
            return;
        }
    }

    // Lazy weight-descending order: O(m) heapify, O(log m) per pop, so a
    // search that stops early never pays for ordering the rest. The heap
    // borrows its backing store from the workspace.
    let mut heap_buf = std::mem::take(&mut s.heap);
    heap_buf.clear();
    // contract-ok: warm workspace scratch; growth is cold
    heap_buf.extend((0..lg.n_edges() as u32).map(|le| HeapEdge {
        w: lg.weight(le),
        le,
    }));
    let mut heap = BinaryHeap::from(heap_buf);
    s.added.ensure(lg.n_edges());
    s.added.clear();
    s.tracker.reset(
        lg.n_vertices(),
        lg.n_upper_local(),
        alpha as usize,
        beta as usize,
    );
    let mut pre_size: u64 = 0;
    let mut last_component_edges: u64 = 0;
    let mut validated = false;

    while let Some(&HeapEdge { w: w_max, .. }) = heap.peek() {
        // Insert the whole maximum-weight group: candidates are only
        // meaningful at group boundaries, where "every edge of weight
        // ≥ f" is present.
        while let Some(&top) = heap.peek() {
            if top.w.total_cmp(&w_max).is_ne() {
                break;
            }
            heap.pop();
            s.added.insert_id(top.le as usize);
            let (a, b) = lg.ends(top.le);
            s.tracker.add_edge(a as usize, b as usize);
        }
        // C* is q's component of G*; skip cheaply when possible.
        if !s.tracker.is_present(lq as usize) {
            continue;
        }
        let c_edges = s.tracker.edges_of(lq as usize);
        if c_edges == last_component_edges {
            continue; // C* unchanged (Algorithm 5 line 10)
        }
        last_component_edges = c_edges;
        if (opts.use_lemma7 && !s.tracker.lemma7_holds(lq as usize))
            || (opts.use_lemma8 && !s.tracker.lemma8_holds(lq as usize))
        {
            continue; // Lemma 7/8 pruning
        }
        if (c_edges as f64) < pre_size as f64 * epsilon {
            continue; // geometric validation schedule
        }
        pre_size = c_edges;
        if validate_in(lg, lq, alpha, beta, s) {
            validated = true;
            break;
        }
    }
    if !validated {
        // Everything added: C* = C_{α,β}(q), which is itself a valid
        // candidate, so the final validation cannot fail.
        let ok = validate_in(lg, lq, alpha, beta, s);
        assert!(ok, "the full community always validates");
    }
    s.heap = heap.into_vec();
    lg.emit_globals(&s.out, out);
}

/// Algorithm 5 lines 16–18: peel a copy of `C*` to its (α,β)-core; if `q`
/// survives, run the Algorithm 4 search on that copy, leaving `R` in
/// `s.out` and returning `true`. Sorting happens here, on `C*` only.
fn validate_in(lg: &LocalGraph, lq: u32, alpha: u32, beta: u32, s: &mut LocalScratch) -> bool {
    {
        let LocalScratch {
            added,
            visited,
            stack,
            subset,
            ..
        } = s;
        lg.component_edges_into(lq, added, visited, stack, subset);
    }
    let c_star = std::mem::take(&mut s.subset);
    degree_peel_in(
        lg,
        &c_star,
        alpha,
        beta,
        &mut s.alive,
        &mut s.deg,
        &mut s.cascade,
    );
    if s.deg[lq as usize] < lg.need(lq, alpha, beta) {
        s.subset = c_star;
        return false;
    }
    let mut order_asc = c_star;
    order_asc.sort_unstable_by(|&a, &b| lg.weight(a).total_cmp(&lg.weight(b)).then(a.cmp(&b)));
    weighted_peel_in(lg, lq, alpha, beta, &order_asc, s);
    s.subset = order_asc;
    true
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
        let r = scs_expand(&g, &c, q, 2, 2);
        assert_eq!(r.size(), 4);
        assert_eq!(r.min_weight(), Some(13.0));
        assert!(r.same_edges(&scs_peel(&g, &c, q, 2, 2)));
    }

    #[test]
    fn random_graphs_match_peel() {
        let mut rng = StdRng::seed_from_u64(300);
        for trial in 0..4 {
            let g0 = random_bipartite(20, 20, 140 + trial * 10, &mut rng);
            let g = WeightModel::Uniform { lo: 0.0, hi: 1.0 }.apply(&g0, &mut rng);
            let idx = DeltaIndex::build(&g);
            for a in 1..=3 {
                for b in 1..=3 {
                    for qi in 0..6 {
                        let q = g.upper(qi);
                        let c = idx.query_community(&g, q, a, b);
                        if c.is_empty() {
                            continue;
                        }
                        let rp = scs_peel(&g, &c, q, a, b);
                        let re = scs_expand(&g, &c, q, a, b);
                        assert!(
                            re.same_edges(&rp),
                            "α={a} β={b} q={q:?}: expand {} vs peel {} edges",
                            re.size(),
                            rp.size()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reused_workspace_matches_fresh() {
        let mut rng = StdRng::seed_from_u64(302);
        let g0 = random_bipartite(22, 22, 170, &mut rng);
        let g = WeightModel::Uniform { lo: 0.0, hi: 4.0 }.apply(&g0, &mut rng);
        let idx = DeltaIndex::build(&g);
        let mut ws = QueryWorkspace::new();
        let mut out = Vec::new();
        for a in 1..=3 {
            for b in 1..=3 {
                for qi in 0..5 {
                    let q = g.upper(qi);
                    let c = idx.query_community(&g, q, a, b);
                    if c.is_empty() {
                        continue;
                    }
                    let fresh = scs_expand(&g, &c, q, a, b);
                    let opts = ExpandOptions::default();
                    scs_expand_into(&g, c.edges(), q, a, b, opts, &mut ws, &mut out);
                    assert_eq!(out, fresh.edges(), "α={a} β={b} q={q:?}");
                }
            }
        }
    }

    #[test]
    fn various_epsilons_agree() {
        let mut rng = StdRng::seed_from_u64(301);
        let g0 = random_bipartite(25, 25, 200, &mut rng);
        let g = WeightModel::Uniform { lo: 0.0, hi: 5.0 }.apply(&g0, &mut rng);
        let idx = DeltaIndex::build(&g);
        let q = g.upper(0);
        let c = idx.query_community(&g, q, 2, 2);
        if c.is_empty() {
            return;
        }
        let base = scs_expand(&g, &c, q, 2, 2);
        let (mut ws, mut out) = (QueryWorkspace::new(), Vec::new());
        for epsilon in [1.2, 1.5, 3.0, 10.0] {
            let opts = ExpandOptions {
                epsilon,
                ..Default::default()
            };
            scs_expand_into(&g, c.edges(), q, 2, 2, opts, &mut ws, &mut out);
            assert_eq!(out, base.edges(), "ε={epsilon}");
        }
    }

    #[test]
    #[should_panic(expected = "must exceed 1")]
    fn epsilon_must_exceed_one() {
        let g = figure2_example();
        let opts = ExpandOptions {
            epsilon: 1.0,
            ..Default::default()
        };
        let ws = &mut QueryWorkspace::new();
        scs_expand_into(&g, &[], g.upper(0), 2, 2, opts, ws, &mut Vec::new());
    }

    #[test]
    fn empty_community() {
        let g = figure2_example();
        let r = scs_expand(&g, &Subgraph::empty(&g), g.upper(0), 2, 2);
        assert!(r.is_empty());
    }

    #[test]
    fn heap_edge_ordering_is_total() {
        let a = HeapEdge { w: 1.0, le: 0 };
        let b = HeapEdge { w: 2.0, le: 1 };
        let c = HeapEdge { w: 2.0, le: 2 };
        assert!(b > a);
        assert!(b > c); // ties broken by smaller edge id first
        assert_eq!(b.cmp(&b), Ordering::Equal);
    }
}
