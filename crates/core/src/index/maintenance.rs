//! Dynamic maintenance of `Iδ` under edge insertions and removals
//! (Section III-B, "Discussion of index maintenance").
//!
//! The paper's key observation is that an update to edge `(u, v)` can
//! only change offsets at levels where the edge itself can participate in
//! a core: for the α-half that means `τ ≤ deg(u)` (the upper endpoint
//! must satisfy its own constraint) and for the β-half `τ ≤ deg(v)`. All
//! other levels are untouched, so an update refreshes only
//! `O(deg(u) + deg(v))` of the `2δ` levels — plus at most one level when
//! δ itself grows or shrinks. Within a refreshed level we recompute
//! offsets with the `O(m)` decomposition kernel. The paper further
//! localizes this to the affected communities (its `S⁺`/`S⁻` sets).
//! That refinement only shrinks the work inside a refreshed level: it
//! selects the same levels and must produce the same offsets, so
//! recomputing a refreshed level whole gives the identical index at a
//! higher constant. Localizing it is an open roadmap item.
//!
//! Correctness is therefore easy to state: after every update the index
//! is *identical* to a fresh [`DeltaIndex::build`] on the new graph
//! (property-tested in `tests/property_invariants.rs`).

use super::delta::{build_level_pair, DeltaIndex};
use bicore::degeneracy::{degeneracy, unipartite_core_numbers};
use bigraph::{
    BipartiteGraph, BuildError, DuplicatePolicy, GraphBuilder, Subgraph, Vertex, Weight,
};
use std::fmt;

/// Errors from [`DynamicIndex`] updates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// Insertion of an already-present edge.
    EdgeExists { upper: usize, lower: usize },
    /// Removal of a missing edge.
    EdgeMissing { upper: usize, lower: usize },
    /// Insertion at a vertex outside the graph's layers: the index
    /// maintains a fixed vertex set.
    VertexOutOfRange { upper: usize, lower: usize },
    /// Insertion with a NaN or infinite weight.
    NonFiniteWeight { upper: usize, lower: usize },
    /// The updated graph failed validation.
    Build(BuildError),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::EdgeExists { upper, lower } => {
                write!(f, "edge (u{upper}, l{lower}) already exists")
            }
            UpdateError::EdgeMissing { upper, lower } => {
                write!(f, "edge (u{upper}, l{lower}) does not exist")
            }
            UpdateError::VertexOutOfRange { upper, lower } => {
                write!(
                    f,
                    "edge (u{upper}, l{lower}) names a vertex outside the graph"
                )
            }
            UpdateError::NonFiniteWeight { upper, lower } => {
                write!(f, "non-finite weight on edge (u{upper}, l{lower})")
            }
            UpdateError::Build(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// A graph paired with its `Iδ` index, kept consistent under edge
/// insertions and removals.
#[derive(Debug, Clone)]
pub struct DynamicIndex {
    graph: BipartiteGraph,
    index: DeltaIndex,
}

impl DynamicIndex {
    /// Builds the initial index.
    pub fn new(graph: BipartiteGraph) -> Self {
        let index = DeltaIndex::build(&graph);
        DynamicIndex { graph, index }
    }

    /// The current graph.
    pub fn graph(&self) -> &BipartiteGraph {
        &self.graph
    }

    /// The current index (always consistent with [`Self::graph`]).
    pub fn index(&self) -> &DeltaIndex {
        &self.index
    }

    /// A point-in-time [`crate::CommunitySearch`] over the current graph
    /// and index, cloned rather than rebuilt (no `O(δ·m)` work). This is
    /// the hand-off the `scs-service` epoch-swap path uses: maintain
    /// updates here, snapshot, and install the snapshot into the running
    /// query engine.
    pub fn snapshot(&self) -> crate::CommunitySearch {
        crate::CommunitySearch::from_parts(self.graph.clone(), self.index.clone())
    }

    /// Inserts edge `(upper, lower)` with weight `w` and repairs the
    /// index incrementally. Both endpoints must already be in the graph
    /// and `w` must be finite.
    pub fn insert_edge(
        &mut self,
        upper: usize,
        lower: usize,
        w: Weight,
    ) -> Result<(), UpdateError> {
        if upper >= self.graph.n_upper() || lower >= self.graph.n_lower() {
            return Err(UpdateError::VertexOutOfRange { upper, lower });
        }
        if !w.is_finite() {
            return Err(UpdateError::NonFiniteWeight { upper, lower });
        }
        if self
            .graph
            .has_edge(self.graph.upper(upper), self.graph.lower(lower))
        {
            return Err(UpdateError::EdgeExists { upper, lower });
        }
        let new_graph = self.rebuild_graph(Some((upper, lower, w)), None)?;
        self.repair(new_graph, upper, lower);
        Ok(())
    }

    /// Removes edge `(upper, lower)`, returning its weight, and repairs
    /// the index incrementally.
    pub fn remove_edge(&mut self, upper: usize, lower: usize) -> Result<Weight, UpdateError> {
        if upper >= self.graph.n_upper() || lower >= self.graph.n_lower() {
            return Err(UpdateError::EdgeMissing { upper, lower });
        }
        let (u, l) = (self.graph.upper(upper), self.graph.lower(lower));
        let Some(e) = self.graph.find_edge(u, l) else {
            return Err(UpdateError::EdgeMissing { upper, lower });
        };
        let w = self.graph.weight(e);
        let new_graph = self.rebuild_graph(None, Some((upper, lower)))?;
        self.repair(new_graph, upper, lower);
        Ok(w)
    }

    /// Step-1 query on the maintained index.
    pub fn query_community(&self, q: Vertex, alpha: usize, beta: usize) -> Subgraph<'_> {
        self.index.query_community(&self.graph, q, alpha, beta)
    }

    /// Full significant-community query on the maintained index.
    pub fn significant_community(
        &self,
        q: Vertex,
        alpha: usize,
        beta: usize,
        algorithm: crate::Algorithm,
    ) -> Subgraph<'_> {
        let c = self.query_community(q, alpha, beta);
        match algorithm {
            crate::Algorithm::Baseline => crate::query::scs_baseline(&self.graph, q, alpha, beta),
            crate::Algorithm::Expand => crate::query::scs_expand(&self.graph, &c, q, alpha, beta),
            crate::Algorithm::Binary => crate::query::scs_binary(&self.graph, &c, q, alpha, beta),
            crate::Algorithm::Peel | crate::Algorithm::Auto => {
                crate::query::scs_peel(&self.graph, &c, q, alpha, beta)
            }
        }
    }

    /// Rebuilds the CSR with one edge added and/or removed. `O(n + m)` —
    /// the storage is immutable by design; the *index* repair below is
    /// what the incremental logic optimizes.
    fn rebuild_graph(
        &self,
        insert: Option<(usize, usize, Weight)>,
        remove: Option<(usize, usize)>,
    ) -> Result<BipartiteGraph, UpdateError> {
        let g = &self.graph;
        let mut b = GraphBuilder::with_policy(DuplicatePolicy::Error);
        b.ensure_upper(g.n_upper().saturating_sub(1));
        b.ensure_lower(g.n_lower().saturating_sub(1));
        for e in g.edge_ids() {
            let (u, l) = g.endpoints(e);
            let (ui, li) = (g.local_index(u), g.local_index(l));
            if remove == Some((ui, li)) {
                continue;
            }
            b.add_edge(ui, li, g.weight(e));
        }
        if let Some((u, l, w)) = insert {
            b.add_edge(u, l, w);
        }
        b.build().map_err(UpdateError::Build)
    }

    /// Refreshes exactly the levels that the update to `(upper, lower)`
    /// can affect.
    fn repair(&mut self, new_graph: BipartiteGraph, upper: usize, lower: usize) {
        let old_delta = self.index.delta;
        let new_delta = degeneracy(&new_graph);
        let core_numbers = unipartite_core_numbers(&new_graph);

        // Degrees on both old and new graph bound the affected levels:
        // the edge can participate in a (τ,·)-core only while its upper
        // endpoint can satisfy τ, and in a (·,τ)-core only while its
        // lower endpoint can. Taking the max of old/new degree covers
        // both insertion (new degree is larger) and removal (old degree
        // is larger).
        let u_old = self.graph.upper(upper);
        let l_old = self.graph.lower(lower);
        let deg_u = self
            .graph
            .degree(u_old)
            .max(new_graph.degree(new_graph.upper(upper)));
        let deg_l = self
            .graph
            .degree(l_old)
            .max(new_graph.degree(new_graph.lower(lower)));
        // α-levels τ ≤ min(deg(u), δ) can change; likewise β-levels with
        // deg(v). A level pair is stored jointly, so refresh the union.
        let affected = deg_u.max(deg_l).min(new_delta);

        // Rebuilding the CSR renumbers edges, so levels that keep their
        // offsets still need their stored edge ids rewritten.
        let mut old_to_new: Vec<Option<bigraph::EdgeId>> = Vec::with_capacity(self.graph.n_edges());
        for e in self.graph.edge_ids() {
            let (u, l) = self.graph.endpoints(e);
            old_to_new.push(new_graph.find_edge(u, l));
        }

        self.index.alpha_levels.truncate(new_delta);
        self.index.beta_levels.truncate(new_delta);
        for tau in 1..=new_delta {
            let out_of_range = tau > old_delta; // δ grew: must build fresh
            if !out_of_range && tau > affected {
                // Offsets provably untouched; only edge ids shift. An
                // untouched level cannot contain the updated edge itself
                // (that would require τ ≤ deg of its endpoints ≤ affected).
                self.index.alpha_levels[tau - 1].remap_edges(&old_to_new);
                self.index.beta_levels[tau - 1].remap_edges(&old_to_new);
                continue;
            }
            let (la, lb) = build_level_pair(&new_graph, tau, &core_numbers);
            if tau <= self.index.alpha_levels.len() {
                self.index.alpha_levels[tau - 1] = la;
                self.index.beta_levels[tau - 1] = lb;
            } else {
                self.index.alpha_levels.push(la);
                self.index.beta_levels.push(lb);
            }
        }
        self.index.delta = new_delta;
        self.graph = new_graph;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::generators::random_bipartite;
    use bigraph::weights::WeightModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Compares every query answer of the maintained index against a
    /// fresh build.
    fn assert_index_consistent(dyn_idx: &DynamicIndex) {
        let g = dyn_idx.graph();
        let fresh = DeltaIndex::build(g);
        assert_eq!(dyn_idx.index().delta(), fresh.delta(), "δ mismatch");
        let delta = fresh.delta();
        for a in 1..=(delta + 1) {
            for b in 1..=(delta + 1) {
                for v in g.vertices() {
                    let maintained = dyn_idx.index().query_community(g, v, a, b);
                    let rebuilt = fresh.query_community(g, v, a, b);
                    assert!(
                        maintained.same_edges(&rebuilt),
                        "divergence at α={a} β={b} q={v:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn insertions_keep_index_fresh() {
        let mut rng = StdRng::seed_from_u64(600);
        let g0 = random_bipartite(10, 10, 35, &mut rng);
        let g = WeightModel::Uniform { lo: 0.0, hi: 1.0 }.apply(&g0, &mut rng);
        let mut dyn_idx = DynamicIndex::new(g);
        for _ in 0..12 {
            let u = rng.gen_range(0..10);
            let l = rng.gen_range(0..10);
            let gref = dyn_idx.graph();
            if gref.has_edge(gref.upper(u), gref.lower(l)) {
                continue;
            }
            dyn_idx.insert_edge(u, l, rng.gen_range(0.0..1.0)).unwrap();
            assert_index_consistent(&dyn_idx);
        }
    }

    #[test]
    fn removals_keep_index_fresh() {
        let mut rng = StdRng::seed_from_u64(601);
        let g0 = random_bipartite(10, 10, 50, &mut rng);
        let g = WeightModel::Uniform { lo: 0.0, hi: 1.0 }.apply(&g0, &mut rng);
        let mut dyn_idx = DynamicIndex::new(g);
        for _ in 0..12 {
            let gref = dyn_idx.graph();
            if gref.n_edges() == 0 {
                break;
            }
            let e = bigraph::EdgeId(rng.gen_range(0..gref.n_edges()) as u32);
            let (u, l) = gref.endpoints(e);
            let (ui, li) = (gref.local_index(u), gref.local_index(l));
            dyn_idx.remove_edge(ui, li).unwrap();
            assert_index_consistent(&dyn_idx);
        }
    }

    #[test]
    fn delta_growth_and_shrink() {
        // Start with a 2x2 biclique (δ=2), grow it to 3x3 (δ=3), then
        // shrink back.
        let mut b = GraphBuilder::new();
        for u in 0..2 {
            for l in 0..2 {
                b.add_edge(u, l, 1.0 + (u + l) as f64);
            }
        }
        b.ensure_upper(2);
        b.ensure_lower(2);
        let mut dyn_idx = DynamicIndex::new(b.build().unwrap());
        assert_eq!(dyn_idx.index().delta(), 2);
        for (u, l) in [(0, 2), (1, 2), (2, 0), (2, 1), (2, 2)] {
            dyn_idx.insert_edge(u, l, 5.0).unwrap();
        }
        assert_eq!(dyn_idx.index().delta(), 3);
        assert_index_consistent(&dyn_idx);
        dyn_idx.remove_edge(2, 2).unwrap();
        assert_eq!(dyn_idx.index().delta(), 2);
        assert_index_consistent(&dyn_idx);
    }

    #[test]
    fn update_errors() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 0, 1.0);
        let mut dyn_idx = DynamicIndex::new(b.build().unwrap());
        assert_eq!(
            dyn_idx.insert_edge(0, 0, 2.0).unwrap_err(),
            UpdateError::EdgeExists { upper: 0, lower: 0 }
        );
        assert_eq!(
            dyn_idx.remove_edge(0, 5).unwrap_err(),
            UpdateError::EdgeMissing { upper: 0, lower: 5 }
        );
        assert_eq!(dyn_idx.remove_edge(0, 0).unwrap(), 1.0);
        assert_eq!(dyn_idx.graph().n_edges(), 0);
        assert_eq!(dyn_idx.index().delta(), 0);
    }

    #[test]
    fn bad_insertions_are_refused_without_touching_the_index() {
        // A 3×3 biclique missing (u2, l2).
        let mut b = GraphBuilder::new();
        for u in 0..3 {
            for l in 0..3 {
                if (u, l) != (2, 2) {
                    b.add_edge(u, l, 4.0);
                }
            }
        }
        let mut dyn_idx = DynamicIndex::new(b.build().unwrap());
        for w in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                dyn_idx.insert_edge(2, 2, w),
                Err(UpdateError::NonFiniteWeight { upper: 2, lower: 2 }),
                "{w}"
            );
        }
        for (upper, lower) in [(1 << 32, 2), (3, 2), (2, 3)] {
            assert_eq!(
                dyn_idx.insert_edge(upper, lower, 1.0),
                Err(UpdateError::VertexOutOfRange { upper, lower })
            );
        }
        assert_eq!(dyn_idx.graph().n_edges(), 8);
        assert_eq!(dyn_idx.index().delta(), 2);
        // A finite weight between existing vertices goes in.
        dyn_idx.insert_edge(2, 2, 2.5).unwrap();
        let g = dyn_idx.graph();
        let e = g.find_edge(g.upper(2), g.lower(2)).unwrap();
        assert_eq!((g.n_edges(), g.weight(e)), (9, 2.5));
        assert_eq!(dyn_idx.index().delta(), 3);
        assert_index_consistent(&dyn_idx);
    }

    #[test]
    fn queries_after_updates() {
        let mut b = GraphBuilder::new();
        for u in 0..3 {
            for l in 0..3 {
                b.add_edge(u, l, 4.0);
            }
        }
        let mut dyn_idx = DynamicIndex::new(b.build().unwrap());
        let q = dyn_idx.graph().upper(0);
        assert_eq!(dyn_idx.query_community(q, 3, 3).size(), 9);
        dyn_idx.remove_edge(2, 2).unwrap();
        let q = dyn_idx.graph().upper(0);
        assert!(dyn_idx.query_community(q, 3, 3).is_empty());
        assert_eq!(dyn_idx.query_community(q, 2, 2).size(), 8);
        let r = dyn_idx.significant_community(q, 2, 2, crate::Algorithm::Peel);
        assert_eq!(r.size(), 8); // all weights equal
    }
}
