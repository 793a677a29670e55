//! The degeneracy-bounded index `Iδ` (Section III-B, Algorithm 3).
//!
//! `Iδ` exploits Lemma 4 — every nonempty (α,β)-core has `min(α,β) ≤ δ` —
//! to store only `2δ` levels: for each τ ≤ δ, the annotated adjacency of
//! the (τ,τ)-core under α-offsets (serving queries with α ≤ β, where
//! α = min) and under β-offsets (serving β < α). Construction is
//! `O(δ·m)` time and the index takes `O(δ·m)` space (Lemmas 5–6), while
//! retrieval of any (α,β)-community stays optimal.

use super::level::{query_level_into, Entry, Level, QueryStats};
use bicore::decompose::{alpha_offsets, beta_offsets};
use bicore::degeneracy::{degeneracy, unipartite_core_numbers};
use bigraph::workspace::Workspace;
use bigraph::{BipartiteGraph, EdgeId, Subgraph, Vertex};

/// The degeneracy-bounded index `Iδ = (Iα_δ, Iβ_δ)`.
#[derive(Debug, Clone)]
pub struct DeltaIndex {
    pub(crate) delta: usize,
    /// `Iα_δ[·][τ]`, τ = 1..=δ: entries with `s_a ≥ τ` over the (τ,τ)-core.
    pub(crate) alpha_levels: Vec<Level>,
    /// `Iβ_δ[·][τ]`, τ = 1..=δ: entries with `s_b > τ` over the (τ,τ)-core.
    pub(crate) beta_levels: Vec<Level>,
}

/// Builds the τ-th pair of levels `(Iα_δ[·][τ], Iβ_δ[·][τ])` from fresh
/// offsets. Shared by [`DeltaIndex::build`] and the incremental
/// maintenance in [`crate::index::maintenance`].
pub(crate) fn build_level_pair(
    g: &BipartiteGraph,
    tau: usize,
    core_numbers: &[u32],
) -> (Level, Level) {
    let sa = alpha_offsets(g, tau);
    let sb = beta_offsets(g, tau);
    let mut la = Level::new(g.n_vertices());
    let mut lb = Level::new(g.n_vertices());
    let mut scratch_a: Vec<Entry> = Vec::new();
    let mut scratch_b: Vec<Entry> = Vec::new();
    for v in g.vertices() {
        // v ∈ (τ,τ)-core ⇔ unipartite core number ≥ τ.
        if (core_numbers[v.index()] as usize) < tau {
            continue;
        }
        scratch_a.clear();
        scratch_b.clear();
        for (w, e) in g.neighbors_with_edges(v) {
            let wa = sa[w.index()];
            if wa as usize >= tau {
                scratch_a.push(Entry {
                    nbr: w,
                    edge: e,
                    offset: wa,
                });
            }
            let wb = sb[w.index()];
            if wb as usize > tau {
                scratch_b.push(Entry {
                    nbr: w,
                    edge: e,
                    offset: wb,
                });
            }
        }
        scratch_a.sort_unstable_by_key(|e| std::cmp::Reverse(e.offset));
        scratch_b.sort_unstable_by_key(|e| std::cmp::Reverse(e.offset));
        la.push_vertex(v, sa[v.index()], &scratch_a);
        lb.push_vertex(v, sb[v.index()], &scratch_b);
    }
    (la, lb)
}

impl DeltaIndex {
    /// Builds `Iδ` in `O(δ·m)` time (Algorithm 3).
    pub fn build(g: &BipartiteGraph) -> Self {
        let delta = degeneracy(g);
        let core_numbers = unipartite_core_numbers(g);
        let mut alpha_levels = Vec::with_capacity(delta);
        let mut beta_levels = Vec::with_capacity(delta);
        for tau in 1..=delta {
            let (la, lb) = build_level_pair(g, tau, &core_numbers);
            alpha_levels.push(la);
            beta_levels.push(lb);
        }
        DeltaIndex {
            delta,
            alpha_levels,
            beta_levels,
        }
    }

    /// The degeneracy δ of the indexed graph.
    pub fn delta(&self) -> usize {
        self.delta
    }

    /// Total adjacency entries stored across both halves.
    pub fn n_entries(&self) -> usize {
        self.alpha_levels
            .iter()
            .chain(&self.beta_levels)
            .map(Level::n_entries)
            .sum()
    }

    /// Heap bytes (Fig. 11 accounting).
    pub fn heap_bytes(&self) -> usize {
        self.alpha_levels
            .iter()
            .chain(&self.beta_levels)
            .map(Level::heap_bytes)
            .sum()
    }

    /// `Qopt`: optimal retrieval of `C_{α,β}(q)` (Algorithm 2 over `Iδ`).
    ///
    /// Dispatch: queries with `α ≤ β` go through `Iα_δ[·][α]` (α is the
    /// min, so α ≤ δ whenever the answer is nonempty); queries with
    /// `β < α` go through `Iβ_δ[·][β]`.
    ///
    /// Thin wrapper over [`Self::query_community_into`] with a throwaway
    /// workspace.
    pub fn query_community<'g>(
        &self,
        g: &'g BipartiteGraph,
        q: Vertex,
        alpha: usize,
        beta: usize,
    ) -> Subgraph<'g> {
        self.query_community_with_stats(g, q, alpha, beta).0
    }

    /// [`Self::query_community`] plus touch statistics.
    pub fn query_community_with_stats<'g>(
        &self,
        g: &'g BipartiteGraph,
        q: Vertex,
        alpha: usize,
        beta: usize,
    ) -> (Subgraph<'g>, QueryStats) {
        let mut out = Vec::new();
        let stats = self.query_community_into(g, q, alpha, beta, &mut Workspace::new(), &mut out);
        (Subgraph::from_edges(g, out), stats)
    }

    /// Allocation-free retrieval: `out` is cleared and receives the
    /// sorted edge ids of `C_{α,β}(q)`; all scratch comes from `ws`.
    // scs-contract: no-alloc — kernels draw every buffer from the caller's workspace; warm queries must stay heap-silent.
    pub fn query_community_into(
        &self,
        g: &BipartiteGraph,
        q: Vertex,
        alpha: usize,
        beta: usize,
        ws: &mut Workspace,
        out: &mut Vec<EdgeId>,
    ) -> QueryStats {
        assert!(alpha >= 1 && beta >= 1, "degree constraints must be >= 1");
        let mut stats = QueryStats::default();
        out.clear();
        if let Some((level, threshold)) = self.level_for(alpha, beta) {
            query_level_into(g, level, q, threshold, ws, out, &mut stats);
        }
        stats
    }

    /// `true` iff `q` lies in the (α,β)-core: one O(1) lookup of `q`'s own
    /// offset in the level [`Self::query_community_into`] would search.
    pub(crate) fn core_contains(&self, q: Vertex, alpha: usize, beta: usize) -> bool {
        assert!(alpha >= 1 && beta >= 1, "degree constraints must be >= 1");
        self.level_for(alpha, beta)
            .and_then(|(level, threshold)| level.lookup(q).map(|(own, _)| own >= threshold))
            .unwrap_or(false)
    }

    /// The level serving (α,β) and its threshold: `Iα_δ[·][α]` with
    /// threshold β when `α ≤ β`, else `Iβ_δ[·][β]` with threshold α.
    /// `None` when `min(α,β) > δ`, where the (α,β)-core is empty
    /// (Lemma 4).
    fn level_for(&self, alpha: usize, beta: usize) -> Option<(&Level, u32)> {
        // A threshold beyond u32 saturates: no offset reaches it.
        let saturate = |x: usize| u32::try_from(x).unwrap_or(u32::MAX);
        if alpha <= beta {
            self.alpha_levels
                .get(alpha - 1)
                .map(|l| (l, saturate(beta)))
        } else {
            self.beta_levels.get(beta - 1).map(|l| (l, saturate(alpha)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bicore::abcore::abcore_community;
    use bigraph::builder::figure2_example;
    use bigraph::generators::{complete_biclique, random_bipartite};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_online_queries_exhaustively() {
        let mut rng = StdRng::seed_from_u64(200);
        for trial in 0..3 {
            let g = random_bipartite(18, 20, 120 + 15 * trial, &mut rng);
            let idx = DeltaIndex::build(&g);
            let delta = idx.delta();
            for a in 1..=(delta + 2) {
                for b in 1..=(delta + 2) {
                    for v in g.vertices() {
                        let online = abcore_community(&g, v, a, b);
                        let fast = idx.query_community(&g, v, a, b);
                        assert!(
                            fast.same_edges(&online),
                            "α={a} β={b} q={v:?}: {} vs {}",
                            fast.size(),
                            online.size()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn figure2_example_3_3_community() {
        // Example 3 of the paper: C_{3,3}(u1) is the 3×3 biclique
        // {u1,u2,u3} × {v1,v2,v3}.
        let g = figure2_example();
        let idx = DeltaIndex::build(&g);
        assert_eq!(idx.delta(), 3);
        let c = idx.query_community(&g, g.upper(0), 3, 3);
        assert_eq!(c.size(), 9);
        let (us, ls) = c.layer_vertices();
        assert_eq!(us.len(), 3);
        assert_eq!(ls.len(), 3);
    }

    #[test]
    fn figure2_delta_index_is_small() {
        let g = figure2_example();
        let idx = DeltaIndex::build(&g);
        let basic = super::super::basic::BasicIndex::build(&g, bigraph::Side::Upper);
        // The motivating claim of §III-B: Iδ avoids the 999 copies of
        // u1's adjacency that Iα_bs stores.
        assert!(
            idx.n_entries() * 10 < basic.n_entries(),
            "Iδ {} entries vs Iα_bs {}",
            idx.n_entries(),
            basic.n_entries()
        );
    }

    #[test]
    fn optimal_touch_bound() {
        let mut rng = StdRng::seed_from_u64(201);
        let g = random_bipartite(40, 40, 300, &mut rng);
        let idx = DeltaIndex::build(&g);
        for a in 1..=idx.delta() {
            for b in 1..=idx.delta() {
                let (sub, stats) = idx.query_community_with_stats(&g, g.upper(3), a, b);
                if sub.is_empty() {
                    continue;
                }
                let nv = sub.vertices().len();
                assert!(
                    stats.entries_touched <= 2 * sub.size() + nv,
                    "α={a} β={b}: touched {} for {} edges",
                    stats.entries_touched,
                    sub.size()
                );
            }
        }
    }

    #[test]
    fn beta_branch_exercised() {
        // Query with β < α must route through Iβ_δ.
        let g = complete_biclique(6, 4);
        let idx = DeltaIndex::build(&g);
        assert_eq!(idx.delta(), 4);
        // α=4 > β=2 ⇒ uses beta_levels[1].
        let c = idx.query_community(&g, g.upper(0), 4, 2);
        assert_eq!(c.size(), 24);
        // α=5, β=3: all uppers have degree 4 < 5 ⇒ empty.
        let c = idx.query_community(&g, g.upper(0), 5, 3);
        assert!(c.is_empty());
        // α=3 ≤ β=6: uses alpha_levels[2]; lowers have degree 6 ≥ 6 ✓.
        let c = idx.query_community(&g, g.upper(0), 3, 6);
        assert_eq!(c.size(), 24);
    }

    #[test]
    fn beyond_delta_empty() {
        let g = complete_biclique(3, 3);
        let idx = DeltaIndex::build(&g);
        assert_eq!(idx.delta(), 3);
        assert!(idx.query_community(&g, g.upper(0), 4, 4).is_empty());
        assert!(idx.query_community(&g, g.upper(0), 4, 5).is_empty());
        assert!(idx.query_community(&g, g.upper(0), 5, 4).is_empty());
    }
}
