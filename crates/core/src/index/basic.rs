//! The basic indexes `Iα_bs` and `Iβ_bs` (Section III-A, Algorithm 1).
//!
//! `Iα_bs` stores, for every α from 1 to α_max, the annotated adjacency of
//! every vertex in the (α,1)-core, sorted by α-offset descending. With it
//! any (α,β)-community is retrieved in optimal time (Lemma 3). Its flaw —
//! the reason the paper moves on to `Iδ` — is size: a vertex of high
//! degree appears in up to `deg` levels, so the index is `O(α_max·m)`,
//! which explodes on datasets with very large hubs (the paper could not
//! even build it on DUI/EN within its time limit).

use super::level::{query_level_into, Entry, Level, QueryStats};
use bicore::decompose::{alpha_offsets, beta_offsets};
use bigraph::workspace::Workspace;
use bigraph::{BipartiteGraph, EdgeId, Side, Subgraph, Vertex};

/// Error returned when construction exceeds an entry budget (the
/// experiment harness uses this to report "did not finish", mirroring the
/// paper's INF bars in Figs. 10–11).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// Work units spent before giving up (adjacency entries written plus
    /// one `m`-sized offset pass per level).
    pub work_done: usize,
    /// The budget that was exceeded.
    pub budget: usize,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "index construction exceeded budget of {} work units (spent {})",
            self.budget, self.work_done
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// A basic index: `Iα_bs` when built with [`Side::Upper`], `Iβ_bs` with
/// [`Side::Lower`].
#[derive(Debug, Clone)]
pub struct BasicIndex {
    side: Side,
    levels: Vec<Level>,
}

impl BasicIndex {
    /// Builds the index without a budget. `O(k_max · m)` time and space,
    /// where `k_max` is the maximum degree on `side`.
    pub fn build(g: &BipartiteGraph, side: Side) -> Self {
        Self::build_with_budget(g, side, usize::MAX).expect("unbounded budget")
    }

    /// Builds the index, aborting once construction work exceeds
    /// `max_work` units (each level costs `m` for its offset pass, plus
    /// one unit per adjacency entry written). This mirrors the paper's
    /// 10⁴-second construction cutoff: the basic indexes "did not
    /// finish" on the hub-heavy datasets in Figs. 10–11.
    pub fn build_with_budget(
        g: &BipartiteGraph,
        side: Side,
        max_work: usize,
    ) -> Result<Self, BudgetExceeded> {
        let k_max = g.max_degree(side);
        let mut levels = Vec::with_capacity(k_max);
        let mut written = 0usize;
        let mut scratch: Vec<Entry> = Vec::new();
        for k in 1..=k_max {
            written += g.n_edges();
            if written > max_work {
                return Err(BudgetExceeded {
                    work_done: written,
                    budget: max_work,
                });
            }
            let off = match side {
                Side::Upper => alpha_offsets(g, k),
                Side::Lower => beta_offsets(g, k),
            };
            let mut level = Level::new(g.n_vertices());
            for v in g.vertices() {
                if off[v.index()] == 0 {
                    continue; // not in the (k,1)-core / (1,k)-core
                }
                scratch.clear();
                for (w, e) in g.neighbors_with_edges(v) {
                    let wo = off[w.index()];
                    if wo >= 1 {
                        scratch.push(Entry {
                            nbr: w,
                            edge: e,
                            offset: wo,
                        });
                    }
                }
                scratch.sort_unstable_by_key(|e| std::cmp::Reverse(e.offset));
                written += scratch.len();
                if written > max_work {
                    return Err(BudgetExceeded {
                        work_done: written,
                        budget: max_work,
                    });
                }
                level.push_vertex(v, off[v.index()], &scratch);
            }
            levels.push(level);
        }
        Ok(BasicIndex { side, levels })
    }

    /// Which side's constraint indexes the levels.
    pub fn side(&self) -> Side {
        self.side
    }

    /// Number of levels (α_max or β_max).
    pub fn k_max(&self) -> usize {
        self.levels.len()
    }

    /// Total adjacency entries stored.
    pub fn n_entries(&self) -> usize {
        self.levels.iter().map(Level::n_entries).sum()
    }

    /// Heap bytes (Fig. 11 accounting).
    pub fn heap_bytes(&self) -> usize {
        self.levels.iter().map(Level::heap_bytes).sum()
    }

    /// Optimal retrieval of `C_{α,β}(q)` (Algorithm 2).
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

    /// Allocation-free retrieval on reusable scratch; `out` is cleared
    /// and receives the sorted edge ids of `C_{α,β}(q)`.
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
        let (k, threshold) = match self.side {
            Side::Upper => (alpha, beta as u32),
            Side::Lower => (beta, alpha as u32),
        };
        let mut stats = QueryStats::default();
        out.clear();
        if k >= 1 && k <= self.levels.len() {
            query_level_into(g, &self.levels[k - 1], q, threshold, ws, out, &mut stats);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bicore::abcore::abcore_community;
    use bigraph::builder::figure2_example;
    use bigraph::generators::random_bipartite;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn both_sides_match_online_queries() {
        let mut rng = StdRng::seed_from_u64(100);
        for trial in 0..3 {
            let g = random_bipartite(20, 22, 130 + trial * 10, &mut rng);
            let ia = BasicIndex::build(&g, Side::Upper);
            let ib = BasicIndex::build(&g, Side::Lower);
            assert_eq!(ia.k_max(), g.max_degree(Side::Upper));
            assert_eq!(ib.k_max(), g.max_degree(Side::Lower));
            for a in 1..=5 {
                for b in 1..=5 {
                    for qi in [0usize, 5, 19] {
                        let q = g.upper(qi);
                        let online = abcore_community(&g, q, a, b);
                        assert!(ia.query_community(&g, q, a, b).same_edges(&online));
                        assert!(ib.query_community(&g, q, a, b).same_edges(&online));
                        let ql = g.lower(qi);
                        let online = abcore_community(&g, ql, a, b);
                        assert!(ia.query_community(&g, ql, a, b).same_edges(&online));
                        assert!(ib.query_community(&g, ql, a, b).same_edges(&online));
                    }
                }
            }
        }
    }

    #[test]
    fn optimal_touch_bound() {
        let mut rng = StdRng::seed_from_u64(101);
        let g = random_bipartite(40, 40, 320, &mut rng);
        let ia = BasicIndex::build(&g, Side::Upper);
        for a in 1..=4 {
            for b in 1..=4 {
                let q = g.upper(0);
                let (sub, stats) = ia.query_community_with_stats(&g, q, a, b);
                if sub.is_empty() {
                    continue;
                }
                let n_vertices = sub.vertices().len();
                // Each edge is seen from both endpoints, plus at most one
                // over-threshold probe per visited vertex.
                assert!(
                    stats.entries_touched <= 2 * sub.size() + n_vertices,
                    "α={a} β={b}: touched {} > 2·{} + {}",
                    stats.entries_touched,
                    sub.size(),
                    n_vertices
                );
                assert_eq!(stats.result_edges, sub.size());
            }
        }
    }

    #[test]
    fn figure2_alpha_index_blows_up_but_answers() {
        let g = figure2_example();
        let ia = BasicIndex::build(&g, Side::Upper);
        // u1 has degree 999, so Iα_bs has 999 levels.
        assert_eq!(ia.k_max(), 999);
        let c = ia.query_community(&g, g.upper(2), 2, 2);
        assert_eq!(c.size(), 13);
        // The index stores ~999 copies of v1's adjacency: huge.
        assert!(ia.n_entries() > 500_000);
    }

    #[test]
    fn budget_aborts() {
        let g = figure2_example();
        let err = BasicIndex::build_with_budget(&g, Side::Upper, 10_000).unwrap_err();
        assert!(err.work_done > 10_000);
        assert_eq!(err.budget, 10_000);
        assert!(err.to_string().contains("exceeded"));
    }

    #[test]
    fn query_beyond_kmax_is_empty() {
        let mut rng = StdRng::seed_from_u64(102);
        let g = random_bipartite(10, 10, 40, &mut rng);
        let ia = BasicIndex::build(&g, Side::Upper);
        let c = ia.query_community(&g, g.upper(0), ia.k_max() + 1, 1);
        assert!(c.is_empty());
    }
}
