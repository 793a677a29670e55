//! # scs — significant (α,β)-community search on weighted bipartite graphs
//!
//! A complete implementation of **"Efficient and Effective Community
//! Search on Large-scale Bipartite Graphs"** (Wang, Zhang, Lin, Zhang,
//! Qin, Zhang — ICDE 2021).
//!
//! Given a weighted bipartite graph `G`, degree constraints `α, β` and a
//! query vertex `q`, the *significant (α,β)-community* `R` is the
//! connected subgraph containing `q` in which every upper vertex has
//! degree ≥ α and every lower vertex degree ≥ β, whose minimum edge
//! weight is maximum (and which is edge-maximal at that weight). `R`
//! models a community that is both structurally cohesive and built from
//! uniformly significant interactions — high ratings, purchase counts,
//! contribution scores.
//!
//! ## Two-step query paradigm
//!
//! 1. **Retrieve `C_{α,β}(q)`** — the connected component of `q` inside
//!    the (α,β)-core — in time linear in its size, using the
//!    degeneracy-bounded index [`index::DeltaIndex`] (`O(δ·m)` build
//!    time/space, Section III-B). The basic indexes
//!    [`index::BasicIndex`] and the baselines (`Qo`, `Qv` in the
//!    [`bicore`] crate) are provided for comparison.
//! 2. **Extract `R` from `C_{α,β}(q)`** with [`query::scs_peel`]
//!    (Algorithm 4), [`query::scs_expand`] (Algorithm 5),
//!    [`query::scs_binary`], or the no-index strawman
//!    [`query::scs_baseline`].
//!
//! These four kernels are the paper's algorithms and the library's
//! oracles. Serving does not run them per query:
//! [`CommunitySearch::answer`] answers from a *threshold profile*. That
//! is one peel of the whole (α,β)-core, built by the first query at an
//! (α,β) and shared by every later one, which stores every distinct
//! answer once, as a slice of one edge array, together with its member
//! counts and minimum weight. An [`Answer`] is a handle on `q`'s slice:
//! its summary is O(1), and its edges, emitted on request in id order
//! with no step 1 and no traversal, are exactly `SCS-Peel`'s answer.
//! [`Algorithm::Auto`], the default, emits them. A query outside the
//! (α,β)-core is answered empty from one `Iδ` lookup.
//!
//! ```text
//!  answer(q, α, β) ──▶ Iδ: q in the (α,β)-core? ── no ──▶ empty Answer
//!                            │ yes
//!                            ▼
//!             profile memo (8 most recent (α,β)) ── miss ──▶ one peel of
//!                            │ hit                           the whole core
//!                            ▼                               (built once)
//!             q's class ──▶ Answer { profile, class }
//!                            ├─ size, n_upper, n_lower, min_weight: O(1)
//!                            └─ edges_into(ws, out): ascending edge ids
//! ```
//!
//! ## Quick start
//!
//! ```
//! use bigraph::GraphBuilder;
//! use scs::{Algorithm, CommunitySearch};
//!
//! // A tiny user–movie network: 3 users × 3 movies, star ratings.
//! let mut b = GraphBuilder::new();
//! for u in 0..3 {
//!     for l in 0..3 {
//!         let rating = if u == 2 && l == 2 { 1.0 } else { 5.0 };
//!         b.add_edge(u, l, rating);
//!     }
//! }
//! let g = b.build().unwrap();
//! let search = CommunitySearch::new(g);
//!
//! let q = search.graph().upper(0);
//! let community = search.community(q, 2, 2); // structural only
//! assert_eq!(community.size(), 9);
//!
//! let r = search.significant_community(q, 2, 2, Algorithm::Auto);
//! assert_eq!(r.min_weight(), Some(5.0)); // the 1-star edge is excluded
//! ```
//!
//! Dynamic graphs are supported through [`index::DynamicIndex`], which
//! maintains `Iδ` under edge insertions and removals.

// No unsafe in this crate — and none may creep in.
#![forbid(unsafe_code)]

pub mod index;
pub mod query;
pub mod workspace;

pub(crate) mod local;

pub use index::{BasicIndex, DeltaIndex, DynamicIndex};
pub use query::profile::Answer;
pub use query::{scs_baseline, scs_binary, scs_expand, scs_peel};
pub use workspace::QueryWorkspace;

use bigraph::{BipartiteGraph, EdgeId, Subgraph, Vertex};
use query::profile::{ProfileMemo, ThresholdProfile};
use std::fmt;
use std::sync::Arc;

/// How to answer a significant-community query.
///
/// All five variants return the same edge list, so the answer depends
/// only on `(q, α, β)` and the index: the variant picks the kernel that
/// computes it, never which answer comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// Emit [`CommunitySearch::answer`]'s view: `q`'s precomputed
    /// answer class in the (α,β) threshold profile — one peel of the
    /// whole (α,β)-core, built by the first query at that (α,β) and
    /// shared by every later one — in id order. No step-1 retrieval, no
    /// local re-indexing, no traversal, no per-query sort of the
    /// community. Returns `SCS-Peel`'s answer (see `query/profile.rs`
    /// for the argument).
    #[default]
    Auto,
    /// `SCS-Peel` (Algorithm 4).
    Peel,
    /// `SCS-Expand` (Algorithm 5) with ε = 2.
    Expand,
    /// Binary search over weight thresholds.
    Binary,
    /// Expansion over the whole connected component — no index use
    /// beyond the final validation; the paper's strawman.
    Baseline,
}

impl Algorithm {
    /// Every variant, in display order.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::Auto,
        Algorithm::Peel,
        Algorithm::Expand,
        Algorithm::Binary,
        Algorithm::Baseline,
    ];

    /// The CLI/stat-table name of the variant.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Auto => "auto",
            Algorithm::Peel => "peel",
            Algorithm::Expand => "expand",
            Algorithm::Binary => "binary",
            Algorithm::Baseline => "baseline",
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// High-level façade: a graph, its degeneracy-bounded index and the
/// threshold profiles [`Self::answer`] answers from.
#[derive(Debug)]
pub struct CommunitySearch {
    graph: BipartiteGraph,
    index: DeltaIndex,
    /// Profiles of the most recent (α,β) pairs, built lazily.
    profiles: ProfileMemo,
}

/// A clone shares nothing mutable with its source: it starts with an
/// empty profile memo.
impl Clone for CommunitySearch {
    fn clone(&self) -> Self {
        Self::from_parts(self.graph.clone(), self.index.clone())
    }
}

impl CommunitySearch {
    /// Builds the index (`O(δ·m)`) and takes ownership of the graph.
    /// Threshold profiles are not built here; the first
    /// [`Self::answer`] at each (α,β) builds its own.
    pub fn new(graph: BipartiteGraph) -> Self {
        let index = DeltaIndex::build(&graph);
        Self::from_parts(graph, index)
    }

    /// Builds the index and returns the façade ready for sharing across
    /// threads — the form the `scs-service` query engine consumes.
    pub fn shared(graph: BipartiteGraph) -> Arc<Self> {
        Arc::new(Self::new(graph))
    }

    /// Reassembles a façade from an already-built index, skipping the
    /// `O(δ·m)` rebuild. Used by the epoch-swap path: a
    /// [`DynamicIndex`] that has absorbed edge updates hands its parts to
    /// a fresh `CommunitySearch` which is then installed into a running
    /// service.
    ///
    /// The caller must pass the index that was built for (or maintained
    /// along with) exactly this graph; queries silently misbehave
    /// otherwise, just as with a hand-rolled stale index.
    pub fn from_parts(graph: BipartiteGraph, index: DeltaIndex) -> Self {
        CommunitySearch {
            graph,
            index,
            profiles: ProfileMemo::default(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &BipartiteGraph {
        &self.graph
    }

    /// The underlying index.
    pub fn index(&self) -> &DeltaIndex {
        &self.index
    }

    /// The degeneracy δ of the graph.
    pub fn delta(&self) -> usize {
        self.index.delta()
    }

    /// Step 1: the (α,β)-community of `q` (`Qopt`, optimal time).
    pub fn community(&self, q: Vertex, alpha: usize, beta: usize) -> Subgraph<'_> {
        self.index.query_community(&self.graph, q, alpha, beta)
    }

    /// [`Self::community`] with caller-provided reusable scratch: after
    /// warm-up the only allocation left is the returned subgraph.
    pub fn community_in(
        &self,
        q: Vertex,
        alpha: usize,
        beta: usize,
        ws: &mut QueryWorkspace,
    ) -> Subgraph<'_> {
        let mut out = Vec::new();
        self.index
            .query_community_into(&self.graph, q, alpha, beta, ws.base_mut(), &mut out);
        Subgraph::from_edges(&self.graph, out)
    }

    /// Steps 1+2: the significant (α,β)-community of `q`.
    ///
    /// Thin wrapper over [`Self::significant_community_into`] with a
    /// throwaway workspace; callers issuing many queries (the serving
    /// layer, benchmark loops) should hold a [`QueryWorkspace`] instead.
    pub fn significant_community(
        &self,
        q: Vertex,
        alpha: usize,
        beta: usize,
        algorithm: Algorithm,
    ) -> Subgraph<'_> {
        let mut out = Vec::new();
        let ws = &mut QueryWorkspace::new();
        self.significant_community_into(q, alpha, beta, algorithm, ws, &mut out);
        Subgraph::from_edges(&self.graph, out)
    }

    /// Fully allocation-free query: `out` is cleared and receives the
    /// sorted edge ids of the significant (α,β)-community. With a warm
    /// `ws` and a warm `out`, a repeated query performs zero heap
    /// allocations.
    // scs-contract: no-alloc — kernels draw every buffer from the caller's workspace; warm queries must stay heap-silent.
    pub fn significant_community_into(
        &self,
        q: Vertex,
        alpha: usize,
        beta: usize,
        algorithm: Algorithm,
        ws: &mut QueryWorkspace,
        out: &mut Vec<EdgeId>,
    ) {
        if algorithm == Algorithm::Auto {
            self.answer(q, alpha, beta, ws).edges_into(ws, out);
            return;
        }
        if algorithm == Algorithm::Baseline {
            query::scs_baseline_into(&self.graph, q, alpha, beta, ws, out);
            return;
        }
        ws.retrieve_community(|base, community| {
            self.index
                .query_community_into(&self.graph, q, alpha, beta, base, community);
        });
        let community = ws.take_community();
        match algorithm {
            Algorithm::Auto | Algorithm::Baseline => unreachable!("answered above"),
            Algorithm::Peel => {
                query::scs_peel_into(&self.graph, &community, q, alpha, beta, ws, out)
            }
            Algorithm::Expand => query::scs_expand_into(
                &self.graph,
                &community,
                q,
                alpha,
                beta,
                query::ExpandOptions::default(),
                ws,
                out,
            ),
            Algorithm::Binary => {
                query::scs_binary_into(&self.graph, &community, q, alpha, beta, ws, out)
            }
        }
        ws.restore_community(community);
    }

    /// `q`'s significant (α,β)-community as an [`Answer`]: a handle on
    /// `q`'s class in the (α,β) threshold profile, built by the first
    /// call that needs it. The summary accessors are O(1) and the edges
    /// are emitted on request, so a warm call allocates nothing. A
    /// query outside the (α,β)-core — including every query with
    /// `min(α,β) > δ` — is answered empty from one `Iδ` lookup and never
    /// touches the memo.
    ///
    /// # Panics
    /// Panics if `alpha` or `beta` is 0.
    // scs-contract: no-alloc — every served request is answered here; a warm profile makes it a lookup and a refcount bump.
    pub fn answer(&self, q: Vertex, alpha: usize, beta: usize, ws: &mut QueryWorkspace) -> Answer {
        if !self.index.core_contains(q, alpha, beta) {
            return Answer::default();
        }
        let slot = self.profiles.slot(alpha, beta);
        slot.get_or_init(|| {
            ThresholdProfile::build(&self.graph, alpha, beta, &mut ws.base) // contract-ok: cold build — once per (α,β) per snapshot while the memo keeps it; later queries find the slot filled
        });
        Answer::in_profile(slot, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::builder::figure2_example;

    #[test]
    fn facade_runs_every_algorithm() {
        let search = CommunitySearch::new(figure2_example());
        let q = search.graph().upper(2);
        let mut results = Vec::new();
        for algo in [
            Algorithm::Auto,
            Algorithm::Peel,
            Algorithm::Expand,
            Algorithm::Binary,
            Algorithm::Baseline,
        ] {
            results.push(search.significant_community(q, 2, 2, algo));
        }
        for r in &results {
            assert_eq!(r.size(), 4);
            assert_eq!(r.min_weight(), Some(13.0));
        }
    }

    #[test]
    fn facade_community_step() {
        let search = CommunitySearch::new(figure2_example());
        assert_eq!(search.delta(), 3);
        let c = search.community(search.graph().upper(2), 2, 2);
        assert_eq!(c.size(), 13);
    }
}
