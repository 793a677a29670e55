//! Threshold profiles: one weighted peel of the whole (α,β)-core answers
//! every significant (α,β)-community query at that (α,β).
//!
//! `SCS-Peel` (Algorithm 4) deletes the minimum-weight edge group,
//! cascades the degree violations, and stops in the iteration where the
//! query vertex `q` fails; the answer is `q`'s connected component of the
//! state at the *start* of that iteration (Algorithm 4, line 21). Two
//! facts make that peel shareable between queries:
//!
//! - nothing in an iteration depends on `q` — `q` only decides when to
//!   stop;
//! - the components of the (α,β)-core peel independently: deleting an
//!   edge changes degrees in its own component only.
//!
//! So a [`ThresholdProfile`] peels the whole core once, to the end, and
//! records for every vertex `v` the 1-based rank `fail[v]` of the
//! iteration in which `v` fails, and for every edge `e` the rank
//! `level[e]` of the iteration in which `e` is removed (0 outside the
//! core, for both).
//!
//! **Why a BFS over the profile equals Peel.** At the start of iteration
//! `r` the live edge set is exactly `{e : level[e] ≥ r}`. Restricted to
//! `C_{α,β}(q)`, the whole-core peel runs Peel's iterations in the same
//! ascending weight order; an iteration whose weight no longer occurs in
//! `q`'s component is a no-op there, and every other iteration removes
//! the same group and cascades to the same fixpoint. `q` therefore fails
//! in iteration `fail[q]` of the whole-core peel exactly when it fails in
//! Peel, and [`ThresholdProfile::answer_into`] returns `q`'s component of
//! `{e : level[e] ≥ fail[q]}` — Peel's answer, edge for edge.
//!
//! **Cost.** A profile stores `4·(n + m)` bytes and costs one
//! `O(m_core log m_core)` build; each answer is then one BFS over the
//! answer's vertices plus a sort of its upper vertices. No step-1
//! retrieval, no local re-indexing and no per-query weight sort remain.
//!
//! **Whole core, not per component.** A profile covers the whole
//! (α,β)-core, so the first query at an (α,β) pays for every component,
//! however small its own. Building per component would bound that first
//! query by one Peel, but finding `q`'s component costs a step-1
//! retrieval on every query — in a traced perfbench `en_kernel` run on
//! a 2-vCPU VM, step 1 took 7.3 ms against 2.1 ms for the whole warm
//! answer — or a shared, mutable vertex→component table. On the same
//! VM the whole-core build took 3–22 ms on the README's kernel-table
//! configurations, less than one per-query Peel at the same (α,β).
//!
//! [`CommunitySearch`](crate::CommunitySearch) keeps the profiles of its
//! most recent (α,β) pairs in a [`ProfileMemo`], built lazily by the first
//! `Algorithm::Auto` query that needs one.

use bicore::abcore::abcore_in;
use bigraph::workspace::Workspace;
use bigraph::{BipartiteGraph, EdgeId, Vertex};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// `level` of a core edge not yet removed during the build.
const LIVE: u32 = u32::MAX;

/// How many (α,β) profiles one [`ProfileMemo`] keeps; the oldest is
/// evicted beyond this.
const MEMO_CAPACITY: usize = 8;

/// One peel of the whole (α,β)-core, recorded per vertex and per edge
/// (see the [module docs](self)).
#[derive(Debug)]
pub(crate) struct ThresholdProfile {
    /// Per vertex: 1-based rank of the iteration in which it fails; 0
    /// outside the core.
    fail: Vec<u32>,
    /// Per edge: 1-based rank of the iteration in which it is removed; 0
    /// outside the core.
    level: Vec<u32>,
}

impl ThresholdProfile {
    /// Peels the whole (α,β)-core of `g` to the end. Clobbers `ws.dead`,
    /// `ws.degree`, `ws.queue` and `ws.stack`. `O(m_core log m_core)`.
    pub(crate) fn build(g: &BipartiteGraph, alpha: usize, beta: usize, ws: &mut Workspace) -> Self {
        abcore_in(g, alpha, beta, ws);
        let Workspace {
            dead,
            degree,
            stack,
            ..
        } = ws;
        let need = |v: Vertex| if g.is_upper(v) { alpha } else { beta } as u32;
        let mut fail = vec![0u32; g.n_vertices()];
        let mut level = vec![0u32; g.n_edges()];
        // Core edges by (weight in `total_cmp` order, edge id).
        let mut order: Vec<(i64, EdgeId)> = g
            .edge_ids()
            .filter(|&e| {
                let (u, l) = g.endpoints(e);
                !dead.contains(u) && !dead.contains(l)
            })
            .map(|e| (total_order_key(g.weight(e)), e))
            .collect();
        for &(_, e) in &order {
            level[e.index()] = LIVE;
        }
        order.sort_unstable();

        // `weighted_peel_in`'s group loop, run over the whole core and to
        // the end. `degree` holds live core degrees (from `abcore_in`); a
        // vertex fails when its degree first drops below its need, and its
        // remaining edges go in the same iteration.
        let mut remove = |e: EdgeId, rank: u32, level: &mut [u32], stack: &mut Vec<u32>| {
            level[e.index()] = rank;
            let (u, l) = g.endpoints(e);
            for v in [u, l] {
                degree[v] -= 1;
                if degree[v] + 1 == need(v) {
                    fail[v.index()] = rank;
                    if degree[v] > 0 {
                        stack.push(v.0);
                    }
                }
            }
        };
        stack.clear();
        let mut rank = 0u32;
        let mut i = 0;
        while i < order.len() {
            if level[order[i].1.index()] != LIVE {
                i += 1;
                continue;
            }
            rank += 1;
            let w_min = order[i].0;
            while i < order.len() && order[i].0 == w_min {
                let e = order[i].1;
                i += 1;
                if level[e.index()] == LIVE {
                    remove(e, rank, &mut level, stack);
                }
            }
            while let Some(v) = stack.pop() {
                for (_, e) in g.neighbors_with_edges(Vertex(v)) {
                    if level[e.index()] == LIVE {
                        remove(e, rank, &mut level, stack);
                    }
                }
            }
        }
        ThresholdProfile { fail, level }
    }

    /// `q`'s significant (α,β)-community: `q`'s component of the edges
    /// removed no earlier than `q` fails, written to `out` (cleared
    /// first) as ascending edge ids — the list
    /// [`scs_peel_into`](super::scs_peel_into) produces. Empty when `q`
    /// is outside the core. Clobbers `ws.visited` and `ws.queue`; a warm
    /// `ws` and a warm `out` make this heap-silent.
    pub(crate) fn answer_into(
        &self,
        g: &BipartiteGraph,
        q: Vertex,
        ws: &mut Workspace,
        out: &mut Vec<EdgeId>,
    ) {
        out.clear();
        let f = self.fail[q.index()];
        if f == 0 {
            return;
        }
        ws.fit(g);
        ws.visited.clear();
        ws.queue.clear();
        let Workspace { visited, queue, .. } = ws;
        visited.insert(q); // contract-ok: warm workspace capacity (fitted to the graph above)
        queue.push(q.0); // contract-ok: warm workspace capacity (fitted to the graph above)
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            for (w, e) in g.neighbors_with_edges(Vertex(v)) {
                // contract-ok: warm workspace capacity (fitted to the graph above)
                if self.level[e.index()] >= f && visited.insert(w) {
                    queue.push(w.0); // contract-ok: warm workspace capacity (fitted to the graph above)
                }
            }
        }
        // `GraphBuilder` numbers edges by (upper, lower): each upper
        // vertex owns one ascending run of ids, so emitting the reached
        // upper vertices in id order yields ascending edge ids with no
        // sort over the edges.
        queue.retain(|&v| g.is_upper(Vertex(v)));
        queue.sort_unstable();
        for &u in queue.iter() {
            for &e in g.incident_edges(Vertex(u)) {
                if self.level[e.index()] >= f {
                    out.push(e); // contract-ok: warm output capacity across queries; growth is cold
                }
            }
        }
        debug_assert!(
            out.windows(2).all(|w| w[0] < w[1]),
            "edge ids not ascending"
        );
    }
}

/// `w`'s position in the [`f64::total_cmp`] order, as an integer key
/// (the same bit trick `total_cmp` uses).
fn total_order_key(w: f64) -> i64 {
    let bits = w.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// A memo slot: filled once by the first query at its (α,β), shared by
/// every query that finds it.
pub(crate) type ProfileSlot = Arc<OnceLock<ThresholdProfile>>;

/// The threshold profiles of one [`CommunitySearch`](crate::CommunitySearch),
/// keyed by (α,β), oldest first, at most [`MEMO_CAPACITY`] of them.
///
/// The mutex guards only the key → slot table: a lookup clones the
/// slot's `Arc` and releases it before any build, so a cold build at one
/// (α,β) never blocks lookups at another, while concurrent first queries
/// at the same (α,β) meet in the slot's `OnceLock` and build once.
#[derive(Debug, Default)]
pub(crate) struct ProfileMemo {
    slots: Mutex<Vec<((usize, usize), ProfileSlot)>>,
}

impl ProfileMemo {
    /// The slot for (α,β), created empty on a miss.
    pub(crate) fn slot(&self, alpha: usize, beta: usize) -> ProfileSlot {
        // Every update leaves the table valid, so a poisoned lock's
        // table is still safe to use.
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        match slots.iter().find(|(key, _)| *key == (alpha, beta)) {
            Some((_, slot)) => slot.clone(), // contract-ok: Arc refcount bump; the profile is shared, not copied
            None => Self::insert(&mut slots, (alpha, beta)), // contract-ok: cold build — a miss creates the empty slot the first query's build fills
        }
    }

    /// Adds an empty slot for `key`, evicting the oldest beyond
    /// [`MEMO_CAPACITY`]. Queries still holding an evicted slot keep
    /// using it.
    fn insert(slots: &mut Vec<((usize, usize), ProfileSlot)>, key: (usize, usize)) -> ProfileSlot {
        if slots.len() == MEMO_CAPACITY {
            slots.remove(0);
        }
        let slot = ProfileSlot::default();
        slots.push((key, slot.clone()));
        slot
    }

    /// The (α,β) keys held, oldest first.
    #[cfg(test)]
    pub(crate) fn keys(&self) -> Vec<(usize, usize)> {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots.iter().map(|(key, _)| *key).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::DynamicIndex;
    use crate::{Algorithm, CommunitySearch, QueryWorkspace};
    use bigraph::builder::figure2_example;
    use bigraph::generators::random_bipartite;
    use bigraph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Barrier;

    /// `Auto` equals `Peel` for every vertex of `search`'s graph at (α,β).
    fn assert_auto_matches_peel(search: &CommunitySearch, alpha: usize, beta: usize) {
        let mut ws = QueryWorkspace::new();
        let mut auto = Vec::new();
        for q in search.graph().vertices() {
            search.significant_community_into(q, alpha, beta, Algorithm::Auto, &mut ws, &mut auto);
            let peel = search.significant_community(q, alpha, beta, Algorithm::Peel);
            assert_eq!(auto, peel.edges(), "q={q:?} α={alpha} β={beta}");
        }
    }

    /// An 8×8 biclique with tied weights: δ = 8, and every (α,β) with
    /// α,β ≤ 8 has a nonempty core.
    fn dense_tied() -> CommunitySearch {
        let mut b = GraphBuilder::new();
        for u in 0..8 {
            for l in 0..8 {
                b.add_edge(u, l, ((u * 7 + l * 3) % 5 + 1) as f64);
            }
        }
        CommunitySearch::new(b.build().unwrap())
    }

    #[test]
    fn answers_equal_peel_on_random_graphs_with_ties() {
        let mut rng = StdRng::seed_from_u64(17);
        for trial in 0..4 {
            let g = random_bipartite(20, 22, 110 + 30 * trial, &mut rng)
                .reweighted(|_, _, _| rng.gen_range(1..=6) as f64);
            let search = CommunitySearch::new(g);
            for a in 1..=search.delta() + 1 {
                for b in 1..=search.delta() + 1 {
                    assert_auto_matches_peel(&search, a, b);
                }
            }
        }
    }

    #[test]
    fn figure2_profile_records_fail_and_level_ranks() {
        let g = figure2_example();
        let p = ThresholdProfile::build(&g, 2, 2, &mut Workspace::new());
        // u501 has degree 1: outside the (2,2)-core, so is its edge.
        let outside = g.upper(500);
        assert_eq!(p.fail[outside.index()], 0);
        assert_eq!(p.level[g.incident_edges(outside)[0].index()], 0);
        // Every edge of the answer of u3 survives until u3 fails.
        let u3 = g.upper(2);
        let f = p.fail[u3.index()];
        assert!(f > 0);
        let mut out = Vec::new();
        p.answer_into(&g, u3, &mut Workspace::new(), &mut out);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|e| p.level[e.index()] >= f));
        assert!(out.windows(2).all(|w| w[0] < w[1]), "ascending ids");
    }

    #[test]
    fn second_query_reuses_the_profile() {
        let search = CommunitySearch::new(figure2_example());
        let g = search.graph();
        search.significant_community(g.upper(2), 2, 2, Algorithm::Auto);
        let first = search.profiles.slot(2, 2);
        assert!(first.get().is_some(), "the first query built the profile");
        search.significant_community(g.upper(3), 2, 2, Algorithm::Auto);
        assert!(Arc::ptr_eq(&first, &search.profiles.slot(2, 2)));
        assert_eq!(search.profiles.keys(), [(2, 2)]);
    }

    #[test]
    fn memo_keeps_eight_and_an_evicted_pair_still_answers() {
        let search = dense_tied();
        let q = search.graph().upper(0);
        let pairs: Vec<(usize, usize)> =
            (1..=3).flat_map(|a| (1..=3).map(move |b| (a, b))).collect();
        for &(a, b) in &pairs {
            let r = search.significant_community(q, a, b, Algorithm::Auto);
            assert!(!r.is_empty(), "α={a} β={b}");
        }
        let keys = search.profiles.keys();
        assert_eq!(keys.len(), MEMO_CAPACITY);
        assert_eq!(keys, pairs[1..], "the oldest pair is evicted");
        assert_auto_matches_peel(&search, 1, 1);
        assert_eq!(search.profiles.keys().len(), MEMO_CAPACITY);
        assert!(!search.profiles.keys().contains(&(1, 2)));
    }

    #[test]
    fn empty_answers_add_no_entry() {
        let search = CommunitySearch::new(figure2_example());
        let g = search.graph();
        assert_eq!(search.delta(), 3);
        // u501 has degree 1, so it is outside the (2,2)-core.
        let r = search.significant_community(g.upper(500), 2, 2, Algorithm::Auto);
        assert!(r.is_empty());
        // min(α,β) > δ: every core is empty.
        for (a, b) in [(4, 4), (4, 9), (9, 4)] {
            let r = search.significant_community(g.upper(0), a, b, Algorithm::Auto);
            assert!(r.is_empty(), "α={a} β={b}");
        }
        assert!(search.profiles.keys().is_empty());
    }

    #[test]
    fn concurrent_first_queries_share_one_profile() {
        let search = Arc::new(dense_tied());
        let barrier = Arc::new(Barrier::new(2));
        let handles: Vec<_> = [0, 5]
            .into_iter()
            .map(|i| {
                let (search, barrier) = (Arc::clone(&search), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    let q = search.graph().upper(i);
                    barrier.wait();
                    let r = search.significant_community(q, 3, 2, Algorithm::Auto);
                    (r.edges().to_vec(), search.profiles.slot(3, 2))
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(results[0].0, results[1].0);
        assert!(Arc::ptr_eq(&results[0].1, &results[1].1));
        assert_eq!(search.profiles.keys(), [(3, 2)]);
        assert_auto_matches_peel(&search, 3, 2);
    }

    #[test]
    fn snapshots_answer_per_their_own_graph() {
        let mut dynamic = DynamicIndex::new(figure2_example());
        let old = dynamic.snapshot();
        let u3 = old.graph().upper(2);
        let before = old.significant_community(u3, 2, 2, Algorithm::Auto);
        assert_eq!(before.size(), 4);
        // Removing (u4, v2) breaks u3's 2×2 block.
        dynamic.remove_edge(3, 1).unwrap();
        let new = dynamic.snapshot();
        assert!(new.profiles.keys().is_empty(), "a snapshot starts empty");
        assert_auto_matches_peel(&new, 2, 2);
        assert_ne!(
            new.significant_community(u3, 2, 2, Algorithm::Auto).edges(),
            before.edges()
        );
        // The old snapshot keeps answering per the old graph.
        assert_auto_matches_peel(&old, 2, 2);
        assert_eq!(
            old.significant_community(u3, 2, 2, Algorithm::Auto).edges(),
            before.edges()
        );
        // A clone starts with an empty memo too.
        assert!(old.clone().profiles.keys().is_empty());
    }
}
