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
//! So a [`ThresholdProfile`] build peels the whole core once, to the
//! end, and ranks for every vertex `v` the 1-based iteration `fail(v)`
//! in which `v` fails, and for every edge `e` the iteration `level(e)` in
//! which `e` is removed (0 outside the core, for both).
//!
//! **Why `q`'s component of the profile equals Peel.** At the start of
//! iteration `r` the live edge set is exactly `{e : level(e) ≥ r}`.
//! Restricted to `C_{α,β}(q)`, the whole-core peel runs Peel's iterations
//! in the same ascending weight order; an iteration whose weight no
//! longer occurs in `q`'s component is a no-op there, and every other
//! iteration removes the same group and cascades to the same fixpoint.
//! `q` therefore fails in iteration `fail(q)` of the whole-core peel
//! exactly when it fails in Peel, and Peel's answer is `q`'s component
//! of `{e : level(e) ≥ fail(q)}`, edge for edge.
//!
//! **Answer classes.** That component depends on `q` only through
//! `fail(q)` and `q`'s place in a merge tree, so the build stores each
//! distinct answer once. It adds the core edges to a union-find in
//! descending level, all edges of one level at a time, and then creates
//! one tree node per component of `{e : level(e) ≥ t}` that a level-`t`
//! edge touches. The node's children are the newest nodes of the
//! components level `t` merged into it, so its edges — its own level-`t`
//! edges plus its children's — are exactly its component. A vertex `v`
//! that fails in iteration `t` loses an edge of level `t` there, so its
//! component after level `t` has a node of level `t`: `v`'s *class*.
//! Nodes are created only once every level-`t` edge is merged, so a node
//! never gains an edge after vertices are classed onto it, and `q`'s
//! class holds `q`'s component of `{e : level(e) ≥ fail(q)}` — Peel's
//! answer. Distinct classes have distinct answers: two nodes of one
//! level are disjoint components, and a node of level `t` owns a
//! level-`t` edge that no node of a higher level holds. This is the
//! tree of the ICP-index of Li, Qin, Yu and Mao, "Influential Community
//! Search in Large Networks" (PVLDB 2015), which stores every
//! k-influential community of a vertex-weighted graph in one tree.
//!
//! **Layout and emission.** The build lays the tree out as one
//! permutation of the core edges in which every node owns the slice
//! `[start, start + len)`: its children's slices, then its own edges.
//! [`Answer::edges_into`] sets the bits of `q`'s class slice in a zeroed
//! [`EdgeBits`] and scans the words between the class's lowest and
//! highest edge id in order, clearing them as it goes. That emits
//! ascending edge ids in `O(|R| + span/64) ⊆ O(|R| + m/64)`, with no
//! traversal and no sort.
//!
//! **Summaries.** Every node also stores what a reply reports about its
//! answer, so [`Answer`]'s accessors are O(1) and never touch an edge:
//!
//! - `n_upper` and `n_lower`, the side counts of the union-find root
//!   of the node's component, read when the node is created — the
//!   component's vertices are exactly its edges' endpoints;
//! - `min_weight`, the weight of the group its level `t` removes, set
//!   when the node is created. Every edge of the node is live at the
//!   start of iteration `t`, when the group's weight is the lowest live
//!   one, and the node holds an edge of that group: a cascade never
//!   leaves the component it starts in. So that weight is its minimum,
//!   read once per level instead of once per edge.
//!
//! **Cost.** A profile stores `4·n + 4·m_core + 32·nodes` bytes
//! (`nodes ≤ m_core`) and costs one `O(m_core log m_core)` build: the
//! peel's weight sort, then a counting sort by level and a near-linear
//! union-find pass that also carries each root's side counts. A query then does no step-1 retrieval, no local
//! re-indexing, no traversal and no sort; its summary is a node read.
//!
//! **Whole core, not per component.** A profile covers the whole
//! (α,β)-core, so the first query at an (α,β) pays for every component,
//! however small its own. Building per component would bound that first
//! query by one Peel, but finding `q`'s component costs a step-1
//! retrieval on every query — in a traced perfbench `en_kernel` run on
//! a 2-vCPU VM, step 1 took 6.7 ms against 0.15 ms for the whole warm
//! answer — or a shared, mutable vertex→component table. On the same
//! VM the whole-core build took 4–25 ms on the README's kernel-table
//! configurations, less than one per-query Peel at the same (α,β).
//!
//! [`CommunitySearch`](crate::CommunitySearch) keeps the profiles of its
//! most recent (α,β) pairs in a [`ProfileMemo`], built lazily by the first
//! [`CommunitySearch::answer`](crate::CommunitySearch::answer) that needs
//! one, and hands out each answer as an [`Answer`]: the profile slot plus
//! `q`'s class.

use crate::QueryWorkspace;
use bicore::abcore::abcore_in;
use bigraph::unionfind::UnionFind;
use bigraph::workspace::Workspace;
use bigraph::{BipartiteGraph, EdgeId, Vertex, Weight};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// `level` of a core edge not yet removed during the build.
const LIVE: u32 = u32::MAX;

/// The class of a vertex outside the core, and the parent of a root node.
const NONE: u32 = u32::MAX;

/// How many (α,β) profiles one [`ProfileMemo`] keeps; the oldest is
/// evicted beyond this.
const MEMO_CAPACITY: usize = 8;

/// One merge-tree node: a component of `{e : level(e) ≥ t}` that a
/// level-`t` edge touches (see the [module docs](self)).
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The node's edges are `ThresholdProfile::edges[start..start + len]`.
    start: u32,
    len: u32,
    /// Lowest edge id among them.
    lo: u32,
    /// Highest edge id among them.
    hi: u32,
    /// Upper-side vertices among their endpoints.
    n_upper: u32,
    /// Lower-side vertices among their endpoints.
    n_lower: u32,
    /// Their minimum weight: the group weight of the node's level.
    min_weight: Weight,
}

impl Node {
    /// The bitset words the node's edge ids span.
    fn words(self) -> std::ops::RangeInclusive<usize> {
        self.lo as usize / 64..=self.hi as usize / 64
    }
}

/// The answer classes of one (α,β)-core, laid out for emission (see the
/// [module docs](self)).
#[derive(Debug)]
pub(crate) struct ThresholdProfile {
    /// Per vertex: its class, the node of its component right after the
    /// level it fails at; [`NONE`] outside the core.
    class: Vec<u32>,
    /// The core edges in tree order: each node's children's slices, then
    /// its own edges in ascending id order.
    edges: Vec<EdgeId>,
    /// The merge-tree nodes, every child before its parent.
    nodes: Vec<Node>,
}

impl ThresholdProfile {
    /// Peels the whole (α,β)-core of `g` to the end and builds its
    /// merge tree. Clobbers `ws.dead`, `ws.degree`, `ws.queue` and
    /// `ws.stack`. `O(m_core log m_core)`.
    pub(crate) fn build(g: &BipartiteGraph, alpha: usize, beta: usize, ws: &mut Workspace) -> Self {
        let (fail, level, group_weight) = peel_ranks(g, alpha, beta, ws);
        let n_levels = group_weight.len() as u32;

        // Counting sort of the core edges by level: level `t` owns
        // `by_level[bounds[t]..bounds[t + 1]]`, in ascending id order.
        let mut bounds = vec![0usize; n_levels as usize + 2];
        for &t in level.iter().filter(|&&t| t > 0) {
            bounds[t as usize + 1] += 1;
        }
        for t in 1..bounds.len() {
            bounds[t] += bounds[t - 1];
        }
        let mut by_level = vec![EdgeId(0); bounds[n_levels as usize + 1]];
        let mut fill = bounds.clone();
        for e in g.edge_ids().filter(|e| level[e.index()] > 0) {
            let t = level[e.index()] as usize;
            by_level[fill[t]] = e;
            fill[t] += 1;
        }

        // The merge tree, level by level from the top. `newest[r]` is the
        // newest node of the component rooted at `r`, and `sides[r]` its
        // upper- and lower-side vertex counts.
        let n = g.n_vertices();
        let mut uf = UnionFind::new(n);
        let mut sides: Vec<[u32; 2]> = g
            .vertices()
            .map(|v| if g.is_upper(v) { [1, 0] } else { [0, 1] })
            .collect();
        let mut newest = vec![NONE; n];
        let mut class = vec![NONE; n];
        let mut nodes: Vec<Node> = Vec::new();
        let mut parent: Vec<u32> = Vec::new();
        let mut node_of = vec![0u32; by_level.len()];
        let mut children: Vec<(u32, usize)> = Vec::new();
        for t in (1..=n_levels).rev() {
            let span = bounds[t as usize]..bounds[t as usize + 1];
            let level_edges = &by_level[span.clone()];
            let first_new = nodes.len() as u32;
            // Merge the level. A root that loses a union hands its newest
            // node on as a child of one of the level's nodes.
            children.clear();
            for &e in level_edges {
                let (u, l) = g.endpoints(e);
                let (ru, rl) = (uf.find(u.index()), uf.find(l.index()));
                if let Some(root) = uf.union(ru, rl) {
                    let lost = if root == ru { rl } else { ru };
                    let [lost_upper, lost_lower] = sides[lost];
                    sides[root][0] += lost_upper;
                    sides[root][1] += lost_lower;
                    if newest[lost] != NONE {
                        children.push((newest[lost], lost));
                    }
                }
            }
            // One node per touched component, created only now that the
            // level is fully merged, with the root's own newest node as a
            // child; the vertices failing at `t` are classed onto it.
            for (&e, slot) in level_edges.iter().zip(&mut node_of[span]) {
                let (u, l) = g.endpoints(e);
                let r = uf.find(u.index());
                if newest[r] == NONE || newest[r] < first_new {
                    if newest[r] != NONE {
                        parent[newest[r] as usize] = nodes.len() as u32;
                    }
                    newest[r] = nodes.len() as u32;
                    let [n_upper, n_lower] = sides[r];
                    nodes.push(Node {
                        start: 0,
                        len: 0,
                        lo: e.0,
                        hi: e.0,
                        n_upper,
                        n_lower,
                        min_weight: group_weight[t as usize - 1],
                    });
                    parent.push(NONE);
                }
                let c = newest[r];
                *slot = c;
                nodes[c as usize].len += 1;
                nodes[c as usize].hi = e.0;
                for v in [u, l] {
                    if fail[v.index()] == t {
                        class[v.index()] = c;
                    }
                }
            }
            for &(c, r) in &children {
                parent[c as usize] = newest[uf.find(r)];
            }
        }

        // Subtree sizes and id spans; every parent comes after its
        // children.
        for (c, &p) in parent.iter().enumerate().filter(|&(_, &p)| p != NONE) {
            let child = nodes[c];
            let node = &mut nodes[p as usize];
            node.len += child.len;
            node.lo = node.lo.min(child.lo);
            node.hi = node.hi.max(child.hi);
        }

        // Layout, parents first: one slice per child, then the node's own
        // edges. `next[c]` is where `c`'s next child slice, and after
        // the last one its own edges, start.
        let mut next_root = 0;
        let mut next = vec![0u32; nodes.len()];
        for c in (0..nodes.len()).rev() {
            let at = match parent[c] {
                NONE => &mut next_root,
                p => &mut next[p as usize],
            };
            nodes[c].start = *at;
            *at += nodes[c].len;
            next[c] = nodes[c].start;
        }
        let mut edges = vec![EdgeId(0); by_level.len()];
        for (&e, &c) in by_level.iter().zip(&node_of) {
            edges[next[c as usize] as usize] = e;
            next[c as usize] += 1;
        }
        ThresholdProfile {
            class,
            edges,
            nodes,
        }
    }

    /// `q`'s class; `None` outside the core.
    fn class_of(&self, q: Vertex) -> Option<u32> {
        Some(self.class[q.index()]).filter(|&c| c != NONE)
    }

    /// The edges of `node`, in tree order.
    fn slice(&self, node: Node) -> &[EdgeId] {
        &self.edges[node.start as usize..(node.start + node.len) as usize]
    }
}

/// A significant (α,β)-community as a view: the threshold profile it
/// was answered from and `q`'s class in it, or nothing for an empty
/// answer. Made by [`CommunitySearch::answer`](crate::CommunitySearch::answer).
///
/// The handle keeps its profile alive, so it answers per the snapshot
/// it came from for as long as it lives, whatever is installed or
/// evicted meanwhile. Cloning it is a refcount bump. The summary
/// accessors are O(1) reads of the class's merge-tree node; the edges
/// are emitted only on request.
#[derive(Clone, Default)]
pub struct Answer {
    /// A filled profile slot and `q`'s class in it; `None` when empty.
    class: Option<(ProfileSlot, u32)>,
}

/// The class and its size, not the profile behind them.
impl fmt::Debug for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Answer")
            .field("class", &self.class.as_ref().map(|&(_, c)| c))
            .field("size", &self.size())
            .finish()
    }
}

impl Answer {
    /// `q`'s class in the profile of `slot`, which must be filled;
    /// empty when `q` is outside its core.
    pub(crate) fn in_profile(slot: ProfileSlot, q: Vertex) -> Answer {
        let class = slot.get().and_then(|p| p.class_of(q));
        Answer {
            class: class.map(|c| (slot, c)),
        }
    }

    /// The profile and the class's node; `None` when empty.
    fn view(&self) -> Option<(&ThresholdProfile, Node)> {
        let (slot, c) = self.class.as_ref()?;
        let profile = slot.get()?;
        Some((profile, *profile.nodes.get(*c as usize)?))
    }

    /// Number of edges.
    // scs-contract: no-alloc — an answer's summary is a node read; replies are built from it on the serving path.
    pub fn size(&self) -> usize {
        self.view().map_or(0, |(_, node)| node.len as usize)
    }

    /// Upper-side member count.
    // scs-contract: no-alloc — an answer's summary is a node read; replies are built from it on the serving path.
    pub fn n_upper(&self) -> usize {
        self.view().map_or(0, |(_, node)| node.n_upper as usize)
    }

    /// Lower-side member count.
    // scs-contract: no-alloc — an answer's summary is a node read; replies are built from it on the serving path.
    pub fn n_lower(&self) -> usize {
        self.view().map_or(0, |(_, node)| node.n_lower as usize)
    }

    /// `f(R)`, the minimum edge weight in [`f64::total_cmp`] order;
    /// `None` when empty.
    // scs-contract: no-alloc — an answer's summary is a node read; replies are built from it on the serving path.
    pub fn min_weight(&self) -> Option<Weight> {
        self.view().map(|(_, node)| node.min_weight)
    }

    /// Writes the community's edges to `out` (cleared first) as
    /// ascending edge ids: exactly [`scs_peel_into`](super::scs_peel_into)'s
    /// list. Clobbers only `ws.bits`, which it grows to the class's
    /// highest id; a warm `ws` and a warm `out` make this heap-silent.
    // scs-contract: no-alloc — emission draws on the caller's warm workspace and output buffer.
    pub fn edges_into(&self, ws: &mut QueryWorkspace, out: &mut Vec<EdgeId>) {
        out.clear();
        let Some((profile, node)) = self.view() else {
            return;
        };
        ws.bits.ensure(node.hi as usize + 1);
        ws.bits
            .emit_ascending(profile.slice(node), node.words(), out);
        debug_assert!(
            out.windows(2).all(|w| w[0] < w[1]),
            "edge ids not ascending"
        );
    }
}

/// Ranks the whole-core peel: per vertex the 1-based iteration in which
/// it fails, per edge the iteration in which it is removed (0 outside
/// the core, for both), and per iteration `t` the weight of the group
/// it removes, at index `t − 1`.
/// `weighted_peel_in`'s group loop, run over the whole core and to the
/// end.
fn peel_ranks(
    g: &BipartiteGraph,
    alpha: usize,
    beta: usize,
    ws: &mut Workspace,
) -> (Vec<u32>, Vec<u32>, Vec<Weight>) {
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

    // `degree` holds live core degrees (from `abcore_in`); a vertex
    // fails when its degree first drops below its need, and its
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
    let mut group_weight = Vec::new();
    let mut i = 0;
    while i < order.len() {
        if level[order[i].1.index()] != LIVE {
            i += 1;
            continue;
        }
        rank += 1;
        let w_min = order[i].0;
        group_weight.push(weight_of_key(w_min));
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
    (fail, level, group_weight)
}

/// A zeroed bitset over edge ids, the scratch [`Answer::edges_into`]
/// emits ascending ids through. It is grown on the first emission only,
/// so index builds and set-up never allocate it.
#[derive(Debug, Default)]
pub(crate) struct EdgeBits {
    words: Vec<u64>,
    /// Set while bits may be set. A panic between marking and the
    /// clearing scan leaves it set (engine workers survive panics and
    /// reuse their workspace), and the next emission zeroes every word.
    dirty: bool,
}

impl EdgeBits {
    /// Grows the bitset to hold edge ids `0..m`. Never shrinks.
    pub(crate) fn ensure(&mut self, m: usize) {
        let n_words = m.div_ceil(64);
        if self.words.len() < n_words {
            self.words.resize(n_words, 0); // contract-ok: grow-only scratch sized by the highest id emitted; a warm workspace never grows it
        }
    }

    /// Marks `edges`, then scans `words` in order and pushes each set
    /// bit's edge id to `out`, clearing the words as it goes. `words`
    /// must cover every id in `edges`.
    fn emit_ascending(
        &mut self,
        edges: &[EdgeId],
        words: std::ops::RangeInclusive<usize>,
        out: &mut Vec<EdgeId>,
    ) {
        if self.dirty {
            self.words.fill(0);
        }
        self.dirty = true;
        for &e in edges {
            self.words[e.index() / 64] |= 1 << (e.index() % 64);
        }
        for w in words {
            let mut word = std::mem::take(&mut self.words[w]);
            while word != 0 {
                out.push(EdgeId((w * 64) as u32 + word.trailing_zeros())); // contract-ok: warm output capacity across queries; growth is cold
                word &= word - 1;
            }
        }
        self.dirty = false;
    }

    /// Resident heap bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

/// `w`'s position in the [`f64::total_cmp`] order, as an integer key
/// (the same bit trick `total_cmp` uses).
fn total_order_key(w: f64) -> i64 {
    let bits = w.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The weight whose [`total_order_key`] is `key`. The flip keeps the
/// sign bit, so applying it again undoes it; this spares the peel a
/// random read of the weight array per iteration.
fn weight_of_key(key: i64) -> f64 {
    f64::from_bits((key ^ (((key >> 63) as u64) >> 1) as i64) as u64)
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
    use std::collections::BTreeMap;
    use std::sync::Barrier;

    /// The profile of `g` at (α,β), in a filled slot.
    fn profile(g: &BipartiteGraph, alpha: usize, beta: usize) -> ProfileSlot {
        let slot = ProfileSlot::default();
        slot.get_or_init(|| ThresholdProfile::build(g, alpha, beta, &mut Workspace::new()));
        slot
    }

    /// `q`'s answer from the profile in `slot`, emitted through `ws`.
    fn emit(slot: &ProfileSlot, q: Vertex, ws: &mut QueryWorkspace) -> Vec<EdgeId> {
        let mut out = Vec::new();
        Answer::in_profile(slot.clone(), q).edges_into(ws, &mut out);
        out
    }

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

    /// Four random graphs with weights tied in 1..=6.
    fn tied_random_graphs() -> Vec<CommunitySearch> {
        let mut rng = StdRng::seed_from_u64(17);
        (0..4)
            .map(|trial| {
                let g = random_bipartite(20, 22, 110 + 30 * trial, &mut rng)
                    .reweighted(|_, _, _| rng.gen_range(1..=6) as f64);
                CommunitySearch::new(g)
            })
            .collect()
    }

    #[test]
    fn answers_equal_peel_on_random_graphs_with_ties() {
        for search in tied_random_graphs() {
            for a in 1..=search.delta() + 1 {
                for b in 1..=search.delta() + 1 {
                    assert_auto_matches_peel(&search, a, b);
                }
            }
        }
    }

    #[test]
    fn answers_summarise_and_emit_like_peel() {
        let graphs = tied_random_graphs()
            .into_iter()
            .chain([CommunitySearch::new(figure2_example()), dense_tied()]);
        for search in graphs {
            let mut ws = QueryWorkspace::new();
            let mut out = Vec::new();
            for a in 1..=search.delta() + 1 {
                for b in 1..=search.delta() + 1 {
                    for q in search.graph().vertices() {
                        let answer = search.answer(q, a, b, &mut ws);
                        let peel = search.significant_community(q, a, b, Algorithm::Peel);
                        let (us, ls) = peel.layer_vertices();
                        let at = format!("q={q:?} α={a} β={b}");
                        assert_eq!(answer.size(), peel.size(), "{at}");
                        assert_eq!(answer.n_upper(), us.len(), "{at}");
                        assert_eq!(answer.n_lower(), ls.len(), "{at}");
                        assert_eq!(answer.min_weight(), peel.min_weight(), "{at}");
                        answer.edges_into(&mut ws, &mut out);
                        assert_eq!(out, peel.edges(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn weight_of_key_inverts_total_order_key() {
        for w in [
            -7.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            1.0,
            13.0,
            f64::INFINITY,
        ] {
            assert_eq!(weight_of_key(total_order_key(w)).to_bits(), w.to_bits());
        }
    }

    #[test]
    fn core_members_share_a_class_exactly_when_their_answers_are_equal() {
        for search in tied_random_graphs() {
            let g = search.graph();
            for a in 1..=search.delta() + 1 {
                for b in 1..=search.delta() + 1 {
                    let slot = profile(g, a, b);
                    let p = slot.get().unwrap();
                    let mut ws = QueryWorkspace::new();
                    let mut answer_of = BTreeMap::new();
                    let mut class_of = BTreeMap::new();
                    for q in g.vertices().filter(|&q| p.class[q.index()] != NONE) {
                        let out = emit(&slot, q, &mut ws);
                        let c = p.class[q.index()];
                        assert_eq!(*answer_of.entry(c).or_insert(out.clone()), out);
                        assert_eq!(*class_of.entry(out).or_insert(c), c, "α={a} β={b}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_class_spanning_the_id_range_equals_peel() {
        // u0 and u15 share only v10, at weight 1: their class is edge 0
        // and edge m−1. A 14×10 block at weight 2 fills the ids between,
        // so the bitset scans 3 words for 2 edges.
        let mut b = GraphBuilder::new();
        b.add_edge(0, 10, 1.0);
        for u in 1..15 {
            for l in 0..10 {
                b.add_edge(u, l, 2.0);
            }
        }
        b.add_edge(15, 10, 1.0);
        let search = CommunitySearch::new(b.build().unwrap());
        let g = search.graph();
        let m = g.n_edges() as u32;
        let slot = profile(g, 1, 1);
        let p = slot.get().unwrap();
        let node = p.nodes[p.class[g.upper(0).index()] as usize];
        assert_eq!((node.len, node.lo, node.hi), (2, 0, m - 1));
        let out = emit(&slot, g.upper(0), &mut QueryWorkspace::new());
        assert_eq!(out, [EdgeId(0), EdgeId(m - 1)]);
        assert_auto_matches_peel(&search, 1, 1);
    }

    #[test]
    fn figure2_profile_classes_and_slices() {
        let g = figure2_example();
        let slot = profile(&g, 2, 2);
        let p = slot.get().unwrap();
        // u501 has degree 1: outside the (2,2)-core, so is its edge.
        let outside = g.upper(500);
        assert_eq!(p.class[outside.index()], NONE);
        assert!(!p.edges.contains(&g.incident_edges(outside)[0]));
        assert_eq!(Answer::in_profile(slot.clone(), outside).size(), 0);
        // u3's answer is its class slice, as 4 ascending edge ids.
        let u3 = g.upper(2);
        let node = p.nodes[p.class[u3.index()] as usize];
        let out = emit(&slot, u3, &mut QueryWorkspace::new());
        assert_eq!(out.len(), 4);
        assert!(out.windows(2).all(|w| w[0] < w[1]), "ascending ids");
        let mut slice = p.edges[node.start as usize..][..node.len as usize].to_vec();
        slice.sort_unstable();
        assert_eq!(out, slice);
    }

    #[test]
    fn a_panic_mid_emission_leaves_no_stale_bits() {
        let g = figure2_example();
        let slot = profile(&g, 2, 2);
        let u3 = g.upper(2);
        let mut ws = QueryWorkspace::new();
        let clean = emit(&slot, u3, &mut ws);
        // Mark every edge, then panic scanning past the bitset's end.
        let all: Vec<EdgeId> = g.edge_ids().collect();
        let far = usize::MAX / 64;
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ws.bits.emit_ascending(&all, far..=far, &mut Vec::new());
        }));
        assert!(panicked.is_err() && ws.bits.dirty);
        assert_eq!(emit(&slot, u3, &mut ws), clean);
        assert!(!ws.bits.dirty && ws.bits.words.iter().all(|&w| w == 0));
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
