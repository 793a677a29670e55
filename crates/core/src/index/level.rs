//! Shared storage and query kernel for the index family.
//!
//! Both the basic indexes (`Iα_bs`, `Iβ_bs`) and the degeneracy-bounded
//! index (`Iδ`) are collections of *levels*: for one fixed constraint
//! value they store, per member vertex, an adjacency list annotated with
//! the neighbors' offsets and sorted by offset descending. Algorithm 2 of
//! the paper runs on a level: BFS from the query vertex, scanning each
//! list only down to the first entry below the query threshold — which is
//! what makes retrieval time linear in the result size.

use bigraph::workspace::Workspace;
use bigraph::{BipartiteGraph, EdgeId, Vertex};

/// One annotated adjacency entry of an index level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Entry {
    /// The neighbor vertex.
    pub nbr: Vertex,
    /// Global edge id of the `(owner, nbr)` edge (weights are looked up
    /// through it, instead of duplicating them in the index).
    pub edge: EdgeId,
    /// The neighbor's offset at this level's fixed constraint.
    pub offset: u32,
}

/// Index storage for one fixed constraint value: per member vertex, its
/// own offset plus its annotated adjacency sorted by offset descending.
///
/// Lookup is O(1) through a dense vertex→slot table; the table costs
/// `4n` bytes per level, negligible next to the entry storage, and keeps
/// the BFS of Algorithm 2 free of hashing and binary search.
#[derive(Debug, Clone, Default)]
pub(crate) struct Level {
    /// Dense vertex → slot map (`u32::MAX` = not a member); length n.
    slot_of: Vec<u32>,
    /// Member vertices, sorted ascending.
    verts: Vec<Vertex>,
    /// Offset of each member itself (parallel to `verts`).
    own_offset: Vec<u32>,
    /// CSR starts into `entries` (length `verts.len() + 1`).
    starts: Vec<u32>,
    /// Annotated adjacency entries, each vertex's slice sorted by
    /// `offset` descending.
    entries: Vec<Entry>,
}

impl Level {
    /// New level over a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Level {
            slot_of: vec![u32::MAX; n],
            ..Default::default()
        }
    }

    /// Streaming constructor; vertices must be pushed in ascending id
    /// order and each entry list must already be sorted by offset
    /// descending.
    pub fn push_vertex(&mut self, v: Vertex, own_offset: u32, entries: &[Entry]) {
        debug_assert!(self.verts.last().is_none_or(|&p| p < v));
        debug_assert!(entries.windows(2).all(|w| w[0].offset >= w[1].offset));
        if self.starts.is_empty() {
            self.starts.push(0);
        }
        self.slot_of[v.index()] = self.verts.len() as u32;
        self.verts.push(v);
        self.own_offset.push(own_offset);
        self.entries.extend_from_slice(entries);
        self.starts.push(self.entries.len() as u32);
    }

    /// Rewrites every stored edge id through `map` (old id → new id).
    /// Used by index maintenance after the graph's edge ids shift; a
    /// level that is only remapped must not reference a removed edge.
    pub fn remap_edges(&mut self, map: &[Option<EdgeId>]) {
        for e in &mut self.entries {
            e.edge = map[e.edge.index()].expect("untouched level cannot reference a removed edge");
        }
    }

    /// Looks up a vertex: `(own offset, annotated adjacency)`. O(1).
    pub fn lookup(&self, v: Vertex) -> Option<(u32, &[Entry])> {
        let i = *self.slot_of.get(v.index())?;
        if i == u32::MAX {
            return None;
        }
        let i = i as usize;
        let range = self.starts[i] as usize..self.starts[i + 1] as usize;
        Some((self.own_offset[i], &self.entries[range]))
    }

    /// Number of member vertices.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn n_vertices(&self) -> usize {
        self.verts.len()
    }

    /// Number of stored adjacency entries.
    pub fn n_entries(&self) -> usize {
        self.entries.len()
    }

    /// Heap bytes (index size accounting for Fig. 11).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slot_of.len() * size_of::<u32>()
            + self.verts.len() * size_of::<Vertex>()
            + self.own_offset.len() * size_of::<u32>()
            + self.starts.len() * size_of::<u32>()
            + self.entries.len() * size_of::<Entry>()
    }
}

/// Touch statistics for the optimality assertions and Fig. 8 analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Index entries inspected (including the one probe past the
    /// threshold per scanned list).
    pub entries_touched: usize,
    /// Edges of the resulting community.
    pub result_edges: usize,
}

/// Algorithm 2: retrieves the community of `q` at `threshold` from a
/// level, in `O(size(result))` time.
///
/// The caller picks the level and threshold according to the index
/// dispatch rule (`Iα_bs[·][α]` with threshold β, `Iβ_δ[·][β]` with
/// threshold α, …). Entries are scanned in offset-descending order and
/// the scan stops at the first entry below the threshold, so only result
/// edges (plus one probe per vertex) are touched.
///
/// Runs on reusable scratch: the epoch-stamped visited set replaces a
/// per-query `vec![false; n]` bitmap (whose O(n) memset dominated small
/// queries), and `out` receives the sorted community edges (cleared
/// first). Clobbers `ws.visited` and `ws.queue`.
pub(crate) fn query_level_into(
    g: &BipartiteGraph,
    level: &Level,
    q: Vertex,
    threshold: u32,
    ws: &mut Workspace,
    out: &mut Vec<EdgeId>,
    stats: &mut QueryStats,
) {
    out.clear();
    let Some((own, _)) = level.lookup(q) else {
        return;
    };
    if own < threshold {
        return;
    }
    ws.fit(g);
    ws.visited.clear();
    ws.queue.clear();
    let Workspace { visited, queue, .. } = ws;
    visited.insert(q); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
    queue.push(q.0); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
    while let Some(ui) = queue.pop() {
        let u = Vertex(ui);
        let (_, list) = level
            .lookup(u)
            .expect("traversal only reaches vertices stored in the level");
        for entry in list {
            stats.entries_touched += 1;
            if entry.offset < threshold {
                break; // sorted descending: nothing further qualifies
            }
            if !g.is_upper(u) {
                out.push(entry.edge); // record each edge once, from its lower endpoint; contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
            }
            // contract-ok: warm workspace scratch; growth is cold
            if visited.insert(entry.nbr) {
                queue.push(entry.nbr.0); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
            }
        }
    }
    stats.result_edges = out.len();
    out.sort_unstable();
    out.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::{GraphBuilder, Subgraph};

    /// [`query_level_into`] on fresh scratch, as a subgraph.
    fn retrieve<'g>(
        g: &'g BipartiteGraph,
        level: &Level,
        q: Vertex,
        threshold: u32,
        stats: &mut QueryStats,
    ) -> Subgraph<'g> {
        let mut out = Vec::new();
        query_level_into(
            g,
            level,
            q,
            threshold,
            &mut Workspace::new(),
            &mut out,
            stats,
        );
        Subgraph::from_edges(g, out)
    }

    #[test]
    fn push_and_lookup() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 0, 1.0);
        b.add_edge(0, 1, 1.0);
        let g = b.build().unwrap();
        let e0 = g.find_edge(g.upper(0), g.lower(0)).unwrap();
        let e1 = g.find_edge(g.upper(0), g.lower(1)).unwrap();
        let mut level = Level::new(g.n_vertices());
        level.push_vertex(
            g.upper(0),
            2,
            &[
                Entry {
                    nbr: g.lower(0),
                    edge: e0,
                    offset: 5,
                },
                Entry {
                    nbr: g.lower(1),
                    edge: e1,
                    offset: 3,
                },
            ],
        );
        level.push_vertex(
            g.lower(0),
            5,
            &[Entry {
                nbr: g.upper(0),
                edge: e0,
                offset: 2,
            }],
        );
        let (own, list) = level.lookup(g.upper(0)).unwrap();
        assert_eq!(own, 2);
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].offset, 5);
        assert!(level.lookup(g.lower(1)).is_none());
        assert_eq!(level.n_vertices(), 2);
        assert_eq!(level.n_entries(), 3);
        assert!(level.heap_bytes() > 0);
    }

    #[test]
    fn query_respects_threshold_and_own_offset() {
        // Path u0 - l0 - u1, offsets chosen so that threshold 2 excludes u1.
        let mut b = GraphBuilder::new();
        b.add_edge(0, 0, 1.0);
        b.add_edge(1, 0, 1.0);
        b.ensure_lower(1); // extra isolated lower vertex, absent from the level
        let g = b.build().unwrap();
        let e00 = g.find_edge(g.upper(0), g.lower(0)).unwrap();
        let e10 = g.find_edge(g.upper(1), g.lower(0)).unwrap();
        let mut level = Level::new(g.n_vertices());
        level.push_vertex(
            g.upper(0),
            2,
            &[Entry {
                nbr: g.lower(0),
                edge: e00,
                offset: 2,
            }],
        );
        level.push_vertex(
            g.upper(1),
            1,
            &[Entry {
                nbr: g.lower(0),
                edge: e10,
                offset: 2,
            }],
        );
        level.push_vertex(
            g.lower(0),
            2,
            &[
                Entry {
                    nbr: g.upper(0),
                    edge: e00,
                    offset: 2,
                },
                Entry {
                    nbr: g.upper(1),
                    edge: e10,
                    offset: 1,
                },
            ],
        );
        let mut stats = QueryStats::default();
        let r = retrieve(&g, &level, g.upper(0), 2, &mut stats);
        assert_eq!(r.size(), 1);
        assert!(r.contains_vertex(g.lower(0)));
        assert!(!r.contains_vertex(g.upper(1)));
        // Low-offset query vertex short-circuits.
        let r = retrieve(&g, &level, g.upper(1), 2, &mut Default::default());
        assert!(r.is_empty());
        // Unknown vertex short-circuits.
        let r = retrieve(&g, &level, g.lower(1), 1, &mut Default::default());
        assert!(r.is_empty());
        // Threshold 1 returns everything.
        let r = retrieve(&g, &level, g.upper(0), 1, &mut Default::default());
        assert_eq!(r.size(), 2);
    }
}
