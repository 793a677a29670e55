//! Reusable scratch memory for the query pipeline.
//!
//! Every hot-path algorithm in this workspace (core peeling, index
//! retrieval, the SCS second-step kernels) needs the same few pieces of
//! per-run scratch: a couple of vertex/edge membership sets, a degree
//! array, a BFS queue and an output edge buffer. Allocating those fresh
//! per query makes every query Ω(n + m) in allocator traffic regardless
//! of how small the answer is. A [`Workspace`] owns them once, grows
//! monotonically to the largest graph it has served, and makes resets
//! O(1) via epoch stamping — so a warm workspace serves an unbounded
//! query stream with **zero** further heap allocations.
//!
//! The two building blocks:
//!
//! * [`VertexMap<T>`] / [`EdgeMap<T>`] — typed flat buffers indexed by
//!   [`Vertex`] / [`EdgeId`] (or by raw dense ids, for algorithms that
//!   re-index a community with local ids). Growth is monotone; callers
//!   initialise the prefix they use.
//! * [`VertexSet`] / [`EdgeSet`] — membership sets with O(1) [`clear`]:
//!   a slot is a member iff `stamp[i] == epoch`, so clearing is one
//!   epoch increment and never touches the array (the rare `u32` epoch
//!   wrap-around pays one O(n) re-zeroing).
//!
//! [`clear`]: VertexSet::clear
//!
//! # Example
//!
//! ```
//! use bigraph::workspace::Workspace;
//! use bigraph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge(0, 0, 1.0);
//! b.add_edge(0, 1, 1.0);
//! let g = b.build().unwrap();
//!
//! let mut ws = Workspace::new();
//! ws.fit(&g); // grow once to the graph's size
//! let bytes = ws.heap_bytes();
//!
//! // A BFS using the reusable visited set: clear() is O(1), so running
//! // this once per query costs nothing between queries.
//! ws.visited.clear();
//! ws.queue.clear();
//! ws.visited.insert(g.upper(0));
//! ws.queue.push(g.upper(0).0);
//! // ... traverse ...
//!
//! ws.fit(&g); // a warm fit is allocation-free
//! assert_eq!(ws.heap_bytes(), bytes);
//! ```

use crate::graph::{BipartiteGraph, EdgeId, Vertex};

/// A typed flat buffer indexed by [`Vertex`] (or raw dense vertex ids).
///
/// Growth is monotone: [`VertexMap::ensure`] never shrinks, so a warm
/// map is reused allocation-free. The map does not reset values between
/// uses — callers initialise the prefix they read (which keeps the reset
/// cost proportional to the subproblem, not the graph).
#[derive(Debug, Clone, Default)]
pub struct VertexMap<T> {
    buf: Vec<T>,
}

/// A typed flat buffer indexed by [`EdgeId`] (or raw dense edge ids).
/// Same contract as [`VertexMap`].
#[derive(Debug, Clone, Default)]
pub struct EdgeMap<T> {
    buf: Vec<T>,
}

macro_rules! flat_map_impl {
    ($name:ident, $key:ty) => {
        impl<T> $name<T> {
            /// An empty map; grows on first [`Self::ensure`].
            pub fn new() -> Self {
                Self { buf: Vec::new() }
            }

            /// Grows the map to hold at least `n` slots, filling new
            /// slots with `fill`. Never shrinks.
            pub fn ensure(&mut self, n: usize, fill: T)
            where
                T: Clone,
            {
                if self.buf.len() < n {
                    self.buf.resize(n, fill);
                }
            }

            /// Resets the first `n` slots to `fill` (the slots a
            /// subproblem of size `n` will read).
            pub fn reset(&mut self, n: usize, fill: T)
            where
                T: Clone,
            {
                debug_assert!(n <= self.buf.len(), "reset beyond capacity");
                for slot in &mut self.buf[..n] {
                    *slot = fill.clone();
                }
            }

            /// Current capacity in slots.
            pub fn len(&self) -> usize {
                self.buf.len()
            }

            /// `true` iff no slot has ever been reserved.
            pub fn is_empty(&self) -> bool {
                self.buf.is_empty()
            }

            /// The underlying slice.
            pub fn as_slice(&self) -> &[T] {
                &self.buf
            }

            /// The underlying mutable slice.
            pub fn as_mut_slice(&mut self) -> &mut [T] {
                &mut self.buf
            }

            /// Resident heap bytes.
            pub fn heap_bytes(&self) -> usize {
                self.buf.capacity() * std::mem::size_of::<T>()
            }
        }

        impl<T> std::ops::Index<$key> for $name<T> {
            type Output = T;
            #[inline]
            fn index(&self, k: $key) -> &T {
                &self.buf[k.index()]
            }
        }

        impl<T> std::ops::IndexMut<$key> for $name<T> {
            #[inline]
            fn index_mut(&mut self, k: $key) -> &mut T {
                &mut self.buf[k.index()]
            }
        }

        impl<T> std::ops::Index<usize> for $name<T> {
            type Output = T;
            #[inline]
            fn index(&self, i: usize) -> &T {
                &self.buf[i]
            }
        }

        impl<T> std::ops::IndexMut<usize> for $name<T> {
            #[inline]
            fn index_mut(&mut self, i: usize) -> &mut T {
                &mut self.buf[i]
            }
        }
    };
}

flat_map_impl!(VertexMap, Vertex);
flat_map_impl!(EdgeMap, EdgeId);

/// Epoch-stamped membership set over dense ids.
///
/// `stamp[i] == epoch` means `i` is a member. [`StampSet::clear`] bumps
/// the epoch, invalidating every membership in O(1); the stamp array is
/// only rewritten on growth or on the (rare) epoch wrap-around. The
/// epoch starts at 1 and 0 is never a valid epoch, so `remove` can
/// unconditionally stamp 0.
#[derive(Debug, Clone)]
pub struct StampSet {
    stamp: Vec<u32>,
    epoch: u32,
}

impl Default for StampSet {
    fn default() -> Self {
        StampSet {
            stamp: Vec::new(),
            epoch: 1,
        }
    }
}

impl StampSet {
    /// An empty set; grows on first [`Self::ensure`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the id space to at least `n`. New slots are non-members.
    pub fn ensure(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
    }

    /// Empties the set in O(1) (epoch bump). The rare `u32` wrap-around
    /// re-zeroes the stamps so stale stamps can never alias a new epoch.
    pub fn clear(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Inserts `i`; returns `true` if it was not already a member.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        let fresh = self.stamp[i] != self.epoch;
        self.stamp[i] = self.epoch;
        fresh
    }

    /// Removes `i`; returns `true` if it was a member.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        let was = self.stamp[i] == self.epoch;
        self.stamp[i] = 0;
        was
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.stamp[i] == self.epoch
    }

    /// Number of addressable ids (not the member count).
    pub fn len(&self) -> usize {
        self.stamp.len()
    }

    /// `true` iff the id space is empty.
    pub fn is_empty(&self) -> bool {
        self.stamp.is_empty()
    }

    /// Resident heap bytes.
    pub fn heap_bytes(&self) -> usize {
        self.stamp.capacity() * std::mem::size_of::<u32>()
    }
}

/// Epoch-stamped set of vertices. See [`StampSet`] for the contract;
/// the typed methods take [`Vertex`], the `*_id` methods raw dense ids
/// (used by algorithms that re-index communities with local ids).
#[derive(Debug, Clone, Default)]
pub struct VertexSet(StampSet);

/// Epoch-stamped set of edges. See [`VertexSet`].
#[derive(Debug, Clone, Default)]
pub struct EdgeSet(StampSet);

macro_rules! stamp_set_impl {
    ($name:ident, $key:ty) => {
        impl $name {
            /// An empty set; grows on first [`Self::ensure`].
            pub fn new() -> Self {
                Self::default()
            }

            /// Grows the id space to at least `n`.
            pub fn ensure(&mut self, n: usize) {
                self.0.ensure(n)
            }

            /// O(1) emptying (epoch bump).
            pub fn clear(&mut self) {
                self.0.clear()
            }

            /// Typed insert.
            #[inline]
            pub fn insert(&mut self, k: $key) -> bool {
                self.0.insert(k.index())
            }

            /// Typed remove.
            #[inline]
            pub fn remove(&mut self, k: $key) -> bool {
                self.0.remove(k.index())
            }

            /// Typed membership test.
            #[inline]
            pub fn contains(&self, k: $key) -> bool {
                self.0.contains(k.index())
            }

            /// Raw-id insert (for dense local id spaces).
            #[inline]
            pub fn insert_id(&mut self, i: usize) -> bool {
                self.0.insert(i)
            }

            /// Raw-id remove.
            #[inline]
            pub fn remove_id(&mut self, i: usize) -> bool {
                self.0.remove(i)
            }

            /// Raw-id membership test.
            #[inline]
            pub fn contains_id(&self, i: usize) -> bool {
                self.0.contains(i)
            }

            /// Number of addressable ids.
            pub fn len(&self) -> usize {
                self.0.len()
            }

            /// `true` iff the id space is empty.
            pub fn is_empty(&self) -> bool {
                self.0.is_empty()
            }

            /// Resident heap bytes.
            pub fn heap_bytes(&self) -> usize {
                self.0.heap_bytes()
            }
        }
    };
}

stamp_set_impl!(VertexSet, Vertex);
stamp_set_impl!(EdgeSet, EdgeId);

/// The shared scratch arena of the query pipeline: one of each typed
/// buffer, grown monotonically to the largest graph seen.
///
/// Field semantics are by convention (the workspace is a memory pool,
/// not an algorithm): `visited` marks BFS/DFS discovery, `dead` marks
/// peeled-away vertices, `edges` is whichever edge membership the
/// running kernel needs (alive set, inserted set, …), `degree` holds
/// live degrees, and `queue`/`stack` are traversal worklists of raw
/// vertex ids. Every algorithm that
/// takes `&mut Workspace` documents which fields it clobbers; two
/// algorithms can share one workspace sequentially, never concurrently.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// BFS/DFS discovery marks.
    pub visited: VertexSet,
    /// Vertices removed by peeling (membership = removed).
    pub dead: VertexSet,
    /// General-purpose edge membership (liveness, insertion, …).
    pub edges: EdgeSet,
    /// Per-vertex live degrees.
    pub degree: VertexMap<u32>,
    /// Primary traversal worklist (vertex ids).
    pub queue: Vec<u32>,
    /// Secondary worklist (cascades).
    pub stack: Vec<u32>,
}

impl Workspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures every buffer can serve a graph with `n` vertices and `m`
    /// edges. Grow-only; a warm call is allocation-free.
    pub fn fit_sizes(&mut self, n: usize, m: usize) {
        self.visited.ensure(n);
        self.dead.ensure(n);
        self.edges.ensure(m);
        self.degree.ensure(n, 0);
        grow_vec(&mut self.queue, n);
        grow_vec(&mut self.stack, n);
    }

    /// [`Self::fit_sizes`] for a concrete graph.
    pub fn fit(&mut self, g: &BipartiteGraph) {
        self.fit_sizes(g.n_vertices(), g.n_edges());
    }

    /// Resident heap bytes across all scratch buffers — the price of
    /// keeping the workspace warm.
    pub fn heap_bytes(&self) -> usize {
        self.visited.heap_bytes()
            + self.dead.heap_bytes()
            + self.edges.heap_bytes()
            + self.degree.heap_bytes()
            + self.queue.capacity() * std::mem::size_of::<u32>()
            + self.stack.capacity() * std::mem::size_of::<u32>()
    }
}

/// Reserves capacity for `n` elements in a reusable worklist without
/// touching its contents. The grow-only primitive behind
/// [`Workspace::fit_sizes`], shared by downstream workspaces (e.g.
/// `scs::QueryWorkspace`) so every scratch buffer in the pipeline
/// follows one growth policy.
pub fn grow_vec<T>(v: &mut Vec<T>, n: usize) {
    if v.capacity() < n {
        v.reserve(n - v.len()); // contract-ok: workspace scratch retains warm capacity across queries; growth is cold (alloc-gated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn stamp_set_clear_is_logical() {
        let mut s = StampSet::new();
        s.ensure(4);
        assert!(s.insert(1));
        assert!(!s.insert(1));
        assert!(s.contains(1));
        assert!(!s.contains(0));
        s.clear();
        assert!(!s.contains(1));
        assert!(s.insert(1));
        assert!(s.remove(1));
        assert!(!s.remove(1));
        assert!(!s.contains(1));
    }

    #[test]
    fn stamp_set_survives_epoch_wraparound() {
        let mut s = StampSet::new();
        s.ensure(2);
        s.epoch = u32::MAX - 1;
        s.insert(0);
        s.clear(); // epoch == u32::MAX
        assert!(!s.contains(0));
        s.insert(1);
        s.clear(); // wrap: stamps re-zeroed, epoch back to 1
        assert_eq!(s.epoch, 1);
        assert!(!s.contains(0));
        assert!(!s.contains(1));
        s.insert(0);
        assert!(s.contains(0));
    }

    #[test]
    fn typed_sets_accept_vertices_and_ids() {
        let mut vs = VertexSet::new();
        vs.ensure(3);
        assert!(vs.insert(Vertex(2)));
        assert!(vs.contains(Vertex(2)));
        assert!(vs.contains_id(2));
        assert!(vs.remove_id(2));
        assert!(!vs.contains(Vertex(2)));

        let mut es = EdgeSet::new();
        es.ensure(2);
        assert!(es.insert_id(0));
        assert!(es.contains(EdgeId(0)));
        assert!(es.remove(EdgeId(0)));
        assert!(!es.contains_id(0));
    }

    #[test]
    fn maps_index_both_ways() {
        let mut m: VertexMap<u32> = VertexMap::new();
        m.ensure(3, 7);
        m.ensure(2, 0); // never shrinks
        assert_eq!(m.len(), 3);
        m[Vertex(1)] = 5;
        assert_eq!(m[1usize], 5);
        m.reset(2, 0);
        assert_eq!(m.as_slice(), &[0, 0, 7]);

        let mut e: EdgeMap<bool> = EdgeMap::new();
        e.ensure(2, false);
        e[EdgeId(1)] = true;
        assert!(e[1usize]);
        assert!(e.heap_bytes() >= 2);
    }

    #[test]
    fn workspace_fit_grows_once() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 0, 1.0);
        b.add_edge(1, 1, 1.0);
        let g = b.build().unwrap();
        let mut ws = Workspace::new();
        ws.fit(&g);
        let bytes = ws.heap_bytes();
        assert!(bytes > 0);
        ws.fit(&g);
        assert_eq!(ws.heap_bytes(), bytes, "warm fit must not grow");
        // Buffers are addressable for the fitted graph.
        ws.visited.clear();
        assert!(ws.visited.insert(g.upper(1)));
        ws.degree.reset(g.n_vertices(), 0);
        assert_eq!(ws.degree[g.lower(0)], 0);
    }

    #[test]
    fn workspace_grows_to_largest_graph_seen() {
        let mut ws = Workspace::new();
        ws.fit_sizes(4, 4);
        let small = ws.heap_bytes();
        ws.fit_sizes(100, 200);
        let big = ws.heap_bytes();
        assert!(big > small);
        ws.fit_sizes(10, 10); // shrinking graph: capacity is retained
        assert_eq!(ws.heap_bytes(), big);
    }
}
