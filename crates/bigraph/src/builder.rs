//! Validated construction of [`BipartiteGraph`]s.

use crate::graph::{BipartiteGraph, EdgeId, Side, Vertex};
use crate::Weight;
use std::collections::HashMap;
use std::fmt;

/// What to do when the same `(upper, lower)` pair is added twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DuplicatePolicy {
    /// Reject the build with [`BuildError::DuplicateEdge`] (default).
    #[default]
    Error,
    /// Keep the first weight seen.
    KeepFirst,
    /// Keep the maximum weight.
    KeepMax,
    /// Sum the weights (useful for purchase-count style weights).
    Sum,
}

/// Errors produced by [`GraphBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The same `(upper, lower)` pair was added twice under
    /// [`DuplicatePolicy::Error`].
    DuplicateEdge { upper: usize, lower: usize },
    /// A weight was NaN, which would break total ordering of weights.
    NanWeight { upper: usize, lower: usize },
    /// More than `u32::MAX` vertices or edges.
    TooLarge(&'static str),
    /// A vertex index whose layer size (`id + 1`) does not fit `u32`.
    IdOutOfRange { side: Side, id: usize },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::DuplicateEdge { upper, lower } => {
                write!(f, "duplicate edge (u{upper}, l{lower})")
            }
            BuildError::NanWeight { upper, lower } => {
                write!(f, "NaN weight on edge (u{upper}, l{lower})")
            }
            BuildError::TooLarge(what) => write!(f, "graph too large: {what} exceeds u32 range"),
            BuildError::IdOutOfRange { side, id } => {
                let layer = match side {
                    Side::Upper => "upper",
                    Side::Lower => "lower",
                };
                write!(f, "{layer} vertex id {id} exceeds the u32 range")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Incremental builder for [`BipartiteGraph`].
///
/// Vertices are addressed by side-local indices (`upper` 0-based in `U`,
/// `lower` 0-based in `L`); the layer sizes grow automatically to cover
/// every index mentioned. Isolated vertices can be forced into the graph
/// with [`GraphBuilder::ensure_upper`]/[`GraphBuilder::ensure_lower`]
/// (the paper assumes every vertex has an incident edge, but the builder
/// does not require it). An index whose layer size (`index + 1`) does
/// not fit `u32` is never truncated: [`GraphBuilder::build`] rejects it
/// with [`BuildError::IdOutOfRange`].
///
/// ```
/// use bigraph::GraphBuilder;
/// let mut b = GraphBuilder::new();
/// b.add_edge(0, 0, 5.0);
/// b.add_edge(0, 1, 4.0);
/// b.add_edge(1, 1, 2.0);
/// let g = b.build().unwrap();
/// assert_eq!(g.n_edges(), 3);
/// ```
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    edges: Vec<(u32, u32, Weight)>,
    n_upper: u32,
    n_lower: u32,
    policy: DuplicatePolicy,
    /// The first out-of-range index seen; `build` reports it.
    bad_id: Option<BuildError>,
}

impl GraphBuilder {
    /// New empty builder with [`DuplicatePolicy::Error`].
    pub fn new() -> Self {
        Self::default()
    }

    /// New builder with an explicit duplicate policy.
    pub fn with_policy(policy: DuplicatePolicy) -> Self {
        GraphBuilder {
            policy,
            ..Self::default()
        }
    }

    /// New builder pre-sized for `n_upper`/`n_lower` vertices and an
    /// expected number of edges.
    pub fn with_capacity(n_upper: usize, n_lower: usize, m: usize) -> Self {
        let mut b = Self::new();
        b.edges.reserve(m);
        if let Some(last) = n_upper.checked_sub(1) {
            b.cover(Side::Upper, last);
        }
        if let Some(last) = n_lower.checked_sub(1) {
            b.cover(Side::Lower, last);
        }
        b
    }

    /// Adds an undirected edge between upper vertex `upper` and lower
    /// vertex `lower` with weight `w`.
    pub fn add_edge(&mut self, upper: usize, lower: usize, w: Weight) -> &mut Self {
        let u = self.cover(Side::Upper, upper);
        let l = self.cover(Side::Lower, lower);
        if let (Some(u), Some(l)) = (u, l) {
            self.edges.push((u, l, w));
        }
        self
    }

    /// Ensures the upper layer contains index `upper` (possibly isolated).
    pub fn ensure_upper(&mut self, upper: usize) -> &mut Self {
        self.cover(Side::Upper, upper);
        self
    }

    /// Ensures the lower layer contains index `lower` (possibly isolated).
    pub fn ensure_lower(&mut self, lower: usize) -> &mut Self {
        self.cover(Side::Lower, lower);
        self
    }

    /// Grows `side`'s layer to contain index `id` and returns it as a
    /// `u32`. An index whose layer size would not fit `u32` is recorded
    /// for [`Self::build`] to report, and yields `None`.
    fn cover(&mut self, side: Side, id: usize) -> Option<u32> {
        let Some(size) = u32::try_from(id).ok().and_then(|i| i.checked_add(1)) else {
            self.bad_id
                .get_or_insert(BuildError::IdOutOfRange { side, id });
            return None;
        };
        let n = match side {
            Side::Upper => &mut self.n_upper,
            Side::Lower => &mut self.n_lower,
        };
        *n = (*n).max(size);
        Some(size - 1)
    }

    /// Number of edges added so far (before dedup).
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the graph: deduplicates per policy, sorts adjacency
    /// lists, and assembles CSR arrays.
    pub fn build(&self) -> Result<BipartiteGraph, BuildError> {
        if let Some(e) = &self.bad_id {
            return Err(e.clone());
        }
        let n = self.n_upper as u64 + self.n_lower as u64;
        if n > u32::MAX as u64 {
            return Err(BuildError::TooLarge("vertex count"));
        }

        // Deduplicate.
        let mut dedup: HashMap<(u32, u32), Weight> = HashMap::with_capacity(self.edges.len());
        for &(u, l, w) in &self.edges {
            if w.is_nan() {
                return Err(BuildError::NanWeight {
                    upper: u as usize,
                    lower: l as usize,
                });
            }
            match dedup.entry((u, l)) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(w);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => match self.policy {
                    DuplicatePolicy::Error => {
                        return Err(BuildError::DuplicateEdge {
                            upper: u as usize,
                            lower: l as usize,
                        })
                    }
                    DuplicatePolicy::KeepFirst => {}
                    DuplicatePolicy::KeepMax => {
                        if w > *e.get() {
                            e.insert(w);
                        }
                    }
                    DuplicatePolicy::Sum => {
                        *e.get_mut() += w;
                    }
                },
            }
        }

        let m = dedup.len();
        if m > u32::MAX as usize / 2 {
            return Err(BuildError::TooLarge("edge count"));
        }

        // Deterministic edge order: sort by (upper, lower).
        let mut edge_list: Vec<((u32, u32), Weight)> = dedup.into_iter().collect();
        edge_list.sort_unstable_by_key(|&((u, l), _)| (u, l));

        let n = n as usize;
        let mut degree = vec![0u32; n];
        let mut endpoints = Vec::with_capacity(m);
        let mut weights = Vec::with_capacity(m);
        for &((u, l), w) in &edge_list {
            let lv = self.n_upper + l;
            degree[u as usize] += 1;
            degree[lv as usize] += 1;
            endpoints.push((Vertex(u), Vertex(lv)));
            weights.push(w);
        }

        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }

        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut neighbors = vec![Vertex(0); 2 * m];
        let mut edge_ids = vec![EdgeId(0); 2 * m];
        for (eid, &((u, l), _)) in edge_list.iter().enumerate() {
            let lv = self.n_upper + l;
            let cu = cursor[u as usize] as usize;
            neighbors[cu] = Vertex(lv);
            edge_ids[cu] = EdgeId(eid as u32);
            cursor[u as usize] += 1;
            let cl = cursor[lv as usize] as usize;
            neighbors[cl] = Vertex(u);
            edge_ids[cl] = EdgeId(eid as u32);
            cursor[lv as usize] += 1;
        }
        // Rows are sorted automatically: edge_list is sorted by (u, l), so
        // each upper row receives lowers in increasing order, and each
        // lower row receives uppers in increasing order.

        Ok(BipartiteGraph::from_parts(
            self.n_upper,
            self.n_lower,
            offsets,
            neighbors,
            edge_ids,
            endpoints,
            weights,
        ))
    }
}

/// Builds the running example of the paper's Figure 1 (user–movie network,
/// ratings as weights). Upper = 7 users, lower = 7 movies.
///
/// Layout (upper index — name): 0 Taylor, 1 Kane, 2 Eric, 3 Andy, 4 Emma,
/// 5 Kelly, 6 Kate. Lower: 0 X-Men, 1 Alien, 2 A.I., 3 Titanic, 4 Lover,
/// 5 Avatar, 6 Star Wars.
///
/// The exact edge set of the figure is not fully legible from the paper;
/// this reconstruction preserves the property discussed in §I: the
/// connected (3,2)-community of Eric contains Taylor and Alien, while the
/// *significant* (3,2)-community (min-weight maximised) excludes them.
pub fn figure1_example() -> BipartiteGraph {
    let mut b = GraphBuilder::new();
    // Eric (2), Andy (3), Kane (1) rate X-Men (0), A.I. (2), Avatar (5) highly.
    for &u in &[1usize, 2, 3] {
        b.add_edge(u, 0, 4.0);
        b.add_edge(u, 2, 5.0);
        b.add_edge(u, 5, 4.0);
    }
    // Alien (1) is rated by Eric highly but poorly by Taylor; Andy/Kane skip it.
    b.add_edge(2, 1, 4.0);
    b.add_edge(0, 1, 2.0);
    // Taylor (0) has low interest: ratings of 2 on X-Men and A.I.
    b.add_edge(0, 0, 2.0);
    b.add_edge(0, 2, 2.0);
    // Right-side community: Emma (4), Kelly (5), Kate (6) on Titanic (3),
    // Lover (4), Star Wars (6).
    for &u in &[4usize, 5, 6] {
        b.add_edge(u, 3, 4.0);
        b.add_edge(u, 4, 3.0);
        b.add_edge(u, 6, 5.0);
    }
    // Kate bridges to Avatar with a mid rating.
    b.add_edge(6, 5, 2.0);
    b.build().expect("figure 1 example is well-formed")
}

/// Builds the paper's Figure 2 graph: `U = {u1..u999}`, `L = {v1..v999}`,
/// `w(u, v) = 5·u.id − v.id`.
///
/// Edges: `u1` is adjacent to every `v`; every `u` is adjacent to `v1`;
/// additionally `u2` is adjacent to `v2,v3,v4`, `u3` to `v2,v3` and `u4`
/// to `v2` (the triangular block visible in Figure 2(b)'s weights).
/// This matches the paper's counts: 2,003 edges in `G`, a 13-edge
/// (2,2)-community of `u3`, and a 4-edge significant (2,2)-community
/// `{(u3,v1),(u3,v2),(u4,v1),(u4,v2)}`.
///
/// 0-based translation: paper's `u_k` is `upper(k-1)`, `v_k` is
/// `lower(k-1)`.
pub fn figure2_example() -> BipartiteGraph {
    let w = |ui: usize, vi: usize| (5 * ui) as Weight - vi as Weight;
    let mut b = GraphBuilder::new();
    for v in 1..=999usize {
        b.add_edge(0, v - 1, w(1, v)); // u1 - v*
    }
    for u in 2..=999usize {
        b.add_edge(u - 1, 0, w(u, 1)); // u* - v1
    }
    for (u, max_v) in [(2usize, 4usize), (3, 3), (4, 2)] {
        for v in 2..=max_v {
            b.add_edge(u - 1, v - 1, w(u, v));
        }
    }
    b.build().expect("figure 2 example is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_error() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 0, 1.0);
        b.add_edge(0, 0, 2.0);
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::DuplicateEdge { upper: 0, lower: 0 }
        );
    }

    #[test]
    fn duplicate_keep_first() {
        let mut b = GraphBuilder::with_policy(DuplicatePolicy::KeepFirst);
        b.add_edge(0, 0, 1.0);
        b.add_edge(0, 0, 2.0);
        let g = b.build().unwrap();
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.weight(crate::EdgeId(0)), 1.0);
    }

    #[test]
    fn duplicate_keep_max() {
        let mut b = GraphBuilder::with_policy(DuplicatePolicy::KeepMax);
        b.add_edge(0, 0, 1.0);
        b.add_edge(0, 0, 2.0);
        b.add_edge(0, 0, 1.5);
        let g = b.build().unwrap();
        assert_eq!(g.weight(crate::EdgeId(0)), 2.0);
    }

    #[test]
    fn duplicate_sum() {
        let mut b = GraphBuilder::with_policy(DuplicatePolicy::Sum);
        b.add_edge(0, 0, 1.0);
        b.add_edge(0, 0, 2.5);
        let g = b.build().unwrap();
        assert_eq!(g.weight(crate::EdgeId(0)), 3.5);
    }

    #[test]
    fn nan_rejected() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 0, f64::NAN);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::NanWeight { .. }
        ));
    }

    #[test]
    fn ids_beyond_u32_are_rejected_not_truncated() {
        // 2^32 used to alias vertex 0.
        let mut b = GraphBuilder::new();
        b.add_edge(0, 0, 1.0);
        b.add_edge(1 << 32, 1, 1.0);
        b.add_edge(1, 0, 1.0);
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::IdOutOfRange {
                side: Side::Upper,
                id: 1 << 32
            }
        );
        // u32::MAX itself fits, but its layer size u32::MAX + 1 does not.
        let mut b = GraphBuilder::new();
        b.add_edge(0, u32::MAX as usize, 1.0);
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::IdOutOfRange {
                side: Side::Lower,
                id: u32::MAX as usize
            }
        );
        let mut b = GraphBuilder::new();
        b.ensure_lower(usize::MAX);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::IdOutOfRange {
                side: Side::Lower,
                ..
            }
        ));
        assert!(GraphBuilder::with_capacity(1 << 33, 1, 0).build().is_err());
    }

    #[test]
    fn isolated_vertices() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 0, 1.0);
        b.ensure_upper(5);
        b.ensure_lower(3);
        let g = b.build().unwrap();
        assert_eq!(g.n_upper(), 6);
        assert_eq!(g.n_lower(), 4);
        assert_eq!(g.degree(g.upper(5)), 0);
    }

    #[test]
    fn adjacency_sorted() {
        let mut b = GraphBuilder::new();
        // Insert in scrambled order.
        b.add_edge(1, 3, 1.0);
        b.add_edge(1, 0, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(0, 2, 1.0);
        let g = b.build().unwrap();
        let nbrs: Vec<usize> = g
            .neighbors(g.upper(1))
            .iter()
            .map(|&v| g.local_index(v))
            .collect();
        assert_eq!(nbrs, vec![0, 2, 3]);
    }

    #[test]
    fn figure2_counts() {
        let g = figure2_example();
        assert_eq!(g.n_upper(), 999);
        assert_eq!(g.n_lower(), 999);
        assert_eq!(g.n_edges(), 2003);
        // u1 is adjacent to all 999 lowers; v1 to all 999 uppers.
        assert_eq!(g.degree(g.upper(0)), 999);
        assert_eq!(g.degree(g.lower(0)), 999);
        // w(u3, v2) = 5*3-2 = 13
        let e = g.find_edge(g.upper(2), g.lower(1)).unwrap();
        assert_eq!(g.weight(e), 13.0);
    }

    #[test]
    fn figure1_counts() {
        let g = figure1_example();
        assert_eq!(g.n_upper(), 7);
        assert_eq!(g.n_lower(), 7);
        assert!(g.n_edges() > 10);
    }
}
