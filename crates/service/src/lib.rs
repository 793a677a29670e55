//! # scs-service — concurrent query serving for significant (α,β)-community search
//!
//! The paper (Wang et al., ICDE 2021) splits community search into an
//! offline index build and an online two-step query precisely so queries
//! can be answered at interactive speed. This crate supplies the serving
//! layer that premise implies: an in-process, std-only query engine that
//! owns a shared [`scs::CommunitySearch`] and answers
//! [`QueryRequest`]s through a fixed pool of worker threads.
//!
//! ## Architecture
//!
//! ```text
//!  submit ───────┐ (a batch of one)
//!                ├──▶ per-shard job queue ──▶ worker 0..N
//!  submit_batch ─┘    (mutex-guarded ring)      │
//!                   ┌───────────────────────────┼───────────────────┐
//!                   ▼                           ▼                   ▼
//!            sharded LRU cache           in-flight table     Arc<CommunitySearch>
//!            (hit → respond)             (dedup identical    (read-locked slot,
//!                                         concurrent work)    epoch-swappable)
//! ```
//!
//! * [`engine::QueryEngine`] — the worker pool. Every submission takes
//!   one path: [`engine::QueryEngine::submit`] enqueues a batch of one
//!   and returns a handle; [`engine::QueryEngine::query`] blocks.
//! * batch submission — [`engine::QueryEngine::submit_batch`] carries N
//!   requests through the queue as one job: one index-snapshot read, one
//!   cache lookup per unique key, one worker workspace and one kernel
//!   call per leader
//!   ([`scs::CommunitySearch::significant_community_arena`]), answered
//!   in submission order with results identical to per-request
//!   submission.
//! * [`cache::ShardedCache`] — a power-of-two-sharded, per-shard-locked
//!   LRU keyed by `(q, α, β)` with hit/miss counters. Every algorithm
//!   returns the same community, so requests that differ only in
//!   `algo` share one entry.
//! * in-flight deduplication — when queries with the same `(q, α, β)`
//!   race, one worker computes and the rest wait on the same result
//!   (`singleflight`).
//! * [`stats::ServiceStats`] — QPS, p50/p90/p99 latency from a lock-free
//!   log-bucketed histogram, cache hit rate, coalescing counters, plus
//!   scratch/arena residency, allocations-avoided and slab-recycle
//!   counts from the workers' workspaces and arenas.
//! * [`telemetry`] — per-stage latency attribution (queue wait, snapshot
//!   acquire, cache lookup, kernel compute, arena publish, reply) into
//!   per-algorithm × per-stage lock-free histograms, a fixed-capacity
//!   slow-query ring retaining the worst requests with their full stage
//!   breakdown, provenance and answer size, and machine-readable exporters:
//!   Prometheus text ([`engine::QueryEngine::render_metrics`]) and the
//!   schema-versioned `BENCH_service.json` bench artifact. Recording is
//!   lock-free and allocation-free, on by default — the counting-
//!   allocator gate runs with telemetry enabled. Windowed snapshots
//!   ([`engine::QueryEngine::stats_window`]) report steady-state rates.
//! * per-worker scratch **and result** reuse — every worker owns a
//!   [`scs::QueryWorkspace`] and a [`bigraph::arena::ResultArena`],
//!   both reused across queries (and across epoch swaps, growing if a
//!   larger graph is installed). Summaries are arena-backed
//!   ([`EdgeStore::Arena`]), responses travel by value, and reply
//!   slots, flights and request/response vectors are pooled, so the
//!   steady-state **warm leader path performs zero heap allocations
//!   end to end** — enforced by the counting-allocator binary
//!   `tests/alloc_free_service.rs`. Slabs recycle when the cache
//!   evicts (or an install clears) the last handle into them; live
//!   handles pin their slab by refcount, with generation tags as the
//!   auditable proof.
//! * epoch swap — [`engine::QueryEngine::install`] atomically replaces
//!   the index (e.g. a [`scs::DynamicIndex::snapshot`] after edge
//!   updates) without stopping the workers; the cache is invalidated and
//!   every response is tagged with the epoch that produced it.
//! * [`replay`] — workload construction (reusing `datasets::workload`)
//!   and a multi-client replay harness, the backing of the
//!   `scs serve-bench` subcommand and the scaling benchmark.
//! * [`server`] — the `scs serve` HTTP/1.1 front end. Each connection
//!   thread admits its own requests (tenant quotas, a pending budget,
//!   429 + `Retry-After` when over) and serves them with
//!   [`engine::QueryEngine::submit`] and a timed wait, so a socket
//!   request reaches the engine's job queue with no thread or timer in
//!   between.
//!
//! ## Example
//!
//! ```
//! use bigraph::GraphBuilder;
//! use scs::{Algorithm, CommunitySearch};
//! use scs_service::{QueryEngine, QueryRequest, ServiceConfig};
//!
//! let mut b = GraphBuilder::new();
//! for u in 0..3 {
//!     for l in 0..3 {
//!         b.add_edge(u, l, if u == 2 && l == 2 { 1.0 } else { 5.0 });
//!     }
//! }
//! let search = CommunitySearch::shared(b.build().unwrap());
//! let q = search.graph().upper(0);
//!
//! let engine = QueryEngine::start(search, ServiceConfig::default());
//! let resp = engine.query(QueryRequest::new(q, 2, 2, Algorithm::Auto));
//! assert_eq!(resp.summary.min_weight, Some(5.0));
//! let again = engine.query(QueryRequest::new(q, 2, 2, Algorithm::Auto));
//! assert!(again.cached);
//! engine.shutdown();
//! ```

// Unsafe is confined to the one module that needs it (see the
// module-level `allow`); everything else in the crate is checked.
#![deny(unsafe_code)]

pub mod cache;
pub mod engine;
pub mod replay;
pub mod server;
pub mod stats;
pub mod telemetry;

pub use cache::{CacheStats, ShardedCache};
pub use engine::{BatchHandle, QueryEngine, ResponseHandle, ServiceConfig};
pub use replay::{
    build_workload, replay, replay_batched, try_build_workload, ReplayReport, WorkloadError,
    WorkloadSpec,
};
pub use server::{Server, ServerHandle};
pub use stats::{AdmissionStats, HistSnapshot, LatencyHistogram, ServiceStats, ShardStats};
pub use telemetry::{
    render_bench_json, render_prometheus, validate_bench_json, validate_prometheus, AlgoStats,
    BenchMeta, LatencySummary, Provenance, SlowQuery, Stage, BENCH_SCHEMA, N_STAGES,
};

use bigraph::arena::ArenaEdges;
use bigraph::{BipartiteGraph, EdgeId, Subgraph, Vertex};
use scs::{Algorithm, QueryWorkspace};

/// One community-search query, as accepted by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryRequest {
    /// Query vertex (global id space, either side).
    pub q: Vertex,
    /// Minimum degree for upper vertices.
    pub alpha: u32,
    /// Minimum degree for lower vertices.
    pub beta: u32,
    /// The second-step algorithm that computes the answer on a miss.
    /// Not part of the answer's identity: every algorithm returns the
    /// same community, so the engine caches and coalesces on
    /// `(q, α, β)` alone, and the first request of a key picks the
    /// kernel.
    pub algo: Algorithm,
}

impl QueryRequest {
    /// Convenience constructor from the usual `usize` parameters.
    ///
    /// # Panics
    /// Panics if `alpha` or `beta` exceeds `u32::MAX` — silently
    /// truncating would serve a different (and likely nonempty) query
    /// than the caller asked for. No real degree constraint comes close.
    pub fn new(q: Vertex, alpha: usize, beta: usize, algo: Algorithm) -> Self {
        QueryRequest {
            q,
            alpha: u32::try_from(alpha).expect("alpha exceeds u32::MAX"),
            beta: u32::try_from(beta).expect("beta exceeds u32::MAX"),
            algo,
        }
    }
}

/// Backing storage of a [`CommunitySummary`]'s edge list: an owned
/// `Vec` (oracle comparisons, tooling, anything without an arena) or a
/// shared view into a [`bigraph::arena::ResultArena`] slab (the serving
/// hot path — cloning is a refcount bump, and the live handle pins its
/// slab against recycling).
#[derive(Debug, Clone)]
pub enum EdgeStore {
    /// Heap-owned edge list.
    Owned(Vec<EdgeId>),
    /// Arena-slab view; see [`bigraph::arena`] for lifetime semantics.
    Arena(ArenaEdges),
}

impl EdgeStore {
    /// The edge ids, whatever the backing.
    pub fn as_slice(&self) -> &[EdgeId] {
        match self {
            EdgeStore::Owned(v) => v,
            EdgeStore::Arena(a) => a.as_slice(),
        }
    }
}

/// An owned, thread-independent description of a query result — the
/// significant (α,β)-community detached from the graph's lifetime so it
/// can be cached and shipped across threads.
///
/// Two summaries are equal iff the underlying communities are identical
/// (same edge set of the same graph, regardless of how the edge list is
/// stored), which is what the oracle tests assert against direct
/// [`scs::CommunitySearch::significant_community`] calls.
#[derive(Debug, Clone)]
pub struct CommunitySummary {
    /// The community's edge ids, sorted (empty result ⇒ empty store).
    edges: EdgeStore,
    /// Upper-side member count.
    pub n_upper: usize,
    /// Lower-side member count.
    pub n_lower: usize,
    /// `f(R)` — the maximised minimum edge weight; `None` for an empty
    /// result.
    pub min_weight: Option<f64>,
}

impl PartialEq for CommunitySummary {
    fn eq(&self, other: &Self) -> bool {
        self.edges() == other.edges()
            && self.n_upper == other.n_upper
            && self.n_lower == other.n_lower
            && self.min_weight == other.min_weight
    }
}

impl CommunitySummary {
    /// Captures a borrowed [`Subgraph`] into an owned summary
    /// (allocating — the path for oracles and one-off callers; the
    /// engine's leader path uses [`Self::from_arena_edges`]).
    pub fn from_subgraph(sub: &Subgraph<'_>) -> Self {
        let (us, ls) = sub.layer_vertices();
        CommunitySummary {
            edges: EdgeStore::Owned(sub.edges().to_vec()),
            n_upper: us.len(),
            n_lower: ls.len(),
            min_weight: sub.min_weight(),
        }
    }

    /// Builds a summary around an arena-stored edge list without
    /// allocating: member counts come from `ws.layer_counts` (reusable
    /// scratch) and the minimum weight from one pass over the edges.
    pub fn from_arena_edges(
        g: &BipartiteGraph,
        edges: ArenaEdges,
        ws: &mut QueryWorkspace,
    ) -> Self {
        let (n_upper, n_lower) = ws.layer_counts(g, edges.as_slice());
        let min_weight = edges
            .as_slice()
            .iter()
            .map(|&e| g.weight(e))
            .min_by(|a, b| a.total_cmp(b));
        CommunitySummary {
            edges: EdgeStore::Arena(edges),
            n_upper,
            n_lower,
            min_weight,
        }
    }

    /// The empty community — what the engine answers for requests no
    /// community can satisfy (query vertex outside the installed graph,
    /// or a zero degree constraint). Allocation-free.
    pub fn empty() -> Self {
        CommunitySummary {
            edges: EdgeStore::Owned(Vec::new()), // contract-ok: capacity-0 construction; Vec::new never touches the heap
            n_upper: 0,
            n_lower: 0,
            min_weight: None,
        }
    }

    /// The community's sorted edge ids.
    pub fn edges(&self) -> &[EdgeId] {
        self.edges.as_slice()
    }

    /// The backing storage (owned vs arena) — exposed so tests can
    /// assert the slab-pinning invariants of arena-backed results.
    pub fn store(&self) -> &EdgeStore {
        &self.edges
    }

    /// Number of edges in the community.
    pub fn size(&self) -> usize {
        self.edges.as_slice().len()
    }
}

/// What the engine hands back for one request.
///
/// Passed **by value**: the summary's edge list lives in shared arena
/// storage (or an empty vec), so cloning a response is a refcount bump
/// plus a few scalar copies — no `Arc<QueryResponse>` box and no deep
/// copy anywhere on the cached or coalesced paths.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The request this answers.
    pub request: QueryRequest,
    /// The community.
    pub summary: CommunitySummary,
    /// `true` if served from the result cache (no recomputation).
    pub cached: bool,
    /// `true` if this thread waited on another in-flight query with the
    /// same `(q, α, β)` instead of computing (always `false` when
    /// `cached`).
    pub coalesced: bool,
    /// Index epoch that produced the summary (bumped by
    /// [`engine::QueryEngine::install`]).
    pub epoch: u64,
    /// End-to-end service time for this request, microseconds, measured
    /// from dequeue to response (compute or cache lookup, not queueing).
    pub service_us: u64,
}
