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
//!  submit ──▶ job queue ──▶ worker 0..N
//!             (mutex-guarded ring; one request per job)
//!                              │
//!                              ▼
//!             Arc<CommunitySearch> (read-locked slot, epoch-swappable)
//!                              │ answer(q, α, β)
//!                              ▼
//!             threshold profile per (α,β): q's class → Answer
//!             (size, n_upper, n_lower, min_weight in O(1))
//! ```
//!
//! * [`engine::QueryEngine`] — the worker pool. Every request takes
//!   one path: [`engine::QueryEngine::submit`] enqueues it as one job
//!   and returns a handle; [`engine::QueryEngine::query`] blocks.
//! * answers as views — a worker answers each request with
//!   [`scs::CommunitySearch::answer`]: a handle on `q`'s class in the
//!   (α,β) threshold profile, which is built by the first request at
//!   an (α,β) and shared by every later one while the snapshot's memo
//!   keeps it (at most 8 pairs). The response's [`CommunitySummary`]
//!   reads the class's counts and minimum weight in O(1) and emits the
//!   edges only if [`CommunitySummary::edges`] is called. There is no
//!   result cache, no in-flight table and no copy of any answer, so
//!   traffic over more (α,β) pairs than the memo holds rebuilds
//!   profiles (see [`engine`]).
//! * [`stats::ServiceStats`] — QPS, p50/p90/p99 latency from a lock-free
//!   log-bucketed histogram, plus scratch residency and
//!   allocations-avoided counts from the workers' workspaces.
//! * [`telemetry`] — per-stage latency attribution (queue wait, snapshot
//!   acquire, answer, publish, reply) into per-algorithm × per-stage
//!   lock-free histograms, a fixed-capacity slow-query ring retaining
//!   the worst requests with their full stage breakdown and answer
//!   size, and machine-readable exporters: Prometheus text
//!   ([`engine::QueryEngine::render_metrics`]) and the schema-versioned
//!   `BENCH_service.json` bench artifact. Recording is lock-free and
//!   allocation-free, on by default — the counting-allocator gate runs
//!   with telemetry enabled. Windowed snapshots
//!   ([`engine::QueryEngine::stats_window`]) report steady-state rates.
//! * per-worker scratch reuse — every worker owns a
//!   [`scs::QueryWorkspace`], reused across queries and across epoch
//!   swaps (a cold profile build grows it). Responses travel by value
//!   and reply slots are pooled, so the steady-state **warm path
//!   performs zero heap allocations end to end** — enforced by the
//!   counting-allocator binary `tests/alloc_free_service.rs`.
//! * epoch swap — [`engine::QueryEngine::install`] atomically replaces
//!   the index (e.g. a [`scs::DynamicIndex::snapshot`] after edge
//!   updates) without stopping the workers; every response is tagged
//!   with the epoch that produced it, and its answer keeps that epoch's
//!   profile alive.
//! * [`replay`] — workload construction (reusing `datasets::workload`)
//!   and a multi-client replay harness, the backing of the
//!   `scs serve-bench` subcommand.
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
//! assert_eq!((resp.summary.n_upper, resp.summary.size()), (3, 8));
//! // The edges are emitted only when asked for.
//! assert_eq!(resp.summary.edges().len(), 8);
//! engine.shutdown();
//! ```

#![forbid(unsafe_code)]

pub mod engine;
pub mod replay;
pub mod server;
pub mod stats;
pub mod telemetry;

pub use engine::{QueryEngine, ResponseHandle, ServiceConfig};
pub use replay::{
    build_workload, replay, try_build_workload, ReplayReport, WorkloadError, WorkloadSpec,
};
pub use server::{Server, ServerHandle};
pub use stats::{AdmissionStats, CacheStats, HistSnapshot, LatencyHistogram, ServiceStats};
pub use telemetry::{
    render_bench_json, render_prometheus, validate_bench_json, validate_prometheus, AlgoStats,
    BenchMeta, LatencySummary, SlowQuery, Stage, BENCH_SCHEMA, N_STAGES,
};

use bigraph::{EdgeId, Subgraph, Vertex};
use scs::{Algorithm, Answer, QueryWorkspace};
use std::sync::OnceLock;

/// One community-search query, as accepted by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryRequest {
    /// Query vertex (global id space, either side).
    pub q: Vertex,
    /// Minimum degree for upper vertices.
    pub alpha: u32,
    /// Minimum degree for lower vertices.
    pub beta: u32,
    /// The second-step algorithm the client named. Echoed in the
    /// response and keys the per-algorithm telemetry rows; it no longer
    /// picks a kernel. Every algorithm returns the same community, so
    /// the engine answers every request from
    /// [`scs::CommunitySearch::answer`].
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

/// Where a [`CommunitySummary`]'s edge list comes from.
#[derive(Debug, Clone)]
enum Edges {
    /// An owned, ascending edge list.
    Owned(Vec<EdgeId>),
    /// A threshold-profile view, emitted once, on the first
    /// [`CommunitySummary::edges`] call.
    View(Answer, OnceLock<Vec<EdgeId>>),
}

/// An owned, thread-independent description of a query result — the
/// significant (α,β)-community detached from the graph's lifetime so it
/// can be shipped across threads.
///
/// The engine's summaries wrap an [`Answer`]: building one reads the
/// answer's class summary and copies no edge, and the edge list is
/// emitted only if [`Self::edges`] is called. An answer keeps the
/// profile of its own index snapshot alive, so its edges stay those of
/// that snapshot whatever is installed meanwhile.
///
/// Two summaries are equal iff the underlying communities are identical
/// (same edge set of the same graph, regardless of how the edge list is
/// held), which is what the oracle tests assert against direct
/// [`scs::CommunitySearch::significant_community`] calls.
#[derive(Debug, Clone)]
pub struct CommunitySummary {
    /// The community's edges (empty result ⇒ empty list).
    edges: Edges,
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
    /// engine uses [`Self::from_answer`]).
    pub fn from_subgraph(sub: &Subgraph<'_>) -> Self {
        let (us, ls) = sub.layer_vertices();
        CommunitySummary {
            edges: Edges::Owned(sub.edges().to_vec()),
            n_upper: us.len(),
            n_lower: ls.len(),
            min_weight: sub.min_weight(),
        }
    }

    /// Wraps an [`Answer`]: the counts and the minimum weight are read
    /// from its class in O(1), and the edges wait for [`Self::edges`].
    // scs-contract: no-alloc — the engine builds every response's summary here.
    pub fn from_answer(answer: Answer) -> Self {
        CommunitySummary {
            n_upper: answer.n_upper(),
            n_lower: answer.n_lower(),
            min_weight: answer.min_weight(),
            edges: Edges::View(answer, OnceLock::new()),
        }
    }

    /// The empty community — what the engine answers for requests no
    /// community can satisfy (query vertex outside the installed graph,
    /// or a zero degree constraint). Allocation-free.
    pub fn empty() -> Self {
        CommunitySummary {
            edges: Edges::Owned(Vec::new()), // contract-ok: capacity-0 construction; Vec::new never touches the heap
            n_upper: 0,
            n_lower: 0,
            min_weight: None,
        }
    }

    /// The community's sorted edge ids. A summary wrapping an
    /// [`Answer`] emits them on the first call, through a bitset sized
    /// by the class's highest edge id, and keeps them; later calls and
    /// other summaries (clones included) are unaffected.
    pub fn edges(&self) -> &[EdgeId] {
        match &self.edges {
            Edges::Owned(edges) => edges,
            Edges::View(answer, built) => built.get_or_init(|| {
                let mut edges = Vec::with_capacity(answer.size());
                answer.edges_into(&mut QueryWorkspace::new(), &mut edges);
                edges
            }),
        }
    }

    /// Number of edges in the community; O(1), emits nothing.
    // scs-contract: no-alloc — every response's trace records its size.
    pub fn size(&self) -> usize {
        match &self.edges {
            Edges::Owned(edges) => edges.len(),
            Edges::View(answer, _) => answer.size(),
        }
    }
}

/// What the engine hands back for one request.
///
/// Passed **by value**: the summary wraps a shared profile view (or an
/// empty list), so cloning a response whose edges were never read is a
/// refcount bump plus a few scalar copies — no deep copy anywhere on
/// the serving path.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The request this answers.
    pub request: QueryRequest,
    /// The community.
    pub summary: CommunitySummary,
    /// Always `false`: the engine keeps no result cache. Kept so code
    /// that reads it still compiles.
    pub cached: bool,
    /// Always `false`: the engine does not coalesce requests. Kept so
    /// code that reads it still compiles.
    pub coalesced: bool,
    /// Index epoch that produced the summary (bumped by
    /// [`engine::QueryEngine::install`]).
    pub epoch: u64,
    /// End-to-end service time for this request, microseconds, measured
    /// from dequeue to response (not queueing).
    pub service_us: u64,
}
