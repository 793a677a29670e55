//! The concurrent query engine: a fixed worker pool over an immutable,
//! epoch-swappable [`CommunitySearch`].
//!
//! Life of a request — every submission takes the same path:
//!
//! 1. [`QueryEngine::submit`] enqueues a **batch of one** on the shard
//!    its query vertex routes to and returns a [`ResponseHandle`];
//!    [`QueryEngine::submit_batch`] enqueues N requests as one job per
//!    shard. [`QueryEngine::query`] and [`QueryEngine::query_batch`]
//!    are the blocking conveniences.
//! 2. A worker dequeues the job and reads one index snapshot — the
//!    shard's `Arc<CommunitySearch>` and its epoch — for all of the
//!    job's requests.
//! 3. It answers each request with [`CommunitySearch::answer`]: `q`'s
//!    class in the (α,β) threshold profile, a table lookup once that
//!    profile is built. The first request at an (α,β) builds it;
//!    requests racing that build on other workers wait in the profile
//!    slot's `OnceLock` and share the one build. The response's
//!    [`crate::CommunitySummary`] reads the class's member counts and
//!    minimum weight in O(1); no edge is emitted or copied. The
//!    request's `algo` is echoed and keys the telemetry rows, but it
//!    picks no kernel: every algorithm returns the same community.
//! 4. The worker hands the responses back in submission order and
//!    records every member's stage trace (see [`crate::telemetry`]).
//!
//! Only [`QueryEngine::submit_batch`] jobs count in the
//! `batches`/`batched` counters.
//!
//! # The warm path allocates nothing
//!
//! Together with the per-worker [`QueryWorkspace`], every piece of
//! per-request state is recycled, so a warm engine serves requests with
//! **zero** heap allocations end to end (proven by
//! `tests/alloc_free_service.rs`):
//!
//! * the job queue is a mutex-protected ring (`VecDeque`) instead of a
//!   node-allocating channel;
//! * request and response vectors and reply slots ([`ReplyCell`]) are
//!   pooled, reused whenever their refcount proves nothing else holds
//!   them;
//! * an answer is a refcount bump on its profile slot plus a class id,
//!   and [`crate::QueryResponse`] travels **by value**, so there is no
//!   `Arc::new` per response;
//! * the job's stage traces live in per-worker scratch that keeps its
//!   capacity.
//!
//! What does allocate is cold: a profile build, once per (α,β) per
//! snapshot for as long as the memo keeps it, and
//! [`crate::CommunitySummary::edges`], which emits an answer's edges on
//! the caller's first read and which the engine itself never calls.
//!
//! # Assumption: the live (α,β) pairs fit the profile memo
//!
//! A request is O(1) only while its (α,β) profile is in the snapshot's
//! memo, which holds the 8 most recently built profiles, first in,
//! first out; the engine keeps no result cache. Traffic that rotates
//! through more pairs evicts a profile on every miss, and the next
//! request at the evicted pair rebuilds the whole core's profile (22 ms
//! on the EN analogue at (2,2)), even for a key answered before. In a
//! closed-loop probe on a 2-vCPU VM (EN, 2 workers, 4 clients), 256 hot
//! keys were answered at 145,396 QPS over 8 (α,β) pairs and at 319 QPS
//! over 12. Every request also locks the one memo mutex and bumps one
//! profile slot's refcount, shared by all shards' workers; nothing has
//! measured that beyond 2 workers.
//!
//! # Sharding
//!
//! The engine is built from `ServiceConfig::shards` **independent
//! shards**: each owns its worker pool, job queue, workspaces, telemetry
//! plane and `Arc<CommunitySearch>` index replica. Requests route to a
//! shard by a stable hash of the query vertex ([`route_of`], a
//! splitmix64 mixer), so a given key always lands on the same shard.
//! Cross-shard batches are partitioned into per-shard sub-batches and
//! reassembled in submission order by the [`BatchHandle`]; installs fan
//! out to every shard (serialized, so all shards agree on the epoch
//! sequence); stats aggregate. On Linux, each shard's workers are
//! pinned to a distinct CPU set (best-effort); elsewhere pinning is a
//! no-op and sharding still isolates the queues.
//!
//! [`QueryEngine::install`] atomically replaces the index (one
//! write-lock per shard) and bumps the epoch, so a rebuilt index — e.g.
//! [`scs::DynamicIndex::snapshot`] after edge updates — goes live
//! without stopping the workers. A job that read the old snapshot
//! finishes on it (its `Arc` keeps it alive) and its responses carry the
//! old epoch. Each answer holds the profile it was read from, so a
//! response materialises its own snapshot's edges even after the
//! install; the new snapshot starts with an empty profile memo.

// The crate denies `unsafe_code`; this module is the one exception,
// for the `sched_setaffinity` FFI shim in `pin_worker`. Every site
// is budgeted in `unsafe-allowlist.txt` and checked by `scs analyze`.
#![allow(unsafe_code)]

use crate::stats::{
    AdmissionStats, CacheStats, HistSnapshot, LatencyHistogram, ServiceStats, ShardStats,
};
use crate::telemetry::{
    Provenance, RequestTrace, SlowQuery, Stage, StageSet, Telemetry, TelemetrySnapshot,
};
use crate::{CommunitySummary, QueryRequest, QueryResponse};
use bigraph::Vertex;
use scs::{CommunitySearch, QueryWorkspace};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (≥ 1), distributed across the shards. When
    /// `shards` does not divide this evenly the first shards get the
    /// remainder; every shard gets at least one worker, so `shards >
    /// workers` raises the effective total (reported by
    /// [`crate::stats::ServiceStats::workers`]).
    pub workers: usize,
    /// Independent engine shards (≥ 1). Each shard owns its worker
    /// pool, job queue, telemetry plane and index replica; requests are
    /// routed by a stable hash of the query vertex, so one key always
    /// lands on one shard. On Linux each shard's workers are
    /// additionally pinned to a distinct CPU set (best-effort;
    /// elsewhere pinning is a no-op).
    pub shards: usize,
    /// Ignored: the engine keeps no result cache, since every answer is
    /// a view into a threshold profile. Kept so configurations that set
    /// it still compile. The profile memo that replaces the cache holds
    /// at most 8 (α,β) pairs per snapshot; traffic over more pairs
    /// rebuilds profiles (see the [module docs](self)).
    pub cache_capacity: usize,
    /// Capacity of the slow-query ring: how many worst-latency requests
    /// the telemetry plane retains with their full stage breakdown
    /// (see [`crate::telemetry`]). 0 disables retention (recording
    /// skips the ring entirely); the histograms stay on regardless.
    pub slow_ring_capacity: usize,
    /// Network front end ([`crate::Server`]) only — the engine itself
    /// never sheds. Maximum requests admitted but not yet answered;
    /// past it new requests get `429 + Retry-After` instead of
    /// queueing unboundedly. Clamped to ≥ 1.
    pub pending_budget: usize,
    /// Server only: per-tenant token-bucket refill rate,
    /// requests/second. 0 disables tenant quotas.
    pub tenant_rate: u64,
    /// Server only: per-tenant token-bucket burst capacity. Clamped to
    /// ≥ 1 when quotas are on.
    pub tenant_burst: u64,
    /// Server only: socket read/write timeout, milliseconds — a slow
    /// or dead client is disconnected instead of pinning a connection
    /// thread. 0 means no timeout. The server also waits at most
    /// `max(socket_timeout_ms, 1 s)` for an admitted request's reply
    /// before answering `503`.
    pub socket_timeout_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            shards: 1,
            cache_capacity: 4096,
            slow_ring_capacity: 16,
            pending_budget: 1024,
            tenant_rate: 0,
            tenant_burst: 64,
            socket_timeout_ms: 10_000,
        }
    }
}

/// A pooled one-shot reply slot: the worker `put`s exactly once (or
/// `abandon`s on panic), the submitter `take`s exactly once. The
/// **worker** returns the cell to the pool right after answering — the
/// submitter's own `Arc` keeps it out of circulation until its `wait`
/// completes (the pool only reissues refcount-1 entries), so by the
/// time the submitter can submit again the cell is deterministically
/// free. A cell whose submitter never waited keeps its stale value
/// until reuse, which resets it.
struct ReplyCell<T> {
    state: Mutex<ReplyState<T>>,
    cv: Condvar,
}

enum ReplyState<T> {
    Pending,
    Done(T),
    Abandoned,
}

impl<T> ReplyCell<T> {
    fn new() -> Self {
        ReplyCell {
            state: Mutex::new(ReplyState::Pending),
            cv: Condvar::new(),
        }
    }

    /// Blocks until the worker answers (`None` if the worker panicked
    /// and abandoned the cell).
    fn take(&self) -> Option<T> {
        let mut state = self.state.lock().unwrap();
        loop {
            match std::mem::replace(&mut *state, ReplyState::Pending) {
                ReplyState::Pending => state = self.cv.wait(state).unwrap(),
                ReplyState::Done(v) => return Some(v),
                ReplyState::Abandoned => return None,
            }
        }
    }

    /// [`Self::take`] that gives up after `timeout` (`None`). Poisoning
    /// is recovered, not propagated: the state is whole at every unlock,
    /// and this runs under the connection handler's no-panic contract.
    fn take_timeout(&self, timeout: Duration) -> Option<T> {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let (mut state, _) = self
            .cv
            .wait_timeout_while(state, timeout, |s| matches!(s, ReplyState::Pending))
            .unwrap_or_else(PoisonError::into_inner);
        match std::mem::replace(&mut *state, ReplyState::Pending) {
            ReplyState::Done(v) => Some(v),
            ReplyState::Pending | ReplyState::Abandoned => None,
        }
    }
}

/// Answers a reply cell (`Some` = responses, `None` = the job panicked)
/// and moves the worker's reference into the pool, **holding the pool
/// lock across both**. The ordering is what makes warm submits
/// deterministic: the submitter cannot finish its `take` until the
/// state lock is released, and cannot reach `take_free` until the pool
/// lock is released — by which point the cell is pooled and the
/// worker's reference gone, so after the submitter drops its handle the
/// cell is free. Without this, the worker's "pool it" step could lag
/// behind a fast submitter and force a fresh allocation.
///
/// `then` runs once the answer is in, before the submitter is woken
/// and the state lock released: the worker records the job's traces
/// there, so a submitter whose `wait` returned finds its requests in
/// the telemetry plane.
fn respond_and_pool<T>(
    pool: &ArcPool<ReplyCell<T>>,
    cell: Arc<ReplyCell<T>>,
    value: Option<T>,
    then: impl FnOnce(),
) {
    let mut items = pool.items.lock().unwrap();
    {
        let mut state = cell.state.lock().unwrap();
        *state = match value {
            Some(v) => ReplyState::Done(v),
            None => ReplyState::Abandoned,
        };
        then();
        cell.cv.notify_all();
    }
    items.push(cell);
}

/// A pool of reusable `Arc`'d objects. `take_free` only returns an
/// entry whose strong count is 1 — nothing else references it, so the
/// caller may reset and reuse it; busy entries (a submitter yet to take
/// its reply) stay pooled until they free up. Entries return through
/// [`respond_and_pool`], which pushes within retained capacity.
struct ArcPool<T> {
    items: Mutex<Vec<Arc<T>>>,
}

impl<T> ArcPool<T> {
    fn new() -> Self {
        ArcPool {
            items: Mutex::new(Vec::new()),
        }
    }

    // Poisoning is recovered, as in `VecPool`: `submit` runs on the
    // server's no-panic request path.
    fn take_free(&self) -> Option<Arc<T>> {
        let mut items = self.items.lock().unwrap_or_else(PoisonError::into_inner);
        let i = items.iter().position(|a| Arc::strong_count(a) == 1)?;
        Some(items.swap_remove(i))
    }
}

/// A pool of reusable plain `Vec`s (cleared on return, capacity kept).
struct VecPool<T> {
    items: Mutex<Vec<Vec<T>>>,
}

impl<T> VecPool<T> {
    fn new() -> Self {
        VecPool {
            items: Mutex::new(Vec::new()),
        }
    }

    // A poisoned pool is still a valid list of cleared vectors, so the
    // lock is recovered rather than unwrapped: `take` and `put` run on
    // the server's no-panic request path.
    fn take(&self) -> Vec<T> {
        self.items
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_default()
    }

    fn put(&self, mut v: Vec<T>) {
        v.clear();
        self.items
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(v);
    }
}

/// The job queue: a mutex-protected ring with a condvar, in place of a
/// channel whose every send allocates a node.
struct JobQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
}

struct QueueState {
    jobs: VecDeque<Job>,
    open: bool,
}

impl JobQueue {
    fn new() -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                open: true,
            }),
            cv: Condvar::new(),
        }
    }

    /// Enqueues unless the queue is closed; returns whether it did.
    /// Poisoning is recovered: the state is whole at every unlock.
    fn push(&self, job: Job) -> bool {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if !state.open {
            return false;
        }
        state.jobs.push_back(job);
        drop(state);
        self.cv.notify_one();
        true
    }

    /// Dequeues, parking while the queue is empty. `None` once the
    /// queue is closed **and** drained — pending jobs are always
    /// served.
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if !state.open {
                return None;
            }
            state = self.cv.wait(state).unwrap();
        }
    }

    fn close(&self) {
        self.state.lock().unwrap().open = false;
        self.cv.notify_all();
    }
}

/// Per-worker scratch accounting, published after every served job so
/// [`QueryEngine::stats`] can aggregate without touching the workspaces
/// themselves (they are owned by the worker threads).
#[derive(Default)]
struct ScratchSlot {
    /// Resident bytes of the worker's [`QueryWorkspace`].
    bytes: AtomicUsize,
    /// Cumulative scratch acquisitions served without allocating.
    allocs_avoided: AtomicU64,
}

/// The previous [`QueryEngine::stats_window`] baseline: plain-value
/// copies of every cumulative counter and histogram, subtracted from
/// the current values to yield the window's deltas.
struct WindowBase {
    at: Instant,
    service: HistSnapshot,
    telem: TelemetrySnapshot,
    completed: u64,
    batches: u64,
    batched: u64,
}

impl WindowBase {
    fn zero(at: Instant) -> Self {
        WindowBase {
            at,
            service: HistSnapshot::empty(),
            telem: TelemetrySnapshot::empty(),
            completed: 0,
            batches: 0,
            batched: 0,
        }
    }
}

/// One engine shard: everything its workers share — index replica, job
/// queue, pools, telemetry — so the sharded engine above it only
/// routes, fans out and aggregates.
struct Inner {
    search: RwLock<(Arc<CommunitySearch>, u64)>,
    queue: JobQueue,
    hist: LatencyHistogram,
    completed: AtomicU64,
    batches: AtomicU64,
    batched: AtomicU64,
    scratch: Vec<ScratchSlot>,
    reply_pool: ArcPool<ReplyCell<Vec<QueryResponse>>>,
    req_pool: VecPool<QueryRequest>,
    resp_pool: VecPool<QueryResponse>,
    /// Worker threads owned by this shard.
    workers: usize,
    /// The preallocated telemetry plane: per-algorithm × per-stage
    /// histograms, the slow-query ring and event counters. Recording
    /// is lock-free and allocation-free (see [`crate::telemetry`]).
    telemetry: Telemetry,
}

impl Inner {
    /// The current `(index snapshot, epoch)` pair, read consistently.
    fn snapshot(&self) -> (Arc<CommunitySearch>, u64) {
        let guard = self.search.read().unwrap();
        (guard.0.clone(), guard.1) // contract-ok: Arc refcount bump under the snapshot read lock
    }

    /// Enqueues `reqs` as one job and returns its reply cell. The cell
    /// comes from (and returns to) the shard's pool; a reissued cell may
    /// hold the stale value of a submitter that never waited, so it is
    /// reset first (refcount 1 makes that unobservable).
    fn enqueue(
        &self,
        reqs: Vec<QueryRequest>,
        prov: Provenance,
    ) -> Arc<ReplyCell<Vec<QueryResponse>>> {
        let reply = match self.reply_pool.take_free() {
            Some(cell) => {
                // The state is whole at every unlock; recover poisoning.
                *cell.state.lock().unwrap_or_else(PoisonError::into_inner) = ReplyState::Pending;
                cell
            }
            None => Arc::new(ReplyCell::new()),
        };
        let job = Job {
            reqs,
            reply: reply.clone(),
            enqueued: Instant::now(),
            prov,
        };
        // contract-ok: the queue closes only in `shutdown`, and the server joins every connection thread before its engine shuts down
        assert!(self.queue.push(job), "engine already shut down");
        reply
    }

    // scs-contract: no-alloc, no-block — every served request ends here;
    // the release counting-allocator gates assert the warm path stays
    // heap-silent, and nothing on the exit path may wait.
    fn finish(&self, resp: &QueryResponse) {
        self.hist.record(resp.service_us);
        // ordering: Relaxed — independent statistic; pairs with nothing.
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether the engine can answer `req` on `search`. An unservable
    /// request (vertex outside the installed graph, zero constraint)
    /// gets the empty community rather than panicking a worker: the
    /// graph can shrink across installs, so clients cannot validate
    /// upfront.
    fn servable(req: &QueryRequest, search: &CommunitySearch) -> bool {
        req.q.index() < search.graph().n_vertices() && req.alpha >= 1 && req.beta >= 1
    }
}

/// Everything a worker thread owns, reused across every job and epoch
/// swap it serves.
#[derive(Default)]
struct WorkerState {
    /// Scratch of the profile builds this worker runs.
    ws: QueryWorkspace,
    /// Per-slot traces awaiting their reply stage; the worker closes
    /// and records them once the job has been answered.
    traces: Vec<RequestTrace>,
}

/// Ends the job's current stage window and starts the next one where it
/// ended; returns the ended window's length, ns.
fn lap(last: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.saturating_duration_since(*last).as_nanos() as u64;
    *last = now;
    ns
}

/// Serves one job — a batch, or a per-request submission as a batch of
/// one — and returns its responses in submission order (a pooled
/// vector) together with the end of its last stage window, where the
/// reply window starts. One snapshot read, then one
/// [`CommunitySearch::answer`] per request. Each slot's trace is left
/// in `state.traces` for the worker to close and record after the
/// reply.
///
/// Stage windows: every member is charged the job's queue wait and its
/// snapshot read, and its own answer and publish windows, so a batch of
/// one tiles its total and a larger batch's member sums to at most its
/// total.
// scs-contract: no-alloc — the warm serving path reuses pooled buffers
// end to end; proven transitively by `scs analyze`.
fn serve_batch(
    inner: &Inner,
    reqs: &[QueryRequest],
    prov: Provenance,
    state: &mut WorkerState,
    enqueued: Instant,
) -> (Vec<QueryResponse>, Instant) {
    let t0 = Instant::now();
    let mut last = t0;
    if prov == Provenance::Batch {
        // ordering: Relaxed — independent statistics; pair with nothing.
        inner.batches.fetch_add(1, Ordering::Relaxed);
        inner
            .batched
            .fetch_add(reqs.len() as u64, Ordering::Relaxed);
    }
    // A job that panicked mid-serve (the worker survives panics) may
    // have left traces behind; they must not be recorded against this
    // one. Free in the steady state.
    state.traces.clear();

    let mut shared = StageSet::new();
    shared.add_ns(
        Stage::QueueWait,
        t0.saturating_duration_since(enqueued).as_nanos() as u64,
    );
    let (search, epoch) = inner.snapshot();
    shared.add_ns(Stage::Snapshot, lap(&mut last));

    let mut responses = inner.resp_pool.take();
    for &request in reqs {
        let mut stages = shared;
        let summary = if Inner::servable(&request, &search) {
            CommunitySummary::from_answer(search.answer(
                request.q,
                request.alpha as usize,
                request.beta as usize,
                &mut state.ws,
            ))
        } else {
            CommunitySummary::empty()
        };
        stages.add_ns(Stage::Kernel, lap(&mut last));
        let resp = QueryResponse {
            request,
            summary,
            cached: false,
            coalesced: false,
            epoch,
            service_us: t0.elapsed().as_micros() as u64,
        };
        inner.finish(&resp);
        stages.add_ns(Stage::Publish, lap(&mut last));
        state.traces.push(stages.trace(&resp, prov, 0)); // contract-ok: warm per-worker buffer; growth is cold
        responses.push(resp); // contract-ok: pooled buffer retains warm capacity across batches; growth is cold (alloc-gated)
    }
    (responses, last)
}

/// N requests served by one worker with one snapshot read and one
/// workspace, answered as one vector in request order. A per-request
/// submission is a job of one.
struct Job {
    /// Pooled; returned to the shard after serving.
    reqs: Vec<QueryRequest>,
    reply: Arc<ReplyCell<Vec<QueryResponse>>>,
    /// The enqueue time; the queue-wait stage is measured from it.
    enqueued: Instant,
    /// `Single` for [`QueryEngine::submit`], `Batch` for
    /// [`QueryEngine::submit_batch`]; only batch jobs count in the
    /// `batches`/`batched` counters.
    prov: Provenance,
}

/// A pending response; produced by [`QueryEngine::submit`].
pub struct ResponseHandle {
    cell: Arc<ReplyCell<Vec<QueryResponse>>>,
    inner: Arc<Inner>,
}

impl ResponseHandle {
    /// Blocks until the engine answers.
    ///
    /// # Panics
    /// Panics if the query panicked inside the engine or the engine
    /// shut down before answering.
    pub fn wait(self) -> QueryResponse {
        let mut answers = self
            .cell
            .take()
            .expect("query panicked in the engine or engine shut down before responding");
        let resp = answers.pop().expect("a job of one has one answer");
        self.inner.resp_pool.put(answers);
        resp
    }

    /// [`Self::wait`] that gives up after `timeout`: `None` if the
    /// engine has not answered by then, or the query panicked. A cell
    /// given up on is still answered later and pooled; the pool resets
    /// it before reissuing it, so its late answer never reaches
    /// another submitter.
    pub(crate) fn wait_timeout(self, timeout: Duration) -> Option<QueryResponse> {
        let mut answers = self.cell.take_timeout(timeout)?;
        let resp = answers.pop();
        self.inner.resp_pool.put(answers);
        resp
    }
}

/// A pending batch of responses; produced by
/// [`QueryEngine::submit_batch`]. Responses arrive together, in the
/// order the requests were submitted — also when the batch was fanned
/// out across engine shards, in which case the handle reassembles the
/// per-shard answers on `wait`.
pub struct BatchHandle {
    parts: BatchParts,
}

enum BatchParts {
    /// The whole batch went to one shard (always the case with one
    /// shard configured): the answer vector passes through unchanged,
    /// so this path stays allocation-free for warm callers.
    Single {
        cell: Arc<ReplyCell<Vec<QueryResponse>>>,
        inner: Arc<Inner>,
    },
    /// The batch was partitioned across shards: one sub-batch job per
    /// participating shard, answers merged back into submission order
    /// by walking `route` with per-shard cursors. Responses are cloned
    /// out of the per-shard vectors — a refcount bump for a profile
    /// view — and every buffer returns to its owning shard's pool.
    Fanout {
        /// `(shard index, pending reply)` per participating shard, in
        /// shard order.
        parts: Vec<(u32, Arc<ReplyCell<Vec<QueryResponse>>>)>,
        /// Slot → shard route of the original submission order.
        route: Vec<u32>,
        core: Arc<EngineCore>,
    },
}

const BATCH_WAIT_MSG: &str = "batch panicked in the engine or engine shut down before responding";

impl BatchHandle {
    /// Blocks until the engine answers the whole batch.
    ///
    /// # Panics
    /// Panics if a query panicked inside the engine or the engine shut
    /// down before answering.
    pub fn wait(self) -> Vec<QueryResponse> {
        match self.parts {
            BatchParts::Single { cell, .. } => cell.take().expect(BATCH_WAIT_MSG),
            fanout @ BatchParts::Fanout { .. } => {
                let mut out = Vec::new();
                BatchHandle { parts: fanout }.wait_into(&mut out);
                out
            }
        }
    }

    /// [`Self::wait`] into a caller-owned buffer: appends every
    /// response to `out` and returns the engine's internal vectors to
    /// their pools, so a caller reusing `out` completes a warm
    /// single-shard batch without a single allocation on either side.
    /// (A cross-shard batch allocates modest merge bookkeeping; the
    /// responses themselves are still refcount bumps.)
    pub fn wait_into(self, out: &mut Vec<QueryResponse>) {
        match self.parts {
            BatchParts::Single { cell, inner } => {
                let mut got = cell.take().expect(BATCH_WAIT_MSG);
                out.append(&mut got);
                inner.resp_pool.put(got);
            }
            BatchParts::Fanout { parts, route, core } => {
                let mut got: Vec<(u32, Vec<QueryResponse>, usize)> = parts
                    .into_iter()
                    .map(|(s, cell)| (s, cell.take().expect(BATCH_WAIT_MSG), 0usize))
                    .collect();
                out.reserve(route.len());
                for &s in &route {
                    let (_, answers, cursor) = got
                        .iter_mut()
                        .find(|(sid, _, _)| *sid == s)
                        .expect("every routed shard answered");
                    out.push(answers[*cursor].clone());
                    *cursor += 1;
                }
                for (s, answers, _) in got {
                    core.shards[s as usize].resp_pool.put(answers);
                }
                core.route_pool.put(route);
            }
        }
    }
}

/// Engine-shard router: a splitmix64 finalizer over the query vertex,
/// range-reduced by widening multiply (exact for any shard count, not
/// just powers of two).
// scs-contract: no-alloc, no-panic, no-block — routing runs on the
// submitter for every request; it is pure integer mixing by
// construction and must stay so.
fn route_of(vertex: Vertex, n_shards: usize) -> usize {
    if n_shards <= 1 {
        return 0;
    }
    let mut x = (vertex.index() as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    ((x as u128 * n_shards as u128) >> 64) as usize
}

/// Best-effort CPU pinning: confines the calling worker thread to the
/// CPU set `{c : c ≡ shard (mod n_shards)}`, so each shard's workers
/// share cache/NUMA locality and shards don't migrate onto each
/// other's cores. Linux-only (`sched_setaffinity` via a std-only FFI
/// shim — no crate dependency); failure is ignored (a restricted
/// cpuset or exotic kernel just leaves the scheduler in charge), and
/// on other platforms it is a no-op — sharding still isolates the
/// queues.
#[cfg(target_os = "linux")]
fn pin_worker(shard: usize, n_shards: usize) {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16]; // cpu_set_t-sized: 1024 CPUs
    let cpus = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(mask.len() * 64);
    let mut any = false;
    let mut c = shard;
    while c < cpus {
        mask[c / 64] |= 1 << (c % 64);
        any = true;
        c += n_shards;
    }
    if !any {
        // Fewer CPUs than shards: leave this shard unpinned rather
        // than pinning it to an empty set (which would fail anyway).
        return;
    }
    // SAFETY: `mask` is a live, properly sized local; the kernel only
    // reads `size_of_val(&mask)` bytes from it. pid 0 means "the calling
    // thread", so no other thread's state is touched, and a failing call
    // (bad mask, restricted cpuset) just leaves the affinity unchanged.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_worker(_shard: usize, _n_shards: usize) {}

/// What the engine handle holds above its shards: the routing table,
/// cross-shard pools and the aggregate-stats state. Shards never see
/// it — all cross-shard coordination (installs, stats, batch fan-out)
/// goes through the handle.
struct EngineCore {
    shards: Vec<Arc<Inner>>,
    /// Pool for [`BatchParts::Fanout`] route vectors, so warm
    /// cross-shard batches reuse their slot→shard maps.
    route_pool: VecPool<u32>,
    started: Instant,
    /// Baseline of the last [`QueryEngine::stats_window`] call. Off the
    /// serving path entirely — only stats readers lock it.
    window: Mutex<WindowBase>,
    /// Serializes [`QueryEngine::install`]: installs fan out shard by
    /// shard, and serializing them keeps every shard's epoch sequence
    /// identical — which is what lets `install` return *the* new epoch.
    install_lock: Mutex<()>,
    /// Configured slow-ring capacity: the cross-shard slow-query merge
    /// keeps the worst this-many entries.
    slow_ring: usize,
}

/// Cross-shard cumulative totals plus the per-shard rows, computed by
/// one fold over the shards and shared by [`QueryEngine::stats`],
/// [`QueryEngine::stats_window`] and [`QueryEngine::render_metrics`].
struct Agg {
    workers: usize,
    completed: u64,
    batches: u64,
    batched: u64,
    epoch: u64,
    service: HistSnapshot,
    telem: TelemetrySnapshot,
    scratch_bytes: usize,
    allocs_avoided: u64,
    per_shard: Vec<ShardStats>,
    slow: Vec<SlowQuery>,
}

impl EngineCore {
    fn aggregate(&self) -> Agg {
        let mut agg = Agg {
            workers: 0,
            completed: 0,
            batches: 0,
            batched: 0,
            epoch: 0,
            service: HistSnapshot::empty(),
            telem: TelemetrySnapshot::empty(),
            scratch_bytes: 0,
            allocs_avoided: 0,
            per_shard: Vec::with_capacity(self.shards.len()),
            slow: Vec::new(),
        };
        for (i, inner) in self.shards.iter().enumerate() {
            // ordering: Relaxed — statistics reads; the counters are
            // independent and stats() promises no cross-counter snapshot.
            let completed = inner.completed.load(Ordering::Relaxed);
            let hist = inner.hist.snapshot();
            agg.workers += inner.workers;
            agg.completed += completed;
            // ordering: Relaxed — statistics reads, as above.
            agg.batches += inner.batches.load(Ordering::Relaxed);
            agg.batched += inner.batched.load(Ordering::Relaxed);
            // Serialized installs keep every shard at the same epoch;
            // max (not first) stays meaningful even mid-install.
            agg.epoch = agg.epoch.max(inner.snapshot().1);
            agg.service = agg.service.merge(&hist);
            agg.telem = agg.telem.merge(&inner.telemetry.snapshot());
            for s in &inner.scratch {
                // ordering: Relaxed — residency gauges; a submitter that
                // must see its own query's effect is ordered by the
                // reply-cell mutex handoff, not by these loads.
                agg.scratch_bytes += s.bytes.load(Ordering::Relaxed);
                agg.allocs_avoided += s.allocs_avoided.load(Ordering::Relaxed);
            }
            agg.per_shard.push(ShardStats {
                shard: i,
                workers: inner.workers,
                completed,
                p50_us: hist.quantile_us(0.50),
                p99_us: hist.quantile_us(0.99),
            });
            agg.slow.extend(inner.telemetry.slow_queries());
        }
        // Per-shard rings each hold their shard's worst; the engine's
        // slow list is the global worst `slow_ring` of the union.
        agg.slow.sort_by_key(|s| std::cmp::Reverse(s.total_us));
        agg.slow.truncate(self.slow_ring);
        agg
    }
}

/// The concurrent query-serving engine: a thin router over
/// `ServiceConfig::shards` independent shards. See the
/// [module docs](self).
pub struct QueryEngine {
    core: Arc<EngineCore>,
    handles: Vec<JoinHandle<()>>,
}

impl QueryEngine {
    /// Spawns every shard's worker pool and returns the serving handle.
    pub fn start(search: Arc<CommunitySearch>, config: ServiceConfig) -> Self {
        let n_shards = config.shards.max(1);
        let total_workers = config.workers.max(1);
        let now = Instant::now();
        let mut shards = Vec::with_capacity(n_shards);
        let mut handles = Vec::new();
        for s in 0..n_shards {
            // Distribute workers round-robin-ish: the first
            // `total % n` shards absorb the remainder, and every shard
            // runs at least one worker.
            let workers =
                (total_workers / n_shards + usize::from(s < total_workers % n_shards)).max(1);
            let inner = Arc::new(Inner {
                search: RwLock::new((search.clone(), 0)),
                queue: JobQueue::new(),
                hist: LatencyHistogram::default(),
                completed: AtomicU64::new(0),
                batches: AtomicU64::new(0),
                batched: AtomicU64::new(0),
                scratch: (0..workers).map(|_| ScratchSlot::default()).collect(),
                reply_pool: ArcPool::new(),
                req_pool: VecPool::new(),
                resp_pool: VecPool::new(),
                workers,
                telemetry: Telemetry::new(config.slow_ring_capacity),
            });
            for i in 0..workers {
                let inner = inner.clone();
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("scs-worker-{s}-{i}"))
                        .spawn(move || {
                            if n_shards > 1 {
                                pin_worker(s, n_shards);
                            }
                            // The worker's workspace and job scratch,
                            // reused across every job it serves and across
                            // index epoch swaps (a profile build against a
                            // larger installed graph grows them). After
                            // warm-up the steady-state serving path stops
                            // allocating.
                            let mut state = WorkerState::default();
                            while let Some(job) = inner.queue.pop() {
                                // Backstop: a panic in query code must not
                                // shrink the pool. Abandoning the reply cell
                                // makes the submitter's wait() fail loudly,
                                // and the job records no trace (the
                                // completed counter skips it too). A
                                // submitter that dropped its handle just
                                // doesn't collect the result.
                                let served =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                        serve_batch(
                                            &inner,
                                            &job.reqs,
                                            job.prov,
                                            &mut state,
                                            job.enqueued,
                                        )
                                    }));
                                // Scratch accounting is published *before*
                                // the reply: a submitter that reads stats()
                                // the moment its blocking query returns must
                                // see this worker's workspace.
                                let slot = &inner.scratch[i];
                                // ordering: Relaxed — gauge stores; the
                                // reply-cell mutex handoff that follows
                                // publishes them to the submitter.
                                slot.bytes.store(state.ws.heap_bytes(), Ordering::Relaxed);
                                slot.allocs_avoided
                                    // ordering: Relaxed — as above.
                                    .store(state.ws.allocations_avoided(), Ordering::Relaxed);
                                inner.req_pool.put(job.reqs);
                                let Ok((responses, reply_start)) = served else {
                                    respond_and_pool(&inner.reply_pool, job.reply, None, || {});
                                    continue;
                                };
                                // Answer and pool the cell in one step (the
                                // submitter's handle keeps it unissuable
                                // until wait() is done), then close every
                                // member's trace with the reply window.
                                let traces = &mut state.traces;
                                respond_and_pool(
                                    &inner.reply_pool,
                                    job.reply,
                                    Some(responses),
                                    || {
                                        let now = Instant::now();
                                        let reply_us =
                                            now.saturating_duration_since(reply_start).as_micros()
                                                as u64;
                                        let total_us =
                                            now.saturating_duration_since(job.enqueued).as_micros()
                                                as u64;
                                        for mut trace in traces.drain(..) {
                                            trace.close(reply_us, total_us);
                                            inner.telemetry.record(&trace);
                                        }
                                    },
                                );
                            }
                        })
                        .expect("spawn worker thread"),
                );
            }
            shards.push(inner);
        }
        let core = Arc::new(EngineCore {
            shards,
            route_pool: VecPool::new(),
            started: now,
            window: Mutex::new(WindowBase::zero(now)),
            install_lock: Mutex::new(()),
            slow_ring: config.slow_ring_capacity,
        });
        QueryEngine { core, handles }
    }

    /// The shard serving `vertex`'s requests.
    fn shard_for(&self, vertex: Vertex) -> &Arc<Inner> {
        // contract-ok: `route_of` returns an index below `shards.len()`, and `start` builds at least one shard
        &self.core.shards[route_of(vertex, self.core.shards.len())]
    }

    /// Enqueues a request, as a batch of one, on the shard its query
    /// vertex routes to; the returned handle yields the response. The
    /// request vector, reply slot and response vector come from (and
    /// return to) the shard's pools, so a warm submit+wait round-trip
    /// allocates nothing.
    pub fn submit(&self, req: QueryRequest) -> ResponseHandle {
        let inner: &Arc<Inner> = self.shard_for(req.q);
        let mut reqs = inner.req_pool.take();
        reqs.push(req);
        ResponseHandle {
            cell: inner.enqueue(reqs, Provenance::Single),
            inner: inner.clone(),
        }
    }

    /// Enqueues a whole batch as **one** job: one queue round-trip and
    /// one index-snapshot read for all of it. The handle yields every
    /// response in submission order; results are identical to
    /// submitting each request on its own.
    ///
    /// With more than one shard the batch is partitioned by the shard
    /// router into per-shard sub-batches — each rides the machinery
    /// above on its own shard (one job and one snapshot read *per
    /// shard*), and the handle merges the answers back into submission
    /// order. Each per-shard sub-batch counts one `batches` job in the
    /// stats, so a cross-shard batch over k shards bumps `batches` by
    /// k; `completed` stays submission-mode-invariant.
    pub fn submit_batch(&self, reqs: &[QueryRequest]) -> BatchHandle {
        let shards = &self.core.shards;
        if shards.len() == 1 {
            let inner = &shards[0];
            let mut owned = inner.req_pool.take();
            owned.extend_from_slice(reqs);
            return BatchHandle {
                parts: BatchParts::Single {
                    cell: inner.enqueue(owned, Provenance::Batch),
                    inner: inner.clone(),
                },
            };
        }
        // Cross-shard fan-out: partition the batch, preserving relative
        // order inside each shard (so each shard sees exactly the
        // subsequence a per-shard submitter would send).
        let mut route = self.core.route_pool.take();
        route.extend(reqs.iter().map(|r| route_of(r.q, shards.len()) as u32));
        let mut owned: Vec<Vec<QueryRequest>> =
            shards.iter().map(|inner| inner.req_pool.take()).collect();
        for (&s, req) in route.iter().zip(reqs) {
            owned[s as usize].push(*req);
        }
        let mut parts = Vec::new();
        for (s, sub) in owned.into_iter().enumerate() {
            let inner = &shards[s];
            if sub.is_empty() {
                inner.req_pool.put(sub);
                continue;
            }
            parts.push((s as u32, inner.enqueue(sub, Provenance::Batch)));
        }
        BatchHandle {
            parts: BatchParts::Fanout {
                parts,
                route,
                core: self.core.clone(),
            },
        }
    }

    /// Submits and waits: one blocking round-trip through the pool.
    pub fn query(&self, req: QueryRequest) -> QueryResponse {
        self.submit(req).wait()
    }

    /// [`Self::submit_batch`] and wait: one blocking round-trip for the
    /// whole batch.
    pub fn query_batch(&self, reqs: &[QueryRequest]) -> Vec<QueryResponse> {
        self.submit_batch(reqs).wait()
    }

    /// [`Self::query_batch`] appending into a caller-reused buffer (see
    /// [`BatchHandle::wait_into`]) — the allocation-free form.
    pub fn query_batch_into(&self, reqs: &[QueryRequest], out: &mut Vec<QueryResponse>) {
        self.submit_batch(reqs).wait_into(out);
    }

    /// Installs a new index snapshot without stopping the workers and
    /// bumps the epoch. Jobs already serving finish on the snapshot they
    /// read (tagged with the prior epoch), and every response keeps the
    /// profile its answer came from, so it still reads per its own
    /// snapshot afterwards.
    ///
    /// With multiple shards the install fans out: every shard gets the
    /// new `Arc` replica and bumps its epoch, shard by shard, and the
    /// call returns only once the last shard has published. Installs
    /// are serialized against each other, so all shards step through the
    /// same epoch sequence — a mixed-epoch window exists only *across*
    /// shards mid-install, never within one, and per-key consistency
    /// (one key, one shard) is untouched.
    pub fn install(&self, search: Arc<CommunitySearch>) -> u64 {
        let _serial = self.core.install_lock.lock().unwrap();
        let mut epoch = 0;
        for inner in &self.core.shards {
            let mut guard = inner.search.write().unwrap();
            guard.0 = search.clone();
            guard.1 += 1;
            epoch = guard.1;
            drop(guard);
            inner.telemetry.note_install();
        }
        epoch
    }

    /// The current `(index snapshot, epoch)` pair (shard 0's replica —
    /// identical across shards outside an in-progress install).
    pub fn current_index(&self) -> (Arc<CommunitySearch>, u64) {
        self.core.shards[0].snapshot()
    }

    /// Metrics snapshot since engine start, aggregated across shards:
    /// every total keeps its unsharded meaning (counters sum,
    /// histograms merge), and `per_shard` carries one row per shard for
    /// imbalance diagnostics.
    pub fn stats(&self) -> ServiceStats {
        let agg = self.core.aggregate();
        let elapsed = self.core.started.elapsed().as_secs_f64().max(1e-9);
        ServiceStats {
            workers: agg.workers,
            completed: agg.completed,
            coalesced: 0,
            batches: agg.batches,
            batched: agg.batched,
            cache: CacheStats::default(),
            epoch: agg.epoch,
            installs: agg.telem.installs,
            qps: agg.completed as f64 / elapsed,
            mean_us: agg.service.mean_us(),
            p50_us: agg.service.quantile_us(0.50),
            p90_us: agg.service.quantile_us(0.90),
            p99_us: agg.service.quantile_us(0.99),
            max_us: agg.service.max_us(),
            scratch_bytes: agg.scratch_bytes,
            allocs_avoided: agg.allocs_avoided,
            stages: agg.telem.stage_summaries(),
            algos: agg.telem.algo_stats(),
            admission: AdmissionStats::default(),
            slow: agg.slow,
            per_shard: agg.per_shard,
        }
    }

    /// Metrics for the window since the previous `stats_window` call
    /// (or engine start, for the first call): counters, rates and
    /// latency quantiles cover only the requests completed inside the
    /// window, so a benchmark can discard warmup by calling this once
    /// after warmup and once after the measured run — the second
    /// snapshot is the steady state.
    ///
    /// Point-in-time fields (workers, epoch, scratch residency, the
    /// cumulative `allocs_avoided` reuse counter) and the slow-query
    /// ring report current values — residency and worst-ever requests
    /// have no meaningful delta.
    ///
    /// The `per_shard` rows stay cumulative even here — shard balance
    /// is a property of the whole run, and windowed per-shard deltas
    /// would cost a per-shard baseline for marginal insight.
    ///
    /// The slow-query list reports the worst requests *of the window*:
    /// each call re-arms every shard's slow ring (clearing the slots
    /// and the reject threshold), so a fast window following a slow
    /// warmup still surfaces its own spikes instead of losing them
    /// under the warmup's stale threshold.
    ///
    /// If the baseline is found to be *ahead* of the current counters —
    /// any histogram bucket, count or plain counter going backwards,
    /// which proves the counters were replaced or reset mid-window —
    /// the stale baseline is discarded and the window is recomputed
    /// from zero (everything since the reset), rather than returning
    /// saturated per-field deltas whose `count` disagrees with
    /// `Σ buckets` and whose quantiles read the wrong bucket.
    pub fn stats_window(&self) -> ServiceStats {
        let mut base = self.core.window.lock().unwrap();
        let now = Instant::now();
        let agg = self.core.aggregate();
        let regressed = agg.service.regressed_from(&base.service)
            || agg.telem.regressed_from(&base.telem)
            || agg.completed < base.completed
            || agg.batches < base.batches
            || agg.batched < base.batched;
        if regressed {
            // Resnapshot: the recorded baseline belongs to storage that
            // no longer backs the counters. Zeroing it makes every
            // subtraction below exact (delta vs. zero ≡ the cumulative
            // values since the reset, which all fall inside this
            // window) and keeps count ≡ Σ buckets for the quantiles.
            *base = WindowBase::zero(base.at);
        }
        let d_service = agg.service.delta(&base.service);
        let d_telem = agg.telem.delta(&base.telem);
        let d_completed = agg.completed.saturating_sub(base.completed);
        let secs = now.saturating_duration_since(base.at).as_secs_f64();
        let stats = ServiceStats {
            workers: agg.workers,
            completed: d_completed,
            coalesced: 0,
            batches: agg.batches.saturating_sub(base.batches),
            batched: agg.batched.saturating_sub(base.batched),
            cache: CacheStats::default(),
            epoch: agg.epoch,
            installs: d_telem.installs,
            qps: d_completed as f64 / secs.max(1e-9),
            mean_us: d_service.mean_us(),
            p50_us: d_service.quantile_us(0.50),
            p90_us: d_service.quantile_us(0.90),
            p99_us: d_service.quantile_us(0.99),
            max_us: d_service.max_us(),
            scratch_bytes: agg.scratch_bytes,
            allocs_avoided: agg.allocs_avoided,
            stages: d_telem.stage_summaries(),
            algos: d_telem.algo_stats(),
            admission: AdmissionStats::default(),
            slow: agg.slow,
            per_shard: agg.per_shard,
        };
        // Re-arm the slow rings for the next window (the worst-of-window
        // list above was already captured by `aggregate`). Without this
        // the reject threshold ratchets up during a slow warmup and a
        // fast measured window records no slow queries at all.
        for inner in &self.core.shards {
            inner.telemetry.reset_slow_window();
        }
        *base = WindowBase {
            at: now,
            service: agg.service,
            telem: agg.telem,
            completed: agg.completed,
            batches: agg.batches,
            batched: agg.batched,
        };
        stats
    }

    /// The engine's metrics in Prometheus text exposition format
    /// (version 0.0.4): every counter and gauge of
    /// [`ServiceStats`] plus the per-algorithm end-to-end and
    /// per-algorithm × per-stage latency histograms. Cumulative since
    /// engine start; scrape-ready (`scs serve-bench --metrics-out`
    /// writes exactly this).
    pub fn render_metrics(&self) -> String {
        self.render_metrics_with(AdmissionStats::default())
    }

    /// [`Self::render_metrics`] with the network front end's admission
    /// counters spliced in — the `scs_admission_*` families are always
    /// emitted (zero for in-process engines), so dashboards keep a
    /// stable shape whether or not `scs serve` fronts the engine.
    pub fn render_metrics_with(&self, admission: AdmissionStats) -> String {
        let agg = self.core.aggregate();
        let mut stats = self.stats();
        stats.admission = admission;
        crate::telemetry::render_prometheus(&stats, &agg.telem)
    }

    /// Records one network-front-end accept window (admission →
    /// engine enqueue, µs) into the [`crate::telemetry::Stage::Accept`]
    /// histogram of the shard that will serve `req` — so the stage
    /// breakdown attributes front-end time to the same per-algorithm
    /// plane as the engine-side stages. Only [`crate::Server`] calls
    /// this; the in-process submission paths never touch the stage.
    pub fn record_accept(&self, req: &QueryRequest, accept_us: u64) {
        self.shard_for(req.q)
            .telemetry
            .record_accept(req.algo, accept_us);
    }

    /// Stops accepting work, drains every shard's queue and joins
    /// every worker.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        for inner in &self.core.shards {
            inner.queue.close();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for QueryEngine {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::builder::figure2_example;
    use scs::{Algorithm, DynamicIndex};

    fn engine(workers: usize) -> QueryEngine {
        QueryEngine::start(
            CommunitySearch::shared(figure2_example()),
            ServiceConfig {
                workers,
                ..ServiceConfig::default()
            },
        )
    }

    /// `r`'s answer straight from the façade, as an owned summary.
    fn oracle(search: &CommunitySearch, r: QueryRequest) -> CommunitySummary {
        CommunitySummary::from_subgraph(&search.significant_community(
            r.q,
            r.alpha as usize,
            r.beta as usize,
            Algorithm::Peel,
        ))
    }

    #[test]
    fn serves_answer_views() {
        let e = engine(2);
        let search = e.current_index().0;
        let q = search.graph().upper(2);
        let req = QueryRequest::new(q, 2, 2, Algorithm::Peel);
        let first = e.query(req);
        assert!(!first.cached && !first.coalesced);
        assert_eq!(first.summary.size(), 4);
        assert_eq!(first.summary.min_weight, Some(13.0));
        assert_eq!(first.summary, oracle(&search, req));
        let second = e.query(req);
        assert_eq!(second.summary, first.summary);
        let st = e.stats();
        assert_eq!(st.completed, 2);
        assert_eq!((st.cache.hits, st.cache.misses, st.coalesced), (0, 0, 0));
        e.shutdown();
    }

    #[test]
    fn scratch_bytes_published_before_reply() {
        // Scratch accounting must be visible to a submitter the moment
        // its blocking query returns; the first query at (2,2) builds
        // the profile in the worker's workspace.
        let e = engine(1);
        let q = e.current_index().0.graph().upper(2);
        e.query(QueryRequest::new(q, 2, 2, Algorithm::Peel));
        assert!(e.stats().scratch_bytes > 0, "workspace bytes not published");
        e.shutdown();
    }

    #[test]
    fn algorithms_share_one_answer_and_keep_their_rows() {
        // Every algorithm returns the same community; each response
        // still echoes its own request, and each request is counted in
        // the telemetry row of the algorithm it named.
        let e = engine(1);
        let q = e.current_index().0.graph().upper(2);
        let peel = QueryRequest::new(q, 2, 2, Algorithm::Peel);
        let auto = QueryRequest::new(q, 2, 2, Algorithm::Auto);
        let a = e.query(peel);
        let b = e.query(auto);
        assert_eq!(a.request, peel);
        assert_eq!(b.request, auto);
        assert_eq!(a.summary, b.summary);
        let st = e.stats();
        for algo in [Algorithm::Peel, Algorithm::Auto] {
            let row = &st.algos[crate::telemetry::algo_rank(algo)];
            assert_eq!(row.total.count, 1, "{algo}");
        }
        e.shutdown();
    }

    #[test]
    fn install_bumps_epoch() {
        let e = engine(2);
        let q = e.current_index().0.graph().upper(2);
        let req = QueryRequest::new(q, 2, 2, Algorithm::Auto);
        let before = e.query(req);
        assert_eq!(before.epoch, 0);
        let epoch = e.install(CommunitySearch::shared(figure2_example()));
        assert_eq!(epoch, 1);
        let after = e.query(req);
        assert_eq!(after.epoch, 1);
        assert_eq!(after.summary, before.summary);
        e.shutdown();
    }

    #[test]
    fn a_response_taken_before_an_install_materialises_its_own_snapshot() {
        let mut dynamic = DynamicIndex::new(figure2_example());
        let old = Arc::new(dynamic.snapshot());
        let e = QueryEngine::start(old.clone(), ServiceConfig::default());
        let req = QueryRequest::new(old.graph().upper(2), 2, 2, Algorithm::Auto);
        let before = e.query(req);
        let want_before = oracle(&old, req);
        // Removing (u4, v2) breaks u3's 2×2 block.
        dynamic.remove_edge(3, 1).unwrap();
        let new = Arc::new(dynamic.snapshot());
        let want_after = oracle(&new, req);
        assert_ne!(want_before, want_after);
        assert_eq!(e.install(new), 1);
        // Only `before` still holds the old snapshot's profile.
        drop(old);
        let after = e.query(req);
        assert_eq!(after.summary, want_after);
        // Read only now, after the install: still the old snapshot's.
        assert_eq!(before.epoch, 0);
        assert_eq!(before.summary, want_before);
        e.shutdown();
    }

    #[test]
    fn clones_of_a_response_materialise_independently() {
        let e = engine(1);
        let search = e.current_index().0;
        let req = QueryRequest::new(search.graph().upper(2), 2, 2, Algorithm::Auto);
        let want = oracle(&search, req);
        let resp = e.query(req);
        let early = resp.clone();
        assert_eq!(early.summary.edges(), want.edges());
        let late = resp.clone();
        assert_eq!(resp.summary.edges(), want.edges());
        assert_eq!(late.summary.edges(), want.edges());
        let after = resp.clone();
        drop(resp);
        assert_eq!(after.summary, want);
        assert_eq!(early.summary, late.summary);
        e.shutdown();
    }

    #[test]
    fn unservable_requests_get_empty_answers_and_pool_survives() {
        let e = engine(2);
        let g_vertices = e.current_index().0.graph().n_vertices();
        // Query vertex outside the graph: empty community, no panic.
        let bad = e.query(QueryRequest::new(
            bigraph::Vertex(g_vertices as u32 + 10),
            2,
            2,
            Algorithm::Auto,
        ));
        assert_eq!(bad.summary, CommunitySummary::empty());
        // Zero degree constraint (the index asserts ≥ 1): also empty.
        let q = e.current_index().0.graph().upper(2);
        let zero = e.query(QueryRequest::new(q, 0, 2, Algorithm::Peel));
        assert_eq!(zero.summary, CommunitySummary::empty());
        // The pool is still alive and serving real queries.
        let good = e.query(QueryRequest::new(q, 2, 2, Algorithm::Peel));
        assert_eq!(good.summary.size(), 4);
        e.shutdown();
    }

    #[test]
    fn batch_answers_in_submission_order() {
        let e = engine(2);
        let g = e.current_index().0.graph().clone();
        let q = g.upper(2);
        let other = g.upper(0);
        let reqs = vec![
            QueryRequest::new(q, 2, 2, Algorithm::Peel),
            QueryRequest::new(other, 1, 1, Algorithm::Peel),
            QueryRequest::new(q, 2, 2, Algorithm::Peel), // in-batch duplicate
            QueryRequest::new(q, 2, 2, Algorithm::Expand), // same answer, other algo
        ];
        let resps = e.query_batch(&reqs);
        assert_eq!(resps.len(), 4);
        for (req, resp) in reqs.iter().zip(&resps) {
            assert_eq!(resp.request, *req, "answers must keep submission order");
        }
        assert_eq!(resps[0].summary.size(), 4);
        for dup in [2, 3] {
            assert_eq!(resps[dup].summary, resps[0].summary);
        }
        let st = e.stats();
        assert_eq!(st.completed, 4);
        assert_eq!(st.batches, 1);
        assert_eq!(st.batched, 4);
        // A second identical batch answers identically.
        let again = e.query_batch(&reqs);
        for (a, b) in resps.iter().zip(&again) {
            assert_eq!(a.summary, b.summary);
        }
        assert_eq!(e.stats().completed, 8);
        e.shutdown();
    }

    #[test]
    fn batch_matches_per_request_submission() {
        let e = engine(2);
        let g = e.current_index().0.graph().clone();
        let reqs: Vec<QueryRequest> = (0..g.n_upper())
            .flat_map(|i| {
                [
                    QueryRequest::new(g.upper(i), 2, 2, Algorithm::Peel),
                    QueryRequest::new(g.upper(i), 1, 2, Algorithm::Expand),
                ]
            })
            .collect();
        let batched = e.query_batch(&reqs);
        let e2 = engine(2);
        for (req, b) in reqs.iter().zip(&batched) {
            assert_eq!(e2.query(*req).summary, b.summary, "{req:?}");
        }
        assert_eq!(e.stats().completed, e2.stats().completed);
        e.shutdown();
        e2.shutdown();
    }

    #[test]
    fn mixed_algorithm_batch_answers_every_slot_in_order() {
        // Every algorithm in one batch: each slot is answered in order,
        // and every response of one vertex matches regardless of the
        // algorithm it named.
        let e = engine(2);
        let g = e.current_index().0.graph().clone();
        let g = &g;
        let reqs: Vec<QueryRequest> = Algorithm::ALL
            .into_iter()
            .flat_map(|algo| (0..4).map(move |i| QueryRequest::new(g.upper(i), 2, 2, algo)))
            .collect();
        let resps = e.query_batch(&reqs);
        for (req, resp) in reqs.iter().zip(&resps) {
            assert_eq!(resp.request, *req, "submission order broken");
        }
        for (i, resp) in resps.iter().enumerate() {
            assert_eq!(resp.summary, resps[i % 4].summary);
        }
        e.shutdown();
    }

    #[test]
    fn batch_handles_empty_and_unservable_requests() {
        let e = engine(2);
        assert!(e.query_batch(&[]).is_empty());
        let g_vertices = e.current_index().0.graph().n_vertices();
        let q = e.current_index().0.graph().upper(2);
        let reqs = vec![
            QueryRequest::new(
                bigraph::Vertex(g_vertices as u32 + 3),
                2,
                2,
                Algorithm::Auto,
            ),
            QueryRequest::new(q, 0, 2, Algorithm::Peel),
            QueryRequest::new(q, 2, 2, Algorithm::Peel),
        ];
        let resps = e.query_batch(&reqs);
        assert_eq!(resps[0].summary, CommunitySummary::empty());
        assert_eq!(resps[1].summary, CommunitySummary::empty());
        assert_eq!(resps[2].summary.size(), 4);
        e.shutdown();
    }

    #[test]
    fn batch_sees_installs_like_single_requests() {
        let e = engine(2);
        let q = e.current_index().0.graph().upper(2);
        let req = QueryRequest::new(q, 2, 2, Algorithm::Auto);
        let before = e.query_batch(&[req]);
        assert_eq!(before[0].epoch, 0);
        e.install(CommunitySearch::shared(figure2_example()));
        let after = e.query_batch(&[req]);
        assert_eq!(after[0].epoch, 1);
        assert_eq!(after[0].summary, before[0].summary);
        e.shutdown();
    }

    #[test]
    fn batch_into_reuses_the_response_buffer() {
        let e = engine(2);
        let g = e.current_index().0.graph().clone();
        let reqs: Vec<QueryRequest> = (0..g.n_upper())
            .map(|i| QueryRequest::new(g.upper(i), 2, 2, Algorithm::Peel))
            .collect();
        let mut out = Vec::new();
        e.query_batch_into(&reqs, &mut out);
        assert_eq!(out.len(), reqs.len());
        let direct = e.query_batch(&reqs);
        for ((req, a), b) in reqs.iter().zip(&out).zip(&direct) {
            assert_eq!(a.request, *req);
            assert_eq!(a.summary, b.summary);
        }
        // Appending: a second wait_into extends rather than clobbers.
        e.query_batch_into(&reqs, &mut out);
        assert_eq!(out.len(), 2 * reqs.len());
        e.shutdown();
    }

    #[test]
    fn timed_wait_gives_up_and_its_cell_is_reissued_reset() {
        // One worker, and the shard's index slot write-locked: the
        // worker blocks reading its snapshot, so the answer cannot
        // arrive in time.
        let e = engine(1);
        let search = e.current_index().0;
        let g = search.graph();
        let a = QueryRequest::new(g.upper(2), 2, 2, Algorithm::Peel);
        let b = QueryRequest::new(g.upper(0), 1, 1, Algorithm::Peel);
        assert_ne!(
            oracle(&search, a),
            oracle(&search, b),
            "a stale answer must be visible"
        );
        let shard = &e.core.shards[0];
        let blocked = shard.search.write().unwrap();
        let handle = e.submit(a);
        let given_up = Arc::as_ptr(&handle.cell);
        assert!(handle.wait_timeout(Duration::from_millis(20)).is_none());
        drop(blocked);
        // The worker answers `a` into the given-up cell and pools it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while shard.reply_pool.items.lock().unwrap().is_empty() {
            assert!(
                Instant::now() < deadline,
                "the given-up cell never returned to the pool"
            );
            std::thread::yield_now();
        }
        // A different key reuses that cell and gets its own answer.
        let handle = e.submit(b);
        assert_eq!(
            Arc::as_ptr(&handle.cell),
            given_up,
            "the cell was not reissued"
        );
        let resp = handle
            .wait_timeout(Duration::from_secs(10))
            .expect("the engine answers an unblocked request");
        assert_eq!(resp.request, b);
        assert_eq!(resp.summary, oracle(&search, b));
        e.shutdown();
    }

    #[test]
    fn drop_without_shutdown_joins_workers() {
        let e = engine(3);
        let q = e.current_index().0.graph().upper(0);
        e.query(QueryRequest::new(q, 1, 1, Algorithm::Auto));
        drop(e); // must not hang or leak panicking threads
    }

    #[test]
    fn router_covers_every_shard() {
        // The widening-multiply range reduction must reach all shards,
        // including non-power-of-two counts, and stay in bounds.
        for &n in &[1usize, 2, 3, 7, 12] {
            let mut seen = vec![false; n];
            for v in 0..10_000u32 {
                let s = route_of(Vertex(v), n);
                assert!(s < n);
                seen[s] = true;
            }
            assert!(seen.iter().all(|&s| s), "shard starved at n={n}");
        }
    }

    #[test]
    fn router_spreads_keys_evenly() {
        // Keys uniform over vertices must land near-uniform over the
        // engine shards: a skewed router would pile one shard's queue
        // while the others idle. Tested for a power-of-two and a prime
        // shard count.
        const N: usize = 80_000;
        for &n_shards in &[4usize, 7] {
            let mut counts = vec![0u32; n_shards];
            for v in 0..N as u32 {
                counts[route_of(Vertex(v), n_shards)] += 1;
            }
            let expect = (N / n_shards) as u32;
            for (s, &count) in counts.iter().enumerate() {
                assert!(
                    count > expect / 2 && count < expect * 2,
                    "engine shard {s}/{n_shards} got {count} of {N} keys"
                );
            }
        }
    }

    #[test]
    fn sharded_engine_serves_and_aggregates() {
        let e = QueryEngine::start(
            CommunitySearch::shared(figure2_example()),
            ServiceConfig {
                workers: 4,
                shards: 3,
                ..ServiceConfig::default()
            },
        );
        let g = e.current_index().0.graph().clone();
        let reqs: Vec<QueryRequest> = (0..g.n_upper().min(60))
            .flat_map(|i| {
                [
                    QueryRequest::new(g.upper(i), 2, 2, Algorithm::Peel),
                    QueryRequest::new(g.upper(i), 1, 1, Algorithm::Expand),
                ]
            })
            .collect();
        // Cross-shard batch: submission order and results survive the
        // fan-out/merge round-trip.
        let batched = e.query_batch(&reqs);
        assert_eq!(batched.len(), reqs.len());
        for (req, resp) in reqs.iter().zip(&batched) {
            assert_eq!(resp.request, *req, "fan-out broke submission order");
        }
        // Per-request resubmission answers the same.
        for (req, first) in reqs.iter().zip(&batched) {
            assert_eq!(e.query(*req).summary, first.summary, "{req:?}");
        }
        let st = e.stats();
        assert_eq!(st.per_shard.len(), 3);
        assert_eq!(st.completed, 2 * reqs.len() as u64);
        assert_eq!(
            st.per_shard.iter().map(|s| s.completed).sum::<u64>(),
            st.completed,
            "per-shard rows must sum to the aggregate"
        );
        assert_eq!(
            st.per_shard.iter().map(|s| s.workers).sum::<usize>(),
            st.workers
        );
        // 60 distinct query vertices spread over 3 shards: every
        // shard should have seen work (the router test above proves
        // coverage in the large; this is the end-to-end check).
        assert!(
            st.per_shard.iter().filter(|s| s.completed > 0).count() >= 2,
            "traffic did not spread: {:?}",
            st.per_shard
        );
        // Install fans out: every shard at the new epoch, counted once.
        let epoch = e.install(CommunitySearch::shared(figure2_example()));
        assert_eq!(epoch, 1);
        let st = e.stats();
        assert_eq!(st.epoch, 1);
        assert_eq!(st.installs, 1, "per-shard install fan-out multiply-counted");
        let after = e.query(reqs[0]);
        assert_eq!(after.epoch, 1);
        assert_eq!(after.summary, batched[0].summary);
        e.shutdown();
    }

    #[test]
    fn sharded_engine_matches_unsharded_bit_identically() {
        // The quick in-module version of tests/shard_oracle.rs: same
        // requests, 1 vs 3 shards, identical summaries and epochs.
        let sharded = QueryEngine::start(
            CommunitySearch::shared(figure2_example()),
            ServiceConfig {
                workers: 3,
                shards: 3,
                ..ServiceConfig::default()
            },
        );
        let unsharded = engine(2);
        let g = sharded.current_index().0.graph().clone();
        let mut reqs: Vec<QueryRequest> = (0..g.n_upper())
            .map(|i| QueryRequest::new(g.upper(i), 2, 2, Algorithm::Peel))
            .collect();
        reqs.push(reqs[0]); // duplicate rides along
        let a = sharded.query_batch(&reqs);
        let b = unsharded.query_batch(&reqs);
        for ((req, x), y) in reqs.iter().zip(&a).zip(&b) {
            assert_eq!(x.request, *req);
            assert_eq!(x.summary, y.summary, "{req:?} diverged under sharding");
            assert_eq!(x.epoch, y.epoch, "{req:?} epoch diverged under sharding");
        }
        assert_eq!(sharded.stats().completed, unsharded.stats().completed);
        sharded.shutdown();
        unsharded.shutdown();
    }

    #[test]
    fn stats_window_resnapshots_on_baseline_regression() {
        // Regression (ISSUE 10, satellite 1): a window baseline that is
        // *ahead* of the live counters (the counters were replaced or
        // reset after the baseline was taken) used to produce saturated
        // per-field deltas — `completed` clamped to 0 while histogram
        // buckets kept nonzero counts, so quantiles read garbage. The
        // fix detects the regression and resnapshots from zero.
        let e = engine(1);
        let q = e.current_index().0.graph().upper(2);
        e.query(QueryRequest::new(q, 2, 2, Algorithm::Peel));
        e.stats_window(); // establish a legitimate baseline
        e.query(QueryRequest::new(q, 3, 2, Algorithm::Peel));
        e.query(QueryRequest::new(q, 2, 1, Algorithm::Peel));
        let live_completed = e.stats().completed;
        // Force the mid-window reset: overwrite the baseline with one
        // recorded from different (busier) storage, exactly what a
        // telemetry-plane swap mid-window looks like to the reader.
        {
            let ahead = LatencyHistogram::default();
            for _ in 0..1000 {
                ahead.record(50);
            }
            let mut base = e.core.window.lock().unwrap();
            base.completed = 1_000_000;
            base.service = ahead.snapshot();
        }
        let w = e.stats_window();
        // The stale baseline is discarded: the window reports everything
        // the counters currently hold (all of it post-"reset"), not a
        // zero count over nonzero buckets.
        assert_eq!(
            w.completed, live_completed,
            "regressed baseline must be resnapshotted, not saturated"
        );
        assert!(w.mean_us > 0.0, "window quantiles must see the samples");
        // And the rollover leaves a sane baseline behind: the next
        // window counts only its own traffic.
        e.query(QueryRequest::new(q, 1, 2, Algorithm::Peel));
        assert_eq!(e.stats_window().completed, 1);
        e.shutdown();
    }

    #[test]
    fn slow_ring_entries_report_the_answer_size() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let g = bigraph::generators::random_bipartite(60, 60, 900, &mut rng);
        let e = QueryEngine::start(CommunitySearch::shared(g), ServiceConfig::default());
        // Each request's queue hop alone takes well over the 1 µs the
        // ring needs to retain an entry.
        let mut sizes = std::collections::HashMap::new();
        for i in 0..8 {
            let q = e.current_index().0.graph().upper(i);
            let resp = e.query(QueryRequest::new(q, 2, 2, Algorithm::Baseline));
            sizes.insert(q.0, resp.summary.size() as u64);
        }
        assert!(sizes.values().any(|&n| n > 0));
        let slow = e.stats().slow;
        assert_eq!(slow.len(), sizes.len(), "{slow:?}");
        for s in &slow {
            assert_eq!(s.result_edges, sizes[&s.q], "{s}");
        }
        e.shutdown();
    }

    #[test]
    fn stats_window_rearms_the_slow_ring() {
        // Regression (ISSUE 10, satellite 2), engine-level: each window
        // rollover clears the per-shard slow rings, so a window's slow
        // list holds that window's worst — not warmup's — and the
        // ratcheted reject threshold cannot suppress a later window's
        // spikes.
        // Real queries on figure2 can finish in 0µs (which the ring
        // ignores by design), so drive the shard's telemetry plane with
        // synthetic traces of known latency for determinism.
        let e = engine(1);
        let trace = |q: u32, total_us: u64| crate::telemetry::RequestTrace {
            q,
            alpha: 2,
            beta: 2,
            algo: Algorithm::Peel,
            epoch: 0,
            provenance: Provenance::Single,
            result_edges: 0,
            total_us,
            stages_us: [0; crate::telemetry::N_STAGES],
            touched: 0,
        };
        // Slow warmup fills the ring and ratchets the reject threshold.
        for (q, us) in [(1u32, 10_000u64), (2, 12_000), (3, 14_000)] {
            e.core.shards[0].telemetry.record(&trace(q, us));
        }
        let w1 = e.stats_window();
        assert_eq!(w1.slow.len(), 3, "warmup queries must be retained");
        // Rollover cleared the ring: cumulative stats see none until
        // new traffic arrives...
        assert!(e.stats().slow.is_empty(), "rollover must re-arm the ring");
        // ...and the next window captures its own spike, even though it
        // is far below the warmup latencies the old threshold retained.
        e.core.shards[0].telemetry.record(&trace(9, 500));
        let w2 = e.stats_window();
        assert_eq!(
            w2.slow
                .iter()
                .filter(|s| s.q == 9 && s.total_us == 500)
                .count(),
            1,
            "post-rollover spike lost: {:?}",
            w2.slow
        );
        e.shutdown();
    }
}
