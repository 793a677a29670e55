//! The concurrent query engine: a fixed worker pool over an immutable,
//! epoch-swappable [`CommunitySearch`].
//!
//! Life of a request — every request takes the same path:
//!
//! 1. [`QueryEngine::submit`] enqueues one job — the request, a pooled
//!    reply cell and the enqueue time — on the engine's one job queue
//!    and returns a [`ResponseHandle`]; [`QueryEngine::query`] submits
//!    and waits.
//! 2. One of the `ServiceConfig::workers` threads dequeues the job and
//!    reads the index snapshot: the engine's `Arc<CommunitySearch>` and
//!    its epoch.
//! 3. It answers the request with [`CommunitySearch::answer`]: `q`'s
//!    class in the (α,β) threshold profile, a table lookup once that
//!    profile is built. The first request at an (α,β) builds it;
//!    requests racing that build on other workers wait in the profile
//!    slot's `OnceLock` and share the one build. The response's
//!    [`crate::CommunitySummary`] reads the class's member counts and
//!    minimum weight in O(1); no edge is emitted or copied. The
//!    request's `algo` is echoed and keys the telemetry rows, but it
//!    picks no kernel: every algorithm returns the same community.
//! 4. The worker puts the response in the reply cell and records the
//!    request's stage trace (see [`crate::telemetry`]).
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
//! * reply cells (`ReplyCell`) are pooled, reused whenever their
//!   refcount proves nothing else holds them;
//! * an answer is a refcount bump on its profile slot plus a class id,
//!   and [`crate::QueryResponse`] travels **by value**, so there is no
//!   `Arc::new` per response;
//! * a request's stage trace lives on its worker's stack.
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
//! profile slot's refcount, shared by all workers; nothing has
//! measured that beyond 2 workers.
//!
//! # Installs
//!
//! [`QueryEngine::install`] atomically replaces the index (one write
//! lock) and bumps the epoch, so a rebuilt index — e.g.
//! [`scs::DynamicIndex::snapshot`] after edge updates — goes live
//! without stopping the workers. A request that read the old snapshot
//! finishes on it (its `Arc` keeps it alive) and its response carries
//! the old epoch. Each answer holds the profile it was read from, so a
//! response materialises its own snapshot's edges even after the
//! install; the new snapshot starts with an empty profile memo.

use crate::stats::{AdmissionStats, CacheStats, HistSnapshot, LatencyHistogram, ServiceStats};
use crate::telemetry::{RequestTrace, Stage, StageSet, Telemetry, TelemetrySnapshot};
use crate::{CommunitySummary, QueryRequest, QueryResponse};
use scs::{CommunitySearch, QueryWorkspace};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads serving the job queue (clamped to ≥ 1; reported
    /// by [`crate::stats::ServiceStats::workers`]).
    pub workers: usize,
    /// Ignored: the engine has one job queue and one index snapshot,
    /// served by `workers` threads. Kept only because the benchmark
    /// harness (`perfbench/`) still sets it.
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

/// Answers a reply cell (`Some` = the response, `None` = the request
/// panicked) and moves the worker's reference into the pool, **holding
/// the pool lock across both**. The ordering is what makes warm submits
/// deterministic: the submitter cannot finish its `take` until the
/// state lock is released, and cannot reach `take_free` until the pool
/// lock is released — by which point the cell is pooled and the
/// worker's reference gone, so after the submitter drops its handle the
/// cell is free. Without this, the worker's "pool it" step could lag
/// behind a fast submitter and force a fresh allocation.
///
/// `then` runs once the answer is in, before the submitter is woken
/// and the state lock released: the worker records the request's trace
/// there, so a submitter whose `wait` returned finds its request in the
/// telemetry plane.
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

    // A poisoned pool is still a valid list of entries, so the lock is
    // recovered rather than unwrapped: `submit` runs on the server's
    // no-panic request path.
    fn take_free(&self) -> Option<Arc<T>> {
        let mut items = self.items.lock().unwrap_or_else(PoisonError::into_inner);
        let i = items.iter().position(|a| Arc::strong_count(a) == 1)?;
        Some(items.swap_remove(i))
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

/// One request on its way to a worker.
struct Job {
    req: QueryRequest,
    reply: Arc<ReplyCell<QueryResponse>>,
    /// The enqueue time; the queue-wait stage is measured from it.
    enqueued: Instant,
}

/// Per-worker scratch accounting, published after every served request
/// so [`QueryEngine::stats`] can sum it without touching the
/// workspaces themselves (they are owned by the worker threads).
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
}

impl WindowBase {
    fn zero(at: Instant) -> Self {
        WindowBase {
            at,
            service: HistSnapshot::empty(),
            telem: TelemetrySnapshot::empty(),
            completed: 0,
        }
    }
}

/// Everything the workers and the engine handle share: the index
/// snapshot, the job queue, the reply-cell pool and the statistics.
struct Inner {
    search: RwLock<(Arc<CommunitySearch>, u64)>,
    queue: JobQueue,
    reply_pool: ArcPool<ReplyCell<QueryResponse>>,
    hist: LatencyHistogram,
    completed: AtomicU64,
    /// One slot per worker thread.
    scratch: Vec<ScratchSlot>,
    /// The preallocated telemetry plane: per-algorithm × per-stage
    /// histograms, the slow-query ring and event counters. Recording
    /// is lock-free and allocation-free (see [`crate::telemetry`]).
    telemetry: Telemetry,
    started: Instant,
    /// Baseline of the last [`QueryEngine::stats_window`] call. Off the
    /// serving path entirely — only stats readers lock it.
    window: Mutex<WindowBase>,
    /// Serializes [`QueryEngine::install`] end to end: one install's
    /// epoch bump and its `note_install` count both land before the
    /// next install starts. The `search` write lock alone already
    /// orders the bumps; `crates/analyze/tests/selfcheck.rs` counts the
    /// lock-order edge this lock forms with `search`.
    install_lock: Mutex<()>,
}

impl Inner {
    /// The current `(index snapshot, epoch)` pair, read consistently.
    /// Poisoning is recovered: `install` leaves the pair whole at every
    /// unlock, and the server's no-panic stats path reads it.
    fn snapshot(&self) -> (Arc<CommunitySearch>, u64) {
        let guard = self.search.read().unwrap_or_else(PoisonError::into_inner);
        (guard.0.clone(), guard.1) // contract-ok: Arc refcount bump under the snapshot read lock
    }

    /// Enqueues `req` and returns its reply cell. The cell comes from
    /// (and returns to) the pool; a reissued cell may hold the stale
    /// value of a submitter that never waited, so it is reset first
    /// (refcount 1 makes that unobservable).
    fn enqueue(&self, req: QueryRequest) -> Arc<ReplyCell<QueryResponse>> {
        let reply = match self.reply_pool.take_free() {
            Some(cell) => {
                // The state is whole at every unlock; recover poisoning.
                *cell.state.lock().unwrap_or_else(PoisonError::into_inner) = ReplyState::Pending;
                cell
            }
            None => Arc::new(ReplyCell::new()),
        };
        let job = Job {
            req,
            reply: reply.clone(),
            enqueued: Instant::now(),
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

    /// Stats over one period: `completed` requests whose latencies are
    /// `service` and `telem`, over `secs` seconds. Point-in-time fields
    /// (workers, epoch, scratch residency, the cumulative
    /// `allocs_avoided`) and the slow-query ring read their current
    /// values.
    fn stats_over(
        &self,
        completed: u64,
        service: &HistSnapshot,
        telem: &TelemetrySnapshot,
        secs: f64,
    ) -> ServiceStats {
        let (mut scratch_bytes, mut allocs_avoided) = (0, 0);
        for s in &self.scratch {
            // ordering: Relaxed — residency gauges; a submitter that
            // must see its own query's effect is ordered by the
            // reply-cell mutex handoff, not by these loads.
            scratch_bytes += s.bytes.load(Ordering::Relaxed);
            allocs_avoided += s.allocs_avoided.load(Ordering::Relaxed);
        }
        ServiceStats {
            workers: self.scratch.len(),
            completed,
            coalesced: 0,
            batches: 0,
            batched: 0,
            cache: CacheStats::default(),
            epoch: self.snapshot().1,
            installs: telem.installs,
            qps: completed as f64 / secs.max(1e-9),
            mean_us: service.mean_us(),
            p50_us: service.quantile_us(0.50),
            p90_us: service.quantile_us(0.90),
            p99_us: service.quantile_us(0.99),
            max_us: service.max_us(),
            scratch_bytes,
            allocs_avoided,
            stages: telem.stage_summaries(),
            algos: telem.algo_stats(),
            admission: AdmissionStats::default(),
            slow: self.telemetry.slow_queries(),
        }
    }

    /// Stats since engine start, with `telem` as the telemetry plane's
    /// snapshot.
    fn cumulative(&self, telem: &TelemetrySnapshot) -> ServiceStats {
        // ordering: Relaxed — statistics read; stats() promises no
        // cross-counter snapshot.
        let completed = self.completed.load(Ordering::Relaxed);
        let secs = self.started.elapsed().as_secs_f64();
        self.stats_over(completed, &self.hist.snapshot(), telem, secs)
    }
}

/// Ends the request's current stage window and starts the next one
/// where it ended; returns the ended window's length, ns.
fn lap(last: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.saturating_duration_since(*last).as_nanos() as u64;
    *last = now;
    ns
}

/// Serves one request: one snapshot read, one
/// [`CommunitySearch::answer`], then the response is counted. Returns
/// the response, its stage trace — left open for the worker to close
/// with the reply window once the answer is in the reply cell — and
/// the end of its last stage window, where the reply window starts.
///
/// The stage windows (queue wait, snapshot read, answer, publish and
/// then reply) are contiguous, so they tile the request's total.
// scs-contract: no-alloc — the warm serving path reuses pooled buffers
// end to end; proven transitively by `scs analyze`.
fn serve(
    inner: &Inner,
    request: QueryRequest,
    ws: &mut QueryWorkspace,
    enqueued: Instant,
) -> (QueryResponse, RequestTrace, Instant) {
    let t0 = Instant::now();
    let mut last = t0;
    let mut stages = StageSet::new();
    stages.add_ns(
        Stage::QueueWait,
        t0.saturating_duration_since(enqueued).as_nanos() as u64,
    );
    let (search, epoch) = inner.snapshot();
    stages.add_ns(Stage::Snapshot, lap(&mut last));
    let summary = if Inner::servable(&request, &search) {
        CommunitySummary::from_answer(search.answer(
            request.q,
            request.alpha as usize,
            request.beta as usize,
            ws,
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
    let trace = stages.trace(&resp, 0);
    (resp, trace, last)
}

/// A pending response; produced by [`QueryEngine::submit`].
pub struct ResponseHandle {
    cell: Arc<ReplyCell<QueryResponse>>,
}

impl ResponseHandle {
    /// Blocks until the engine answers.
    ///
    /// # Panics
    /// Panics if the query panicked inside the engine or the engine
    /// shut down before answering.
    pub fn wait(self) -> QueryResponse {
        self.cell
            .take()
            .expect("query panicked in the engine or engine shut down before responding")
    }

    /// [`Self::wait`] that gives up after `timeout`: `None` if the
    /// engine has not answered by then, or the query panicked. A cell
    /// given up on is still answered later and pooled; the pool resets
    /// it before reissuing it, so its late answer never reaches
    /// another submitter.
    pub(crate) fn wait_timeout(self, timeout: Duration) -> Option<QueryResponse> {
        self.cell.take_timeout(timeout)
    }
}

/// The concurrent query-serving engine: `ServiceConfig::workers`
/// threads serving one job queue. See the [module docs](self).
pub struct QueryEngine {
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
}

impl QueryEngine {
    /// Spawns the worker pool and returns the serving handle.
    pub fn start(search: Arc<CommunitySearch>, config: ServiceConfig) -> Self {
        let workers = config.workers.max(1);
        let now = Instant::now();
        let inner = Arc::new(Inner {
            search: RwLock::new((search, 0)),
            queue: JobQueue::new(),
            reply_pool: ArcPool::new(),
            hist: LatencyHistogram::default(),
            completed: AtomicU64::new(0),
            scratch: (0..workers).map(|_| ScratchSlot::default()).collect(),
            telemetry: Telemetry::new(config.slow_ring_capacity),
            started: now,
            window: Mutex::new(WindowBase::zero(now)),
            install_lock: Mutex::new(()),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("scs-worker-{i}"))
                    .spawn(move || {
                        // The worker's workspace, reused across every
                        // request it serves and across index epoch swaps
                        // (a profile build against a larger installed
                        // graph grows it). After warm-up the
                        // steady-state serving path stops allocating.
                        let mut ws = QueryWorkspace::default();
                        while let Some(job) = inner.queue.pop() {
                            // Backstop: a panic in query code must not
                            // shrink the pool. Abandoning the reply cell
                            // makes the submitter's wait() fail loudly,
                            // and the request records no trace (the
                            // completed counter skips it too). A
                            // submitter that dropped its handle just
                            // doesn't collect the result.
                            let served =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    serve(&inner, job.req, &mut ws, job.enqueued)
                                }));
                            // Scratch accounting is published *before*
                            // the reply: a submitter that reads stats()
                            // the moment its blocking query returns must
                            // see this worker's workspace.
                            let slot = &inner.scratch[i];
                            // ordering: Relaxed — gauge stores; the
                            // reply-cell mutex handoff that follows
                            // publishes them to the submitter.
                            slot.bytes.store(ws.heap_bytes(), Ordering::Relaxed);
                            slot.allocs_avoided
                                // ordering: Relaxed — as above.
                                .store(ws.allocations_avoided(), Ordering::Relaxed);
                            let Ok((resp, mut trace, reply_start)) = served else {
                                respond_and_pool(&inner.reply_pool, job.reply, None, || {});
                                continue;
                            };
                            // Answer and pool the cell in one step (the
                            // submitter's handle keeps it unissuable
                            // until wait() is done), then close the
                            // trace with the reply window.
                            respond_and_pool(&inner.reply_pool, job.reply, Some(resp), || {
                                let now = Instant::now();
                                let reply_us =
                                    now.saturating_duration_since(reply_start).as_micros() as u64;
                                let total_us =
                                    now.saturating_duration_since(job.enqueued).as_micros() as u64;
                                trace.close(reply_us, total_us);
                                inner.telemetry.record(&trace);
                            });
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        QueryEngine { inner, handles }
    }

    /// Enqueues a request; the returned handle yields the response. The
    /// reply cell comes from (and returns to) the engine's pool, so a
    /// warm submit+wait round-trip allocates nothing.
    pub fn submit(&self, req: QueryRequest) -> ResponseHandle {
        ResponseHandle {
            cell: self.inner.enqueue(req),
        }
    }

    /// Submits and waits: one blocking round-trip through the pool.
    pub fn query(&self, req: QueryRequest) -> QueryResponse {
        self.submit(req).wait()
    }

    /// Installs a new index snapshot without stopping the workers and
    /// bumps the epoch. Requests already serving finish on the snapshot
    /// they read (tagged with the prior epoch), and every response keeps
    /// the profile its answer came from, so it still reads per its own
    /// snapshot afterwards.
    pub fn install(&self, search: Arc<CommunitySearch>) -> u64 {
        let _serial = self.inner.install_lock.lock().unwrap();
        let mut guard = self.inner.search.write().unwrap();
        guard.0 = search;
        guard.1 += 1;
        let epoch = guard.1;
        drop(guard);
        self.inner.telemetry.note_install();
        epoch
    }

    /// The current `(index snapshot, epoch)` pair.
    pub fn current_index(&self) -> (Arc<CommunitySearch>, u64) {
        self.inner.snapshot()
    }

    /// Metrics snapshot since engine start.
    pub fn stats(&self) -> ServiceStats {
        self.inner.cumulative(&self.inner.telemetry.snapshot())
    }

    /// Metrics for the window since the previous `stats_window` call
    /// (or engine start, for the first call): counters, rates and
    /// latency quantiles cover only the requests completed inside the
    /// window, so a benchmark can discard warmup by calling this once
    /// after warmup and once after the measured run — the second
    /// snapshot is the steady state.
    ///
    /// Point-in-time fields (workers, epoch, scratch residency, the
    /// cumulative `allocs_avoided` reuse counter) report current values
    /// — residency has no meaningful delta.
    ///
    /// The slow-query list reports the worst requests *of the window*:
    /// each call re-arms the slow ring (clearing the slots and the
    /// reject threshold), so a fast window following a slow warmup
    /// still surfaces its own spikes instead of losing them under the
    /// warmup's stale threshold.
    ///
    /// If the baseline is found to be *ahead* of the current counters —
    /// any histogram bucket, count or plain counter going backwards,
    /// which proves the counters were replaced or reset mid-window —
    /// the stale baseline is discarded and the window is recomputed
    /// from zero (everything since the reset), rather than returning
    /// saturated per-field deltas whose `count` disagrees with
    /// `Σ buckets` and whose quantiles read the wrong bucket.
    pub fn stats_window(&self) -> ServiceStats {
        let inner = &self.inner;
        let mut base = inner.window.lock().unwrap();
        let now = Instant::now();
        let service = inner.hist.snapshot();
        let telem = inner.telemetry.snapshot();
        // ordering: Relaxed — statistics read, as in `cumulative`.
        let completed = inner.completed.load(Ordering::Relaxed);
        if service.regressed_from(&base.service)
            || telem.regressed_from(&base.telem)
            || completed < base.completed
        {
            // Resnapshot: the recorded baseline belongs to storage that
            // no longer backs the counters. Zeroing it makes every
            // subtraction below exact (delta vs. zero ≡ the cumulative
            // values since the reset, which all fall inside this
            // window) and keeps count ≡ Σ buckets for the quantiles.
            *base = WindowBase::zero(base.at);
        }
        let stats = inner.stats_over(
            completed.saturating_sub(base.completed),
            &service.delta(&base.service),
            &telem.delta(&base.telem),
            now.saturating_duration_since(base.at).as_secs_f64(),
        );
        // Re-arm the slow ring for the next window (the worst-of-window
        // list above was already read). Without this the reject
        // threshold ratchets up during a slow warmup and a fast
        // measured window records no slow queries at all.
        inner.telemetry.reset_slow_window();
        *base = WindowBase {
            at: now,
            service,
            telem,
            completed,
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
        let telem = self.inner.telemetry.snapshot();
        let mut stats = self.inner.cumulative(&telem);
        stats.admission = admission;
        crate::telemetry::render_prometheus(&stats, &telem)
    }

    /// Records one network-front-end accept window (admission →
    /// engine enqueue, µs) into the [`crate::telemetry::Stage::Accept`]
    /// histogram — so the stage breakdown attributes front-end time to
    /// the same per-algorithm plane as the engine-side stages. Only
    /// [`crate::Server`] calls this; the in-process submission path
    /// never touches the stage.
    pub fn record_accept(&self, req: &QueryRequest, accept_us: u64) {
        self.inner.telemetry.record_accept(req.algo, accept_us);
    }

    /// Stops accepting work, drains the queue and joins every worker.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.inner.queue.close();
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
        assert_eq!((st.batches, st.batched), (0, 0));
        e.shutdown();
    }

    #[test]
    fn the_shards_field_changes_nothing() {
        // `ServiceConfig::shards` is ignored: an engine started with 4
        // shards runs the workers it was asked for and answers every
        // request exactly like one started with 1.
        let start = |shards| {
            QueryEngine::start(
                CommunitySearch::shared(figure2_example()),
                ServiceConfig {
                    workers: 2,
                    shards,
                    ..ServiceConfig::default()
                },
            )
        };
        let (four, one) = (start(4), start(1));
        let g = one.current_index().0.graph().clone();
        let mut served = 0;
        for v in g.vertices() {
            for (alpha, beta) in [(2, 2), (1, 2), (3, 1)] {
                let req = QueryRequest::new(v, alpha, beta, Algorithm::Auto);
                let (a, b) = (four.query(req), one.query(req));
                assert_eq!(a.request, req);
                assert_eq!(a.summary, b.summary, "{req:?}");
                assert_eq!(a.epoch, b.epoch, "{req:?}");
                served += 1;
            }
        }
        for e in [&four, &one] {
            let st = e.stats();
            assert_eq!(st.workers, 2);
            assert_eq!(st.completed, served);
        }
        four.shutdown();
        one.shutdown();
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
        let auto = e.query(QueryRequest::new(q, 2, 2, Algorithm::Auto));
        for algo in Algorithm::ALL {
            let req = QueryRequest::new(q, 2, 2, algo);
            let resp = e.query(req);
            assert_eq!(resp.request, req);
            assert_eq!(resp.summary, auto.summary, "{algo}");
        }
        let st = e.stats();
        for algo in Algorithm::ALL {
            let row = &st.algos[crate::telemetry::algo_rank(algo)];
            let want = if algo == Algorithm::Auto { 2 } else { 1 };
            assert_eq!(row.total.count, want, "{algo}");
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
        let st = e.stats();
        assert_eq!((st.epoch, st.installs), (1, 1));
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
    fn timed_wait_gives_up_and_its_cell_is_reissued_reset() {
        // One worker, and the index slot write-locked: the worker
        // blocks reading its snapshot, so the answer cannot arrive in
        // time.
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
        let blocked = e.inner.search.write().unwrap();
        let handle = e.submit(a);
        let given_up = Arc::as_ptr(&handle.cell);
        assert!(handle.wait_timeout(Duration::from_millis(20)).is_none());
        drop(blocked);
        // The worker answers `a` into the given-up cell and pools it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while e.inner.reply_pool.items.lock().unwrap().is_empty() {
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
    fn stats_window_resnapshots_on_baseline_regression() {
        // Regression: a window baseline that is *ahead* of the live
        // counters (the counters were replaced or reset after the
        // baseline was taken) used to produce saturated per-field
        // deltas — `completed` clamped to 0 while histogram buckets
        // kept nonzero counts, so quantiles read garbage. The fix
        // detects the regression and resnapshots from zero.
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
            let mut base = e.inner.window.lock().unwrap();
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
        // Regression, engine-level: each window rollover clears the
        // slow ring, so a window's slow list holds that window's
        // worst — not warmup's — and the ratcheted reject threshold
        // cannot suppress a later window's spikes.
        // Real queries on figure2 can finish in 0µs (which the ring
        // ignores by design), so drive the telemetry plane with
        // synthetic traces of known latency for determinism.
        let e = engine(1);
        let trace = |q: u32, total_us: u64| crate::telemetry::RequestTrace {
            q,
            alpha: 2,
            beta: 2,
            algo: Algorithm::Peel,
            epoch: 0,
            result_edges: 0,
            total_us,
            stages_us: [0; crate::telemetry::N_STAGES],
            touched: 0,
        };
        // Slow warmup fills the ring and ratchets the reject threshold.
        for (q, us) in [(1u32, 10_000u64), (2, 12_000), (3, 14_000)] {
            e.inner.telemetry.record(&trace(q, us));
        }
        let w1 = e.stats_window();
        assert_eq!(w1.slow.len(), 3, "warmup queries must be retained");
        // Rollover cleared the ring: cumulative stats see none until
        // new traffic arrives...
        assert!(e.stats().slow.is_empty(), "rollover must re-arm the ring");
        // ...and the next window captures its own spike, even though it
        // is far below the warmup latencies the old threshold retained.
        e.inner.telemetry.record(&trace(9, 500));
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
