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
//! 2. A worker dequeues the job and looks every *unique* key up in the
//!    sharded LRU cache once; a hit answers its key at once
//!    (`cached = true`). A key is `(q, α, β)`: every algorithm returns
//!    the same community, so requests that differ only in `algo` share
//!    one cache entry and one flight, and the first request of a key
//!    picks the kernel that a miss runs. Every response carries its own
//!    slot's request.
//! 3. The misses read one index snapshot and join the in-flight table.
//!    The first thread for a key becomes its *leader*; a key already in
//!    flight makes this job a *follower* that waits for the leader
//!    instead of duplicating work (`coalesced = true`). A key whose
//!    resident flight belongs to a newer epoch (an install raced the
//!    join) gets another snapshot-and-join round inside the same job;
//!    epochs are monotonic, so the rounds end.
//! 4. Each leader runs its own kernel call
//!    ([`scs::CommunitySearch::significant_community_arena`]) and
//!    publishes at once: the response goes into the cache and the
//!    flight (waking its followers) and answers the key's slots.
//! 5. Only once every leader of every round is published does the job
//!    wait on its follower flights, so two jobs following each other's
//!    keys can never deadlock.
//! 6. The worker hands the responses back in submission order and
//!    records every member's stage trace (see [`crate::telemetry`]).
//!
//! Duplicate keys inside a batch are computed once and their extra
//! slots answered exactly as a serial resubmission would be, and only
//! [`QueryEngine::submit_batch`] jobs count in the `batches`/`batched`
//! counters, so [`ServiceStats`] cannot drift between submission modes.
//!
//! # The warm leader path allocates nothing
//!
//! Together with the per-worker [`QueryWorkspace`] and
//! [`ResultArena`], every piece of per-request state is recycled, so a
//! warm engine serves leader queries with **zero** heap allocations end
//! to end (proven by `tests/alloc_free_service.rs`):
//!
//! * the job queue is a mutex-protected ring (`VecDeque`) instead of a
//!   node-allocating channel;
//! * request and response vectors, reply slots ([`ReplyCell`]) and
//!   flights are pooled, reused whenever their refcount proves nothing
//!   else holds them;
//! * results are written into the worker's [`ResultArena`] — the
//!   [`crate::CommunitySummary`] wraps a slab view, not a fresh `Vec` —
//!   and [`crate::QueryResponse`] travels **by value** (cloning is a
//!   refcount bump), so there is no `Arc::new` per response;
//! * cache entries hold responses by value; **eviction (or an
//!   epoch-swap clear) drops the entry's slab handle, and once every
//!   handle of a slab's generation is gone the owning worker recycles
//!   the slab in place** — live handles pin their slab via refcount and
//!   a generation tag proves they can never observe recycled storage;
//! * job bookkeeping (slot grouping, follower list, stage traces) lives
//!   in per-worker scratch, all capacity-retaining.
//!
//! # Sharding
//!
//! The engine is built from `ServiceConfig::shards` **independent
//! shards**: each owns its worker pool, job queue, result-cache slice,
//! in-flight table, workspaces + result arenas, telemetry plane and
//! `Arc<CommunitySearch>` index replica. Requests route to a shard by
//! a stable hash of the query vertex ([`route_of`] — a splitmix64
//! mixer, deliberately decorrelated from the cache's internal SipHash
//! sharding), so a given key always lands on the same shard and every
//! single-shard invariant above (coalescing, caching, counter
//! invariance, the allocation-free warm path) holds per shard and
//! therefore engine-wide. Cross-shard batches are partitioned into
//! per-shard sub-batches and reassembled in submission order by the
//! [`BatchHandle`]; installs fan out to every shard (serialized, so
//! all shards agree on the epoch sequence); stats aggregate. On Linux,
//! each shard's workers are pinned to a distinct CPU set
//! (best-effort); elsewhere pinning is a no-op and sharding still
//! isolates the queues, caches and arenas.
//!
//! [`QueryEngine::install`] atomically replaces the index (one
//! write-lock per shard), bumps the epoch and clears the cache, so a
//! rebuilt index — e.g. [`scs::DynamicIndex::snapshot`] after edge
//! updates — goes live without stopping the workers. In-flight leaders that started on the
//! old snapshot finish on it (their Arc keeps it alive) and their
//! responses carry the old epoch; the cache only ever holds entries
//! inserted under the epoch read together with the snapshot, and is
//! cleared on install, so a hit never serves a community computed
//! against an index older than the last install. The in-flight table is
//! fenced the same way: a request only coalesces onto a flight whose
//! epoch matches the one it observed as current, so a post-install
//! request never receives a pre-install result.

// The crate denies `unsafe_code`; this module is the one exception,
// for the `sched_setaffinity` FFI shim in `pin_worker`. Every site
// is budgeted in `unsafe-allowlist.txt` and checked by `scs analyze`.
#![allow(unsafe_code)]

use crate::cache::{CacheStats, ShardedCache};
use crate::stats::{AdmissionStats, HistSnapshot, LatencyHistogram, ServiceStats, ShardStats};
use crate::telemetry::{
    Provenance, RequestTrace, SlowQuery, Stage, StageSet, Telemetry, TelemetrySnapshot,
};
use crate::{CommunitySummary, QueryRequest, QueryResponse};
use bigraph::arena::ResultArena;
use bigraph::Vertex;
use scs::{CommunitySearch, QueryWorkspace};
use std::collections::{HashMap, VecDeque};
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
    /// pool, job queue, result-cache slice, in-flight table, telemetry
    /// plane and index replica; requests are routed by a stable hash of
    /// the query vertex, so one key always lands on one shard and the
    /// single-shard coalescing/caching guarantees carry over verbatim.
    /// On Linux each shard's workers are additionally pinned to a
    /// distinct CPU set (best-effort; elsewhere pinning is a no-op).
    pub shards: usize,
    /// Total result-cache entries across all shards.
    pub cache_capacity: usize,
    /// Cache shards (rounded up to a power of two).
    pub cache_shards: usize,
    /// Edge capacity of each result-arena slab (per worker). Smaller
    /// slabs turn over — and recycle — faster at the cost of more
    /// pinned-slab fragmentation; the default
    /// ([`bigraph::arena::DEFAULT_SLAB_EDGES`]) suits production, tests
    /// shrink it to exercise recycling. Clamped to ≥ 1.
    pub arena_slab_edges: usize,
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
            cache_shards: 16,
            arena_slab_edges: bigraph::arena::DEFAULT_SLAB_EDGES,
            slow_ring_capacity: 16,
            pending_budget: 1024,
            tenant_rate: 0,
            tenant_burst: 64,
            socket_timeout_ms: 10_000,
        }
    }
}

/// What an answer depends on: `(q, α, β)`, never the algorithm (see
/// the module docs). Keys the result cache, the in-flight table and a
/// job's dedup table.
type QueryKey = (Vertex, u32, u32);

fn key_of(req: &QueryRequest) -> QueryKey {
    (req.q, req.alpha, req.beta)
}

/// What a flight's followers eventually observe.
enum FlightState {
    /// Leader still computing.
    Pending,
    /// Leader published.
    Done(QueryResponse),
    /// Leader unwound without publishing (panic in the query code).
    Poisoned,
}

/// One in-flight computation; followers sleep on `cv` until the leader
/// fills `slot`. `epoch` is the index epoch the leader computes on —
/// followers only join flights of the epoch they themselves observed as
/// current, so a post-install request can never coalesce onto a
/// pre-install computation. Flights are pooled: after the guard removes
/// one from the table it returns to [`Inner::flight_pool`], and it is
/// reset and reused once its last follower drops its reference.
struct Flight {
    epoch: AtomicU64,
    slot: Mutex<FlightState>,
    cv: Condvar,
}

impl Flight {
    fn wait(&self) -> Option<QueryResponse> {
        let mut slot = self.slot.lock().unwrap();
        loop {
            match &*slot {
                FlightState::Pending => slot = self.cv.wait(slot).unwrap(),
                FlightState::Done(resp) => return Some(resp.clone()),
                FlightState::Poisoned => return None,
            }
        }
    }

    fn publish(&self, state: FlightState) {
        *self.slot.lock().unwrap() = state;
        self.cv.notify_all();
    }
}

enum Role {
    Leader(Arc<Flight>),
    Follower(Arc<Flight>),
    /// The caller's epoch snapshot is older than the resident flight's:
    /// an install raced in; re-read the snapshot and rejoin.
    StaleSnapshot,
}

/// Cleans a leader's flight out of the in-flight table even if the
/// query code panics: on unwind the flight is poisoned (waking every
/// follower, who re-panic with context instead of blocking forever)
/// and removed so the key is not permanently wedged. The flight then
/// returns to the pool for reuse.
struct FlightGuard<'a> {
    inner: &'a Inner,
    key: QueryKey,
    flight: Arc<Flight>,
    published: bool,
}

impl FlightGuard<'_> {
    fn publish(&mut self, resp: QueryResponse) {
        self.flight.publish(FlightState::Done(resp));
        self.published = true;
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.flight.publish(FlightState::Poisoned);
        }
        // Remove only our own flight — a newer-epoch leader may have
        // replaced the entry under this key.
        {
            let mut map = self.inner.inflight.lock().unwrap();
            if map
                .get(&self.key)
                .is_some_and(|f| Arc::ptr_eq(f, &self.flight))
            {
                map.remove(&self.key);
            }
        }
        // Pool the flight. If no follower holds it (the common case —
        // it is out of the table, so none can appear), drop the
        // published response now rather than at reuse: a stale `Done`
        // would pin its summary's arena slab for as long as the flight
        // sat in the pool. Followers may still hold references
        // otherwise; the pool only hands the flight back out once the
        // refcount proves they are gone.
        if Arc::strong_count(&self.flight) == 1 {
            *self.flight.slot.lock().unwrap() = FlightState::Pending;
        }
        self.inner.flight_pool.put(self.flight.clone());
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
/// caller may reset and reuse it; busy entries (a follower still
/// holding a pooled flight, a submitter yet to take its reply) stay
/// pooled until they free up. Warm `put`s push within retained
/// capacity.
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

    fn put(&self, item: Arc<T>) {
        self.items.lock().unwrap().push(item); // contract-ok: pooled buffer retains warm capacity across batches; growth is cold (alloc-gated)
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

/// Per-worker scratch accounting, published after every served request
/// so [`QueryEngine::stats`] can aggregate without touching the
/// workspaces themselves (they are owned by the worker threads).
#[derive(Default)]
struct ScratchSlot {
    /// Resident bytes of the worker's [`QueryWorkspace`].
    bytes: AtomicUsize,
    /// Resident bytes of the worker's [`ResultArena`] slabs.
    arena_bytes: AtomicUsize,
    /// Cumulative scratch acquisitions served without allocating.
    allocs_avoided: AtomicU64,
    /// Cumulative slab recycles in the worker's arena.
    arena_recycled: AtomicU64,
}

/// The previous [`QueryEngine::stats_window`] baseline: plain-value
/// copies of every cumulative counter and histogram, subtracted from
/// the current values to yield the window's deltas.
struct WindowBase {
    at: Instant,
    service: HistSnapshot,
    telem: TelemetrySnapshot,
    completed: u64,
    coalesced: u64,
    batches: u64,
    batched: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    cache_invalidated: u64,
}

impl WindowBase {
    fn zero(at: Instant) -> Self {
        WindowBase {
            at,
            service: HistSnapshot::empty(),
            telem: TelemetrySnapshot::empty(),
            completed: 0,
            coalesced: 0,
            batches: 0,
            batched: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            cache_invalidated: 0,
        }
    }
}

/// One engine shard: everything its workers share. A shard is a
/// complete single-threaded-safe engine in itself — index replica,
/// cache slice, in-flight table, job queue, pools, telemetry — so the
/// sharded engine above it only routes, fans out and aggregates.
struct Inner {
    search: RwLock<(Arc<CommunitySearch>, u64)>,
    cache: ShardedCache<QueryKey, QueryResponse>,
    inflight: Mutex<HashMap<QueryKey, Arc<Flight>>>,
    queue: JobQueue,
    hist: LatencyHistogram,
    completed: AtomicU64,
    coalesced: AtomicU64,
    batches: AtomicU64,
    batched: AtomicU64,
    scratch: Vec<ScratchSlot>,
    reply_pool: ArcPool<ReplyCell<Vec<QueryResponse>>>,
    flight_pool: ArcPool<Flight>,
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

    /// Joins (or opens) the flight for `key` at `epoch`. A resident
    /// flight from an *older* epoch is replaced — its leader still
    /// answers its own followers, but nobody new coalesces onto a
    /// retired index. A resident flight from a *newer* epoch means the
    /// caller's snapshot is stale (an install won the race); it must
    /// re-read and retry rather than evict current-epoch work.
    fn join_flight(&self, key: QueryKey, epoch: u64) -> Role {
        let mut map = self.inflight.lock().unwrap();
        if let Some(flight) = map.get(&key) {
            // ordering: Relaxed — `epoch` is only read/written under the
            // `inflight` mutex held here; the lock orders the accesses.
            let fe = flight.epoch.load(Ordering::Relaxed);
            if fe == epoch {
                return Role::Follower(flight.clone()); // contract-ok: refcount bump; warm responses are arena-backed, no owned heap buffers
            }
            if fe > epoch {
                return Role::StaleSnapshot;
            }
        }
        // Reuse a pooled flight if one is free (refcount 1 ⇒ every
        // previous follower is gone, so the reset is unobservable).
        let flight = match self.take_free_flight() {
            Some(f) => {
                // ordering: Relaxed — written under the `inflight` mutex,
                // which orders it against every reader (see `join_flight`).
                f.epoch.store(epoch, Ordering::Relaxed);
                f
            }
            // contract-ok: cold pool-fill arm
            None => Arc::new(Flight {
                epoch: AtomicU64::new(epoch),
                slot: Mutex::new(FlightState::Pending),
                cv: Condvar::new(),
            }),
        };
        map.insert(key, flight.clone()); // contract-ok: refcount bump; warm responses are arena-backed, no owned heap buffers
        Role::Leader(flight)
    }

    /// Takes a free pooled flight, sweeping stale state as it scans: a
    /// flight pooled while its followers were still live keeps its
    /// `Done` response — which pins an arena slab — until they drop,
    /// and nothing else ever revisits it. The sweep resets every
    /// flight that has since become free (the slot already Pending in
    /// the common case), so a pooled flight pins a slab only until the
    /// next leader creation or the next install ([`Self::sweep_flights`]
    /// also runs there, covering all-cache-hit steady states between
    /// epoch swaps); only traffic that is 100% hits with no installs
    /// retains the (bounded, transient-follower-sized) residue.
    fn take_free_flight(&self) -> Option<Arc<Flight>> {
        let mut pool = self.flight_pool.items.lock().unwrap();
        let first_free = Self::sweep_flight_slots(&mut pool);
        first_free.map(|i| pool.swap_remove(i))
    }

    /// Resets the slot of every free pooled flight (dropping any stale
    /// published response) and returns the index of one free entry.
    fn sweep_flight_slots(pool: &mut [Arc<Flight>]) -> Option<usize> {
        let mut first_free = None;
        for (i, flight) in pool.iter().enumerate() {
            if Arc::strong_count(flight) == 1 {
                let mut slot = flight.slot.lock().unwrap();
                if !matches!(*slot, FlightState::Pending) {
                    *slot = FlightState::Pending;
                }
                if first_free.is_none() {
                    first_free = Some(i);
                }
            }
        }
        first_free
    }

    /// Sweeps the flight pool without taking anything — called on
    /// install so stale `Done` responses can't outlive the epoch that
    /// produced them.
    fn sweep_flights(&self) {
        let mut pool = self.flight_pool.items.lock().unwrap();
        Self::sweep_flight_slots(&mut pool);
    }

    // scs-contract: no-alloc, no-block — every served request ends here;
    // the release counting-allocator gates assert the warm path stays
    // heap-silent, and nothing on the exit path may wait.
    fn finish(&self, resp: &QueryResponse) {
        self.hist.record(resp.service_us);
        // ordering: Relaxed — independent statistic; pairs with nothing.
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether the engine can compute an answer for `req` on `search`.
    /// An unservable request (vertex outside the installed graph, zero
    /// constraint) gets the empty community rather than panicking a
    /// worker: the graph can shrink across installs, so clients cannot
    /// validate upfront.
    fn servable(req: &QueryRequest, search: &CommunitySearch) -> bool {
        req.q.index() < search.graph().n_vertices() && req.alpha >= 1 && req.beta >= 1
    }

    /// Caches `resp` only if no install retired the index it was
    /// computed on, and reports whether it did. Holding the read lock
    /// makes the epoch-check + insert atomic w.r.t. `install`, which
    /// clears the cache under the write lock — so a stale entry can
    /// never land after the clear.
    fn cache_if_current(&self, key: QueryKey, resp: &QueryResponse, epoch: u64) -> bool {
        let lock = self.search.read().unwrap();
        if lock.1 == epoch {
            self.cache.insert(key, resp.clone()); // contract-ok: refcount bump; warm responses are arena-backed, no owned heap buffers
            true
        } else {
            self.telemetry.note_stale_publish();
            false
        }
    }
}

/// The per-worker compute state: the reusable workspace and the result
/// arena, reused across every job and epoch swap the worker serves.
struct KernelState {
    ws: QueryWorkspace,
    arena: ResultArena,
}

/// Per-worker job bookkeeping, all capacity-retaining. The unique-key
/// table is a counting-sort grouping: key `k` (in first-occurrence
/// order) answers submission slots
/// `key_slots[key_start[k]..key_start[k+1]]`, ascending.
#[derive(Default)]
struct BatchScratch {
    out: Vec<Option<QueryResponse>>,
    /// The first request of each unique key; its `algo` picks the
    /// kernel a miss runs.
    keys: Vec<QueryRequest>,
    key_of_slot: Vec<u32>,
    key_start: Vec<u32>,
    key_cursor: Vec<u32>,
    key_slots: Vec<u32>,
    first: HashMap<QueryKey, u32>,
    /// Keys of the current snapshot-and-join round, and the stale ones
    /// carried into the next.
    pending: Vec<u32>,
    stale: Vec<u32>,
    followers: Vec<(Arc<Flight>, u32)>,
    /// Per-slot stage attribution, charged window by window.
    stages: Vec<StageSet>,
    /// Per-slot traces awaiting their reply stage; the worker closes
    /// and records them once the job has been answered.
    traces: Vec<RequestTrace>,
}

impl BatchScratch {
    /// Positions in `key_slots` of the submission slots key `kx` answers.
    fn slots(&self, kx: usize) -> std::ops::Range<usize> {
        self.key_start[kx] as usize..self.key_start[kx + 1] as usize
    }

    /// Charges one stage window of `ns` nanoseconds to every slot of
    /// key `kx`.
    fn charge(&mut self, kx: usize, stage: Stage, ns: u64) {
        for i in self.slots(kx) {
            self.stages[self.key_slots[i] as usize].add_ns(stage, ns);
        }
    }
}

/// Everything a worker thread owns.
struct WorkerState {
    kernel: KernelState,
    batch: BatchScratch,
}

/// Ends the job's current stage window and starts the next one where it
/// ended; returns the ended window's length, ns.
fn lap(last: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.saturating_duration_since(*last).as_nanos() as u64;
    *last = now;
    ns
}

/// Publishes one leader's response `resp` (cache + flight), then
/// answers every submission slot of its key into `out`, each under its
/// own request from `reqs`; `slots[0]` is the leader's own. Duplicate
/// slots are answered the way a serial
/// per-request resubmission would be: as cache hits when the leader's
/// result went into the cache, otherwise (an install retired the epoch
/// before the insert) as misses coalesced onto this computation — so
/// the cache and coalescing counters cannot drift between submission
/// modes, provided the cache is large enough to retain the batch's
/// unique keys (with a cache smaller than one batch's key set, a
/// duplicate counts as the hit its entry was at insert time even if
/// eviction would have forced a per-request resubmission to recompute;
/// deliberately so — re-probing would cost a second lookup per
/// duplicate).
fn publish_unit(
    inner: &Inner,
    mut guard: FlightGuard<'_>,
    resp: QueryResponse,
    t0: Instant,
    reqs: &[QueryRequest],
    slots: &[u32],
    out: &mut [Option<QueryResponse>],
) {
    let service_us = || t0.elapsed().as_micros() as u64;
    let resident = inner.cache_if_current(guard.key, &resp, resp.epoch);
    // Publish, then let the guard's Drop clear the table entry: a
    // thread that found this flight always gets an answer; threads
    // arriving after the removal start a fresh flight (and typically
    // hit the cache first).
    guard.publish(resp.clone()); // contract-ok: refcount bump; warm responses are arena-backed, no owned heap buffers
    drop(guard);
    inner.finish(&resp);
    for &slot in &slots[1..] {
        let request = reqs[slot as usize];
        let r = if resident {
            inner.cache.record_extra_hit();
            QueryResponse {
                request,
                cached: true,
                service_us: service_us(),
                ..resp.clone() // contract-ok: refcount bump; warm responses are arena-backed, no owned heap buffers
            }
        } else {
            inner.cache.record_extra_miss();
            // ordering: Relaxed — independent statistic; pairs with nothing.
            inner.coalesced.fetch_add(1, Ordering::Relaxed);
            QueryResponse {
                request,
                coalesced: true,
                service_us: service_us(),
                ..resp.clone() // contract-ok: refcount bump; warm responses are arena-backed, no owned heap buffers
            }
        };
        inner.finish(&r);
        out[slot as usize] = Some(r);
    }
    out[slots[0] as usize] = Some(resp);
}

/// Serves one job — a batch, or a per-request submission as a batch of
/// one — and returns its responses in submission order (a pooled
/// vector) together with the end of its last stage window, where the
/// reply window starts. One cache lookup per *unique* key; then
/// snapshot-and-join rounds in which each leader runs its own kernel
/// call and publishes at once; then the waits on follower flights.
/// Each slot's trace is left in `state.batch.traces` for the worker to
/// close and record after the reply.
// scs-contract: no-alloc — the warm serving path reuses pooled buffers
// end to end; proven transitively by `scs analyze`.
fn serve_batch(
    inner: &Inner,
    reqs: &[QueryRequest],
    prov: Provenance,
    state: &mut WorkerState,
    enqueued: Instant,
) -> (Vec<QueryResponse>, Instant) {
    let WorkerState {
        kernel: k,
        batch: b,
    } = state;
    let t0 = Instant::now();
    let mut last = t0;
    let service_us = || t0.elapsed().as_micros() as u64;
    if prov == Provenance::Batch {
        // ordering: Relaxed — independent statistics; pair with nothing.
        inner.batches.fetch_add(1, Ordering::Relaxed);
        inner
            .batched
            .fetch_add(reqs.len() as u64, Ordering::Relaxed);
    }

    // Reset the buffers a previous job could have left populated by
    // panicking mid-serve (the worker survives panics): leftover
    // follower entries would pin pooled flights, and leftover traces
    // would be recorded against this job. Clears are O(leftovers) and
    // free in the steady state.
    b.followers.clear();
    b.traces.clear();

    // Unique keys in first-occurrence order, each with every submission
    // slot it answers (counting-sort grouping, all reusable buffers).
    // Duplicates inside the batch are computed (or looked up) once; the
    // extra slots are answered as a serial resubmission would be.
    b.keys.clear();
    b.key_of_slot.clear();
    b.first.clear();
    for req in reqs {
        // contract-ok: warm pooled buffer; growth is cold
        let idx = match b.first.entry(key_of(req)) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let i = b.keys.len() as u32;
                e.insert(i); // contract-ok: pooled buffer retains warm capacity across batches; growth is cold (alloc-gated)
                b.keys.push(*req); // contract-ok: pooled buffer retains warm capacity across batches; growth is cold (alloc-gated)
                i
            }
        };
        b.key_of_slot.push(idx); // contract-ok: pooled buffer retains warm capacity across batches; growth is cold (alloc-gated)
    }
    let nk = b.keys.len();
    b.key_start.clear();
    b.key_start.resize(nk + 1, 0); // contract-ok: pooled buffer retains warm capacity across batches; growth is cold (alloc-gated)
    for &kx in &b.key_of_slot {
        b.key_start[kx as usize + 1] += 1;
    }
    for i in 0..nk {
        b.key_start[i + 1] += b.key_start[i];
    }
    b.key_cursor.clear();
    b.key_cursor.extend_from_slice(&b.key_start[..nk]);
    b.key_slots.clear();
    b.key_slots.resize(reqs.len(), 0); // contract-ok: pooled buffer retains warm capacity across batches; growth is cold (alloc-gated)
    for (slot, &kx) in b.key_of_slot.iter().enumerate() {
        let cursor = &mut b.key_cursor[kx as usize];
        b.key_slots[*cursor as usize] = slot as u32;
        *cursor += 1;
    }

    b.out.clear();
    b.out.resize(reqs.len(), None); // contract-ok: pooled buffer retains warm capacity across batches; growth is cold (alloc-gated)

    // The whole job waited in the queue together; every member is
    // charged that window.
    let mut queued = StageSet::new();
    queued.add_ns(
        Stage::QueueWait,
        t0.saturating_duration_since(enqueued).as_nanos() as u64,
    );
    b.stages.clear();
    b.stages.resize(reqs.len(), queued); // contract-ok: pooled buffer retains warm capacity across batches; growth is cold (alloc-gated)

    // Pass 1: one physical cache lookup per unique key, with duplicate
    // slots of a hit counted as the hits they are — per-request
    // submission performs one lookup per request, and the stats must
    // not depend on how requests were submitted.
    b.pending.clear();
    for kx in 0..nk {
        if let Some(hit) = inner.cache.get(&key_of(&b.keys[kx])) {
            for (j, i) in b.slots(kx).enumerate() {
                if j > 0 {
                    inner.cache.record_extra_hit();
                }
                let resp = QueryResponse {
                    request: reqs[b.key_slots[i] as usize],
                    cached: true,
                    coalesced: false,
                    service_us: service_us(),
                    ..hit.clone() // contract-ok: refcount bump; warm responses are arena-backed, no owned heap buffers
                };
                inner.finish(&resp);
                b.out[b.key_slots[i] as usize] = Some(resp);
            }
        } else {
            b.pending.push(kx as u32); // contract-ok: pooled buffer retains warm capacity across batches; growth is cold (alloc-gated)
        }
        let ns = lap(&mut last);
        b.charge(kx, Stage::CacheLookup, ns);
    }

    // Snapshot-and-join rounds. A leader computes and publishes the
    // moment it joins; followers are only collected. A key that meets a
    // newer-epoch flight (an install raced this round's snapshot) rides
    // into the next round — with no second counted cache lookup, since
    // pass 1 already counted its miss.
    while !b.pending.is_empty() {
        let (search, epoch) = inner.snapshot();
        let ns = lap(&mut last);
        for i in 0..b.pending.len() {
            let kx = b.pending[i] as usize;
            b.charge(kx, Stage::Snapshot, ns);
        }
        b.stale.clear();
        for i in 0..b.pending.len() {
            let kx = b.pending[i] as usize;
            let req = b.keys[kx];
            let key = key_of(&req);
            let role = inner.join_flight(key, epoch);
            let ns = lap(&mut last);
            b.charge(kx, Stage::Snapshot, ns);
            match role {
                Role::Leader(flight) => {
                    // The guard poisons and removes the flight if the
                    // kernel panics, so no follower waits forever.
                    let guard = FlightGuard {
                        inner,
                        key,
                        flight,
                        published: false,
                    };
                    let summary = if Inner::servable(&req, &search) {
                        // The worker's workspace provides every scratch
                        // buffer and its arena the result storage;
                        // nothing is allocated once both are warm.
                        let edges = search.significant_community_arena(
                            req.q,
                            req.alpha as usize,
                            req.beta as usize,
                            req.algo,
                            &mut k.ws,
                            &mut k.arena,
                        );
                        CommunitySummary::from_arena_edges(search.graph(), edges, &mut k.ws)
                    } else {
                        CommunitySummary::empty()
                    };
                    let ns = lap(&mut last);
                    b.charge(kx, Stage::Kernel, ns);
                    let resp = QueryResponse {
                        request: req,
                        summary,
                        cached: false,
                        coalesced: false,
                        epoch,
                        service_us: service_us(),
                    };
                    let slots = b.slots(kx);
                    publish_unit(
                        inner,
                        guard,
                        resp,
                        t0,
                        reqs,
                        &b.key_slots[slots],
                        &mut b.out,
                    );
                    let ns = lap(&mut last);
                    b.charge(kx, Stage::Publish, ns);
                }
                Role::Follower(flight) => b.followers.push((flight, kx as u32)), // contract-ok: pooled buffer retains warm capacity across batches; growth is cold (alloc-gated)
                Role::StaleSnapshot => b.stale.push(kx as u32), // contract-ok: pooled buffer retains warm capacity across batches; growth is cold (alloc-gated)
            }
        }
        std::mem::swap(&mut b.pending, &mut b.stale);
    }

    // Every leader of every round is published above before we wait on
    // anyone else's flight, so two workers serving each other's keys
    // can never deadlock on one another.
    for f in 0..b.followers.len() {
        let kx = b.followers[f].1 as usize;
        let req = b.keys[kx];
        let shared = b.followers[f]
            .0
            .wait()
            .unwrap_or_else(|| panic!("in-flight leader for {req:?} panicked before publishing"));
        // A coalesced request's kernel stage is the wait on the
        // leader's computation — that is where its time went.
        let ns = lap(&mut last);
        b.charge(kx, Stage::Kernel, ns);
        for (j, i) in b.slots(kx).enumerate() {
            if j > 0 {
                // Pass 1 counted one miss for this key; its duplicates
                // waited on the same flight and are accounted like the
                // extra followers they are.
                inner.cache.record_extra_miss();
            }
            let resp = QueryResponse {
                request: reqs[b.key_slots[i] as usize],
                cached: false,
                coalesced: true,
                service_us: service_us(),
                ..shared.clone() // contract-ok: refcount bump; warm responses are arena-backed, no owned heap buffers
            };
            // ordering: Relaxed — independent statistic; pairs with nothing.
            inner.coalesced.fetch_add(1, Ordering::Relaxed);
            inner.finish(&resp);
            b.out[b.key_slots[i] as usize] = Some(resp);
        }
        let ns = lap(&mut last);
        b.charge(kx, Stage::Publish, ns);
    }
    b.followers.clear();

    let mut responses = inner.resp_pool.take();
    for (resp, stages) in b.out.drain(..).zip(&b.stages) {
        let resp = resp.expect("every batch slot answered");
        // contract-ok: warm pooled buffer; growth is cold
        b.traces.push(stages.trace(&resp, prov, 0));
        responses.push(resp); // contract-ok: pooled buffer retains warm capacity across batches; growth is cold (alloc-gated)
    }
    (responses, last)
}

/// N requests served by one worker with amortized snapshot, cache and
/// workspace handling, answered as one vector in request order. A
/// per-request submission is a job of one.
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
    /// out of the per-shard vectors — a refcount bump for arena-backed
    /// summaries — and every buffer returns to its owning shard's pool.
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
/// just powers of two). Deliberately a *different* mixer family than
/// the `DefaultHasher` (SipHash) inside [`ShardedCache`], so
/// engine-shard routing cannot correlate with cache-sub-shard
/// placement and concentrate one shard's keys onto one cache slice —
/// regression-tested by `router_and_cache_hashes_decorrelate`.
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
/// on other platforms it is a no-op — sharding still isolates queues,
/// caches and arenas.
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
    /// identical — which is what lets `install` return *the* new epoch
    /// and flights/caches reason about "the" current epoch per key.
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
    coalesced: u64,
    batches: u64,
    batched: u64,
    cache: CacheStats,
    epoch: u64,
    service: HistSnapshot,
    telem: TelemetrySnapshot,
    scratch_bytes: usize,
    arena_bytes: usize,
    allocs_avoided: u64,
    arena_recycled: u64,
    per_shard: Vec<ShardStats>,
    slow: Vec<SlowQuery>,
}

impl EngineCore {
    fn aggregate(&self) -> Agg {
        let mut agg = Agg {
            workers: 0,
            completed: 0,
            coalesced: 0,
            batches: 0,
            batched: 0,
            cache: CacheStats {
                hits: 0,
                misses: 0,
                entries: 0,
                capacity: 0,
                shards: 0,
                evictions: 0,
                invalidated: 0,
            },
            epoch: 0,
            service: HistSnapshot::empty(),
            telem: TelemetrySnapshot::empty(),
            scratch_bytes: 0,
            arena_bytes: 0,
            allocs_avoided: 0,
            arena_recycled: 0,
            per_shard: Vec::with_capacity(self.shards.len()),
            slow: Vec::new(),
        };
        for (i, inner) in self.shards.iter().enumerate() {
            // ordering: Relaxed — statistics reads; the counters are
            // independent and stats() promises no cross-counter snapshot.
            let completed = inner.completed.load(Ordering::Relaxed);
            let coalesced = inner.coalesced.load(Ordering::Relaxed);
            let cache = inner.cache.stats();
            let hist = inner.hist.snapshot();
            agg.workers += inner.workers;
            agg.completed += completed;
            agg.coalesced += coalesced;
            // ordering: Relaxed — statistics reads, as above.
            agg.batches += inner.batches.load(Ordering::Relaxed);
            agg.batched += inner.batched.load(Ordering::Relaxed);
            agg.cache.hits += cache.hits;
            agg.cache.misses += cache.misses;
            agg.cache.entries += cache.entries;
            agg.cache.capacity += cache.capacity;
            agg.cache.shards += cache.shards;
            agg.cache.evictions += cache.evictions;
            agg.cache.invalidated += cache.invalidated;
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
                agg.arena_bytes += s.arena_bytes.load(Ordering::Relaxed);
                agg.allocs_avoided += s.allocs_avoided.load(Ordering::Relaxed);
                agg.arena_recycled += s.arena_recycled.load(Ordering::Relaxed);
            }
            agg.per_shard.push(ShardStats {
                shard: i,
                workers: inner.workers,
                completed,
                coalesced,
                cache_hits: cache.hits,
                cache_misses: cache.misses,
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
        let arena_slab_edges = config.arena_slab_edges.max(1);
        // Each shard gets a slice of the configured cache budget, so
        // the engine-wide capacity keeps its meaning across shard
        // counts (± the per-slice ≥-1-entry floor).
        let slice_capacity = (config.cache_capacity / n_shards).max(1);
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
                cache: ShardedCache::new(slice_capacity, config.cache_shards),
                inflight: Mutex::new(HashMap::new()),
                queue: JobQueue::new(),
                hist: LatencyHistogram::default(),
                completed: AtomicU64::new(0),
                coalesced: AtomicU64::new(0),
                batches: AtomicU64::new(0),
                batched: AtomicU64::new(0),
                scratch: (0..workers).map(|_| ScratchSlot::default()).collect(),
                reply_pool: ArcPool::new(),
                flight_pool: ArcPool::new(),
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
                            // The worker's compute state and job scratch,
                            // reused across every job it serves and across
                            // index epoch swaps (buffers simply grow on the
                            // first query against a larger installed graph).
                            // After warm-up the steady-state serving path
                            // stops allocating.
                            let mut state = WorkerState {
                                kernel: KernelState {
                                    ws: QueryWorkspace::new(),
                                    arena: ResultArena::with_slab_capacity(arena_slab_edges),
                                },
                                batch: BatchScratch::default(),
                            };
                            while let Some(job) = inner.queue.pop() {
                                // Backstop: a panic in query code must not
                                // shrink the pool. The flight guard has
                                // already poisoned its key's followers;
                                // abandoning the reply cell makes the
                                // submitter's wait() fail loudly, and the
                                // job records no trace (the completed
                                // counter skips it too). A submitter that
                                // dropped its handle just doesn't collect
                                // the result.
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
                                // see this worker's workspace and arena.
                                let k = &state.kernel;
                                let slot = &inner.scratch[i];
                                // ordering: Relaxed — gauge stores; the
                                // reply-cell mutex handoff that follows
                                // publishes them to the submitter.
                                slot.bytes.store(k.ws.heap_bytes(), Ordering::Relaxed);
                                slot.arena_bytes
                                    .store(k.arena.resident_bytes(), Ordering::Relaxed);
                                slot.allocs_avoided
                                    // ordering: Relaxed — as above.
                                    .store(k.ws.allocations_avoided(), Ordering::Relaxed);
                                slot.arena_recycled
                                    // ordering: Relaxed — as above.
                                    .store(k.arena.stats().recycled, Ordering::Relaxed);
                                inner.req_pool.put(job.reqs);
                                let Ok((responses, reply_start)) = served else {
                                    respond_and_pool(&inner.reply_pool, job.reply, None, || {});
                                    continue;
                                };
                                // Answer and pool the cell in one step (the
                                // submitter's handle keeps it unissuable
                                // until wait() is done), then close every
                                // member's trace with the reply window.
                                let traces = &mut state.batch.traces;
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

    /// Enqueues a whole batch as **one** job: one queue round-trip, one
    /// index-snapshot read, one cache lookup per unique key, and one
    /// kernel call per leader. The handle yields every response in
    /// submission order; results are identical to submitting each
    /// request on its own.
    ///
    /// With more than one shard the batch is partitioned by the shard
    /// router into per-shard sub-batches — each rides the machinery
    /// above on its own shard (one job and one snapshot read *per
    /// shard*), and the handle merges the answers back into submission
    /// order. Each per-shard sub-batch counts one `batches` job in the
    /// stats, so a cross-shard batch over k shards bumps `batches` by
    /// k; the per-request counters (hits, misses, coalesced, completed)
    /// stay submission-mode-invariant because routing is a pure
    /// function of the key.
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
        // order inside each shard (so each shard's dedup/counting sees
        // exactly the subsequence a per-shard submitter would send).
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

    /// Installs a new index snapshot without stopping the workers: bumps
    /// the epoch and invalidates the result cache. Queries already
    /// computing finish on the snapshot they started with (tagged with
    /// the prior epoch). Dropping the cached responses releases their
    /// arena handles, freeing the backing slabs for recycling once no
    /// client holds a response either.
    ///
    /// With multiple shards the install fans out: every shard gets the
    /// new `Arc` replica, bumps its epoch and clears its cache slice,
    /// shard by shard, and the call returns only once the last shard
    /// has published. Installs are serialized against each other, so
    /// all shards step through the same epoch sequence — a mixed-epoch
    /// window exists only *across* shards mid-install, never within
    /// one, and per-key consistency (one key, one shard) is untouched.
    pub fn install(&self, search: Arc<CommunitySearch>) -> u64 {
        let _serial = self.core.install_lock.lock().unwrap();
        let mut epoch = 0;
        for inner in &self.core.shards {
            let mut guard = inner.search.write().unwrap();
            guard.0 = search.clone();
            guard.1 += 1;
            epoch = guard.1;
            // Clear under the write lock: leaders re-check the epoch
            // before caching, so no stale entry can land after this.
            inner.cache.clear();
            drop(guard);
            // Free pooled flights may still hold responses published
            // to now-departed followers; drop them with the cache so
            // their arena slabs recycle too.
            inner.sweep_flights();
            inner.telemetry.note_install();
        }
        epoch
    }

    /// The current `(index snapshot, epoch)` pair (shard 0's replica —
    /// identical across shards outside an in-progress install).
    pub fn current_index(&self) -> (Arc<CommunitySearch>, u64) {
        self.core.shards[0].snapshot()
    }

    /// Number of leader computations currently registered in the
    /// in-flight tables, summed over shards — a diagnostic for tests
    /// and monitoring: at quiescence (no request outstanding anywhere)
    /// this must be 0, or a flight leaked.
    pub fn inflight_len(&self) -> usize {
        self.core
            .shards
            .iter()
            .map(|inner| inner.inflight.lock().unwrap().len())
            .sum()
    }

    /// Metrics snapshot since engine start, aggregated across shards:
    /// every total keeps its unsharded meaning (counters sum,
    /// histograms merge, the cache section is the union of the
    /// slices), and `per_shard` carries one row per shard for
    /// imbalance diagnostics.
    pub fn stats(&self) -> ServiceStats {
        let agg = self.core.aggregate();
        let elapsed = self.core.started.elapsed().as_secs_f64().max(1e-9);
        ServiceStats {
            workers: agg.workers,
            completed: agg.completed,
            coalesced: agg.coalesced,
            batches: agg.batches,
            batched: agg.batched,
            cache: agg.cache,
            epoch: agg.epoch,
            installs: agg.telem.installs,
            stale_publishes: agg.telem.stale_publishes,
            qps: agg.completed as f64 / elapsed,
            mean_us: agg.service.mean_us(),
            p50_us: agg.service.quantile_us(0.50),
            p90_us: agg.service.quantile_us(0.90),
            p99_us: agg.service.quantile_us(0.99),
            max_us: agg.service.max_us(),
            scratch_bytes: agg.scratch_bytes,
            arena_bytes: agg.arena_bytes,
            allocs_avoided: agg.allocs_avoided,
            arena_recycled: agg.arena_recycled,
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
    /// Point-in-time fields (workers, epoch, cache residency/capacity,
    /// scratch/arena residency, the cumulative `allocs_avoided` /
    /// `arena_recycled` reuse counters) and the slow-query ring report
    /// current values — residency and worst-ever requests have no
    /// meaningful delta.
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
            || agg.coalesced < base.coalesced
            || agg.batches < base.batches
            || agg.batched < base.batched
            || agg.cache.hits < base.cache_hits
            || agg.cache.misses < base.cache_misses
            || agg.cache.evictions < base.cache_evictions
            || agg.cache.invalidated < base.cache_invalidated;
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
            coalesced: agg.coalesced.saturating_sub(base.coalesced),
            batches: agg.batches.saturating_sub(base.batches),
            batched: agg.batched.saturating_sub(base.batched),
            cache: CacheStats {
                hits: agg.cache.hits.saturating_sub(base.cache_hits),
                misses: agg.cache.misses.saturating_sub(base.cache_misses),
                evictions: agg.cache.evictions.saturating_sub(base.cache_evictions),
                invalidated: agg.cache.invalidated.saturating_sub(base.cache_invalidated),
                ..agg.cache
            },
            epoch: agg.epoch,
            installs: d_telem.installs,
            stale_publishes: d_telem.stale_publishes,
            qps: d_completed as f64 / secs.max(1e-9),
            mean_us: d_service.mean_us(),
            p50_us: d_service.quantile_us(0.50),
            p90_us: d_service.quantile_us(0.90),
            p99_us: d_service.quantile_us(0.99),
            max_us: d_service.max_us(),
            scratch_bytes: agg.scratch_bytes,
            arena_bytes: agg.arena_bytes,
            allocs_avoided: agg.allocs_avoided,
            arena_recycled: agg.arena_recycled,
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
            coalesced: agg.coalesced,
            batches: agg.batches,
            batched: agg.batched,
            cache_hits: agg.cache.hits,
            cache_misses: agg.cache.misses,
            cache_evictions: agg.cache.evictions,
            cache_invalidated: agg.cache.invalidated,
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
    use scs::Algorithm;

    fn engine(workers: usize) -> QueryEngine {
        QueryEngine::start(
            CommunitySearch::shared(figure2_example()),
            ServiceConfig {
                workers,
                cache_capacity: 64,
                cache_shards: 4,
                ..ServiceConfig::default()
            },
        )
    }

    #[test]
    fn serves_and_caches() {
        let e = engine(2);
        let q = e.current_index().0.graph().upper(2);
        let req = QueryRequest::new(q, 2, 2, Algorithm::Peel);
        let first = e.query(req);
        assert!(!first.cached);
        assert_eq!(first.summary.size(), 4);
        assert_eq!(first.summary.min_weight, Some(13.0));
        let second = e.query(req);
        assert!(second.cached);
        assert_eq!(second.summary, first.summary);
        let st = e.stats();
        assert_eq!(st.completed, 2);
        assert_eq!(st.cache.hits, 1);
        assert!(st.scratch_bytes > 0, "worker workspace must be resident");
        e.shutdown();
    }

    #[test]
    fn arena_bytes_published_before_reply() {
        // PR 4 regression class: scratch accounting must be visible to
        // a submitter the moment its blocking query returns — now for
        // the arena too, not just the workspace.
        let e = engine(1);
        let q = e.current_index().0.graph().upper(2);
        e.query(QueryRequest::new(q, 2, 2, Algorithm::Peel));
        let st = e.stats();
        assert!(st.scratch_bytes > 0, "workspace bytes not published");
        assert!(
            st.arena_bytes > 0,
            "arena bytes must be published before the reply"
        );
        // The leader's summary is arena-backed.
        let resp = e.query(QueryRequest::new(q, 1, 1, Algorithm::Peel));
        assert!(matches!(
            resp.summary.store(),
            crate::EdgeStore::Arena(a) if a.pinned()
        ));
        e.shutdown();
    }

    #[test]
    fn algorithms_share_one_answer() {
        // Every algorithm returns the same community, so requests that
        // differ only in `algo` share one cache entry; each response
        // still carries its own request.
        let e = engine(1);
        let q = e.current_index().0.graph().upper(2);
        let peel = QueryRequest::new(q, 2, 2, Algorithm::Peel);
        let auto = QueryRequest::new(q, 2, 2, Algorithm::Auto);
        let a = e.query(peel);
        let b = e.query(auto);
        assert!(!a.cached);
        assert!(b.cached, "Auto must hit the entry Peel computed");
        assert_eq!(a.request, peel);
        assert_eq!(b.request, auto);
        assert_eq!(a.summary, b.summary);
        let st = e.stats();
        assert_eq!((st.cache.misses, st.cache.hits), (1, 1));
        e.shutdown();
    }

    #[test]
    fn install_bumps_epoch_and_invalidates() {
        let e = engine(2);
        let q = e.current_index().0.graph().upper(2);
        let req = QueryRequest::new(q, 2, 2, Algorithm::Auto);
        let before = e.query(req);
        assert_eq!(before.epoch, 0);
        let epoch = e.install(CommunitySearch::shared(figure2_example()));
        assert_eq!(epoch, 1);
        let after = e.query(req);
        assert!(!after.cached, "install must invalidate the cache");
        assert_eq!(after.epoch, 1);
        assert_eq!(after.summary, before.summary);
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
        assert_eq!(bad.summary, crate::CommunitySummary::empty());
        // Zero degree constraint (the index asserts ≥ 1): also empty.
        let q = e.current_index().0.graph().upper(2);
        let zero = e.query(QueryRequest::new(q, 0, 2, Algorithm::Peel));
        assert_eq!(zero.summary, crate::CommunitySummary::empty());
        // The pool is still alive and serving real queries.
        let good = e.query(QueryRequest::new(q, 2, 2, Algorithm::Peel));
        assert_eq!(good.summary.size(), 4);
        e.shutdown();
    }

    #[test]
    fn batch_answers_in_submission_order_and_dedups() {
        let e = engine(2);
        let g = e.current_index().0.graph().clone();
        let q = g.upper(2);
        let other = g.upper(0);
        let reqs = vec![
            QueryRequest::new(q, 2, 2, Algorithm::Peel),
            QueryRequest::new(other, 1, 1, Algorithm::Peel),
            QueryRequest::new(q, 2, 2, Algorithm::Peel), // in-batch duplicate
            QueryRequest::new(q, 2, 2, Algorithm::Expand), // same key: algo is not part of it
        ];
        let resps = e.query_batch(&reqs);
        assert_eq!(resps.len(), 4);
        for (req, resp) in reqs.iter().zip(&resps) {
            assert_eq!(resp.request, *req, "answers must keep submission order");
        }
        assert_eq!(resps[0].summary.size(), 4);
        assert_eq!(resps[0].summary, resps[2].summary);
        assert!(!resps[0].cached && !resps[0].coalesced);
        for dup in [2, 3] {
            assert!(
                resps[dup].cached && !resps[dup].coalesced,
                "duplicate key inside a batch is answered like a serial \
                 resubmission: a cache hit on the leader's fresh result"
            );
            assert_eq!(resps[dup].summary, resps[0].summary);
        }
        let st = e.stats();
        assert_eq!(st.completed, 4);
        assert_eq!(st.batches, 1);
        assert_eq!(st.batched, 4);
        assert_eq!(st.coalesced, 0);
        // 2 unique keys miss; each duplicate slot counts as the hit a
        // per-request resubmission would have been.
        assert_eq!(st.cache.misses, 2);
        assert_eq!(st.cache.hits, 2);
        assert_eq!(
            st.cache.hits + st.cache.misses,
            st.completed,
            "every request accounts for exactly one lookup"
        );

        // A second identical batch is all cache hits — one physical
        // lookup per unique key, one *counted* per request.
        let again = e.query_batch(&reqs);
        for (a, b) in resps.iter().zip(&again) {
            assert!(b.cached);
            assert_eq!(a.summary, b.summary);
        }
        let st = e.stats();
        assert_eq!(st.cache.hits, 6);
        assert_eq!(st.completed, 8);
        assert_eq!(st.cache.hits + st.cache.misses, st.completed);
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
        e.shutdown();
        e2.shutdown();
    }

    #[test]
    fn batch_counters_match_per_request_submission() {
        // The same request stream with duplicates and repeats, served
        // one-by-one and as one batch on fresh engines, must produce
        // identical ServiceStats — the submission-mode invariance the
        // batch path promises.
        // Few enough unique keys that the 64-entry cache retains them
        // all — the stated precondition of counter invariance (under
        // mid-batch eviction the batch path still answers correctly
        // but may count a duplicate as the hit the entry was when the
        // leader cached it, where per-request resubmission would have
        // missed the evicted key and recomputed).
        let per_request = engine(2);
        let g = per_request.current_index().0.graph().clone();
        let mut reqs: Vec<QueryRequest> = (0..g.n_upper().min(12))
            .map(|i| QueryRequest::new(g.upper(i), 2, 2, Algorithm::Peel))
            .collect();
        reqs.push(reqs[0]); // duplicate of a computed key
        reqs.push(reqs[1]);
        for r in &reqs {
            per_request.query(*r);
        }
        let a = per_request.stats();
        per_request.shutdown();

        let batched = engine(2);
        batched.query_batch(&reqs);
        let b = batched.stats();
        batched.shutdown();

        assert_eq!(a.completed, b.completed);
        assert_eq!(a.cache.hits, b.cache.hits, "hit counters drifted");
        assert_eq!(a.cache.misses, b.cache.misses, "miss counters drifted");
        assert_eq!(a.coalesced, b.coalesced, "coalesced counters drifted");
        assert_eq!(b.cache.hits + b.cache.misses, b.completed);
    }

    #[test]
    fn mixed_algorithm_batch_answers_every_slot_in_order() {
        // Every algorithm in one batch: requests that differ only in
        // `algo` share a key, so the first one's leader answers the
        // rest, and every slot must still be answered in order.
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
        // All algorithms agree on the answer, so every response of one
        // vertex matches regardless of which algorithm computed it.
        for chunk in resps.chunks(4) {
            assert_eq!(chunk[0].summary, resps[0].summary);
        }
        assert_eq!(e.inflight_len(), 0);
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
        assert_eq!(resps[0].summary, crate::CommunitySummary::empty());
        assert_eq!(resps[1].summary, crate::CommunitySummary::empty());
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
        assert!(!after[0].cached, "install must invalidate the cache");
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
        // One worker, and the shard's in-flight lock held: the worker
        // blocks in `join_flight`, so the answer cannot arrive in time.
        let e = engine(1);
        let search = e.current_index().0;
        let g = search.graph();
        let a = QueryRequest::new(g.upper(2), 2, 2, Algorithm::Peel);
        let b = QueryRequest::new(g.upper(0), 1, 1, Algorithm::Peel);
        let oracle = |r: QueryRequest| {
            CommunitySummary::from_subgraph(&search.significant_community(
                r.q,
                r.alpha as usize,
                r.beta as usize,
                r.algo,
            ))
        };
        assert_ne!(oracle(a), oracle(b), "a stale answer must be visible");
        let shard = &e.core.shards[0];
        let blocked = shard.inflight.lock().unwrap();
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
        assert_eq!(resp.summary, oracle(b));
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
    fn router_and_cache_hashes_decorrelate() {
        // Keys uniform over vertices must land near-uniform over the
        // joint (engine shard × cache sub-shard) grid: if the two hash
        // families correlated, one engine shard's keys would pile onto
        // few cache sub-shards and its slice would degrade to a couple
        // of lock-contended LRU lists. Tested for a power-of-two and a
        // prime engine-shard count.
        const N: usize = 80_000;
        const CACHE_SHARDS: usize = 16;
        let cache: ShardedCache<QueryKey, ()> = ShardedCache::new(1024, CACHE_SHARDS);
        for &n_shards in &[4usize, 7] {
            let mut grid = vec![vec![0u32; CACHE_SHARDS]; n_shards];
            for v in 0..N as u32 {
                let req = QueryRequest::new(Vertex(v), 2, 2, Algorithm::Peel);
                grid[route_of(req.q, n_shards)][cache.shard_index(&key_of(&req))] += 1;
            }
            let expect = (N / (n_shards * CACHE_SHARDS)) as u32;
            for (s, row) in grid.iter().enumerate() {
                // Engine-shard marginal: each shard gets ~1/n of keys.
                let row_total: u32 = row.iter().sum();
                let row_expect = (N / n_shards) as u32;
                assert!(
                    row_total > row_expect / 2 && row_total < row_expect * 2,
                    "engine shard {s}/{n_shards} got {row_total} of {N} keys"
                );
                // Joint cells: no cache sub-shard starves or floods
                // within any engine shard.
                for (c, &count) in row.iter().enumerate() {
                    assert!(
                        count > expect / 2 && count < expect * 2,
                        "cell (engine {s}, cache {c}) got {count}, expected ~{expect}"
                    );
                }
            }
        }
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
    fn sharded_engine_serves_and_aggregates() {
        let e = QueryEngine::start(
            CommunitySearch::shared(figure2_example()),
            ServiceConfig {
                workers: 4,
                shards: 3,
                cache_capacity: 768,
                cache_shards: 4,
                ..ServiceConfig::default()
            },
        );
        let g = e.current_index().0.graph().clone();
        // 120 unique keys ≪ capacity: every shard slice retains its
        // whole key share — this test is about routing/aggregation,
        // not eviction (cache.rs covers that).
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
            assert!(!resp.cached);
        }
        // Per-request resubmission hits the same shard's cache slice.
        for (req, first) in reqs.iter().zip(&batched) {
            let again = e.query(*req);
            assert!(again.cached, "{req:?} routed away from its cache entry");
            assert_eq!(again.summary, first.summary);
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
        assert_eq!(st.cache.hits + st.cache.misses, st.completed);
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
        assert!(!after.cached, "install must clear every cache slice");
        assert_eq!(after.epoch, 1);
        assert_eq!(after.summary, batched[0].summary);
        assert_eq!(e.inflight_len(), 0);
        e.shutdown();
    }

    #[test]
    fn sharded_engine_matches_unsharded_bit_identically() {
        // The quick in-module version of tests/shard_oracle.rs: same
        // requests, 1 vs 3 shards, identical summaries and flags.
        let sharded = QueryEngine::start(
            CommunitySearch::shared(figure2_example()),
            ServiceConfig {
                workers: 3,
                shards: 3,
                cache_capacity: 64,
                cache_shards: 4,
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
            assert_eq!(
                (x.cached, x.coalesced, x.epoch),
                (y.cached, y.coalesced, y.epoch),
                "{req:?} flags diverged under sharding"
            );
        }
        let (sa, sb) = (sharded.stats(), unsharded.stats());
        assert_eq!(sa.completed, sb.completed);
        assert_eq!(sa.coalesced, sb.coalesced);
        assert_eq!(
            (sa.cache.hits, sa.cache.misses),
            (sb.cache.hits, sb.cache.misses),
            "counters drifted between sharded and unsharded"
        );
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
        // Baseline leaders on a 900-edge graph take well over the 1 µs
        // the ring needs to retain an entry.
        let mut sizes = std::collections::HashMap::new();
        for i in 0..8 {
            let q = e.current_index().0.graph().upper(i);
            let resp = e.query(QueryRequest::new(q, 2, 2, Algorithm::Baseline));
            assert!(!resp.cached && !resp.coalesced, "every request leads");
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
            cached: false,
            coalesced: false,
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
