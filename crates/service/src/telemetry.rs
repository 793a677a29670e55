//! Zero-allocation service telemetry: per-stage latency attribution,
//! per-algorithm × per-stage lock-free histograms, a fixed-capacity
//! slow-query ring, and machine-readable exporters (Prometheus text,
//! schema-versioned bench JSON).
//!
//! ## Design constraints
//!
//! The serving hot path proves **zero heap allocations per warm
//! query** (`tests/alloc_free_service.rs`), and telemetry is on by
//! default — so every recording structure is preallocated at engine
//! construction and every record operation is a handful of relaxed
//! atomic adds (histograms) or a bounded seqlock write (slow-query
//! ring). Reading — snapshots, quantiles, exporters — may allocate; it
//! happens off the hot path, in `stats()` / `render_metrics()` callers.
//!
//! ## Stage attribution
//!
//! A request's end-to-end latency (enqueue → reply handed back) is
//! split into engine stages ([`Stage`]). The request's timeline is cut
//! into **contiguous windows**: each starts where the previous one
//! ended — queue wait, the snapshot read, the answer, the publish and
//! finally the reply. Each window is charged, in nanoseconds, to the
//! request's [`StageSet`], so its stages tile its total to within
//! per-stage truncation (≤ 1µs per recorded stage — asserted by
//! `tests/telemetry_stress.rs`). A trace is recorded once the response
//! is in the reply slot and before the submitter wakes, so a submitter
//! whose wait returned finds its request recorded, and a request that
//! panicked records nothing.

use crate::stats::{HistSnapshot, LatencyHistogram, ServiceStats};
use crate::QueryResponse;
use scs::Algorithm;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of fixed stages every request's latency is split into.
pub const N_STAGES: usize = 6;

/// Number of algorithms telemetry is keyed by (the
/// [`Algorithm::ALL`] order).
pub const N_ALGOS: usize = Algorithm::ALL.len();

/// Dense rank of an algorithm in [`Algorithm::ALL`] — the index into
/// every per-algorithm telemetry array.
pub fn algo_rank(algo: Algorithm) -> usize {
    match algo {
        Algorithm::Auto => 0,
        Algorithm::Peel => 1,
        Algorithm::Expand => 2,
        Algorithm::Binary => 3,
        Algorithm::Baseline => 4,
    }
}

/// One fixed stage of a request's lifetime. Also the index into
/// per-stage arrays (`stage as usize`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Enqueue to dequeue: time spent waiting for a worker.
    QueueWait = 0,
    /// Reading the epoch-consistent index snapshot.
    Snapshot = 1,
    /// The request's [`scs::CommunitySearch::answer`] call: a class
    /// lookup, or the (α,β) profile build for the first request at
    /// that (α,β) per snapshot.
    Kernel = 2,
    /// Building the response and counting it.
    Publish = 3,
    /// Handing the response back to the submitter.
    Reply = 4,
    /// Admission → engine enqueue on the network front end: the tenant
    /// quota and pending-budget checks in [`crate::server`], then the
    /// hand-off to the engine on the connection thread. Only the
    /// network front end records it — the in-process path never touches
    /// this stage, so the zero-allocation warm-path proof is unchanged.
    Accept = 5,
}

impl Stage {
    /// Every stage, in array-index order.
    pub const ALL: [Stage; N_STAGES] = [
        Stage::QueueWait,
        Stage::Snapshot,
        Stage::Kernel,
        Stage::Publish,
        Stage::Reply,
        Stage::Accept,
    ];

    /// Canonical machine name — used as the Prometheus `stage` label,
    /// the JSON key, and the stats-table row header.
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Snapshot => "snapshot",
            Stage::Kernel => "kernel",
            Stage::Publish => "publish",
            Stage::Reply => "reply",
            Stage::Accept => "accept",
        }
    }

    fn bit(self) -> u8 {
        1 << (self as usize)
    }
}

/// Five-number latency summary derived from one histogram snapshot —
/// the building block of [`ServiceStats`]' stage and algorithm tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Samples summarised.
    pub count: u64,
    /// Mean, µs.
    pub mean_us: f64,
    /// Interpolated median, µs.
    pub p50_us: u64,
    /// Interpolated 99th percentile, µs.
    pub p99_us: u64,
    /// Maximum, µs.
    pub max_us: u64,
}

impl LatencySummary {
    /// The all-zero summary.
    pub fn empty() -> Self {
        LatencySummary {
            count: 0,
            mean_us: 0.0,
            p50_us: 0,
            p99_us: 0,
            max_us: 0,
        }
    }
}

/// Per-algorithm latency: end-to-end summary plus the per-stage split.
/// A row counts the requests that *named* its algorithm; every request
/// is answered from the same threshold profile, whatever it named.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlgoStats {
    /// Which algorithm.
    pub algo: Algorithm,
    /// End-to-end latency (enqueue → recorded) of requests that named
    /// this algorithm.
    pub total: LatencySummary,
    /// Per-stage summaries, indexed by [`Stage`]. A stage's count can
    /// be below `total.count`: only stages a request actually passed
    /// through are recorded (an accept window only on the network path).
    pub stages: [LatencySummary; N_STAGES],
}

impl AlgoStats {
    /// The empty stats row for `algo`.
    pub fn empty(algo: Algorithm) -> Self {
        AlgoStats {
            algo,
            total: LatencySummary::empty(),
            stages: [LatencySummary::empty(); N_STAGES],
        }
    }
}

/// One retained worst-case request, as read back from the slow-query
/// ring: the full key, answer size and stage breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowQuery {
    /// Query vertex (raw id).
    pub q: u32,
    /// α degree constraint.
    pub alpha: u32,
    /// β degree constraint.
    pub beta: u32,
    /// Second-step algorithm.
    pub algo: Algorithm,
    /// Index epoch that served it.
    pub epoch: u64,
    /// Edges in the answer.
    pub result_edges: u64,
    /// End-to-end latency, µs.
    pub total_us: u64,
    /// Per-stage attribution, µs, indexed by [`Stage`]. Stages the
    /// request never entered are 0.
    pub stages_us: [u64; N_STAGES],
}

impl fmt::Display for SlowQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}µs q={} (α={},β={}) algo={} epoch={}",
            self.total_us,
            self.q,
            self.alpha,
            self.beta,
            self.algo.name(),
            self.epoch,
        )?;
        write!(f, " result_edges={}", self.result_edges)?;
        for stage in Stage::ALL {
            write!(f, " {}={}", stage.name(), self.stages_us[stage as usize])?;
        }
        Ok(())
    }
}

/// Everything [`Telemetry::record`] needs about one completed request.
/// Built on the stack from a [`StageSet`] (engine hot path — no
/// allocation).
#[derive(Debug, Clone, Copy)]
pub struct RequestTrace {
    /// Query vertex (raw id).
    pub q: u32,
    /// α degree constraint.
    pub alpha: u32,
    /// β degree constraint.
    pub beta: u32,
    /// Second-step algorithm.
    pub algo: Algorithm,
    /// Index epoch that served it.
    pub epoch: u64,
    /// Edges in the answer.
    pub result_edges: u64,
    /// End-to-end latency, µs.
    pub total_us: u64,
    /// Per-stage attribution, µs.
    pub stages_us: [u64; N_STAGES],
    /// Bitmask of stages the request actually passed through — only
    /// these are recorded into the per-stage histograms, so a 0µs
    /// snapshot read still counts while an absent accept stage does not.
    pub touched: u8,
}

impl RequestTrace {
    /// Completes a trace assembled before its reply: attributes the
    /// reply window and sets the end-to-end total, both µs.
    pub fn close(&mut self, reply_us: u64, total_us: u64) {
        self.stages_us[Stage::Reply as usize] = reply_us;
        self.touched |= Stage::Reply.bit();
        self.total_us = total_us;
    }
}

/// One request's stage attribution. The engine charges each window of
/// the request's timeline to it ([`Self::add_ns`]);
/// synthetic traces set whole stages ([`Self::set`]). Stages are kept
/// in nanoseconds and truncated to µs once, in [`Self::trace`], so a
/// fully tiled request's stage sum reconciles with its total to within
/// 1µs per touched stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageSet {
    stages_ns: [u64; N_STAGES],
    touched: u8,
}

impl StageSet {
    /// No stages attributed yet.
    pub fn new() -> Self {
        StageSet::default()
    }

    /// Attributes `us` microseconds to `stage` (marking it touched —
    /// call with 0 for a stage that ran but took under a microsecond).
    pub fn set(&mut self, stage: Stage, us: u64) -> &mut Self {
        self.stages_ns[stage as usize] = us.saturating_mul(1_000);
        self.touched |= stage.bit();
        self
    }

    /// Adds one window of `ns` nanoseconds to `stage`, marking it
    /// touched. A stage charged several windows sums them.
    pub fn add_ns(&mut self, stage: Stage, ns: u64) -> &mut Self {
        self.stages_ns[stage as usize] += ns;
        self.touched |= stage.bit();
        self
    }

    /// Assembles the trace for the request `resp` answers.
    pub fn trace(&self, resp: &QueryResponse, total_us: u64) -> RequestTrace {
        let req = &resp.request;
        RequestTrace {
            q: req.q.0,
            alpha: req.alpha,
            beta: req.beta,
            algo: req.algo,
            epoch: resp.epoch,
            result_edges: resp.summary.size() as u64,
            total_us,
            stages_us: self.stages_ns.map(|ns| ns / 1_000),
            touched: self.touched,
        }
    }
}

/// The engine's preallocated telemetry plane: per-algorithm end-to-end
/// and per-stage histograms, the slow-query ring, and event counters.
/// Recording ([`Self::record`]) is lock-free and allocation-free;
/// reading allocates and belongs in stats/exporter paths.
#[derive(Debug)]
pub struct Telemetry {
    stage_hists: [[LatencyHistogram; N_STAGES]; N_ALGOS],
    total_hists: [LatencyHistogram; N_ALGOS],
    ring: SlowRing,
    installs: AtomicU64,
}

impl Telemetry {
    /// Allocates every recording structure up front. `slow_ring_capacity`
    /// is the number of worst-case requests retained (0 disables the
    /// ring; recording then skips it entirely).
    pub fn new(slow_ring_capacity: usize) -> Self {
        Telemetry {
            stage_hists: std::array::from_fn(|_| {
                std::array::from_fn(|_| LatencyHistogram::default())
            }),
            total_hists: std::array::from_fn(|_| LatencyHistogram::default()),
            ring: SlowRing::new(slow_ring_capacity),
            installs: AtomicU64::new(0),
        }
    }

    /// Records one completed request: its end-to-end latency into the
    /// per-algorithm histogram, each touched stage into the
    /// per-algorithm × per-stage histogram, and an offer to the
    /// slow-query ring. Atomic adds and a bounded seqlock write — no
    /// locks, no allocation.
    // scs-contract: no-alloc, no-block — recording sits on every
    // request's exit path: atomic adds and a bounded seqlock write only.
    pub fn record(&self, t: &RequestTrace) {
        let a = algo_rank(t.algo);
        self.total_hists[a].record(t.total_us);
        for stage in Stage::ALL {
            if t.touched & stage.bit() != 0 {
                self.stage_hists[a][stage as usize].record(t.stages_us[stage as usize]);
            }
        }
        self.ring.offer(t);
    }

    /// Counts one index install (epoch retirement).
    // scs-contract: no-alloc, no-block
    pub fn note_install(&self) {
        // ordering: Relaxed — independent statistic; pairs with nothing,
        // snapshot tolerates being a few counts behind.
        self.installs.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of every histogram and counter (not the ring
    /// — see [`Self::slow_queries`]).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            stage: self
                .stage_hists
                .each_ref()
                .map(|row| row.each_ref().map(LatencyHistogram::snapshot)),
            total: self.total_hists.each_ref().map(LatencyHistogram::snapshot),
            // ordering: Relaxed — statistics read; the counter is
            // independent, no cross-field consistency is promised.
            installs: self.installs.load(Ordering::Relaxed),
        }
    }

    /// The retained worst requests, worst-first. Allocates the output
    /// vector — reading belongs off the hot path.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        let mut out = Vec::with_capacity(self.ring.capacity());
        self.ring.snapshot_into(&mut out);
        out
    }

    /// Records one network-front-end accept window (admission →
    /// engine enqueue) into the per-algorithm [`Stage::Accept`]
    /// histogram. The end-to-end total histogram is untouched — the
    /// engine records that when the request completes, and double
    /// counting would skew every quantile. Only [`crate::server`] calls
    /// this; the in-process path never records the stage, so the warm
    /// leader path's zero-allocation proof is unaffected.
    pub fn record_accept(&self, algo: Algorithm, accept_us: u64) {
        // contract-ok: `algo_rank` is below N_ALGOS and every stage below N_STAGES
        self.stage_hists[algo_rank(algo)][Stage::Accept as usize].record(accept_us);
    }

    /// Starts a fresh slow-query window: clears every ring slot and
    /// re-arms the reject threshold (see [`SlowRing::reset_window`]).
    /// Called by the engine's windowed stats rollover so a fast window
    /// after a slow warmup still captures its own spikes.
    pub fn reset_slow_window(&self) {
        self.ring.reset_window();
    }
}

/// Plain-value copy of a [`Telemetry`]'s histograms and counters:
/// subtractable for windowed stats, and the input of the exporters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// `stage[algo_rank][stage]` histograms.
    pub stage: [[HistSnapshot; N_STAGES]; N_ALGOS],
    /// Per-algorithm end-to-end latency histograms.
    pub total: [HistSnapshot; N_ALGOS],
    /// Index installs so far.
    pub installs: u64,
}

impl TelemetrySnapshot {
    /// The all-zero snapshot (the baseline of the first window).
    pub fn empty() -> Self {
        TelemetrySnapshot {
            stage: [[HistSnapshot::empty(); N_STAGES]; N_ALGOS],
            total: [HistSnapshot::empty(); N_ALGOS],
            installs: 0,
        }
    }

    /// `self − prev`: the telemetry recorded between two snapshots.
    pub fn delta(&self, prev: &TelemetrySnapshot) -> TelemetrySnapshot {
        TelemetrySnapshot {
            stage: std::array::from_fn(|a| {
                std::array::from_fn(|s| self.stage[a][s].delta(&prev.stage[a][s]))
            }),
            total: std::array::from_fn(|a| self.total[a].delta(&prev.total[a])),
            installs: self.installs.saturating_sub(prev.installs),
        }
    }

    /// True when `self` cannot be a later observation of the same
    /// monotone counters as `baseline`: some histogram bucket, count or
    /// sum, or a plain counter, went backwards. See
    /// [`HistSnapshot::regressed_from`] — the windowed-stats rollover
    /// uses this to resnapshot instead of computing a nonsense
    /// saturated delta.
    pub fn regressed_from(&self, baseline: &TelemetrySnapshot) -> bool {
        for a in 0..N_ALGOS {
            if self.total[a].regressed_from(&baseline.total[a]) {
                return true;
            }
            for s in 0..N_STAGES {
                if self.stage[a][s].regressed_from(&baseline.stage[a][s]) {
                    return true;
                }
            }
        }
        self.installs < baseline.installs
    }

    /// Per-stage summaries aggregated over every algorithm (the stats
    /// table's stage-breakdown section).
    pub fn stage_summaries(&self) -> [LatencySummary; N_STAGES] {
        std::array::from_fn(|s| {
            let mut merged = HistSnapshot::empty();
            for a in 0..N_ALGOS {
                merged = merged.merge(&self.stage[a][s]);
            }
            merged.summary()
        })
    }

    /// Per-algorithm stats rows, in [`Algorithm::ALL`] order.
    pub fn algo_stats(&self) -> [AlgoStats; N_ALGOS] {
        std::array::from_fn(|a| AlgoStats {
            algo: Algorithm::ALL[a],
            total: self.total[a].summary(),
            stages: std::array::from_fn(|s| self.stage[a][s].summary()),
        })
    }
}

/// One slow-query ring slot: a seqlock (even `seq` = stable, odd =
/// being written) around relaxed plain-value fields. `total_us == 0`
/// means the slot has never been filled.
#[derive(Debug)]
struct RingSlot {
    seq: AtomicU64,
    total_us: AtomicU64,
    /// `q << 32 | alpha`.
    lo: AtomicU64,
    /// `beta << 32 | algo`.
    mid: AtomicU64,
    epoch: AtomicU64,
    result_edges: AtomicU64,
    stages: [AtomicU64; N_STAGES],
}

impl RingSlot {
    fn new() -> Self {
        RingSlot {
            seq: AtomicU64::new(0),
            total_us: AtomicU64::new(0),
            lo: AtomicU64::new(0),
            mid: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            result_edges: AtomicU64::new(0),
            stages: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Fixed-capacity lock-free "keep the K worst" ring. Writers replace
/// the current minimum when they beat it; a cached copy of that
/// minimum makes the common case (request not slow enough) one relaxed
/// load. Insertion is best-effort under contention: a writer that
/// loses its CAS race a few times drops its offer rather than spin —
/// the ring is diagnostics, not accounting, and under a race the slot
/// was just taken by a comparably slow request.
#[derive(Debug)]
struct SlowRing {
    slots: Box<[RingSlot]>,
    /// Lower bound on the smallest retained `total_us` (0 while any
    /// slot is empty or a write is in flight) — the reject fast path.
    threshold: AtomicU64,
}

impl SlowRing {
    fn new(capacity: usize) -> Self {
        SlowRing {
            slots: (0..capacity).map(|_| RingSlot::new()).collect(),
            threshold: AtomicU64::new(0),
        }
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    // scs-contract: no-alloc, no-block — the writer side of the seqlock
    // ring runs on every request's exit path; only `snapshot_into` (not
    // under contract) may allocate.
    fn offer(&self, t: &RequestTrace) {
        if self.slots.is_empty() || t.total_us == 0 {
            return;
        }
        // ordering: Relaxed — `threshold` is a monotone hint, not a gate;
        // a stale read only costs a redundant scan below.
        if t.total_us <= self.threshold.load(Ordering::Relaxed) {
            return;
        }
        let lo = (u64::from(t.q) << 32) | u64::from(t.alpha);
        let mid = (u64::from(t.beta) << 32) | algo_rank(t.algo) as u64;
        for _attempt in 0..4 {
            // Victim: the stable slot holding the smallest total.
            let mut min_i = usize::MAX;
            let mut min_total = u64::MAX;
            for (i, s) in self.slots.iter().enumerate() {
                // ordering: Acquire on `seq` pairs with the Release
                // publish in `offer`; an even value makes the writer's
                // stores below visible to this scan.
                if s.seq.load(Ordering::Acquire) & 1 == 1 {
                    continue;
                }
                // ordering: Relaxed — ordered by the Acquire `seq` load
                // above; the CAS re-validates the victim anyway.
                let st = s.total_us.load(Ordering::Relaxed);
                if st < min_total {
                    min_total = st;
                    min_i = i;
                }
            }
            if min_i == usize::MAX {
                return; // every slot mid-write; drop the offer
            }
            if t.total_us <= min_total {
                // The ring already retains K requests at least this
                // slow; remember that so future offers reject in one
                // load.
                // ordering: Relaxed — hint store; see the fast-path load.
                self.threshold.store(min_total, Ordering::Relaxed);
                return;
            }
            let s = &self.slots[min_i];
            // ordering: Acquire pairs with the Release publish so the
            // stability re-check below sees the victim's settled fields.
            let seq = s.seq.load(Ordering::Acquire);
            // ordering: Relaxed re-check — ordered by the Acquire above.
            if seq & 1 == 1 || s.total_us.load(Ordering::Relaxed) != min_total {
                continue; // raced; re-scan
            }
            // ordering: Acquire on success pairs with the previous
            // writer's Release publish of `seq`; Relaxed on failure —
            // a lost race just re-scans.
            if s.seq
                .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            // Regression note: without the fence below the data stores
            // could be reordered ahead of the odd-sequence announcement
            // on weakly-ordered hardware, letting a concurrent reader
            // pass its seq1 == seq2 check while observing a half-written
            // slot — exactly the torn read the seqlock exists to prevent
            // (modelled by `Seqlock::buggy()` in scs-interleave, caught
            // by TSan on the nightly job).
            //
            // ordering: Release fence pairs with the readers' Acquire
            // loads of `seq` (in `read_slot` and the victim scan): the
            // odd `seq` from the CAS above must become visible before
            // any of the Relaxed data stores below.
            std::sync::atomic::fence(Ordering::Release);
            // ordering: Relaxed data stores — fenced off from the odd
            // `seq` above and published by the Release store below.
            s.total_us.store(t.total_us, Ordering::Relaxed);
            s.lo.store(lo, Ordering::Relaxed);
            s.mid.store(mid, Ordering::Relaxed);
            s.epoch.store(t.epoch, Ordering::Relaxed);
            s.result_edges.store(t.result_edges, Ordering::Relaxed);
            for (slot, &us) in s.stages.iter().zip(t.stages_us.iter()) {
                // ordering: Relaxed — same data-store batch as above.
                slot.store(us, Ordering::Relaxed);
            }
            // ordering: Release publish pairs with readers' Acquire
            // loads of `seq`, sealing the data stores above.
            s.seq.store(seq + 2, Ordering::Release);
            self.refresh_threshold();
            return;
        }
    }

    // scs-contract: no-alloc, no-block — runs inside `offer`.
    fn refresh_threshold(&self) {
        let mut min = u64::MAX;
        for s in &self.slots {
            // ordering: Acquire on `seq` pairs with the Release publish
            // in `offer`, ordering the `total_us` load below.
            if s.seq.load(Ordering::Acquire) & 1 == 1 {
                // A write is in flight; its final total is unknown, so
                // publish the conservative "accept everything" bound.
                // ordering: Relaxed — hint store; see the fast path.
                self.threshold.store(0, Ordering::Relaxed);
                return;
            }
            // ordering: Relaxed — ordered by the Acquire `seq` load.
            min = min.min(s.total_us.load(Ordering::Relaxed));
        }
        if min != u64::MAX {
            // ordering: Relaxed — `threshold` is only a reject hint.
            self.threshold.store(min, Ordering::Relaxed);
        }
    }

    /// Window rollover: clears every slot through the regular seqlock
    /// writer protocol and drops the reject threshold back to 0.
    ///
    /// Without this the threshold is a one-way ratchet: `offer` only
    /// ever raises it (to the ring's current minimum), so after a slow
    /// warmup fills the ring with multi-millisecond entries, a
    /// subsequent fast window — whose worst requests are genuinely slow
    /// *for that window* but under the stale bound — records nothing,
    /// forever. Resetting the threshold alone would not fix it: the
    /// first post-reset `offer` re-scans the (still slow) slots and
    /// re-raises the bound, so the slots must be cleared too. A slot
    /// mid-write is skipped — its writer's entry legitimately belongs
    /// to the closing window's tail and will age out on the next reset.
    fn reset_window(&self) {
        for s in &self.slots {
            // ordering: Acquire pairs with the writers' Release publish;
            // an even `seq` means the slot is stable and claimable.
            let seq = s.seq.load(Ordering::Acquire);
            if seq & 1 == 1 {
                continue;
            }
            // Claim the slot exactly like `offer` does so concurrent
            // writers/readers observe a normal write cycle.
            // ordering: Acquire on success pairs with the prior writer's
            // Release publish; Relaxed on failure — a lost race means a
            // concurrent writer owns the slot, skip it.
            if s.seq
                .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            // ordering: Release fence before the data stores, exactly as
            // in `offer` — the odd `seq` must be visible before the
            // cleared fields.
            std::sync::atomic::fence(Ordering::Release);
            // ordering: Relaxed data stores — sealed by the Release
            // publish below. `total_us == 0` marks the slot empty.
            s.total_us.store(0, Ordering::Relaxed);
            s.lo.store(0, Ordering::Relaxed);
            s.mid.store(0, Ordering::Relaxed);
            s.epoch.store(0, Ordering::Relaxed);
            s.result_edges.store(0, Ordering::Relaxed);
            for slot in &s.stages {
                // ordering: Relaxed — same data-store batch as above.
                slot.store(0, Ordering::Relaxed);
            }
            // ordering: Release publish pairs with readers' Acquire
            // loads of `seq`.
            s.seq.store(seq + 2, Ordering::Release);
        }
        // ordering: Relaxed — `threshold` is only a reject hint; 0
        // accepts everything until the ring refills.
        self.threshold.store(0, Ordering::Relaxed);
    }

    // scs-contract: no-alloc, no-block — the reader side of the seqlock:
    // bounded retries, no locks, plain loads into stack storage.
    fn read_slot(s: &RingSlot) -> Option<SlowQuery> {
        for _ in 0..8 {
            // ordering: Acquire `seq` pairs with the writer's Release
            // publish in `offer`; the data loads below happen-after.
            let seq = s.seq.load(Ordering::Acquire);
            if seq & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            // ordering: Relaxed data loads — bracketed by the Acquire
            // `seq` load above and the Acquire fence + re-check below.
            let total_us = s.total_us.load(Ordering::Relaxed);
            let lo = s.lo.load(Ordering::Relaxed);
            let mid = s.mid.load(Ordering::Relaxed);
            let epoch = s.epoch.load(Ordering::Relaxed);
            let result_edges = s.result_edges.load(Ordering::Relaxed);
            let mut stages_us = [0u64; N_STAGES];
            for (out, slot) in stages_us.iter_mut().zip(s.stages.iter()) {
                // ordering: Relaxed — same data-load batch as above.
                *out = slot.load(Ordering::Relaxed);
            }
            // ordering: Acquire fence pairs with the writer's Release
            // fence after its odd CAS — the `seq` re-check below may be
            // Relaxed because the fence orders it after the data loads.
            std::sync::atomic::fence(Ordering::Acquire);
            if s.seq.load(Ordering::Relaxed) != seq {
                continue; // torn read; retry
            }
            if total_us == 0 {
                return None; // never filled
            }
            return Some(SlowQuery {
                q: (lo >> 32) as u32,
                alpha: lo as u32,
                beta: (mid >> 32) as u32,
                algo: Algorithm::ALL[(mid & 0xff) as usize % N_ALGOS], // contract-ok: reduced modulo N_ALGOS
                epoch,
                result_edges,
                total_us,
                stages_us,
            });
        }
        None
    }

    fn snapshot_into(&self, out: &mut Vec<SlowQuery>) {
        for s in self.slots.iter() {
            if let Some(q) = Self::read_slot(s) {
                out.push(q);
            }
        }
        out.sort_by_key(|q| std::cmp::Reverse(q.total_us));
    }
}

// ─── Prometheus text exposition ──────────────────────────────────────

/// Renders the engine's metrics in Prometheus text exposition format
/// (version 0.0.4): every counter in the stats table, the residency
/// gauges, and the per-algorithm / per-algorithm×stage latency
/// histograms with cumulative `le` buckets ending in `+Inf`. Bucket
/// lists are trimmed to the highest occupied bucket (plus `+Inf`), so
/// quiet series stay small; differing `le` sets across series of one
/// family are valid exposition.
pub fn render_prometheus(stats: &ServiceStats, telem: &TelemetrySnapshot) -> String {
    let mut out = String::with_capacity(16 * 1024);
    let mut counter = |name: &str, help: &str, v: u64| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
        ));
    };
    counter(
        "scs_requests_total",
        "Requests completed since engine start.",
        stats.completed,
    );
    counter(
        "scs_installs_total",
        "Index installs (epoch retirements).",
        telem.installs,
    );
    counter(
        "scs_allocs_avoided_total",
        "Scratch-buffer acquisitions served from resident workspace memory.",
        stats.allocs_avoided,
    );
    counter(
        "scs_admission_admitted_total",
        "Requests admitted past the network front end's pending budget and quotas.",
        stats.admission.admitted,
    );
    counter(
        "scs_admission_served_total",
        "Admitted requests whose reply was written back to the client.",
        stats.admission.served,
    );
    counter(
        "scs_admission_shed_total",
        "Requests shed with 429 because the pending budget was exhausted.",
        stats.admission.shed,
    );
    counter(
        "scs_admission_quota_rejected_total",
        "Requests rejected with 429 by a per-tenant token-bucket quota.",
        stats.admission.quota_rejected,
    );
    counter(
        "scs_admission_shed_after_admit_total",
        "Admitted requests whose reply was never delivered (reply timeout, shutdown or dead socket).",
        stats.admission.shed_after_admit,
    );
    let mut gauge = |name: &str, help: &str, v: u64| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
        ));
    };
    gauge(
        "scs_workers",
        "Worker threads serving the queue.",
        stats.workers as u64,
    );
    gauge("scs_index_epoch", "Current index epoch.", stats.epoch);
    gauge(
        "scs_scratch_resident_bytes",
        "Resident bytes of reusable query workspaces.",
        stats.scratch_bytes as u64,
    );

    out.push_str(
        "# HELP scs_request_duration_us End-to-end request latency (enqueue to reply), microseconds.\n\
         # TYPE scs_request_duration_us histogram\n",
    );
    for (algo, total) in Algorithm::ALL.iter().zip(&telem.total) {
        let labels = format!("algo=\"{}\"", algo.name());
        render_histogram(&mut out, "scs_request_duration_us", &labels, total);
    }
    out.push_str(
        "# HELP scs_stage_duration_us Per-stage request latency attribution, microseconds.\n\
         # TYPE scs_stage_duration_us histogram\n",
    );
    for (algo, stages) in Algorithm::ALL.iter().zip(&telem.stage) {
        for (stage, h) in Stage::ALL.iter().zip(stages) {
            let labels = format!("algo=\"{}\",stage=\"{}\"", algo.name(), stage.name());
            render_histogram(&mut out, "scs_stage_duration_us", &labels, h);
        }
    }
    out
}

fn render_histogram(out: &mut String, name: &str, labels: &str, h: &HistSnapshot) {
    let top = (0..HistSnapshot::N_BUCKETS)
        .rev()
        .find(|&i| h.bucket_count(i) > 0);
    let mut cum = 0u64;
    if let Some(top) = top {
        for i in 0..=top {
            cum += h.bucket_count(i);
            match HistSnapshot::bucket_upper_edge(i) {
                Some(le) => out.push_str(&format!("{name}_bucket{{{labels},le=\"{le}\"}} {cum}\n")),
                None => break, // top bucket folds into +Inf below
            }
        }
    }
    out.push_str(&format!(
        "{name}_bucket{{{labels},le=\"+Inf\"}} {}\n{name}_sum{{{labels}}} {}\n{name}_count{{{labels}}} {}\n",
        h.count(),
        h.sum_us(),
        h.count()
    ));
}

/// Validates Prometheus text exposition: parseable lines, legal metric
/// and label names, no unnamed or duplicate series, a `# TYPE` for
/// every sample's family, and well-formed histograms (ascending `le`,
/// non-decreasing cumulative counts, a `+Inf` bucket equal to
/// `_count`). Used by the CLI before writing `--metrics-out` and by CI.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    use std::collections::{HashMap, HashSet};
    let mut types: HashMap<String, String> = HashMap::new();
    let mut seen: HashSet<String> = HashSet::new();
    // (family, labels-minus-le) → ascending (le, cumulative) pairs.
    let mut buckets: HashMap<(String, String), Vec<(f64, f64)>> = HashMap::new();
    let mut counts: HashMap<(String, String), f64> = HashMap::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let err = |msg: &str| Err(format!("line {}: {msg}: {raw}", ln + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (Some(name), Some(ty)) = (it.next(), it.next()) else {
                return err("malformed TYPE comment");
            };
            if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&ty) {
                return err("unknown metric type");
            }
            if types.insert(name.to_string(), ty.to_string()).is_some() {
                return err("duplicate TYPE for family");
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        let (name, labels, value) =
            parse_sample(line).map_err(|m| format!("line {}: {m}: {raw}", ln + 1))?;
        if value.is_nan() {
            return err("NaN sample value");
        }
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| {
                name.strip_suffix(suf)
                    .filter(|base| types.get(*base).map(String::as_str) == Some("histogram"))
            })
            .unwrap_or(&name)
            .to_string();
        if !types.contains_key(&family) {
            return err("sample without a # TYPE for its family");
        }
        let mut sorted = labels.clone();
        sorted.sort();
        let series_id = format!("{name}{{{}}}", sorted.join(","));
        if !seen.insert(series_id) {
            return err("duplicate series");
        }
        let le = labels.iter().find_map(|l| l.strip_prefix("le=\""));
        let others: Vec<&String> = labels.iter().filter(|l| !l.starts_with("le=\"")).collect();
        let key = (
            family.clone(),
            others
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join(","),
        );
        if name.ends_with("_bucket") && types.get(&family).map(String::as_str) == Some("histogram")
        {
            let Some(le) = le else {
                return err("histogram bucket without an le label");
            };
            let le = le.trim_end_matches('"');
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse::<f64>()
                    .map_err(|_| format!("line {}: unparseable le value: {raw}", ln + 1))?
            };
            buckets.entry(key).or_default().push((le, value));
        } else if name.ends_with("_count")
            && types.get(&family).map(String::as_str) == Some("histogram")
        {
            counts.insert(key, value);
        }
    }
    for ((family, labels), series) in &buckets {
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_v = 0.0f64;
        for &(le, v) in series {
            if le <= prev_le {
                return Err(format!(
                    "histogram {family}{{{labels}}}: le values not ascending"
                ));
            }
            if v < prev_v {
                return Err(format!(
                    "histogram {family}{{{labels}}}: cumulative counts decrease"
                ));
            }
            prev_le = le;
            prev_v = v;
        }
        let Some(&(last_le, last_v)) = series.last() else {
            continue;
        };
        if last_le != f64::INFINITY {
            return Err(format!(
                "histogram {family}{{{labels}}}: missing +Inf bucket"
            ));
        }
        match counts.get(&(family.clone(), labels.clone())) {
            Some(&c) if c == last_v => {}
            Some(_) => {
                return Err(format!(
                    "histogram {family}{{{labels}}}: +Inf bucket != _count"
                ))
            }
            None => return Err(format!("histogram {family}{{{labels}}}: missing _count")),
        }
    }
    Ok(())
}

/// Parses one sample line into `(name, labels, value)`. Labels are
/// returned as raw `key="value"` strings.
fn parse_sample(line: &str) -> Result<(String, Vec<String>, f64), String> {
    fn is_name_char(c: char, first: bool) -> bool {
        c.is_ascii_alphabetic() || c == '_' || c == ':' || (!first && c.is_ascii_digit())
    }
    let mut chars = line.char_indices().peekable();
    let mut name_end = 0;
    for (i, c) in chars.by_ref() {
        if is_name_char(c, i == 0) {
            name_end = i + c.len_utf8();
        } else {
            break;
        }
    }
    if name_end == 0 {
        return Err("unnamed series (sample without a metric name)".into());
    }
    let name = &line[..name_end];
    let rest = &line[name_end..];
    let (labels, rest) = if let Some(inner) = rest.strip_prefix('{') {
        let close = inner.find('}').ok_or("unterminated label set")?;
        let body = &inner[..close];
        let mut labels = Vec::new();
        for part in body.split(',').filter(|p| !p.is_empty()) {
            let (k, v) = part.split_once('=').ok_or("label without =")?;
            if k.is_empty() || !k.chars().enumerate().all(|(i, c)| is_name_char(c, i == 0)) {
                return Err("illegal label name".into());
            }
            if !v.starts_with('"') || !v.ends_with('"') || v.len() < 2 {
                return Err("unquoted label value".into());
            }
            labels.push(part.to_string());
        }
        (labels, &inner[close + 1..])
    } else {
        (Vec::new(), rest)
    };
    let mut fields = rest.split_whitespace();
    let value = fields.next().ok_or("sample without a value")?;
    let value = if value == "+Inf" {
        f64::INFINITY
    } else if value == "-Inf" {
        f64::NEG_INFINITY
    } else {
        value
            .parse::<f64>()
            .map_err(|_| "unparseable sample value")?
    };
    if fields.next().is_some() {
        return Err("unexpected trailing token (timestamps not emitted)".into());
    }
    Ok((name.to_string(), labels, value))
}

// ─── Bench JSON (schema-versioned perf trajectory) ───────────────────

/// Schema identifier stamped into every `BENCH_service.json`.
pub const BENCH_SCHEMA: &str = "scs-bench-service/v4";

/// Workload and run parameters recorded alongside the measured stats
/// in `BENCH_service.json`, so a trajectory of artifacts is
/// self-describing.
#[derive(Debug, Clone)]
pub struct BenchMeta<'a> {
    /// Dataset path or name the workload was built from.
    pub dataset: &'a str,
    /// Worker threads.
    pub threads: usize,
    /// Measured queries (excluding warmup).
    pub queries: usize,
    /// Warmup queries replayed before the measured window.
    pub warmup: usize,
    /// Client threads replaying.
    pub clients: usize,
    /// α degree constraint.
    pub alpha: usize,
    /// β degree constraint.
    pub beta: usize,
    /// Second-step algorithm.
    pub algo: Algorithm,
    /// Fraction of repeated keys in the workload.
    pub repeat_fraction: f64,
    /// Workload RNG seed.
    pub seed: u64,
    /// Zipf exponent of the key distribution (0 = uniform).
    pub zipf: f64,
    /// Wall-clock seconds of the measured replay.
    pub wall_secs: f64,
}

fn j_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn j_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    format!("{v:.3}")
}

fn j_summary(s: &LatencySummary) -> String {
    format!(
        "{{\"count\":{},\"mean_us\":{},\"p50_us\":{},\"p99_us\":{},\"max_us\":{}}}",
        s.count,
        j_f64(s.mean_us),
        s.p50_us,
        s.p99_us,
        s.max_us
    )
}

fn j_stages(stages: &[LatencySummary; N_STAGES]) -> String {
    let body: Vec<String> = Stage::ALL
        .iter()
        .map(|&st| format!("\"{}\":{}", st.name(), j_summary(&stages[st as usize])))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn j_stats(stats: &ServiceStats) -> String {
    let algos: Vec<String> = stats
        .algos
        .iter()
        .map(|a| {
            format!(
                "\"{}\":{{\"count\":{},\"mean_us\":{},\"p50_us\":{},\"p99_us\":{},\"max_us\":{},\"stages\":{}}}",
                a.algo.name(),
                a.total.count,
                j_f64(a.total.mean_us),
                a.total.p50_us,
                a.total.p99_us,
                a.total.max_us,
                j_stages(&a.stages)
            )
        })
        .collect();
    let slow: Vec<String> = stats
        .slow
        .iter()
        .map(|s| {
            let stages: Vec<String> = Stage::ALL
                .iter()
                .map(|&st| format!("\"{}\":{}", st.name(), s.stages_us[st as usize]))
                .collect();
            format!(
                "{{\"q\":{},\"alpha\":{},\"beta\":{},\"algo\":{},\"epoch\":{},\
                 \"result_edges\":{},\"total_us\":{},\"stages_us\":{{{}}}}}",
                s.q,
                s.alpha,
                s.beta,
                j_escape(s.algo.name()),
                s.epoch,
                s.result_edges,
                s.total_us,
                stages.join(",")
            )
        })
        .collect();
    format!(
        "{{\"workers\":{},\"completed\":{},\"qps\":{},\
         \"latency_us\":{{\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}},\
         \"stages\":{},\"algorithms\":{{{}}},\
         \"events\":{{\"installs\":{},\"epoch\":{}}},\
         \"memory\":{{\"scratch_bytes\":{},\"allocs_avoided\":{}}},\
         \"slow_queries\":[{}]}}",
        stats.workers,
        stats.completed,
        j_f64(stats.qps),
        j_f64(stats.mean_us),
        stats.p50_us,
        stats.p90_us,
        stats.p99_us,
        stats.max_us,
        j_stages(&stats.stages),
        algos.join(","),
        stats.installs,
        stats.epoch,
        stats.scratch_bytes,
        stats.allocs_avoided,
        slow.join(",")
    )
}

/// Renders the schema-versioned `BENCH_service.json` artifact:
/// workload parameters, the cumulative run stats, and the steady-state
/// window ([`crate::QueryEngine::stats_window`] deltas excluding
/// warmup). Pretty-printed for reviewable diffs across PRs.
pub fn render_bench_json(
    meta: &BenchMeta<'_>,
    cumulative: &ServiceStats,
    steady: &ServiceStats,
) -> String {
    let compact = format!(
        "{{\"schema\":{},\"bench\":\"serve-bench\",\
         \"workload\":{{\"dataset\":{},\"threads\":{},\"queries\":{},\
         \"warmup\":{},\"clients\":{},\"alpha\":{},\"beta\":{},\
         \"algo\":{},\"repeat_fraction\":{},\"seed\":{},\"zipf\":{}}},\
         \"wall_secs\":{},\"cumulative\":{},\"steady\":{}}}",
        j_escape(BENCH_SCHEMA),
        j_escape(meta.dataset),
        meta.threads,
        meta.queries,
        meta.warmup,
        meta.clients,
        meta.alpha,
        meta.beta,
        j_escape(meta.algo.name()),
        j_f64(meta.repeat_fraction),
        meta.seed,
        j_f64(meta.zipf),
        j_f64(meta.wall_secs),
        j_stats(cumulative),
        j_stats(steady)
    );
    let value = json_parse(&compact).expect("render_bench_json must emit valid JSON");
    let mut out = String::with_capacity(compact.len() * 2);
    render_pretty(&value, 0, &mut out);
    out.push('\n');
    out
}

fn render_pretty(v: &JsonValue, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let pad_in = "  ".repeat(indent + 1);
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Num(n) => out.push_str(&fmt_num(*n)),
        JsonValue::Str(s) => out.push_str(&j_escape(s)),
        JsonValue::Arr(items) if items.is_empty() => out.push_str("[]"),
        JsonValue::Arr(items) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad_in);
                render_pretty(item, indent + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            out.push_str(&pad);
            out.push(']');
        }
        JsonValue::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
        JsonValue::Obj(pairs) => {
            out.push_str("{\n");
            for (i, (k, val)) in pairs.iter().enumerate() {
                out.push_str(&pad_in);
                out.push_str(&j_escape(k));
                out.push_str(": ");
                render_pretty(val, indent + 1, out);
                out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
            }
            out.push_str(&pad);
            out.push('}');
        }
    }
}

fn fmt_num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

// ─── Minimal JSON parser (std-only; validation of our own artifacts) ──

/// A parsed JSON value. The repo is std-only (no serde), so the bench
/// artifact is validated with this minimal recursive-descent parser —
/// objects keep insertion order, numbers are f64.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The object's fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// Parses a JSON document (strict: one value, no trailing garbage).
pub fn json_parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let val = parse_value(b, pos)?;
                pairs.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number bytes")?;
            s.parse::<f64>()
                .map(JsonValue::Num)
                .map_err(|_| format!("unparseable number {s:?} at byte {start}"))
        }
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("expected {lit} at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = b.get(*pos..*pos + 4).ok_or("truncated \\u escape")?;
                        *pos += 4;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("unknown escape \\{}", esc as char)),
                }
            }
            _ => {
                // Re-sync to the char boundary for multi-byte UTF-8.
                let start = *pos - 1;
                let width = utf8_width(c);
                let end = start + width;
                let s = b.get(start..end).ok_or("truncated UTF-8")?;
                out.push_str(std::str::from_utf8(s).map_err(|_| "invalid UTF-8")?);
                *pos = end;
            }
        }
    }
    Err("unterminated string".into())
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Validates a `BENCH_service.json` document against
/// [`BENCH_SCHEMA`]: schema tag, workload parameters, and — for both
/// the cumulative and steady sections — latency quantiles, every
/// stage summary, per-algorithm p50/p99 with stage breakdowns, and the
/// event and memory counter blocks.
pub fn validate_bench_json(text: &str) -> Result<(), String> {
    let doc = json_parse(text)?;
    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing schema tag")?;
    if schema != BENCH_SCHEMA {
        return Err(format!("schema {schema:?} != {BENCH_SCHEMA:?}"));
    }
    let workload = doc.get("workload").ok_or("missing workload")?;
    workload
        .get("dataset")
        .and_then(JsonValue::as_str)
        .ok_or("workload.dataset missing")?;
    for key in [
        "threads",
        "queries",
        "warmup",
        "clients",
        "alpha",
        "beta",
        "repeat_fraction",
        "seed",
        "zipf",
    ] {
        workload
            .get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("workload.{key} missing or not a number"))?;
    }
    doc.get("wall_secs")
        .and_then(JsonValue::as_f64)
        .ok_or("wall_secs missing")?;
    for section in ["cumulative", "steady"] {
        let s = doc
            .get(section)
            .ok_or_else(|| format!("missing {section} section"))?;
        validate_stats_obj(s).map_err(|e| format!("{section}: {e}"))?;
    }
    Ok(())
}

fn validate_summary_obj(v: &JsonValue) -> Result<(), String> {
    for key in ["count", "mean_us", "p50_us", "p99_us", "max_us"] {
        v.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("summary field {key} missing or not a number"))?;
    }
    Ok(())
}

fn validate_stages_obj(v: &JsonValue) -> Result<(), String> {
    for stage in Stage::ALL {
        let s = v
            .get(stage.name())
            .ok_or_else(|| format!("stage {} missing", stage.name()))?;
        validate_summary_obj(s).map_err(|e| format!("stage {}: {e}", stage.name()))?;
    }
    Ok(())
}

fn validate_stats_obj(v: &JsonValue) -> Result<(), String> {
    for key in ["workers", "completed", "qps"] {
        v.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{key} missing or not a number"))?;
    }
    let lat = v.get("latency_us").ok_or("latency_us missing")?;
    for key in ["mean", "p50", "p90", "p99", "max"] {
        lat.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("latency_us.{key} missing"))?;
    }
    validate_stages_obj(v.get("stages").ok_or("stages missing")?)?;
    let algos = v
        .get("algorithms")
        .and_then(JsonValue::as_obj)
        .ok_or("algorithms missing or not an object")?;
    if algos.is_empty() {
        return Err("algorithms object is empty".into());
    }
    for (name, a) in algos {
        validate_summary_obj(a).map_err(|e| format!("algorithm {name}: {e}"))?;
        validate_stages_obj(
            a.get("stages")
                .ok_or_else(|| format!("algorithm {name}: stages missing"))?,
        )
        .map_err(|e| format!("algorithm {name}: {e}"))?;
    }
    for (block, keys) in [
        ("events", &["installs", "epoch"][..]),
        ("memory", &["scratch_bytes", "allocs_avoided"][..]),
    ] {
        let o = v.get(block).ok_or_else(|| format!("{block} missing"))?;
        for key in keys {
            o.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{block}.{key} missing or not a number"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CacheStats;
    use crate::{CommunitySummary, QueryRequest};
    use bigraph::Vertex;

    /// An empty answer to `q` at (2,3), served at `epoch`.
    fn resp(q: u32, algo: Algorithm, epoch: u64) -> QueryResponse {
        QueryResponse {
            request: QueryRequest {
                q: Vertex(q),
                alpha: 2,
                beta: 3,
                algo,
            },
            summary: CommunitySummary::empty(),
            cached: false,
            coalesced: false,
            epoch,
            service_us: 0,
        }
    }

    fn trace(q: u32, algo: Algorithm, total_us: u64, kernel_us: u64) -> RequestTrace {
        let mut s = StageSet::new();
        s.set(Stage::QueueWait, 1)
            .set(Stage::Snapshot, 0)
            .set(Stage::Kernel, kernel_us);
        s.trace(&resp(q, algo, 7), total_us)
    }

    fn stats_for(telem: &Telemetry) -> ServiceStats {
        let snap = telem.snapshot();
        let total = snap
            .total
            .iter()
            .fold(HistSnapshot::empty(), |acc, h| acc.merge(h));
        ServiceStats {
            workers: 2,
            completed: total.count(),
            coalesced: 0,
            batches: 0,
            batched: 0,
            cache: CacheStats::default(),
            epoch: 7,
            installs: snap.installs,
            qps: 1000.0,
            mean_us: total.mean_us(),
            p50_us: total.quantile_us(0.5),
            p90_us: total.quantile_us(0.9),
            p99_us: total.quantile_us(0.99),
            max_us: total.max_us(),
            scratch_bytes: 4096,
            allocs_avoided: 10,
            admission: crate::stats::AdmissionStats::default(),
            stages: snap.stage_summaries(),
            algos: snap.algo_stats(),
            slow: telem.slow_queries(),
        }
    }

    #[test]
    fn stage_windows_accumulate_in_nanoseconds_and_tile_the_total() {
        // One request's contiguous windows.
        let windows = [
            (Stage::QueueWait, 5_400u64),
            (Stage::Snapshot, 700),
            (Stage::Kernel, 300),
            (Stage::Kernel, 900), // a second window of one stage sums
            (Stage::Publish, 2_000_500),
            (Stage::Publish, 999),
        ];
        let mut s = StageSet::new();
        for (stage, ns) in windows {
            s.add_ns(stage, ns);
        }
        let total_ns: u64 = windows.iter().map(|w| w.1).sum();
        let mut t = s.trace(&resp(3, Algorithm::Peel, 1), total_ns / 1_000);
        assert_eq!((t.q, t.alpha, t.beta), (3, 2, 3));
        assert_eq!(t.stages_us[Stage::QueueWait as usize], 5);
        assert_eq!(t.stages_us[Stage::Kernel as usize], 1);
        assert_eq!(t.stages_us[Stage::Publish as usize], 2_001);
        // A sub-µs window still marks its stage as passed through.
        assert_eq!(t.stages_us[Stage::Snapshot as usize], 0);
        assert_ne!(t.touched & Stage::Snapshot.bit(), 0);
        assert_eq!(t.touched & Stage::Reply.bit(), 0);
        // Truncation happens once per stage: the sum reconciles with
        // the total to ≤1µs per touched stage.
        let touched = 4;
        let sum: u64 = t.stages_us.iter().sum();
        assert!(sum <= t.total_us, "sum {sum} > total {}", t.total_us);
        assert!(
            sum + touched >= t.total_us,
            "sum {sum} + {touched} < total {}",
            t.total_us
        );
        // Closing the trace adds the reply window and the final total.
        t.close(3, t.total_us + 3);
        assert_eq!(t.stages_us[Stage::Reply as usize], 3);
        assert_ne!(t.touched & Stage::Reply.bit(), 0);
        let sum: u64 = t.stages_us.iter().sum();
        assert!(sum <= t.total_us && sum + touched + 1 >= t.total_us);
        // `set` replaces a stage; `add_ns` accumulates onto it.
        s.set(Stage::Kernel, 7).add_ns(Stage::Kernel, 1_000);
        let t = s.trace(&resp(3, Algorithm::Peel, 1), 0);
        assert_eq!(t.stages_us[Stage::Kernel as usize], 8);
    }

    #[test]
    fn record_fills_per_algo_and_per_stage_histograms() {
        let telem = Telemetry::new(4);
        telem.record(&trace(1, Algorithm::Peel, 100, 90));
        telem.record(&trace(2, Algorithm::Peel, 200, 180));
        telem.record(&trace(3, Algorithm::Expand, 50, 40));
        telem.note_install();
        let snap = telem.snapshot();
        assert_eq!(snap.total[algo_rank(Algorithm::Peel)].count(), 2);
        assert_eq!(snap.total[algo_rank(Algorithm::Expand)].count(), 1);
        assert_eq!(snap.total[algo_rank(Algorithm::Auto)].count(), 0);
        assert_eq!(snap.installs, 1);
        // Touched stages (even 0µs ones) are histogrammed; untouched
        // stages are not.
        let peel = &snap.stage[algo_rank(Algorithm::Peel)];
        assert_eq!(peel[Stage::Snapshot as usize].count(), 2);
        assert_eq!(peel[Stage::Kernel as usize].count(), 2);
        assert_eq!(peel[Stage::Reply as usize].count(), 0);
        // Aggregation across algorithms.
        let stages = snap.stage_summaries();
        assert_eq!(stages[Stage::Kernel as usize].count, 3);
        let algos = snap.algo_stats();
        assert_eq!(algos[algo_rank(Algorithm::Peel)].total.count, 2);
        assert_eq!(algos[algo_rank(Algorithm::Peel)].total.max_us, 200);
        // Windowed delta.
        telem.record(&trace(4, Algorithm::Peel, 400, 390));
        let d = telem.snapshot().delta(&snap);
        assert_eq!(d.total[algo_rank(Algorithm::Peel)].count(), 1);
        assert_eq!(d.total[algo_rank(Algorithm::Expand)].count(), 0);
        assert_eq!(d.installs, 0);
    }

    #[test]
    fn ring_retains_the_k_worst() {
        let telem = Telemetry::new(3);
        for (q, us) in [
            (1u32, 50u64),
            (2, 500),
            (3, 10),
            (4, 300),
            (5, 40),
            (6, 900),
        ] {
            telem.record(&trace(q, Algorithm::Auto, us, us));
        }
        let slow = telem.slow_queries();
        assert_eq!(slow.len(), 3);
        let totals: Vec<u64> = slow.iter().map(|s| s.total_us).collect();
        assert_eq!(totals, vec![900, 500, 300]);
        assert_eq!(slow[0].q, 6);
        assert_eq!(slow[0].algo, Algorithm::Auto);
        assert_eq!(slow[0].epoch, 7);
        assert_eq!(slow[0].stages_us[Stage::Kernel as usize], 900);
        // A faster request than the retained minimum is rejected (and
        // exercises the cached-threshold fast path).
        telem.record(&trace(7, Algorithm::Auto, 100, 100));
        assert_eq!(telem.slow_queries().len(), 3);
        assert_eq!(telem.slow_queries()[2].total_us, 300);
        // Capacity 0 disables retention but never panics.
        let off = Telemetry::new(0);
        off.record(&trace(1, Algorithm::Auto, 1000, 900));
        assert!(off.slow_queries().is_empty());
    }

    #[test]
    fn window_reset_rearms_the_ring_for_post_warmup_spikes() {
        // Regression (ISSUE 10, satellite 2): the reject threshold was
        // a one-way ratchet — after a slow warmup filled the ring, a
        // fast window's genuinely-notable spikes fell under the stale
        // bound and were never recorded again.
        let telem = Telemetry::new(3);
        for (q, us) in [(1u32, 10_000u64), (2, 12_000), (3, 14_000)] {
            telem.record(&trace(q, Algorithm::Auto, us, us));
        }
        assert_eq!(telem.slow_queries().len(), 3);
        // Window rollover (stats_window does this).
        telem.reset_slow_window();
        assert!(
            telem.slow_queries().is_empty(),
            "reset must clear the warmup entries"
        );
        // A post-warmup spike far below the warmup latencies must be
        // captured — before the fix the stale threshold rejected it.
        telem.record(&trace(9, Algorithm::Peel, 500, 480));
        let slow = telem.slow_queries();
        assert_eq!(slow.len(), 1, "post-warmup spike lost: {slow:?}");
        assert_eq!(slow[0].q, 9);
        assert_eq!(slow[0].total_us, 500);
        // The ring keeps ranking within the new window.
        telem.record(&trace(10, Algorithm::Peel, 200, 180));
        telem.record(&trace(11, Algorithm::Peel, 900, 880));
        let totals: Vec<u64> = telem.slow_queries().iter().map(|s| s.total_us).collect();
        assert_eq!(totals, vec![900, 500, 200]);
        // Resetting an empty or capacity-0 ring is a no-op.
        telem.reset_slow_window();
        Telemetry::new(0).reset_slow_window();
    }

    #[test]
    fn seqlock_slots_never_tear_under_concurrent_offers() {
        use std::sync::Arc;
        // Every offered trace is self-consistent — `q`, `total_us` and
        // the kernel stage all encode the same value — so a torn read
        // (fields mixed from two different writes) breaks the
        // equations the reader checks. Bounds are small on purpose:
        // the nightly CI job replays this test under Miri, which
        // emulates weak memory but runs orders of magnitude slower
        // than native.
        let ring = Arc::new(SlowRing::new(2));
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 1..=12u64 {
                        let total = i * 100 + w;
                        ring.offer(&trace(total as u32, Algorithm::Peel, total, total));
                    }
                })
            })
            .collect();
        let reader = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                for _ in 0..64 {
                    seen.clear();
                    ring.snapshot_into(&mut seen);
                    for s in &seen {
                        assert_eq!(u64::from(s.q), s.total_us, "torn slot: {s:?}");
                        assert_eq!(
                            s.stages_us[Stage::Kernel as usize],
                            s.total_us,
                            "torn slot: {s:?}"
                        );
                    }
                    std::thread::yield_now();
                }
            })
        };
        for t in writers {
            t.join().unwrap();
        }
        reader.join().unwrap();
        // With the contention over, one more offer from this thread
        // must land deterministically (writes are only best-effort
        // while a race is in flight), and everything retained is
        // self-consistent.
        ring.offer(&trace(9999, Algorithm::Peel, 9999, 9999));
        let mut fin = Vec::new();
        ring.snapshot_into(&mut fin);
        assert_eq!(fin.len(), 2);
        assert_eq!(fin[0].total_us, 9999);
        for s in &fin {
            assert_eq!(u64::from(s.q), s.total_us);
            assert_eq!(s.stages_us[Stage::Kernel as usize], s.total_us);
        }
    }

    #[test]
    fn slow_query_display_is_greppable() {
        let telem = Telemetry::new(1);
        telem.record(&trace(17, Algorithm::Peel, 900, 880));
        let s = telem.slow_queries()[0].to_string();
        assert!(s.contains("q=17"), "{s}");
        assert!(s.contains("algo=peel"), "{s}");
        assert!(s.contains("kernel=880"), "{s}");
    }

    #[test]
    fn prometheus_render_passes_its_own_validator() {
        let telem = Telemetry::new(4);
        for i in 0..50u32 {
            telem.record(&trace(
                i,
                Algorithm::ALL[i as usize % 5],
                10 + 7 * i as u64,
                5,
            ));
        }
        let stats = stats_for(&telem);
        let text = render_prometheus(&stats, &telem.snapshot());
        validate_prometheus(&text).expect("rendered metrics must validate");
        assert!(text.contains("# TYPE scs_requests_total counter"));
        assert!(text.contains("scs_requests_total 50"));
        assert!(text.contains("# TYPE scs_request_duration_us histogram"));
        assert!(text.contains("scs_request_duration_us_bucket{algo=\"peel\",le=\"+Inf\"} 10"));
        assert!(text.contains(
            "scs_stage_duration_us_bucket{algo=\"auto\",stage=\"kernel\",le=\"+Inf\"} 10"
        ));
        assert!(text.contains("scs_stage_duration_us_count{algo=\"auto\",stage=\"queue_wait\"} 10"));
        assert!(text.contains("scs_scratch_resident_bytes 4096"));
        for gone in [
            "scs_cache_",
            "scs_coalesced",
            "scs_arena_",
            "scs_stale_publishes",
            "scs_shard_",
            "scs_batch",
            "cache_lookup",
        ] {
            assert!(!text.contains(gone), "{gone}");
        }
    }

    #[test]
    fn prometheus_validator_rejects_malformed_text() {
        // Valid skeleton.
        let ok = "# TYPE a counter\na 1\n";
        assert!(validate_prometheus(ok).is_ok());
        // Duplicate series.
        let dup = "# TYPE a counter\na 1\na 2\n";
        assert!(validate_prometheus(dup).unwrap_err().contains("duplicate"));
        // Sample without a TYPE.
        let untyped = "b 1\n";
        assert!(validate_prometheus(untyped).is_err());
        // Unnamed sample.
        assert!(validate_prometheus("# TYPE a counter\n{x=\"1\"} 2\n").is_err());
        // Histogram without +Inf.
        let no_inf = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n";
        assert!(validate_prometheus(no_inf).unwrap_err().contains("+Inf"));
        // Histogram with decreasing cumulative counts.
        let dec = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n\
                   h_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n";
        assert!(validate_prometheus(dec).unwrap_err().contains("decrease"));
        // +Inf bucket disagreeing with _count.
        let bad_count = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 4\n";
        assert!(validate_prometheus(bad_count)
            .unwrap_err()
            .contains("_count"));
        // NaN values.
        assert!(validate_prometheus("# TYPE a gauge\na NaN\n").is_err());
    }

    #[test]
    fn bench_json_round_trips_and_validates() {
        let telem = Telemetry::new(4);
        for i in 0..20u32 {
            let mut t = trace(i, Algorithm::ALL[i as usize % 5], 10 + i as u64, 5);
            t.result_edges = u64::from(i) * 3;
            telem.record(&t);
        }
        let stats = stats_for(&telem);
        let meta = BenchMeta {
            dataset: "/tmp/ds/ml.tsv",
            threads: 4,
            queries: 200,
            warmup: 20,
            clients: 2,
            alpha: 2,
            beta: 2,
            algo: Algorithm::Auto,
            repeat_fraction: 0.5,
            seed: 42,
            zipf: 0.0,
            wall_secs: 0.125,
        };
        let text = render_bench_json(&meta, &stats, &stats);
        validate_bench_json(&text).expect("rendered bench JSON must validate");
        let doc = json_parse(&text).unwrap();
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(BENCH_SCHEMA)
        );
        assert_eq!(
            doc.get("workload")
                .and_then(|w| w.get("dataset"))
                .and_then(JsonValue::as_str),
            Some("/tmp/ds/ml.tsv")
        );
        let peel = doc
            .get("steady")
            .and_then(|s| s.get("algorithms"))
            .and_then(|a| a.get("peel"))
            .expect("per-algorithm block");
        assert!(peel.get("p99_us").and_then(JsonValue::as_f64).is_some());
        assert!(peel
            .get("stages")
            .and_then(|s| s.get("kernel"))
            .and_then(|k| k.get("p50_us"))
            .is_some());
        // Each slow-query object reports its answer's size.
        let Some(JsonValue::Arr(slow)) = doc.get("steady").and_then(|s| s.get("slow_queries"))
        else {
            panic!("slow_queries array missing");
        };
        assert_eq!(slow.len(), 4);
        for sq in slow {
            let q = sq.get("q").and_then(JsonValue::as_f64).unwrap();
            let edges = sq.get("result_edges").and_then(JsonValue::as_f64);
            assert_eq!(edges, Some(q * 3.0), "{sq:?}");
        }
        // No block or key of a mechanism the engine no longer has.
        for gone in [
            "batching",
            "shards",
            "batch_size",
            "provenance",
            "cache_lookup",
        ] {
            assert!(!text.contains(gone), "{gone}");
        }
        // Tampering breaks validation.
        let broken = text.replace("\"kernel\"", "\"kernle\"");
        assert!(validate_bench_json(&broken).is_err());
        let wrong_schema = text.replace(BENCH_SCHEMA, "something-else/v9");
        assert!(validate_bench_json(&wrong_schema).is_err());
    }

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(json_parse("{").is_err());
        assert!(json_parse("{}x").is_err());
        assert!(json_parse("{\"a\":}").is_err());
        assert!(json_parse("[1,]").is_err());
        assert!(json_parse("\"\\q\"").is_err());
        assert_eq!(
            json_parse("[1, 2]").unwrap(),
            JsonValue::Arr(vec![JsonValue::Num(1.0), JsonValue::Num(2.0)])
        );
        let v = json_parse("{\"a\": {\"b\": [true, null, \"x\\n\"]}}").unwrap();
        assert_eq!(
            v.get("a").and_then(|a| a.get("b")),
            Some(&JsonValue::Arr(vec![
                JsonValue::Bool(true),
                JsonValue::Null,
                JsonValue::Str("x\n".into())
            ]))
        );
    }
}
