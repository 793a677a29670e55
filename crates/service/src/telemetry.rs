//! Zero-allocation service telemetry: per-stage latency attribution,
//! one lock-free histogram per stage plus one end-to-end histogram, a
//! fixed-capacity slow-query ring (the K worst requests, behind one
//! mutex), and machine-readable exporters (Prometheus text,
//! schema-versioned bench JSON).
//!
//! ## Design constraints
//!
//! The serving hot path proves **zero heap allocations per warm
//! query** (`tests/alloc_free_service.rs`), and telemetry is on by
//! default — so every recording structure is preallocated at engine
//! construction and every record operation is a handful of relaxed
//! atomic adds (histograms) and one relaxed load (the slow-query ring's
//! reject threshold). A request that enters the ring's K worst also
//! takes its lock with `try_lock`, which never waits: if the lock is
//! held the offer is dropped. Reading — snapshots, quantiles, exporters
//! — may allocate; it happens off the hot path, in `stats()` /
//! `render_metrics()` callers.
//!
//! ## Stage attribution
//!
//! A request's end-to-end latency (enqueue → reply handed back) is
//! split into engine stages ([`Stage`]). The request's timeline is cut
//! into **contiguous windows**: each starts where the previous one
//! ended — queue wait, the snapshot read, the answer (response built
//! included) and finally the reply. Each window is charged, in
//! nanoseconds, to the request's [`StageSet`], so its stages tile its
//! total to within per-stage truncation (≤ 1µs per stage — asserted by
//! `tests/telemetry_stress.rs`). Every engine request passes through
//! all four engine stages, so each stage histogram counts every
//! completed request; only the network front end records
//! [`Stage::Accept`]. A trace is recorded once the response is in the
//! reply slot and before the submitter wakes, so a submitter whose wait
//! returned finds its request recorded, and a request that panicked
//! records nothing.

use crate::stats::{HistSnapshot, LatencyHistogram, ServiceStats};
use crate::QueryResponse;
use scs::Algorithm;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError, TryLockError};

/// Number of fixed stages every request's latency is split into.
pub const N_STAGES: usize = 5;

/// One fixed stage of a request's lifetime. Also the index into
/// per-stage arrays (`stage as usize`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Enqueue to dequeue: time spent waiting for a worker.
    QueueWait = 0,
    /// Reading the epoch-consistent index snapshot.
    Snapshot = 1,
    /// The request's [`scs::CommunitySearch::answer`] call — a class
    /// lookup, or the (α,β) profile build for the first request at
    /// that (α,β) per snapshot — and building the response.
    Kernel = 2,
    /// Handing the response back to the submitter.
    Reply = 3,
    /// Admission → engine enqueue on the network front end: the tenant
    /// quota and pending-budget checks in [`crate::server`], then the
    /// hand-off to the engine on the connection thread. Only the
    /// network front end records it — the in-process path never touches
    /// this stage, so the zero-allocation warm-path proof is unchanged.
    Accept = 4,
}

impl Stage {
    /// Every stage, in array-index order.
    pub const ALL: [Stage; N_STAGES] = [
        Stage::QueueWait,
        Stage::Snapshot,
        Stage::Kernel,
        Stage::Reply,
        Stage::Accept,
    ];

    /// The stages every engine request passes through — all but
    /// [`Stage::Accept`].
    pub const ENGINE: [Stage; 4] = [
        Stage::QueueWait,
        Stage::Snapshot,
        Stage::Kernel,
        Stage::Reply,
    ];

    /// Canonical machine name — used as the Prometheus `stage` label,
    /// the JSON key, and the stats-table row header.
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Snapshot => "snapshot",
            Stage::Kernel => "kernel",
            Stage::Reply => "reply",
            Stage::Accept => "accept",
        }
    }
}

/// Five-number latency summary derived from one histogram snapshot —
/// the building block of [`ServiceStats`]' stage table.
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

/// One completed request: its key, answer size and stage breakdown.
/// [`Telemetry::record`] takes it, built on the stack from a
/// [`StageSet`] (engine hot path — no allocation), and the slow-query
/// ring keeps a copy when the request is among the worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTrace {
    /// Query vertex (raw id).
    pub q: u32,
    /// α degree constraint.
    pub alpha: u32,
    /// β degree constraint.
    pub beta: u32,
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

impl fmt::Display for RequestTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}µs q={} (α={},β={}) epoch={}",
            self.total_us, self.q, self.alpha, self.beta, self.epoch,
        )?;
        write!(f, " result_edges={}", self.result_edges)?;
        for stage in Stage::ALL {
            write!(f, " {}={}", stage.name(), self.stages_us[stage as usize])?;
        }
        Ok(())
    }
}

impl RequestTrace {
    /// Completes a trace assembled before its reply: attributes the
    /// reply window and sets the end-to-end total, both µs.
    pub fn close(&mut self, reply_us: u64, total_us: u64) {
        self.stages_us[Stage::Reply as usize] = reply_us;
        self.total_us = total_us;
    }
}

/// One request's stage attribution. The engine charges each window of
/// the request's timeline to it ([`Self::add_ns`]);
/// synthetic traces set whole stages ([`Self::set`]). Stages are kept
/// in nanoseconds and truncated to µs once, in [`Self::trace`], so a
/// fully tiled request's stage sum reconciles with its total to within
/// 1µs per stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageSet {
    stages_ns: [u64; N_STAGES],
}

impl StageSet {
    /// No stages attributed yet.
    pub fn new() -> Self {
        StageSet::default()
    }

    /// Attributes `us` microseconds to `stage`.
    pub fn set(&mut self, stage: Stage, us: u64) -> &mut Self {
        self.stages_ns[stage as usize] = us.saturating_mul(1_000);
        self
    }

    /// Adds one window of `ns` nanoseconds to `stage`. A stage charged
    /// several windows sums them.
    pub fn add_ns(&mut self, stage: Stage, ns: u64) -> &mut Self {
        self.stages_ns[stage as usize] += ns;
        self
    }

    /// Assembles the trace for the request `resp` answers.
    pub fn trace(&self, resp: &QueryResponse, total_us: u64) -> RequestTrace {
        let req = &resp.request;
        RequestTrace {
            q: req.q.0,
            alpha: req.alpha,
            beta: req.beta,
            epoch: resp.epoch,
            result_edges: resp.summary.size() as u64,
            total_us,
            stages_us: self.stages_ns.map(|ns| ns / 1_000),
        }
    }
}

/// The engine's preallocated telemetry plane: one histogram per stage,
/// one end-to-end histogram, the slow-query ring and the install
/// counter. Recording ([`Self::record`]) never blocks and never
/// allocates; reading allocates and belongs in stats/exporter paths.
#[derive(Debug)]
pub struct Telemetry {
    stages: [LatencyHistogram; N_STAGES],
    total: LatencyHistogram,
    ring: SlowRing,
    installs: AtomicU64,
}

impl Telemetry {
    /// Allocates every recording structure up front. `slow_ring_capacity`
    /// is the number of worst-case requests retained (0 disables the
    /// ring; recording then skips it entirely).
    pub fn new(slow_ring_capacity: usize) -> Self {
        Telemetry {
            stages: std::array::from_fn(|_| LatencyHistogram::default()),
            total: LatencyHistogram::default(),
            ring: SlowRing::new(slow_ring_capacity),
            installs: AtomicU64::new(0),
        }
    }

    /// Records one completed engine request: its end-to-end latency,
    /// each of the four engine stages, and an offer to the slow-query
    /// ring. Atomic adds and one relaxed load, plus a `try_lock` and a
    /// copy into preallocated storage for a request among the K worst —
    /// never a wait, never an allocation.
    // scs-contract: no-alloc, no-block — recording sits on every
    // request's exit path.
    pub fn record(&self, t: &RequestTrace) {
        self.total.record(t.total_us);
        for stage in Stage::ENGINE {
            self.stages[stage as usize].record(t.stages_us[stage as usize]);
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
            stages: self.stages.each_ref().map(LatencyHistogram::snapshot),
            total: self.total.snapshot(),
            // ordering: Relaxed — statistics read; the counter is
            // independent, no cross-field consistency is promised.
            installs: self.installs.load(Ordering::Relaxed),
        }
    }

    /// The retained worst requests, worst-first. Allocates the output
    /// vector — reading belongs off the hot path.
    pub fn slow_queries(&self) -> Vec<RequestTrace> {
        let mut out = Vec::with_capacity(self.ring.capacity);
        self.ring.snapshot_into(&mut out);
        out
    }

    /// Records one network-front-end accept window (admission →
    /// engine enqueue) into the [`Stage::Accept`] histogram. The
    /// end-to-end histogram is left alone — the engine records that when
    /// the request completes, and double counting would skew every
    /// quantile. Only [`crate::server`] calls this; the in-process path
    /// never records the stage, so the warm path's zero-allocation
    /// proof is unaffected.
    pub fn record_accept(&self, accept_us: u64) {
        // contract-ok: every stage is below N_STAGES
        self.stages[Stage::Accept as usize].record(accept_us);
    }

    /// Starts a fresh slow-query window: empties the ring and re-arms
    /// the reject threshold (see [`SlowRing::reset_window`]).
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
    /// Per-stage histograms, indexed by [`Stage`].
    pub stages: [HistSnapshot; N_STAGES],
    /// End-to-end latency histogram (enqueue → reply); its count is the
    /// number of completed requests.
    pub total: HistSnapshot,
    /// Index installs so far.
    pub installs: u64,
}

impl TelemetrySnapshot {
    /// The all-zero snapshot (the baseline of the first window).
    pub fn empty() -> Self {
        TelemetrySnapshot {
            stages: [HistSnapshot::empty(); N_STAGES],
            total: HistSnapshot::empty(),
            installs: 0,
        }
    }

    /// `self − prev`: the telemetry recorded between two snapshots.
    pub fn delta(&self, prev: &TelemetrySnapshot) -> TelemetrySnapshot {
        TelemetrySnapshot {
            stages: std::array::from_fn(|s| self.stages[s].delta(&prev.stages[s])),
            total: self.total.delta(&prev.total),
            installs: self.installs.saturating_sub(prev.installs),
        }
    }
}

/// The K slowest requests since the last window reset, in a list
/// behind one mutex. A cached copy of the retained minimum makes the
/// common case (request not slow enough) one relaxed load; only a
/// request slower than that minimum tries the lock. Offers never wait
/// for it: while a reader (`stats()`, `/stats`, `/metrics`) or another
/// writer holds the lock, an offer is dropped. A reader holds it for
/// one copy of at most K entries. The list is diagnostics, not
/// accounting.
#[derive(Debug)]
struct SlowRing {
    capacity: usize,
    entries: Mutex<Vec<RequestTrace>>,
    /// The smallest retained `total_us` while the list is full, else 0
    /// — the reject fast path. Written only under the lock.
    threshold: AtomicU64,
}

impl SlowRing {
    fn new(capacity: usize) -> Self {
        SlowRing {
            capacity,
            entries: Mutex::new(Vec::with_capacity(capacity)),
            threshold: AtomicU64::new(0),
        }
    }

    // scs-contract: no-alloc, no-block — runs on every request's exit
    // path: a `try_lock` that never waits and a push within the
    // capacity reserved in `new`; only `snapshot_into` may allocate.
    fn offer(&self, t: &RequestTrace) {
        if self.capacity == 0 || t.total_us == 0 {
            return;
        }
        // ordering: Relaxed — `threshold` is a hint; a stale read only
        // costs a lock attempt that finds the request not slow enough.
        if t.total_us <= self.threshold.load(Ordering::Relaxed) {
            return;
        }
        let mut entries = match self.entries.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => return,
            // Entries are plain `Copy` values, each written whole.
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
        };
        if entries.len() < self.capacity {
            // contract-ok: stays within the capacity reserved in `new`
            entries.push(*t);
        } else if let Some(min) = entries.iter_mut().min_by_key(|e| e.total_us) {
            if t.total_us <= min.total_us {
                return;
            }
            *min = *t;
        }
        if entries.len() == self.capacity {
            let floor = entries.iter().map(|e| e.total_us).min().unwrap_or(0);
            // ordering: Relaxed — written under the lock; readers treat
            // it as a hint (see the fast path).
            self.threshold.store(floor, Ordering::Relaxed);
        }
    }

    /// Window rollover: empties the list and drops the reject threshold
    /// back to 0.
    ///
    /// Without this the threshold is a one-way ratchet: `offer` only
    /// ever raises it (to the list's current minimum), so after a slow
    /// warmup fills the list with multi-millisecond entries, a
    /// subsequent fast window — whose worst requests are genuinely slow
    /// *for that window* but under the stale bound — records nothing,
    /// forever.
    fn reset_window(&self) {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        entries.clear();
        // ordering: Relaxed — written under the lock; 0 accepts every
        // offer until the list refills.
        self.threshold.store(0, Ordering::Relaxed);
    }

    /// Appends the retained requests to `out`, worst-first.
    fn snapshot_into(&self, out: &mut Vec<RequestTrace>) {
        out.extend_from_slice(&self.entries.lock().unwrap_or_else(PoisonError::into_inner));
        out.sort_by_key(|t| std::cmp::Reverse(t.total_us));
    }
}

// ─── Prometheus text exposition ──────────────────────────────────────

/// Renders the engine's metrics in Prometheus text exposition format
/// (version 0.0.4): every counter in the stats table, the residency
/// gauges, the end-to-end latency histogram and one latency histogram
/// per stage, with cumulative `le` buckets ending in `+Inf`. Bucket
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
    render_histogram(&mut out, "scs_request_duration_us", "", &telem.total);
    out.push_str(
        "# HELP scs_stage_duration_us Per-stage request latency attribution, microseconds.\n\
         # TYPE scs_stage_duration_us histogram\n",
    );
    for (stage, h) in Stage::ALL.iter().zip(&telem.stages) {
        let labels = format!("stage=\"{}\"", stage.name());
        render_histogram(&mut out, "scs_stage_duration_us", &labels, h);
    }
    out
}

/// Renders one histogram series; `labels` is its label set without
/// braces, empty for an unlabelled series.
fn render_histogram(out: &mut String, name: &str, labels: &str, h: &HistSnapshot) {
    let (bucket_labels, set) = if labels.is_empty() {
        (String::new(), String::new())
    } else {
        (format!("{labels},"), format!("{{{labels}}}"))
    };
    let top = (0..HistSnapshot::N_BUCKETS)
        .rev()
        .find(|&i| h.bucket_count(i) > 0);
    let mut cum = 0u64;
    if let Some(top) = top {
        for i in 0..=top {
            cum += h.bucket_count(i);
            match HistSnapshot::bucket_upper_edge(i) {
                Some(le) => out.push_str(&format!(
                    "{name}_bucket{{{bucket_labels}le=\"{le}\"}} {cum}\n"
                )),
                None => break, // top bucket folds into +Inf below
            }
        }
    }
    out.push_str(&format!(
        "{name}_bucket{{{bucket_labels}le=\"+Inf\"}} {}\n{name}_sum{set} {}\n{name}_count{set} {}\n",
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
pub const BENCH_SCHEMA: &str = "scs-bench-service/v5";

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
    let slow: Vec<String> = stats
        .slow
        .iter()
        .map(|s| {
            let stages: Vec<String> = Stage::ALL
                .iter()
                .map(|&st| format!("\"{}\":{}", st.name(), s.stages_us[st as usize]))
                .collect();
            format!(
                "{{\"q\":{},\"alpha\":{},\"beta\":{},\"epoch\":{},\
                 \"result_edges\":{},\"total_us\":{},\"stages_us\":{{{}}}}}",
                s.q,
                s.alpha,
                s.beta,
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
         \"stages\":{},\
         \"events\":{{\"installs\":{},\"epoch\":{}}},\
         \"memory\":{{\"scratch_bytes\":{}}},\
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
        stats.installs,
        stats.epoch,
        stats.scratch_bytes,
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
/// stage summary, and the event and memory counter blocks.
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
    let stages = v.get("stages").ok_or("stages missing")?;
    for stage in Stage::ALL {
        let s = stages
            .get(stage.name())
            .ok_or_else(|| format!("stage {} missing", stage.name()))?;
        validate_summary_obj(s).map_err(|e| format!("stage {}: {e}", stage.name()))?;
    }
    for (block, keys) in [
        ("events", &["installs", "epoch"][..]),
        ("memory", &["scratch_bytes"][..]),
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
    fn resp(q: u32, epoch: u64) -> QueryResponse {
        QueryResponse {
            request: QueryRequest {
                q: Vertex(q),
                alpha: 2,
                beta: 3,
                algo: Algorithm::Auto,
            },
            summary: CommunitySummary::empty(),
            cached: false,
            coalesced: false,
            epoch,
            service_us: 0,
        }
    }

    fn trace(q: u32, total_us: u64, kernel_us: u64) -> RequestTrace {
        let mut s = StageSet::new();
        s.set(Stage::QueueWait, 1)
            .set(Stage::Snapshot, 0)
            .set(Stage::Kernel, kernel_us);
        s.trace(&resp(q, 7), total_us)
    }

    fn stats_for(telem: &Telemetry) -> ServiceStats {
        let snap = telem.snapshot();
        let total = snap.total;
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
            admission: crate::stats::AdmissionStats::default(),
            stages: snap.stages.map(|h| h.summary()),
            slow: telem.slow_queries(),
        }
    }

    #[test]
    fn stage_windows_accumulate_in_nanoseconds_and_tile_the_total() {
        // One request's contiguous windows.
        let windows = [
            (Stage::QueueWait, 5_400u64),
            (Stage::QueueWait, 2_000_500), // a second window of one stage sums
            (Stage::QueueWait, 999),
            (Stage::Snapshot, 700),
            (Stage::Kernel, 300),
            (Stage::Kernel, 900),
        ];
        let mut s = StageSet::new();
        for (stage, ns) in windows {
            s.add_ns(stage, ns);
        }
        let total_ns: u64 = windows.iter().map(|w| w.1).sum();
        let mut t = s.trace(&resp(3, 1), total_ns / 1_000);
        assert_eq!((t.q, t.alpha, t.beta), (3, 2, 3));
        // Truncating each window instead would give 2_005 and 0.
        assert_eq!(t.stages_us[Stage::QueueWait as usize], 2_006);
        assert_eq!(t.stages_us[Stage::Snapshot as usize], 0);
        assert_eq!(t.stages_us[Stage::Kernel as usize], 1);
        assert_eq!(t.stages_us[Stage::Reply as usize], 0);
        // Truncation happens once per stage: the sum reconciles with
        // the total to ≤1µs per stage.
        let stages = 3;
        let sum: u64 = t.stages_us.iter().sum();
        assert!(sum <= t.total_us, "sum {sum} > total {}", t.total_us);
        assert!(
            sum + stages >= t.total_us,
            "sum {sum} + {stages} < total {}",
            t.total_us
        );
        // Closing the trace adds the reply window and the final total.
        t.close(3, t.total_us + 3);
        assert_eq!(t.stages_us[Stage::Reply as usize], 3);
        let sum: u64 = t.stages_us.iter().sum();
        assert!(sum <= t.total_us && sum + stages + 1 >= t.total_us);
        // `set` replaces a stage; `add_ns` accumulates onto it.
        s.set(Stage::Kernel, 7).add_ns(Stage::Kernel, 1_000);
        let t = s.trace(&resp(3, 1), 0);
        assert_eq!(t.stages_us[Stage::Kernel as usize], 8);
    }

    #[test]
    fn record_fills_the_total_and_every_engine_stage() {
        let telem = Telemetry::new(4);
        telem.record(&trace(1, 100, 90));
        telem.record(&trace(2, 200, 180));
        telem.record(&trace(3, 50, 40));
        telem.note_install();
        let snap = telem.snapshot();
        assert_eq!(snap.total.count(), 3);
        assert_eq!(snap.total.max_us(), 200);
        assert_eq!(snap.installs, 1);
        // Every engine stage is recorded, 0µs ones included; the
        // socket-only accept stage is not.
        for stage in Stage::ENGINE {
            assert_eq!(snap.stages[stage as usize].count(), 3, "{}", stage.name());
        }
        assert_eq!(snap.stages[Stage::Kernel as usize].sum_us(), 310);
        assert_eq!(snap.stages[Stage::Accept as usize].count(), 0);
        telem.record_accept(12);
        let accept = telem.snapshot().stages[Stage::Accept as usize];
        assert_eq!((accept.count(), accept.sum_us()), (1, 12));
        assert_eq!(telem.snapshot().total.count(), 3);
        // Windowed delta.
        telem.record(&trace(4, 400, 390));
        let d = telem.snapshot().delta(&snap);
        assert_eq!(d.total.count(), 1);
        assert_eq!(d.stages[Stage::Kernel as usize].count(), 1);
        assert_eq!(d.stages[Stage::Accept as usize].count(), 1);
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
            telem.record(&trace(q, us, us));
        }
        let slow = telem.slow_queries();
        assert_eq!(slow.len(), 3);
        let totals: Vec<u64> = slow.iter().map(|s| s.total_us).collect();
        assert_eq!(totals, vec![900, 500, 300]);
        assert_eq!(slow[0].q, 6);
        assert_eq!(slow[0].beta, 3);
        assert_eq!(slow[0].epoch, 7);
        assert_eq!(slow[0].stages_us[Stage::Kernel as usize], 900);
        // A faster request than the retained minimum is rejected (and
        // exercises the cached-threshold fast path).
        telem.record(&trace(7, 100, 100));
        assert_eq!(telem.slow_queries().len(), 3);
        assert_eq!(telem.slow_queries()[2].total_us, 300);
        // Capacity 0 disables retention but never panics.
        let off = Telemetry::new(0);
        off.record(&trace(1, 1000, 900));
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
            telem.record(&trace(q, us, us));
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
        telem.record(&trace(9, 500, 480));
        let slow = telem.slow_queries();
        assert_eq!(slow.len(), 1, "post-warmup spike lost: {slow:?}");
        assert_eq!(slow[0].q, 9);
        assert_eq!(slow[0].total_us, 500);
        // The ring keeps ranking within the new window.
        telem.record(&trace(10, 200, 180));
        telem.record(&trace(11, 900, 880));
        let totals: Vec<u64> = telem.slow_queries().iter().map(|s| s.total_us).collect();
        assert_eq!(totals, vec![900, 500, 200]);
        // Resetting an empty or capacity-0 ring is a no-op.
        telem.reset_slow_window();
        Telemetry::new(0).reset_slow_window();
    }

    #[test]
    fn ring_entries_stay_whole_under_concurrent_offers() {
        use std::sync::Arc;
        // Every offered trace is self-consistent — `q`, `total_us` and
        // the kernel stage all encode the same value — so an entry
        // mixed from two different offers breaks the equations the
        // reader checks. Bounds are small on purpose: the nightly CI
        // job replays this test under Miri, which runs orders of
        // magnitude slower than native.
        let ring = Arc::new(SlowRing::new(2));
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 1..=12u64 {
                        let total = i * 100 + w;
                        ring.offer(&trace(total as u32, total, total));
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
                        assert_eq!(u64::from(s.q), s.total_us, "mixed entry: {s:?}");
                        assert_eq!(
                            s.stages_us[Stage::Kernel as usize],
                            s.total_us,
                            "mixed entry: {s:?}"
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
        // must land deterministically (an offer that finds the lock
        // held is dropped), and everything retained is self-consistent.
        ring.offer(&trace(9999, 9999, 9999));
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
    fn ring_keeps_the_k_largest_nonzero_totals_across_resets() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(24);
        for capacity in [0usize, 1, 3, 16] {
            let telem = Telemetry::new(capacity);
            // `offer` pushes only within the capacity reserved in `new`,
            // so the list never reallocates.
            let reserved = || telem.ring.entries.lock().unwrap().capacity();
            let before = reserved();
            assert!(before >= capacity);
            for round in 0..40 {
                // Small totals force ties; 0 is never retained.
                let offered: Vec<u64> = (0..rng.gen_range(0..60usize))
                    .map(|_| rng.gen_range(0..12u64))
                    .collect();
                for (i, &us) in offered.iter().enumerate() {
                    telem.record(&trace(i as u32, us, us));
                }
                let mut want: Vec<u64> = offered.into_iter().filter(|&us| us > 0).collect();
                want.sort_unstable_by(|a, b| b.cmp(a));
                want.truncate(capacity);
                let got: Vec<u64> = telem.slow_queries().iter().map(|t| t.total_us).collect();
                assert_eq!(got, want, "capacity {capacity}, round {round}");
                telem.reset_slow_window();
                assert!(telem.slow_queries().is_empty());
            }
            assert_eq!(reserved(), before, "capacity {capacity}");
        }
    }

    #[test]
    fn slow_query_display_is_greppable() {
        let telem = Telemetry::new(1);
        telem.record(&trace(17, 900, 880));
        let s = telem.slow_queries()[0].to_string();
        assert!(s.contains("q=17"), "{s}");
        assert!(s.contains("(α=2,β=3)"), "{s}");
        assert!(s.contains("kernel=880"), "{s}");
        assert!(!s.contains("algo="), "{s}");
    }

    #[test]
    fn prometheus_render_passes_its_own_validator() {
        let telem = Telemetry::new(4);
        for i in 0..50u32 {
            telem.record(&trace(i, 10 + 7 * i as u64, 5));
        }
        let stats = stats_for(&telem);
        let text = render_prometheus(&stats, &telem.snapshot());
        validate_prometheus(&text).expect("rendered metrics must validate");
        assert!(text.contains("# TYPE scs_requests_total counter"));
        assert!(text.contains("scs_requests_total 50"));
        assert!(text.contains("# TYPE scs_request_duration_us histogram"));
        assert!(text.contains("scs_request_duration_us_bucket{le=\"+Inf\"} 50"));
        assert!(text.contains("scs_request_duration_us_count 50"));
        assert!(text.contains("scs_stage_duration_us_bucket{stage=\"kernel\",le=\"+Inf\"} 50"));
        assert!(text.contains("scs_stage_duration_us_count{stage=\"queue_wait\"} 50"));
        assert!(text.contains("scs_stage_duration_us_count{stage=\"accept\"} 0"));
        assert!(text.contains("scs_scratch_resident_bytes 4096"));
        // One end-to-end series and one series per stage, also when
        // nothing has been recorded yet.
        let series = |text: &str| text.lines().filter(|l| l.contains("_count")).count();
        assert_eq!(series(&text), 1 + N_STAGES);
        let fresh = Telemetry::new(0);
        let empty = render_prometheus(&stats_for(&fresh), &fresh.snapshot());
        assert_eq!(series(&empty), 1 + N_STAGES);
        assert!(!empty.contains("algo="), "{empty}");
        let counters: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE ")?.strip_suffix(" counter"))
            .collect();
        assert_eq!(
            counters,
            [
                "scs_requests_total",
                "scs_installs_total",
                "scs_admission_admitted_total",
                "scs_admission_served_total",
                "scs_admission_shed_total",
                "scs_admission_quota_rejected_total",
                "scs_admission_shed_after_admit_total",
            ]
        );
        for gone in [
            "algo=",
            "publish",
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
            let mut t = trace(i, 10 + i as u64, 5);
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
        let kernel = doc
            .get("steady")
            .and_then(|s| s.get("stages"))
            .and_then(|s| s.get("kernel"))
            .expect("kernel stage row");
        assert_eq!(kernel.get("count").and_then(JsonValue::as_f64), Some(20.0));
        assert!(kernel.get("p50_us").and_then(JsonValue::as_f64).is_some());
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
            "algorithms",
            "publish",
        ] {
            assert!(!text.contains(gone), "{gone}");
        }
        let memory = doc.get("steady").and_then(|s| s.get("memory"));
        assert!(
            matches!(memory, Some(JsonValue::Obj(m)) if m.len() == 1 && m[0].0 == "scratch_bytes"),
            "{memory:?}"
        );
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
