//! Service-side metrics: a lock-free latency histogram, raw histogram
//! snapshots (the currency of windowed stats and the metrics exporters),
//! and the [`ServiceStats`] snapshot the CLI prints.

use crate::telemetry::{LatencySummary, RequestTrace, Stage, N_STAGES};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two latency buckets: bucket `i` holds samples in
/// `[2^i, 2^(i+1))` microseconds for `0 < i < 39`; bucket 0 holds
/// `[0, 2)` (0µs and 1µs together) and the final bucket 39 is
/// open-ended, holding every sample `≥ 2^39`µs.
pub(crate) const BUCKETS: usize = 40;

/// A log-bucketed histogram of latencies in microseconds.
///
/// Recording is a single relaxed `fetch_add`, so worker threads never
/// contend; quantiles are read by scanning the 40 buckets, with linear
/// interpolation inside the bucket containing the quantile rank (and
/// capped by the observed maximum), so a bucket holding `c` samples
/// reports `c` evenly spaced values instead of one midpoint.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Bucket index of a sample: `floor(log2(us))` (0 for both 0µs and
    /// 1µs), clamped into the open-ended top bucket. The clamp must
    /// come *after* the ilog2 decrement — clamping first made bucket
    /// `BUCKETS-1` unreachable and dumped every `us ≥ 2^39` sample one
    /// bucket low.
    fn bucket_of(us: u64) -> usize {
        (64 - us.leading_zeros() as usize)
            .saturating_sub(1)
            .min(BUCKETS - 1)
    }

    /// Records one sample.
    // ordering: Relaxed throughout — each counter is an independent
    // statistic; nothing synchronizes on histogram contents.
    pub fn record(&self, us: u64) {
        self.buckets[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed); // contract-ok: `bucket_of` clamps to `BUCKETS - 1`
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    // ordering: Relaxed — monotone statistic, no pairing.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        self.snapshot().mean_us()
    }

    /// Largest recorded sample.
    // ordering: Relaxed — monotone statistic, no pairing.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// Approximate `q`-quantile (`0 < q ≤ 1`) in microseconds — see
    /// [`HistSnapshot::quantile_us`].
    pub fn quantile_us(&self, q: f64) -> u64 {
        self.snapshot().quantile_us(q)
    }

    /// A point-in-time copy of every counter, the input of windowed
    /// deltas and the metrics exporters. Loads are relaxed: a snapshot
    /// taken while workers record is internally consistent to within
    /// the records in flight at that instant.
    // ordering: Relaxed loads — tearing across counters is accepted;
    // a snapshot is consistent to within the records in flight.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            // contract-ok: `array::from_fn` hands out i < BUCKETS only.
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed), // ordering: Relaxed, as above
            max_us: self.max_us.load(Ordering::Relaxed), // ordering: Relaxed, as above
        }
    }
}

/// A plain-value copy of a [`LatencyHistogram`]: subtractable (windowed
/// stats) and walkable bucket by bucket (the Prometheus exposition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl HistSnapshot {
    /// Number of buckets every snapshot carries.
    pub const N_BUCKETS: usize = BUCKETS;

    /// The all-zero snapshot.
    pub fn empty() -> Self {
        HistSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples, µs.
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// Mean sample, µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Largest sample the snapshot can vouch for. For a windowed delta
    /// this is an upper bound (see [`Self::delta`]), not necessarily a
    /// sample inside the window.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Samples in bucket `i` (0 past the last bucket).
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Exclusive upper edge of bucket `i` in µs, `None` for the
    /// open-ended top bucket (`+Inf` in Prometheus terms).
    pub fn bucket_upper_edge(i: usize) -> Option<u64> {
        if i + 1 >= BUCKETS {
            None
        } else {
            Some(1u64 << (i + 1))
        }
    }

    /// `self − prev`, the histogram of samples recorded between the two
    /// snapshots (`prev` taken earlier from the same histogram).
    /// Bucket counts and sums subtract exactly; the maximum is not
    /// recoverable from counters alone, so the delta reports the
    /// tightest available upper bound: the cumulative max clamped to
    /// the highest bucket the window actually filled.
    pub fn delta(&self, prev: &HistSnapshot) -> HistSnapshot {
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].saturating_sub(prev.buckets[i]));
        let mut max_us = 0;
        for (i, &c) in buckets.iter().enumerate() {
            if c > 0 {
                max_us = Self::bucket_upper_edge(i)
                    .map_or(self.max_us, |hi| self.max_us.min(hi.saturating_sub(1)));
            }
        }
        HistSnapshot {
            buckets,
            count: self.count.saturating_sub(prev.count),
            sum_us: self.sum_us.saturating_sub(prev.sum_us),
            max_us,
        }
    }

    /// Approximate `q`-quantile (`0 < q ≤ 1`) in microseconds: linear
    /// interpolation inside the bucket containing the quantile rank —
    /// the `r`-th of a bucket's `c` samples reports
    /// `lo + ((r − 0.5) / c) · (hi − lo)` — capped by the observed
    /// maximum. A bucket holding a single sample therefore reports its
    /// arithmetic midpoint, the pre-interpolation behaviour.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if seen + c >= rank && c > 0 {
                let lo = if i == 0 { 0u64 } else { 1u64 << i };
                let hi = 1u64 << (i + 1);
                let frac = ((rank - seen) as f64 - 0.5) / c as f64;
                let v = (lo as f64 + frac * (hi - lo) as f64) as u64;
                return v.min(self.max_us);
            }
            seen += c;
        }
        self.max_us
    }

    /// The five-number summary derived from this snapshot.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean_us: self.mean_us(),
            p50_us: self.quantile_us(0.50),
            p99_us: self.quantile_us(0.99),
            max_us: if self.count == 0 { 0 } else { self.max_us },
        }
    }
}

/// Result-cache counters, all always 0: the engine keeps no result
/// cache, since every answer is a view into a threshold profile. Kept
/// so code that reads them still compiles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
    /// Always 0.
    pub invalidated: u64,
}

/// Network-front-end admission counters (`scs serve`): how many
/// requests the server admitted, served, shed or quota-rejected. All
/// zero for an in-process engine — the engine itself never sheds;
/// [`crate::Server`] injects its live counters into the snapshots it
/// exposes over `/metrics` and `/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests admitted past the pending budget and tenant quotas.
    pub admitted: u64,
    /// Admitted requests whose reply was written back to the client.
    /// At quiescence `admitted == served + shed_after_admit`.
    pub served: u64,
    /// Requests shed with `429 Too Many Requests` because the pending
    /// budget was exhausted.
    pub shed: u64,
    /// Requests rejected with `429` by a per-tenant token bucket.
    pub quota_rejected: u64,
    /// Admitted requests whose reply was never delivered — the engine
    /// did not answer within the reply timeout, the server shut down
    /// while they were pending, or their socket died before the
    /// response could be written. At quiescence
    /// `admitted == served + shed_after_admit`, where `served` is the
    /// count of replies actually written.
    pub shed_after_admit: u64,
    /// Always 0: the server forms no batches. Kept so code that reads
    /// it still compiles.
    pub deadline_flushes: u64,
    /// Always 0, like [`Self::deadline_flushes`].
    pub size_flushes: u64,
}

impl AdmissionStats {
    /// True when every counter is zero (the in-process case — the
    /// stats table hides the admission section then).
    pub fn is_zero(&self) -> bool {
        *self == AdmissionStats::default()
    }
}

/// A point-in-time snapshot of a running engine, as printed by
/// `scs serve-bench`. Produced either
/// cumulatively ([`crate::QueryEngine::stats`], counters since engine
/// start) or as a window ([`crate::QueryEngine::stats_window`], deltas
/// since the previous window call — the steady-state view).
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Worker threads serving the queue.
    pub workers: usize,
    /// Requests completed (since engine start, or within the window):
    /// the sample count of the end-to-end latency histogram that the
    /// latency fields below summarise.
    pub completed: u64,
    /// Always 0: the engine does not coalesce requests. Kept so code
    /// that reads it still compiles.
    pub coalesced: u64,
    /// Always 0: the engine has no batch submission. Kept only because
    /// the benchmark harness (`perfbench/`) still reads it.
    pub batches: u64,
    /// Always 0, like [`Self::batches`].
    pub batched: u64,
    /// Always all 0 (see [`CacheStats`]).
    pub cache: CacheStats,
    /// Current index epoch (number of `install` calls since process
    /// start — point-in-time even in a window).
    pub epoch: u64,
    /// Index installs (within the period). Each install retires the
    /// previous epoch.
    pub installs: u64,
    /// Completed requests per wall-clock second over the period (for
    /// cumulative stats, since engine start: warm-up and idle time
    /// included). Not printed in the stats table.
    pub qps: f64,
    /// Mean end-to-end latency, µs: enqueue → reply handed back, the
    /// interval the stage rows tile.
    pub mean_us: f64,
    /// Median end-to-end latency, µs — linearly interpolated inside the
    /// log-bucket containing the median sample and capped by the
    /// observed maximum (likewise for p90/p99).
    pub p50_us: u64,
    /// 90th-percentile end-to-end latency, µs.
    pub p90_us: u64,
    /// 99th-percentile end-to-end latency, µs.
    pub p99_us: u64,
    /// Worst observed end-to-end latency, µs (for a window: an upper
    /// bound — see [`HistSnapshot::delta`]).
    pub max_us: u64,
    /// Resident bytes of the workers' reusable query workspaces — the
    /// memory held to keep the query path's scratch allocation-free.
    /// Published before each reply, so a submitter reading stats right
    /// after a blocking query sees the serving worker's workspace.
    pub scratch_bytes: usize,
    /// Per-stage latency summaries, one histogram each — where a
    /// request's time goes: queue wait, snapshot read, answer, reply,
    /// and the socket path's accept. Indexed by [`Stage`]; every
    /// engine stage counts every completed request, and `accept` counts
    /// the requests the network front end admitted. See
    /// [`crate::telemetry`] for attribution semantics.
    pub stages: [LatencySummary; N_STAGES],
    /// Admission-control counters of the network front end; all zero
    /// when the engine serves in-process calls only.
    pub admission: AdmissionStats,
    /// The worst requests observed, sorted worst-first. Cumulative for
    /// [`crate::QueryEngine::stats`]; a [`crate::QueryEngine::stats_window`]
    /// call reports the worst requests *since the previous window call*
    /// and re-arms the ring, so a fast window after a slow warmup still
    /// surfaces its own spikes.
    pub slow: Vec<RequestTrace>,
}

impl fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "┌─────────────────────┬──────────────┐")?;
        writeln!(f, "│ workers             │ {:>12} │", self.workers)?;
        writeln!(f, "│ completed           │ {:>12} │", self.completed)?;
        writeln!(f, "│ latency mean (µs)   │ {:>12.1} │", self.mean_us)?;
        writeln!(f, "│ latency p50 (µs)    │ {:>12} │", self.p50_us)?;
        writeln!(f, "│ latency p90 (µs)    │ {:>12} │", self.p90_us)?;
        writeln!(f, "│ latency p99 (µs)    │ {:>12} │", self.p99_us)?;
        writeln!(f, "│ latency max (µs)    │ {:>12} │", self.max_us)?;
        writeln!(f, "│ scratch resident    │ {:>11}B │", self.scratch_bytes)?;
        writeln!(f, "│ index epoch         │ {:>12} │", self.epoch)?;
        writeln!(f, "│ installs            │ {:>12} │", self.installs)?;
        if !self.admission.is_zero() {
            let a = &self.admission;
            writeln!(f, "│ admitted            │ {:>12} │", a.admitted)?;
            writeln!(f, "│ served              │ {:>12} │", a.served)?;
            writeln!(f, "│ shed (429)          │ {:>12} │", a.shed)?;
            writeln!(f, "│ quota rejected      │ {:>12} │", a.quota_rejected)?;
            writeln!(f, "│ shed after admit    │ {:>12} │", a.shed_after_admit)?;
        }
        writeln!(f, "└─────────────────────┴──────────────┘")?;
        write!(
            f,
            "stage breakdown (µs)   {:>10} {:>9} {:>8} {:>8} {:>8}",
            "count", "mean", "p50", "p99", "max"
        )?;
        for stage in Stage::ALL {
            let s = &self.stages[stage as usize];
            write!(
                f,
                "\n  {:<20} {:>10} {:>9.1} {:>8} {:>8} {:>8}",
                stage.name(),
                s.count,
                s.mean_us,
                s.p50_us,
                s.p99_us,
                s.max_us
            )?;
        }
        if !self.slow.is_empty() {
            write!(f, "\nslow queries (worst {})", self.slow.len())?;
            for (i, s) in self.slow.iter().enumerate() {
                write!(f, "\n  {:>2}. {}", i + 1, s)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = LatencyHistogram::default();
        for us in [10u64, 12, 14, 16, 100, 1000, 10_000] {
            h.record(us);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max_us(), 10_000);
        // In-bucket linear interpolation makes quantiles deterministic
        // and tighter than the bucket width. p25: rank 2 of the three
        // samples in [8,16) → 8 + (1.5/3)·8 = 12 — the actual sample.
        assert_eq!(h.quantile_us(0.25), 12);
        // Median sample is 16, alone in [16,32) → its midpoint 24,
        // within half a bucket of the true value (pre-interpolation the
        // only guarantee was the factor-of-two bucket [16,32)).
        let p50 = h.quantile_us(0.5);
        assert_eq!(p50, 24);
        assert!((16..=24).contains(&(p50.min(24))), "p50={p50}");
        // p99 rank is the 10_000µs sample, alone in [8192,16384) —
        // interpolation says 12288 but the ≤max cap tightens it to the
        // exact sample.
        assert_eq!(h.quantile_us(0.99), 10_000);
        assert_eq!(h.quantile_us(1.0), 10_000);
        let mean = h.mean_us();
        assert!((mean - 11152.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_interpolation_is_monotone_within_a_bucket() {
        // 8 samples in one bucket [64,128): interpolated quantiles must
        // increase with q and stay inside the bucket (capped by max).
        let h = LatencyHistogram::default();
        for i in 0..8u64 {
            h.record(64 + 8 * i); // 64, 72, ..., 120
        }
        let mut prev = 0;
        for q in [0.125, 0.25, 0.5, 0.75, 0.875, 1.0] {
            let v = h.quantile_us(q);
            assert!((64..=120).contains(&v), "q={q} v={v}");
            assert!(v >= prev, "quantiles must be monotone: q={q} v={v}");
            prev = v;
        }
        // Rank r of c samples sits at lo + ((r−0.5)/c)·(hi−lo).
        assert_eq!(h.quantile_us(0.5), 64 + ((4.0 - 0.5) / 8.0 * 64.0) as u64);
    }

    #[test]
    fn histogram_top_bucket_is_reachable() {
        // Regression: the clamp used to run before the ilog2 decrement,
        // so every sample ≥ 2^39 landed in bucket 38 alongside
        // [2^38, 2^39) and the final bucket could never fill.
        let h = LatencyHistogram::default();
        h.record((1 << 39) - 1); // top of bucket 38
        h.record(1 << 39); // bottom of bucket 39 (the open-ended top)
                           // The two samples must land in *different* buckets: the p50
                           // rank stays in bucket 38 (a single sample interpolates to the
                           // midpoint 3·2^37) while the p100 rank reaches bucket 39, whose
                           // huge midpoint is capped by max.
        assert_eq!(h.quantile_us(0.5), 3 << 37);
        assert_eq!(h.quantile_us(1.0), 1 << 39);
        // The bucket index saturates instead of wrapping for any u64;
        // the top bucket's reported midpoint is 3·2^38.
        let h = LatencyHistogram::default();
        h.record(u64::MAX);
        assert_eq!(h.max_us(), u64::MAX);
        assert_eq!(h.quantile_us(1.0), 3 << 38);
    }

    #[test]
    fn histogram_exact_bucket_edges() {
        // bucket_of is floor(log2): 2^k−1 and 2^k straddle an edge.
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 0);
        assert_eq!(LatencyHistogram::bucket_of(2), 1);
        for k in 2..39usize {
            assert_eq!(LatencyHistogram::bucket_of((1 << k) - 1), k - 1, "2^{k}-1");
            assert_eq!(LatencyHistogram::bucket_of(1 << k), k, "2^{k}");
        }
        // Everything from 2^39 up shares the open-ended top bucket.
        assert_eq!(LatencyHistogram::bucket_of(1 << 39), BUCKETS - 1);
        assert_eq!(LatencyHistogram::bucket_of(1 << 40), BUCKETS - 1);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_empty_and_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_us(0.5), 0);
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile_us(0.5), 0); // capped by max
    }

    #[test]
    fn snapshot_delta_covers_only_the_window() {
        let h = LatencyHistogram::default();
        h.record(10);
        h.record(100);
        let first = h.snapshot();
        assert_eq!(first.count(), 2);
        assert_eq!(first.sum_us(), 110);
        h.record(1100);
        h.record(1200);
        let second = h.snapshot();
        let window = second.delta(&first);
        assert_eq!(window.count(), 2);
        assert_eq!(window.sum_us(), 2300);
        // The delta's max is an upper bound from the filled buckets:
        // both samples are in [1024,2048), cumulative max 1200.
        assert_eq!(window.max_us(), 1200);
        assert_eq!(window.quantile_us(1.0), 1200);
        // Quantiles of the window see only the window's samples.
        assert!(window.quantile_us(0.5) >= 1024, "window p50 must be ≥ 1024");
        // Empty delta behaves like an empty histogram.
        let none = second.delta(&second);
        assert_eq!(none.count(), 0);
        assert_eq!(none.quantile_us(0.99), 0);
        assert_eq!(none.max_us(), 0);
    }

    #[test]
    fn stats_table_renders() {
        let mut stages = [HistSnapshot::empty().summary(); N_STAGES];
        stages[Stage::Kernel as usize] = LatencySummary {
            count: 1000,
            mean_us: 37.5,
            p50_us: 31,
            p99_us: 170,
            max_us: 800,
        };
        let s = ServiceStats {
            workers: 4,
            completed: 1000,
            coalesced: 0,
            batches: 0,
            batched: 0,
            cache: CacheStats::default(),
            epoch: 1,
            installs: 1,
            qps: 12345.6,
            mean_us: 42.0,
            p50_us: 30,
            p90_us: 80,
            p99_us: 200,
            max_us: 900,
            scratch_bytes: 65536,
            stages,
            slow: vec![RequestTrace {
                q: 17,
                alpha: 2,
                beta: 3,
                epoch: 1,
                result_edges: 4,
                total_us: 900,
                stages_us: [1, 2, 890, 4, 0],
            }],
            admission: AdmissionStats {
                admitted: 5000,
                served: 4998,
                shed: 123,
                quota_rejected: 45,
                shed_after_admit: 2,
                ..AdmissionStats::default()
            },
        };
        let txt = s.to_string();
        // The table carries no throughput figure: callers print one
        // rate of their own (see `scs serve-bench`).
        assert!(!txt.contains("QPS"));
        assert!(txt.contains("completed"));
        assert!(txt.contains("scratch resident"));
        assert!(txt.contains("65536B"));
        // No row of a mechanism the engine no longer has.
        for gone in [
            "cache hit",
            "coalesced",
            "arena",
            "stale publishes",
            "batch",
            "shard",
            "cache_lookup",
            "allocs avoided",
            "per-algorithm",
            "publish",
        ] {
            assert!(!txt.contains(gone), "{gone}: {txt}");
        }
        assert!(txt.contains("installs"));
        assert!(txt.contains("stage breakdown"));
        assert!(txt.contains("kernel"));
        assert!(txt.contains("slow queries (worst 1)"));
        assert!(txt.contains("q=17"));
        assert!(txt.contains("result_edges=4"));
        // The admission section renders when any counter is nonzero...
        assert!(txt.contains("shed (429)"));
        assert!(txt.contains("quota rejected"));
        assert!(txt.contains("shed after admit"));
        // ...and hides for the in-process (all-zero) case.
        let mut quiet = s.clone();
        quiet.admission = AdmissionStats::default();
        assert!(!quiet.to_string().contains("shed (429)"));
    }
}
