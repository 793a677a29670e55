//! Deadline batching and admission bookkeeping for the network front
//! end (`scs serve`, [`crate::server`]).
//!
//! The engine's batch path ([`crate::QueryEngine::submit_batch`]) pays
//! its per-request overheads once per batch: one queue job, one index
//! snapshot, one cache pass. A network server can only cash that in if it *forms* batches —
//! socket clients arrive one request at a time. The
//! [`DeadlineBuckets`] here are the SLO-aware accumulator that does
//! it: requests land in a bucket per compatible shape
//! `(α, β, algorithm)`, and a bucket flushes into `submit_batch` when
//! it reaches `batch_max` (size flush) or when its deadline expires
//! (deadline flush). The deadline is the latency the operator is
//! willing to spend buying throughput; `0` degenerates to
//! one-request-per-batch pass-through.
//!
//! Per-tenant [`TokenBucket`] quotas and the [`TenantQuotas`] table
//! live here too — they are pure-state admission machinery the server
//! consults before a request may occupy pending-budget, and keeping
//! them free of sockets makes both sides unit-testable.
//!
//! Everything in this module is single-threaded state driven by the
//! server's batcher thread (or a test); time is always passed in as
//! [`Instant`] so tests control the clock.

use crate::QueryRequest;
use scs::Algorithm;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The compatible-request shape a bucket accumulates: requests that
/// share degree constraints and algorithm (duplicate keys dedup in the
/// engine).
pub type BucketKey = (u32, u32, Algorithm);

/// Why a bucket was flushed — the server's counters split on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushCause {
    /// The bucket reached `batch_max`.
    Size,
    /// The bucket's deadline expired.
    Deadline,
    /// The batcher is shutting down and draining.
    Drain,
}

/// One flushed accumulation bucket: the requests in arrival order plus
/// the caller-supplied tags (the server threads' reply routes) and the
/// flush cause.
#[derive(Debug)]
pub struct Flush<T> {
    /// `(request, tag)` pairs in arrival order.
    pub items: Vec<(QueryRequest, T)>,
    /// What triggered the flush.
    pub cause: FlushCause,
    /// When the oldest member of the bucket was admitted — the server
    /// derives its queue-wait sample (admit → flush) from this.
    pub opened_at: Instant,
}

struct Bucket<T> {
    key: BucketKey,
    /// When the oldest member arrived.
    opened_at: Instant,
    /// Absolute flush deadline: `opened_at + batch_deadline`, tightened
    /// by any member's own `deadline_ms`.
    deadline: Instant,
    items: Vec<(QueryRequest, T)>,
}

/// Per-(α, β, algorithm) accumulation buckets with size- and
/// deadline-triggered flushing. Single-threaded; the owner supplies
/// `now` everywhere, so tests are deterministic and the server thread
/// reads the clock once per wakeup.
///
/// The bucket set is a linear-scan `Vec`: live buckets number at most
/// the distinct request shapes seen within one deadline window —
/// a handful — and a scan beats hashing at that size.
pub struct DeadlineBuckets<T> {
    batch_max: usize,
    batch_deadline: Duration,
    buckets: Vec<Bucket<T>>,
}

impl<T> DeadlineBuckets<T> {
    /// `batch_max` is clamped to ≥ 1; a zero `batch_deadline` flushes
    /// every request immediately (batching off).
    pub fn new(batch_max: usize, batch_deadline: Duration) -> Self {
        DeadlineBuckets {
            batch_max: batch_max.max(1),
            batch_deadline,
            buckets: Vec::new(),
        }
    }

    /// Requests currently accumulated across all buckets.
    pub fn pending(&self) -> usize {
        self.buckets.iter().map(|b| b.items.len()).sum()
    }

    /// Admits one request into its shape bucket. `deadline_override`
    /// (the request's own `deadline_ms`, if any) tightens — never
    /// loosens — the bucket's flush deadline. Returns the bucket as a
    /// size flush the moment it reaches `batch_max`.
    pub fn push(
        &mut self,
        req: QueryRequest,
        tag: T,
        now: Instant,
        deadline_override: Option<Duration>,
    ) -> Option<Flush<T>> {
        let key: BucketKey = (req.alpha, req.beta, req.algo);
        let limit = match deadline_override {
            Some(d) => self.batch_deadline.min(d),
            None => self.batch_deadline,
        };
        let idx = match self.buckets.iter().position(|b| b.key == key) {
            Some(i) => {
                let b = &mut self.buckets[i];
                b.deadline = b.deadline.min(now + limit);
                b.items.push((req, tag));
                i
            }
            None => {
                self.buckets.push(Bucket {
                    key,
                    opened_at: now,
                    deadline: now + limit,
                    items: vec![(req, tag)],
                });
                self.buckets.len() - 1
            }
        };
        if self.buckets[idx].items.len() >= self.batch_max {
            let b = self.buckets.swap_remove(idx);
            return Some(Flush {
                items: b.items,
                cause: FlushCause::Size,
                opened_at: b.opened_at,
            });
        }
        None
    }

    /// The earliest deadline across live buckets — how long the owner
    /// may sleep before calling [`Self::expired`]. `None` when empty.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.buckets.iter().map(|b| b.deadline).min()
    }

    /// Pops one bucket whose deadline is ≤ `now` (call until `None` to
    /// drain everything due).
    pub fn expired(&mut self, now: Instant) -> Option<Flush<T>> {
        let idx = self.buckets.iter().position(|b| b.deadline <= now)?;
        let b = self.buckets.swap_remove(idx);
        Some(Flush {
            items: b.items,
            cause: FlushCause::Deadline,
            opened_at: b.opened_at,
        })
    }

    /// Unconditionally flushes every bucket (server shutdown).
    pub fn drain(&mut self) -> Vec<Flush<T>> {
        self.buckets
            .drain(..)
            .map(|b| Flush {
                items: b.items,
                cause: FlushCause::Drain,
                opened_at: b.opened_at,
            })
            .collect()
    }
}

/// A classic token bucket: `burst` capacity, refilled at `rate`
/// tokens/second, one token per admitted request. Time is supplied by
/// the caller. Token arithmetic is integer nanoseconds of "earned
/// refill" rather than floats, so long-running buckets cannot drift.
#[derive(Debug)]
pub struct TokenBucket {
    rate: u64,
    burst: u64,
    tokens: u64,
    /// Nanoseconds of refill credit below one whole token.
    frac_ns: u128,
    last: Instant,
}

impl TokenBucket {
    /// A full bucket: `burst` tokens available immediately.
    pub fn new(rate: u64, burst: u64, now: Instant) -> Self {
        let burst = burst.max(1);
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            frac_ns: 0,
            last: now,
        }
    }

    /// Takes one token if available after refilling up to `now`.
    pub fn try_take(&mut self, now: Instant) -> bool {
        let elapsed = now.saturating_duration_since(self.last).as_nanos() + self.frac_ns;
        self.last = now;
        let earned = elapsed * u128::from(self.rate) / 1_000_000_000;
        // Keep the unconverted remainder so sub-token intervals add up.
        self.frac_ns = if self.rate == 0 {
            0
        } else {
            elapsed - earned * 1_000_000_000 / u128::from(self.rate)
        };
        self.tokens = self
            .tokens
            .saturating_add(u64::try_from(earned).unwrap_or(u64::MAX))
            .min(self.burst);
        if self.tokens == 0 {
            return false;
        }
        self.tokens -= 1;
        true
    }
}

/// Tenant → token-bucket table. Bounded: past [`Self::MAX_TENANTS`]
/// distinct tenant names, new tenants share one overflow bucket — an
/// adversarial stream of unique names cannot grow the map without
/// bound (and shares one quota, which is exactly what an abuser
/// deserves).
pub struct TenantQuotas {
    rate: u64,
    burst: u64,
    buckets: HashMap<String, TokenBucket>,
    overflow: Option<TokenBucket>,
}

impl TenantQuotas {
    /// Distinct tenants tracked individually before the overflow
    /// bucket takes over.
    pub const MAX_TENANTS: usize = 10_000;

    /// `rate == 0` disables quotas: every [`Self::admit`] succeeds.
    pub fn new(rate: u64, burst: u64) -> Self {
        TenantQuotas {
            rate,
            burst: burst.max(1),
            buckets: HashMap::new(),
            overflow: None,
        }
    }

    /// Whether `tenant` may spend one quota token at `now`. Requests
    /// without a tenant are exempt (quotas bound tenants, not the
    /// total — the pending budget does that).
    pub fn admit(&mut self, tenant: Option<&str>, now: Instant) -> bool {
        if self.rate == 0 {
            return true;
        }
        let Some(name) = tenant else { return true };
        let (rate, burst) = (self.rate, self.burst);
        let bucket = if self.buckets.len() >= Self::MAX_TENANTS && !self.buckets.contains_key(name)
        {
            self.overflow
                .get_or_insert_with(|| TokenBucket::new(rate, burst, now))
        } else {
            self.buckets
                .entry(name.to_string())
                .or_insert_with(|| TokenBucket::new(rate, burst, now))
        };
        bucket.try_take(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::Vertex;

    fn req(q: u32, alpha: u32, beta: u32, algo: Algorithm) -> QueryRequest {
        QueryRequest {
            q: Vertex(q),
            alpha,
            beta,
            algo,
        }
    }

    #[test]
    fn size_flush_fires_at_batch_max_per_shape() {
        let mut b: DeadlineBuckets<usize> = DeadlineBuckets::new(3, Duration::from_millis(10));
        let t0 = Instant::now();
        // Two shapes interleaved: each accumulates independently.
        assert!(b.push(req(1, 2, 2, Algorithm::Peel), 0, t0, None).is_none());
        assert!(b.push(req(2, 1, 1, Algorithm::Auto), 1, t0, None).is_none());
        assert!(b.push(req(3, 2, 2, Algorithm::Peel), 2, t0, None).is_none());
        assert_eq!(b.pending(), 3);
        let flush = b
            .push(req(4, 2, 2, Algorithm::Peel), 3, t0, None)
            .expect("third (2,2,Peel) request must flush by size");
        assert_eq!(flush.cause, FlushCause::Size);
        let qs: Vec<u32> = flush.items.iter().map(|(r, _)| r.q.0).collect();
        assert_eq!(qs, vec![1, 3, 4], "arrival order within the bucket");
        let tags: Vec<usize> = flush.items.iter().map(|(_, t)| *t).collect();
        assert_eq!(tags, vec![0, 2, 3]);
        // The other shape is untouched.
        assert_eq!(b.pending(), 1);
    }

    #[test]
    fn deadline_flush_fires_when_due_and_sleep_hint_tracks_it() {
        let mut b: DeadlineBuckets<usize> = DeadlineBuckets::new(100, Duration::from_millis(10));
        let t0 = Instant::now();
        assert!(b.push(req(1, 2, 2, Algorithm::Peel), 0, t0, None).is_none());
        assert_eq!(b.next_deadline(), Some(t0 + Duration::from_millis(10)));
        // Not due yet.
        assert!(b.expired(t0 + Duration::from_millis(9)).is_none());
        let flush = b
            .expired(t0 + Duration::from_millis(10))
            .expect("bucket due at its deadline");
        assert_eq!(flush.cause, FlushCause::Deadline);
        assert_eq!(flush.opened_at, t0);
        assert_eq!(b.pending(), 0);
        assert_eq!(b.next_deadline(), None);
    }

    #[test]
    fn per_request_deadline_tightens_the_bucket() {
        let mut b: DeadlineBuckets<usize> = DeadlineBuckets::new(100, Duration::from_millis(10));
        let t0 = Instant::now();
        b.push(req(1, 2, 2, Algorithm::Peel), 0, t0, None);
        // A member with a tighter SLO pulls the whole bucket forward...
        b.push(
            req(2, 2, 2, Algorithm::Peel),
            1,
            t0,
            Some(Duration::from_millis(3)),
        );
        assert_eq!(b.next_deadline(), Some(t0 + Duration::from_millis(3)));
        // ...and a looser one cannot push it back.
        b.push(
            req(3, 2, 2, Algorithm::Peel),
            2,
            t0,
            Some(Duration::from_millis(50)),
        );
        assert_eq!(b.next_deadline(), Some(t0 + Duration::from_millis(3)));
        let flush = b.expired(t0 + Duration::from_millis(3)).unwrap();
        assert_eq!(flush.items.len(), 3);
    }

    #[test]
    fn zero_deadline_passes_requests_through() {
        let mut b: DeadlineBuckets<usize> = DeadlineBuckets::new(100, Duration::ZERO);
        let t0 = Instant::now();
        assert!(b.push(req(1, 2, 2, Algorithm::Peel), 0, t0, None).is_none());
        // Due immediately: the owner's flush loop empties it in the
        // same wakeup, so batching degenerates to pass-through.
        let flush = b.expired(t0).expect("zero deadline is due at once");
        assert_eq!(flush.items.len(), 1);
    }

    #[test]
    fn drain_empties_every_bucket() {
        let mut b: DeadlineBuckets<usize> = DeadlineBuckets::new(100, Duration::from_millis(10));
        let t0 = Instant::now();
        b.push(req(1, 2, 2, Algorithm::Peel), 0, t0, None);
        b.push(req(2, 1, 1, Algorithm::Auto), 1, t0, None);
        let flushes = b.drain();
        assert_eq!(flushes.len(), 2);
        assert!(flushes.iter().all(|f| f.cause == FlushCause::Drain));
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn token_bucket_enforces_rate_and_burst() {
        let t0 = Instant::now();
        let mut tb = TokenBucket::new(10, 3, t0);
        // The burst is immediately spendable, then the bucket is dry.
        assert!(tb.try_take(t0));
        assert!(tb.try_take(t0));
        assert!(tb.try_take(t0));
        assert!(!tb.try_take(t0));
        // 100ms at 10 tokens/s earns exactly one token.
        assert!(tb.try_take(t0 + Duration::from_millis(100)));
        assert!(!tb.try_take(t0 + Duration::from_millis(100)));
        // Sub-token intervals accumulate without float drift: 2 × 50ms
        // = one token.
        assert!(!tb.try_take(t0 + Duration::from_millis(150)));
        assert!(tb.try_take(t0 + Duration::from_millis(200)));
        // A long idle period refills to burst, not beyond.
        let later = t0 + Duration::from_secs(60);
        assert!(tb.try_take(later));
        assert!(tb.try_take(later));
        assert!(tb.try_take(later));
        assert!(!tb.try_take(later));
    }

    #[test]
    fn tenant_quotas_isolate_tenants_and_exempt_the_anonymous() {
        let t0 = Instant::now();
        let mut q = TenantQuotas::new(1, 2);
        // Tenant A spends its burst; tenant B is unaffected.
        assert!(q.admit(Some("a"), t0));
        assert!(q.admit(Some("a"), t0));
        assert!(!q.admit(Some("a"), t0));
        assert!(q.admit(Some("b"), t0));
        // Anonymous requests bypass tenant quotas entirely.
        for _ in 0..10 {
            assert!(q.admit(None, t0));
        }
        // rate == 0 disables quotas.
        let mut off = TenantQuotas::new(0, 1);
        for _ in 0..10 {
            assert!(off.admit(Some("a"), t0));
        }
    }
}
