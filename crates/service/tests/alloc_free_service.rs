//! The serving layer's guarantee, enforced end to end: a **warm
//! [`QueryEngine`] serves requests with zero heap allocations** —
//! submit, queue hop, snapshot read, `CommunitySearch::answer`, summary
//! build, publish and reply included.
//!
//! A counting global allocator wraps the system allocator. Every phase
//! first warms the engine (pools fill, the (2,2) profile is built),
//! installing the same index snapshot before each round, then asserts
//! that a whole warm round — the install included — allocates
//! **exactly zero** times:
//!
//! * one worker, every algorithm;
//! * two workers sharing the one job queue, over 8 distinct keys.
//!
//! Every response is a view: its summary reads the answer's class and
//! its edges are never emitted here, so no answer is copied.
//!
//! Runs as its own integration-test binary **without the libtest
//! harness** (`harness = false` in Cargo.toml): the harness's
//! main-thread bookkeeping (slow-test watchdog, channel waits)
//! allocates sporadically and would race the measured windows. The only
//! other threads in the process are the engine's own workers, which are
//! parked (allocation-free) whenever they are not serving.

use rand::rngs::StdRng;
use rand::SeedableRng;
use scs::{Algorithm, CommunitySearch};
use scs_service::{build_workload, QueryEngine, QueryRequest, ServiceConfig, WorkloadSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System` plus a relaxed counter bump;
// every contract obligation is forwarded unchanged.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller contract identical to `System`'s, to which we delegate.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller contract identical to `System`'s, to which we delegate.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from our `alloc`, which delegated
        // to `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller contract identical to `System`'s, to which we delegate.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged from our own caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn search() -> Arc<CommunitySearch> {
    let mut rng = StdRng::seed_from_u64(20210417);
    CommunitySearch::shared(bigraph::generators::random_bipartite(
        80, 80, 1100, &mut rng,
    ))
}

/// Requests whose (2,2)-communities are nonempty.
fn workload(search: &CommunitySearch, n: usize) -> Vec<QueryRequest> {
    let w = build_workload(
        search,
        &WorkloadSpec {
            n_queries: n,
            alpha: 2,
            beta: 2,
            algo: Algorithm::Auto,
            repeat_fraction: 0.0,
            zipf: 0.0,
            seed: 3,
        },
    );
    assert_eq!(w.len(), n, "(2,2)-core must be populated");
    w
}

fn main() {
    let search = search();

    // ── Phase 1: one worker, every algorithm ─────────────────────────
    // One worker: the serving thread is deterministic, so the measured
    // window contains exactly one install and one answer.
    {
        let engine = QueryEngine::start(
            search.clone(),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let base = workload(&search, 1)[0];
        let want = search
            .significant_community(base.q, 2, 2, Algorithm::Peel)
            .size();
        for algo in Algorithm::ALL {
            let req = QueryRequest::new(base.q, 2, 2, algo);
            // Warm-up: fill every pool and build the (2,2) profile. Each
            // round re-installs the same snapshot, as the measured one
            // does.
            for _ in 0..6 {
                engine.install(search.clone());
                let resp = engine.query(req);
                assert!(!resp.summary.edges().is_empty(), "warm-up must answer");
            }
            let before = allocations();
            engine.install(search.clone());
            let resp = engine.query(req);
            let delta = allocations() - before;
            assert_eq!(
                delta, 0,
                "algorithm {algo}: a warm query allocated {delta} times"
            );
            // The answer came from its class: no cache, no flight, and
            // the oracle's size without an edge emitted.
            assert!(!resp.cached && !resp.coalesced);
            assert_eq!(resp.summary.size(), want, "algorithm {algo}");
            // A repeat without the install is free too.
            let before = allocations();
            let again = engine.query(req);
            let delta = allocations() - before;
            assert_eq!(
                delta, 0,
                "algorithm {algo}: a repeated warm query allocated {delta} times"
            );
            assert_eq!(again.summary, resp.summary);
        }
        engine.shutdown();
    }

    // ── Phase 2: two workers ─────────────────────────────────────────
    // Two workers on the one queue, telemetry on (the default): either
    // worker may serve any request, and each round of 8 distinct keys
    // and the install that precedes it must be as allocation-free as
    // the single-worker engine.
    {
        let engine = QueryEngine::start(
            search.clone(),
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        );
        let mut reqs = workload(&search, 16);
        reqs.sort_by_key(|r| r.q);
        reqs.dedup_by_key(|r| r.q);
        reqs.truncate(8);
        for _ in 0..6 {
            engine.install(search.clone());
            for r in &reqs {
                let resp = engine.query(*r);
                assert!(!resp.summary.edges().is_empty(), "warm-up must answer");
            }
        }
        assert_eq!(engine.stats().workers, 2);
        let before = allocations();
        engine.install(search.clone());
        for r in &reqs {
            let resp = engine.query(*r);
            assert!(!resp.cached && !resp.coalesced && resp.summary.size() > 0);
        }
        let delta = allocations() - before;
        assert_eq!(
            delta,
            0,
            "a warm two-worker round of {} queries allocated {delta} times",
            reqs.len()
        );
        // A repeated round without the install is free too.
        let before = allocations();
        for r in &reqs {
            assert!(engine.query(*r).summary.size() > 0);
        }
        let delta = allocations() - before;
        assert_eq!(
            delta, 0,
            "a repeated warm two-worker round allocated {delta} times"
        );
        engine.shutdown();
    }

    println!(
        "alloc_free_service: warm queries allocated 0 times end to end \
         (one worker, repeat, two workers) — ok"
    );
}
