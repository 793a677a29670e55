//! The tentpole guarantee, enforced: with a warm [`QueryWorkspace`] and
//! a warm output buffer, a repeated query performs **zero** heap
//! allocations — for every second-step algorithm.
//!
//! A counting global allocator wraps the system allocator; the test
//! warms the workspace with two runs of each query (first run grows the
//! buffers, second confirms capacities converged), then asserts the
//! third run's allocation delta is exactly zero. This is the
//! steady-state compute path of the service workers.
//!
//! Runs as its own integration-test binary **without the libtest
//! harness** (`harness = false` in Cargo.toml): the harness's
//! main-thread bookkeeping (slow-test watchdog, channel waits)
//! allocates sporadically and would race the measured windows. Here the
//! process has exactly one thread, so the counter is exact.

use bigraph::arena::ResultArena;
use bigraph::builder::figure2_example;
use scs::{Algorithm, CommunitySearch, QueryWorkspace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

fn main() {
    let g = figure2_example();
    let search = CommunitySearch::new(g);
    let q = search.graph().upper(2); // u3: nonempty, non-trivial answer
    let mut ws = QueryWorkspace::new();
    let mut out = Vec::new();

    for algo in Algorithm::ALL {
        // Two warm-up runs: the first grows every buffer, the second
        // proves the capacities converged.
        search.significant_community_into(q, 2, 2, algo, &mut ws, &mut out);
        search.significant_community_into(q, 2, 2, algo, &mut ws, &mut out);
        assert!(!out.is_empty(), "warm-up must produce a real community");

        let before = allocations();
        search.significant_community_into(q, 2, 2, algo, &mut ws, &mut out);
        let delta = allocations() - before;
        assert_eq!(
            delta, 0,
            "algorithm {algo} allocated {delta} times on a warm workspace"
        );
    }

    // Varying the parameters (still within warmed capacity) stays free
    // too: the buffers are sized by the graph, not by one specific query.
    // For `Auto` the first call at each (α,β) builds that pair's
    // threshold profile; the second must find it and allocate nothing.
    for algo in [Algorithm::Peel, Algorithm::Auto] {
        for (a, b) in [(1, 1), (3, 3), (2, 3)] {
            search.significant_community_into(q, a, b, algo, &mut ws, &mut out);
            let before = allocations();
            search.significant_community_into(q, a, b, algo, &mut ws, &mut out);
            assert_eq!(allocations() - before, 0, "{algo} α={a} β={b}");
        }
    }

    // The arena entry points extend the guarantee to the *result*: a
    // warm arena stores repeated answers with zero allocations too.
    let mut arena = ResultArena::new();
    for algo in Algorithm::ALL {
        search.significant_community_arena(q, 2, 2, algo, &mut ws, &mut arena); // warm slab
        let before = allocations();
        let stored = search.significant_community_arena(q, 2, 2, algo, &mut ws, &mut arena);
        let delta = allocations() - before;
        assert_eq!(
            delta, 0,
            "algorithm {algo} allocated {delta} storing to a warm arena"
        );
        assert!(!stored.as_slice().is_empty());
        assert!(stored.pinned());
    }

    // Slab recycling is allocation-free as well: with a deliberately
    // tiny slab and handles dropped per query, the arena turns one slab
    // over again and again without ever going back to the allocator.
    let mut small = ResultArena::with_slab_capacity(8);
    search.significant_community_arena(q, 2, 2, Algorithm::Peel, &mut ws, &mut small); // allocates the slab
    let before = allocations();
    for _ in 0..32 {
        let stored =
            search.significant_community_arena(q, 2, 2, Algorithm::Peel, &mut ws, &mut small);
        assert!(stored.pinned());
    }
    assert_eq!(
        allocations() - before,
        0,
        "slab recycling must not allocate (recycles: {})",
        small.stats().recycled
    );
    assert!(small.stats().recycled > 0, "tiny slab must have recycled");

    println!("alloc_free: warm kernels, arena stores and slab recycling allocated 0 times — ok");
}
