//! The tentpole guarantee, enforced: with a warm [`QueryWorkspace`] and
//! a warm output buffer, a repeated query performs **zero** heap
//! allocations — for every second-step algorithm — and a warm
//! [`CommunitySearch::answer`] with its four summary accessors, the
//! serving path of the service workers, allocates nothing either.
//!
//! A counting global allocator wraps the system allocator; the test
//! warms the workspace with two runs of each query (first run grows the
//! buffers, second confirms capacities converged), then asserts the
//! third run's allocation delta is exactly zero.
//!
//! Runs as its own integration-test binary **without the libtest
//! harness** (`harness = false` in Cargo.toml): the harness's
//! main-thread bookkeeping (slow-test watchdog, channel waits)
//! allocates sporadically and would race the measured windows. Here the
//! process has exactly one thread, so the counter is exact.

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

    // The serving path: a warm `answer()` and its O(1) summary read no
    // edge and allocate nothing, at every (α,β) whose profile is built.
    for (a, b) in [(2, 2), (1, 1), (3, 3), (2, 3)] {
        let warm = search.answer(q, a, b, &mut ws);
        assert!(warm.size() > 0, "α={a} β={b} must answer");
        let before = allocations();
        let answer = search.answer(q, a, b, &mut ws);
        let summary = (
            answer.size(),
            answer.n_upper(),
            answer.n_lower(),
            answer.min_weight(),
        );
        let delta = allocations() - before;
        assert_eq!(delta, 0, "answer() α={a} β={b} allocated {delta} times");
        let peel = search.significant_community(q, a, b, Algorithm::Peel);
        let (us, ls) = peel.layer_vertices();
        assert_eq!(
            summary,
            (peel.size(), us.len(), ls.len(), peel.min_weight()),
            "α={a} β={b}"
        );
    }

    println!("alloc_free: warm kernels and warm answer views allocated 0 times — ok");
}
