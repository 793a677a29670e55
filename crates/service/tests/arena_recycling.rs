//! Eviction/recycling stress: hammer the result cache far past its
//! capacity with tiny arena slabs (fast slab turnover) while clients
//! keep live handles to a sample of responses, and prove
//!
//! * recycled slabs are never observed by live handles — every held
//!   summary stays bit-identical to the single-threaded oracle and its
//!   generation tag still matches its slab's ([`ArenaEdges::pinned`]);
//! * cache residency never exceeds the configured bound, storm after
//!   storm;
//! * recycling actually happens (the counters prove the storm exercised
//!   the mechanism, not an ever-growing arena), and arena residency
//!   stabilizes instead of growing with traffic.

use bigraph::arena::ArenaEdges;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scs::{Algorithm, CommunitySearch};
use scs_service::{
    CommunitySummary, EdgeStore, QueryEngine, QueryRequest, QueryResponse, ServiceConfig,
};

fn arena_handle(resp: &QueryResponse) -> Option<&ArenaEdges> {
    match resp.summary.store() {
        EdgeStore::Arena(a) => Some(a),
        EdgeStore::Owned(_) => None,
    }
}

#[test]
fn recycled_slabs_are_never_observed_by_live_handles() {
    let mut rng = StdRng::seed_from_u64(20260730);
    let graph = bigraph::generators::random_bipartite(90, 90, 1300, &mut rng);
    let search = CommunitySearch::shared(graph);

    // Tiny cache (constant eviction churn) and tiny slabs (every few
    // results turn a slab over), so recycling runs hot.
    let engine = QueryEngine::start(
        search.clone(),
        ServiceConfig {
            workers: 3,
            cache_capacity: 24,
            cache_shards: 4,
            arena_slab_edges: 64,
            ..ServiceConfig::default()
        },
    );

    // Far more distinct keys than cache slots.
    let keys: Vec<QueryRequest> = search
        .graph()
        .vertices()
        .flat_map(|v| {
            [
                QueryRequest::new(v, 2, 2, Algorithm::Peel),
                QueryRequest::new(v, 1, 2, Algorithm::Expand),
            ]
        })
        .collect();
    assert!(keys.len() > 10 * 24, "storm must dwarf the cache");

    let cache_bound = engine.stats().cache.capacity;
    let storm = |seed: u64, keep: bool| -> Vec<QueryResponse> {
        // Three clients race mixed single/batched submissions; with
        // `keep`, each holds every 7th response alive across the whole
        // storm, so live handles overlap hundreds of slab turnovers.
        let mut held: Vec<QueryResponse> = Vec::new();
        std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for c in 0..3u64 {
                let engine = &engine;
                let keys = &keys;
                joins.push(scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed + c);
                    let mut mine = Vec::new();
                    for round in 0..6 {
                        if round % 2 == 0 {
                            for (i, resp) in keys.iter().map(|&k| engine.query(k)).enumerate() {
                                if keep && i % 7 == 0 {
                                    mine.push(resp);
                                }
                            }
                        } else {
                            let batch: Vec<QueryRequest> = (0..64)
                                .map(|_| keys[rng.gen_range(0..keys.len())])
                                .collect();
                            for (i, resp) in engine.query_batch(&batch).into_iter().enumerate() {
                                if keep && i % 7 == 0 {
                                    mine.push(resp);
                                }
                            }
                        }
                    }
                    mine
                }));
            }
            for j in joins {
                held.extend(j.join().expect("client panicked"));
            }
        });
        held
    };

    let held = storm(1, true);
    let after_first = engine.stats();

    // Residency bounds hold under churn.
    assert!(
        after_first.cache.entries <= cache_bound,
        "cache residency {} exceeds configured bound {cache_bound}",
        after_first.cache.entries
    );
    // The storm must actually have exercised recycling.
    assert!(
        after_first.arena_recycled > 0,
        "no slab was ever recycled — the stress measured nothing"
    );
    assert!(after_first.arena_bytes > 0);

    // Every live handle still reads exactly what was computed: compare
    // against the single-threaded oracle and check the generation tags.
    let mut arena_backed = 0usize;
    for resp in &held {
        let req = resp.request;
        let sub =
            search.significant_community(req.q, req.alpha as usize, req.beta as usize, req.algo);
        assert_eq!(
            resp.summary,
            CommunitySummary::from_subgraph(&sub),
            "{req:?}: a held response diverged from the oracle after recycling churn"
        );
        if let Some(handle) = arena_handle(resp) {
            arena_backed += 1;
            assert!(
                handle.pinned(),
                "{req:?}: live handle's generation {} != slab generation {} — \
                 its slab was recycled under it",
                handle.generation(),
                handle.slab_generation()
            );
        }
    }
    assert!(
        arena_backed > held.len() / 2,
        "only {arena_backed}/{} held responses were arena-backed",
        held.len()
    );

    // Further storms (still holding the first storm's responses, but
    // keeping nothing new) keep recycling, and arena residency
    // **converges**: each worker's pool grows only until it covers the
    // live set plus its share of transient churn, so repeated identical
    // traffic must stop growing it (different eviction interleavings
    // shift the equilibrium a little between storms, hence a
    // convergence loop rather than a single-storm comparison).
    let mut prev = after_first;
    let mut converged = false;
    for seed in 2..8u64 {
        assert!(storm(seed, false).is_empty());
        let now = engine.stats();
        assert!(
            now.cache.entries <= cache_bound,
            "cache residency {} exceeds bound {cache_bound} after storm {seed}",
            now.cache.entries
        );
        assert!(
            now.arena_recycled > prev.arena_recycled,
            "storm {seed} never recycled"
        );
        if now.arena_bytes <= prev.arena_bytes + prev.arena_bytes / 20 {
            converged = true;
            prev = now;
            break;
        }
        prev = now;
    }
    assert!(
        converged,
        "arena residency kept growing ≥5% per identical storm (now {}B) — \
         it tracks traffic, not the live set",
        prev.arena_bytes
    );

    // First-storm handles survived every later storm untouched: their
    // slabs were never recycled, and their contents still match the
    // oracle (checked again below after all that churn).
    for resp in &held {
        if let Some(handle) = arena_handle(resp) {
            assert!(handle.pinned(), "{:?} lost its slab", resp.request);
        }
        let req = resp.request;
        let sub =
            search.significant_community(req.q, req.alpha as usize, req.beta as usize, req.algo);
        assert_eq!(
            resp.summary,
            CommunitySummary::from_subgraph(&sub),
            "{req:?}: storm-1 response corrupted by later recycling"
        );
    }
    drop(held);
    assert_eq!(engine.inflight_len(), 0, "a flight leaked");
    engine.shutdown();
}
