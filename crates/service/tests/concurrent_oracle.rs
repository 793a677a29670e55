//! Integration test: the concurrent engine is indistinguishable from a
//! direct single-threaded `CommunitySearch::significant_community` call.
//!
//! A ≥1000-query workload with repeats is replayed from several client
//! threads against a ≥4-worker engine; every response — whichever
//! worker answered it, and whether or not its request raced the
//! profile build — must be byte-identical (same edge set, same member
//! counts, same min weight) to the oracle's answer for that request.

use rand::rngs::StdRng;
use rand::SeedableRng;
use scs::{Algorithm, CommunitySearch, DynamicIndex, QueryWorkspace};
use scs_service::{
    build_workload, replay, CommunitySummary, QueryEngine, QueryRequest, ServiceConfig,
    WorkloadSpec,
};
use std::sync::Arc;

/// The single-threaded reference. It reuses one workspace across its
/// whole run — the same reuse discipline as the engine's workers — so
/// the oracle comparison also cross-checks warm-workspace results
/// against whatever path the engine took.
fn oracle(
    search: &CommunitySearch,
    req: &QueryRequest,
    ws: &mut QueryWorkspace,
) -> CommunitySummary {
    let (a, b) = (req.alpha as usize, req.beta as usize);
    let mut out = Vec::new();
    search.significant_community_into(req.q, a, b, req.algo, ws, &mut out);
    CommunitySummary::from_subgraph(&bigraph::Subgraph::from_edges(search.graph(), out))
}

#[test]
fn thousand_concurrent_queries_match_single_threaded_oracle() {
    let mut rng = StdRng::seed_from_u64(20210414);
    let graph = bigraph::generators::random_bipartite(120, 120, 1800, &mut rng);
    let search = CommunitySearch::shared(graph);

    let spec = WorkloadSpec {
        n_queries: 1200,
        alpha: 2,
        beta: 2,
        algo: Algorithm::Auto,
        repeat_fraction: 0.5,
        zipf: 0.0,
        seed: 7,
    };
    let workload = build_workload(&search, &spec);
    assert_eq!(workload.len(), 1200, "core must be populated at (2,2)");

    let engine = QueryEngine::start(
        search.clone(),
        ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        },
    );
    let (report, responses) = replay(&engine, &workload, 8);

    assert_eq!(responses.len(), workload.len());
    let mut ws = QueryWorkspace::new();
    for (i, (req, resp)) in workload.iter().zip(&responses).enumerate() {
        assert_eq!(resp.request, *req);
        let expect = oracle(&search, req, &mut ws);
        assert_eq!(
            resp.summary, expect,
            "response {i} diverged from the oracle"
        );
    }

    // The profile build ran in a worker's reusable workspace.
    assert!(report.stats.scratch_bytes > 0, "no scratch resident");
    assert_eq!(report.stats.completed, 1200);

    engine.shutdown();
}

#[test]
fn mixed_algorithms_and_parameters_match_oracle() {
    let mut rng = StdRng::seed_from_u64(99);
    let graph = bigraph::generators::random_bipartite(40, 40, 420, &mut rng);
    let search = CommunitySearch::shared(graph);

    // A grid workload: every vertex × a few (α,β) × every algorithm.
    let mut workload = Vec::new();
    for v in search.graph().vertices().step_by(3) {
        for (a, b) in [(1, 1), (2, 2), (1, 3)] {
            for algo in [Algorithm::Peel, Algorithm::Expand, Algorithm::Binary] {
                workload.push(QueryRequest::new(v, a, b, algo));
            }
        }
    }
    // Duplicate the whole batch so the second half races the first on
    // every key.
    let doubled: Vec<_> = workload.iter().chain(&workload).copied().collect();

    let engine = QueryEngine::start(
        search.clone(),
        ServiceConfig {
            workers: 6,
            ..ServiceConfig::default()
        },
    );
    let (_, responses) = replay(&engine, &doubled, 6);
    let mut ws = QueryWorkspace::new();
    for (req, resp) in doubled.iter().zip(&responses) {
        assert_eq!(resp.summary, oracle(&search, req, &mut ws), "req {req:?}");
    }
    engine.shutdown();
}

#[test]
fn epoch_swap_serves_updated_index_without_restart() {
    let mut rng = StdRng::seed_from_u64(5);
    let graph = bigraph::generators::random_bipartite(25, 25, 160, &mut rng);
    let mut dynidx = DynamicIndex::new(graph.clone());
    let engine = QueryEngine::start(
        CommunitySearch::shared(graph),
        ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        },
    );

    // Mutate the graph through the dynamic index: add a few edges that
    // don't exist yet.
    let mut added = 0;
    'outer: for u in 0..25 {
        for l in 0..25 {
            if dynidx.insert_edge(u, l, 3.0).is_ok() {
                added += 1;
                if added == 10 {
                    break 'outer;
                }
            }
        }
    }
    assert_eq!(added, 10);

    // Install the maintained snapshot; the engine must now answer like a
    // fresh single-threaded search over the updated graph.
    let updated = Arc::new(dynidx.snapshot());
    let epoch = engine.install(updated.clone());
    assert_eq!(epoch, 1);

    let mut ws = QueryWorkspace::new();
    for v in updated.graph().vertices().step_by(5) {
        let req = QueryRequest::new(v, 2, 2, Algorithm::Auto);
        let resp = engine.query(req);
        assert_eq!(resp.epoch, 1);
        assert_eq!(resp.summary, oracle(&updated, &req, &mut ws));
    }
    engine.shutdown();
}
