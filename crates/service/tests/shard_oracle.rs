//! Integration tests for the sharded engine: partitioning the workers
//! and index replicas across shards must be invisible in the answers.
//! A sharded engine (1, 2 or 7 shards) must be indistinguishable —
//! response by response, counter by counter — from the unsharded engine
//! and from the single-threaded oracle; the cross-shard batch fan-out
//! must preserve submission order; and installs must fan out atomically
//! enough that every response's epoch tag is self-consistent under
//! concurrent swaps and mixed traffic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scs::{Algorithm, CommunitySearch};
use scs_service::{
    build_workload, replay, replay_batched, CommunitySummary, QueryEngine, QueryRequest,
    ServiceConfig, WorkloadSpec,
};
use std::collections::HashMap;
use std::sync::Arc;

fn config(shards: usize) -> ServiceConfig {
    ServiceConfig {
        workers: 8,
        shards,
        ..ServiceConfig::default()
    }
}

#[test]
fn sharded_matches_unsharded_and_oracle_bit_identically() {
    let mut rng = StdRng::seed_from_u64(20210707);
    let graph = bigraph::generators::random_bipartite(120, 120, 1800, &mut rng);
    let search = CommunitySearch::shared(graph);
    let spec = WorkloadSpec {
        n_queries: 800,
        alpha: 2,
        beta: 2,
        algo: Algorithm::Auto,
        repeat_fraction: 0.5,
        zipf: 0.0,
        seed: 13,
    };
    let workload = build_workload(&search, &spec);
    assert_eq!(workload.len(), 800, "core must be populated at (2,2)");

    // One serial client: epochs and counters are deterministic, so
    // "bit-identical" can include them. Batched submission exercises
    // the cross-shard fan-out (64-request batches span every shard).
    let mut runs = Vec::new();
    for shards in [1usize, 2, 7] {
        let engine = QueryEngine::start(search.clone(), config(shards));
        let (report, resps) = replay_batched(&engine, &workload, 1, 64);
        engine.shutdown();
        runs.push((shards, report, resps));
    }

    // Single-threaded oracle for every slot, then pairwise identity.
    let (_, base_report, base) = &runs[0];
    for (i, req) in workload.iter().enumerate() {
        let sub =
            search.significant_community(req.q, req.alpha as usize, req.beta as usize, req.algo);
        let want = CommunitySummary::from_subgraph(&sub);
        for (shards, _, resps) in &runs {
            let r = &resps[i];
            assert_eq!(r.request, *req, "{shards} shards: slot {i} out of order");
            assert_eq!(
                r.summary, want,
                "{shards} shards: slot {i} diverged from the oracle"
            );
            assert_eq!(
                r.epoch, base[i].epoch,
                "{shards} shards: slot {i} epoch diverged from unsharded"
            );
        }
    }

    // Counter identity: the same stream lands the same totals whether
    // one engine or seven shards served it.
    for (shards, report, _) in &runs[1..] {
        let (a, b) = (&base_report.stats, &report.stats);
        assert_eq!(a.completed, b.completed, "{shards} shards: completed");
        assert_eq!(
            b.per_shard.iter().map(|s| s.completed).sum::<u64>(),
            b.completed,
            "{shards} shards: per-shard rows must sum to the aggregate"
        );
    }
}

#[test]
fn sharded_stats_are_submission_mode_invariant() {
    // Per-request vs batched against a 7-shard engine: answers and
    // per-request counters must not depend on how requests arrived,
    // exactly as the unsharded batch oracle guarantees for one shard.
    let mut rng = StdRng::seed_from_u64(31);
    let graph = bigraph::generators::random_bipartite(100, 100, 1500, &mut rng);
    let search = CommunitySearch::shared(graph);
    let spec = WorkloadSpec {
        n_queries: 600,
        alpha: 2,
        beta: 2,
        algo: Algorithm::Auto,
        repeat_fraction: 0.5,
        zipf: 0.0,
        seed: 19,
    };
    let workload = build_workload(&search, &spec);
    assert_eq!(workload.len(), 600);

    let engine = QueryEngine::start(search.clone(), config(7));
    let (per_report, per) = replay(&engine, &workload, 1);
    engine.shutdown();

    let engine = QueryEngine::start(search.clone(), config(7));
    let (batch_report, batched) = replay_batched(&engine, &workload, 1, 48);
    engine.shutdown();

    for (i, (a, b)) in per.iter().zip(&batched).enumerate() {
        assert_eq!(a.request, b.request, "slot {i} out of order");
        assert_eq!(a.summary, b.summary, "slot {i} diverged across modes");
        assert_eq!(a.epoch, b.epoch, "slot {i}: epoch diverged across modes");
    }
    let (a, b) = (&per_report.stats, &batch_report.stats);
    assert_eq!(a.completed, b.completed);
    let per_shard = |s: &scs_service::ServiceStats| -> Vec<u64> {
        s.per_shard.iter().map(|row| row.completed).collect()
    };
    assert_eq!(per_shard(a), per_shard(b), "routing depends on the mode");
    assert!(b.batches > 0, "batched run recorded no batch jobs");
}

#[test]
fn sharded_engine_stays_sound_under_concurrent_installs() {
    // Mixed per-request and cross-shard batch traffic from several
    // clients while an installer alternates two structurally different
    // graphs. Installs fan out to every shard; each response's epoch
    // tag must match the graph that epoch served (even = A, odd = B) —
    // a shard serving at a stale epoch, or a fan-out merge pairing an
    // answer with the wrong slot, fails the oracle immediately.
    let mut rng = StdRng::seed_from_u64(1);
    let graph_a = bigraph::generators::random_bipartite(80, 80, 1000, &mut rng);
    let mut rng = StdRng::seed_from_u64(2);
    let graph_b = bigraph::generators::random_bipartite(80, 80, 1400, &mut rng);
    let search_a = CommunitySearch::shared(graph_a);
    let search_b = CommunitySearch::shared(graph_b);

    let keys: Vec<QueryRequest> = search_a
        .graph()
        .vertices()
        .step_by(2)
        .flat_map(|v| {
            [
                QueryRequest::new(v, 2, 2, Algorithm::Auto),
                QueryRequest::new(v, 1, 2, Algorithm::Peel),
            ]
        })
        .collect();
    let mut expected: HashMap<QueryRequest, [CommunitySummary; 2]> = HashMap::new();
    for req in &keys {
        let on = |search: &Arc<CommunitySearch>| {
            let sub = search.significant_community(
                req.q,
                req.alpha as usize,
                req.beta as usize,
                req.algo,
            );
            CommunitySummary::from_subgraph(&sub)
        };
        expected.insert(*req, [on(&search_a), on(&search_b)]);
    }
    assert!(
        expected.values().any(|[a, b]| a != b),
        "graphs must disagree somewhere or epoch mixing is undetectable"
    );

    let engine = QueryEngine::start(
        search_a.clone(),
        ServiceConfig {
            workers: 6,
            shards: 3,
            ..ServiceConfig::default()
        },
    );
    const INSTALLS: u64 = 12;
    std::thread::scope(|scope| {
        let engine = &engine;
        let keys = &keys;
        let expected = &expected;
        for c in 0..3u64 {
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(700 + c);
                for round in 0..25 {
                    let batch: Vec<QueryRequest> = (0..48)
                        .map(|_| keys[rng.gen_range(0..keys.len())])
                        .collect();
                    let resps = if round % 4 == 3 {
                        // Per-request traffic races the fan-out batches.
                        batch.iter().map(|&r| engine.query(r)).collect()
                    } else {
                        engine.query_batch(&batch)
                    };
                    for (i, resp) in resps.into_iter().enumerate() {
                        assert_eq!(resp.request, batch[i], "slot {i} out of order");
                        let want = &expected[&resp.request][(resp.epoch % 2) as usize];
                        assert_eq!(
                            resp.summary, *want,
                            "epoch {} answer for {:?} does not match that epoch's graph",
                            resp.epoch, resp.request
                        );
                    }
                }
            });
        }
        scope.spawn(move || {
            for i in 0..INSTALLS {
                std::thread::sleep(std::time::Duration::from_millis(7));
                let next = if i % 2 == 0 {
                    search_b.clone()
                } else {
                    search_a.clone()
                };
                engine.install(next);
            }
        });
    });

    let st = engine.stats();
    assert_eq!(st.epoch, INSTALLS, "installer must have finished");
    assert_eq!(
        st.installs, INSTALLS,
        "per-shard install fan-out multiply-counted"
    );
    assert_eq!(st.per_shard.len(), 3);
    assert!(
        st.per_shard.iter().all(|s| s.completed > 0),
        "a shard sat idle through the whole run: {:?}",
        st.per_shard
    );
    assert_eq!(st.completed, 3 * 25 * 48);
    engine.shutdown();
}
