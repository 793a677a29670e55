//! Concurrent-install oracles for the batch path: while `install`
//! swaps the index under the pool, every batch response must carry a
//! self-consistent epoch (its summary equals the single-threaded oracle
//! on the graph that epoch served).
//!
//! Every summary is a view into the threshold profile of the snapshot
//! that answered it, so the second test holds responses across the
//! whole run and reads their edges only after the last install: each
//! must still materialise its own epoch's answer.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scs::{Algorithm, CommunitySearch};
use scs_service::{CommunitySummary, QueryEngine, QueryRequest, ServiceConfig};
use std::collections::HashMap;
use std::sync::Arc;

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 4,
        ..ServiceConfig::default()
    }
}

#[test]
fn batches_stay_sound_under_concurrent_installs() {
    // Two structurally different graphs of the same shape are installed
    // alternately while clients hammer the engine with batches.
    // Every response's epoch tag must be self-consistent: the summary
    // must equal the single-threaded oracle on the graph that epoch
    // served (even epochs = graph A, odd = graph B), however the batches
    // interleaved with the swaps.
    let mut rng = StdRng::seed_from_u64(1);
    let graph_a = bigraph::generators::random_bipartite(80, 80, 1000, &mut rng);
    let mut rng = StdRng::seed_from_u64(2);
    let graph_b = bigraph::generators::random_bipartite(80, 80, 1400, &mut rng);
    let search_a = CommunitySearch::shared(graph_a);
    let search_b = CommunitySearch::shared(graph_b);

    // Pre-compute both oracles for every key the clients may submit.
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

    let engine = QueryEngine::start(search_a.clone(), config());
    const INSTALLS: u64 = 12;
    std::thread::scope(|scope| {
        let engine = &engine;
        let keys = &keys;
        let expected = &expected;
        for c in 0..3u64 {
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + c);
                for _ in 0..25 {
                    let batch: Vec<QueryRequest> = (0..48)
                        .map(|_| keys[rng.gen_range(0..keys.len())])
                        .collect();
                    for resp in engine.query_batch(&batch) {
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
    assert_eq!(st.completed, 3 * 25 * 48);
    engine.shutdown();
}

#[test]
fn held_views_stay_bit_identical_under_concurrent_installs() {
    // Batches, per-request racers and 12 epoch-swap installs. Every
    // response — whichever worker answered it — must be bit-identical
    // to the single-threaded oracle for the epoch that served it, and
    // responses held across the whole run, their edges unread until
    // the last install is done, must still materialise that epoch's
    // answer.
    let mut rng = StdRng::seed_from_u64(41);
    let graph_a = bigraph::generators::random_bipartite(70, 70, 900, &mut rng);
    let mut rng = StdRng::seed_from_u64(42);
    let graph_b = bigraph::generators::random_bipartite(70, 70, 1200, &mut rng);
    let search_a = CommunitySearch::shared(graph_a);
    let search_b = CommunitySearch::shared(graph_b);

    let keys: Vec<QueryRequest> = search_a
        .graph()
        .vertices()
        .step_by(2)
        .flat_map(|v| {
            [
                QueryRequest::new(v, 2, 2, Algorithm::Peel),
                QueryRequest::new(v, 1, 2, Algorithm::Expand),
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

    let engine = QueryEngine::start(search_a.clone(), config());
    const INSTALLS: u64 = 12;
    let mut held: Vec<scs_service::QueryResponse> = Vec::new();
    std::thread::scope(|scope| {
        let engine = &engine;
        let keys = &keys;
        let expected = &expected;
        let mut joins = Vec::new();
        for c in 0..3u64 {
            joins.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(500 + c);
                let mut kept = Vec::new();
                for round in 0..25 {
                    let batch: Vec<QueryRequest> = (0..40)
                        .map(|_| keys[rng.gen_range(0..keys.len())])
                        .collect();
                    let resps = if round % 5 == 4 {
                        // Some per-request traffic races the batches.
                        batch.iter().map(|&r| engine.query(r)).collect()
                    } else {
                        engine.query_batch(&batch)
                    };
                    for (i, resp) in resps.into_iter().enumerate() {
                        if i % 9 == 0 {
                            // Held unread: its edges are emitted only
                            // after the run.
                            kept.push(resp);
                            continue;
                        }
                        let want = &expected[&resp.request][(resp.epoch % 2) as usize];
                        assert_eq!(
                            resp.summary, *want,
                            "epoch {} answer for {:?} does not match that epoch's graph",
                            resp.epoch, resp.request
                        );
                    }
                }
                kept
            }));
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
        for j in joins {
            held.extend(j.join().expect("client panicked"));
        }
    });

    let st = engine.stats();
    assert_eq!(st.epoch, INSTALLS, "installer must have finished");
    engine.shutdown();

    // Responses held across the whole run, with every install behind
    // them and the engine gone, read their own epoch's answer.
    assert!(!held.is_empty());
    assert!(
        held.iter().any(|r| r.epoch % 2 == 0) && held.iter().any(|r| r.epoch % 2 == 1),
        "held responses must span both graphs"
    );
    for resp in &held {
        let want = &expected[&resp.request][(resp.epoch % 2) as usize];
        assert_eq!(
            resp.summary, *want,
            "held response for {:?} (epoch {}) does not read its own epoch",
            resp.request, resp.epoch
        );
    }
}
