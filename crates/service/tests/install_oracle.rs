//! Concurrent-install oracles: while `install` swaps the index under
//! the pool, every response from several per-request client threads
//! must carry a self-consistent epoch (its summary equals the
//! single-threaded oracle on the graph that epoch served).
//!
//! Every summary is a view into the threshold profile of the snapshot
//! that answered it, so the second test holds responses across the
//! whole run and reads their edges only after the last install: each
//! must still materialise its own epoch's answer.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scs::{Algorithm, CommunitySearch};
use scs_service::{CommunitySummary, QueryEngine, QueryRequest, QueryResponse, ServiceConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const INSTALLS: u64 = 12;
/// Requests each client sends at the least; clients keep going until
/// the installer is done, so their traffic spans every epoch.
const MIN_PER_CLIENT: usize = 600;

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 4,
        ..ServiceConfig::default()
    }
}

/// Two structurally different graphs of the same shape, the keys the
/// clients draw from, and both graphs' oracle answers for every key.
struct Fixture {
    search_a: Arc<CommunitySearch>,
    search_b: Arc<CommunitySearch>,
    keys: Vec<QueryRequest>,
    /// `[answer on A, answer on B]` per key.
    expected: HashMap<QueryRequest, [CommunitySummary; 2]>,
}

/// The keys are every second vertex of graph A at the two
/// (α, β, algorithm) triples.
fn fixture(
    seeds: (u64, u64),
    n: usize,
    edges: (usize, usize),
    triples: [(usize, usize, Algorithm); 2],
) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seeds.0);
    let search_a = CommunitySearch::shared(bigraph::generators::random_bipartite(
        n, n, edges.0, &mut rng,
    ));
    let mut rng = StdRng::seed_from_u64(seeds.1);
    let search_b = CommunitySearch::shared(bigraph::generators::random_bipartite(
        n, n, edges.1, &mut rng,
    ));
    let keys: Vec<QueryRequest> = search_a
        .graph()
        .vertices()
        .step_by(2)
        .flat_map(|v| triples.map(|(a, b, algo)| QueryRequest::new(v, a, b, algo)))
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
    Fixture {
        search_a,
        search_b,
        keys,
        expected,
    }
}

/// Alternately installs `b` and `a`, `INSTALLS` times, 7 ms apart, then
/// raises `done`.
fn install_alternately(
    engine: &QueryEngine,
    a: &Arc<CommunitySearch>,
    b: &Arc<CommunitySearch>,
    done: &AtomicBool,
) {
    for i in 0..INSTALLS {
        std::thread::sleep(std::time::Duration::from_millis(7));
        engine.install(if i % 2 == 0 { b.clone() } else { a.clone() });
    }
    // ordering: Relaxed — a plain stop flag; no data is published
    // through it.
    done.store(true, Ordering::Relaxed);
}

/// Whether a client has more to send: its minimum, and then until the
/// installer is done.
fn keep_going(sent: usize, done: &AtomicBool) -> bool {
    // ordering: Relaxed — see `install_alternately`.
    sent < MIN_PER_CLIENT || !done.load(Ordering::Relaxed)
}

#[test]
fn responses_stay_sound_under_concurrent_installs() {
    // Graphs A and B are installed alternately while three clients
    // hammer the engine with per-request traffic. Every response's
    // epoch tag must be self-consistent: the summary must equal the
    // single-threaded oracle on the graph that epoch served (even
    // epochs = graph A, odd = graph B), however the requests
    // interleaved with the swaps.
    let Fixture {
        search_a,
        search_b,
        keys,
        expected,
    } = fixture(
        (1, 2),
        80,
        (1000, 1400),
        [(2, 2, Algorithm::Auto), (1, 2, Algorithm::Peel)],
    );
    let engine = QueryEngine::start(search_a.clone(), config());
    let done = AtomicBool::new(false);
    let sent: usize = std::thread::scope(|scope| {
        let (engine, keys, expected, done) = (&engine, &keys, &expected, &done);
        let clients: Vec<_> = (0..3u64)
            .map(|c| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(100 + c);
                    let mut sent = 0;
                    while keep_going(sent, done) {
                        let resp = engine.query(keys[rng.gen_range(0..keys.len())]);
                        let want = &expected[&resp.request][(resp.epoch % 2) as usize];
                        assert_eq!(
                            resp.summary, *want,
                            "epoch {} answer for {:?} does not match that epoch's graph",
                            resp.epoch, resp.request
                        );
                        sent += 1;
                    }
                    sent
                })
            })
            .collect();
        install_alternately(engine, &search_a, &search_b, done);
        clients
            .into_iter()
            .map(|j| j.join().expect("client panicked"))
            .sum()
    });

    let st = engine.stats();
    assert_eq!(st.epoch, INSTALLS, "installer must have finished");
    assert_eq!(st.installs, INSTALLS);
    assert_eq!(st.completed, sent as u64);
    engine.shutdown();
}

#[test]
fn held_views_stay_bit_identical_under_concurrent_installs() {
    // Per-request racers from three clients and 12 epoch-swap
    // installs. Every response — whichever worker answered it — must
    // be bit-identical to the single-threaded oracle for the epoch that
    // served it, and responses held across the whole run, their edges
    // unread until the last install is done, must still materialise
    // that epoch's answer.
    let Fixture {
        search_a,
        search_b,
        keys,
        expected,
    } = fixture(
        (41, 42),
        70,
        (900, 1200),
        [(2, 2, Algorithm::Peel), (1, 2, Algorithm::Expand)],
    );
    let engine = QueryEngine::start(search_a.clone(), config());
    let done = AtomicBool::new(false);
    let held: Vec<QueryResponse> = std::thread::scope(|scope| {
        let (engine, keys, expected, done) = (&engine, &keys, &expected, &done);
        let clients: Vec<_> = (0..3u64)
            .map(|c| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(500 + c);
                    let mut kept = Vec::new();
                    let mut sent = 0;
                    while keep_going(sent, done) {
                        let resp = engine.query(keys[rng.gen_range(0..keys.len())]);
                        sent += 1;
                        if sent % 9 == 0 {
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
                    kept
                })
            })
            .collect();
        install_alternately(engine, &search_a, &search_b, done);
        clients
            .into_iter()
            .flat_map(|j| j.join().expect("client panicked"))
            .collect()
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
