//! Integration test: batched submission is indistinguishable from
//! per-request submission — and both from the single-threaded oracle.
//!
//! The same generated workload is replayed twice against identically
//! configured engines, once with per-request submit+wait and once in
//! batches, and every pair of responses is compared one-to-one. A mixed
//! concurrent run (batches racing single submissions against one engine)
//! then checks that the two paths share the engine's threshold profiles
//! soundly.

use rand::rngs::StdRng;
use rand::SeedableRng;
use scs::{Algorithm, CommunitySearch};
use scs_service::{
    build_workload, replay, replay_batched, CommunitySummary, QueryEngine, QueryRequest,
    ServiceConfig, WorkloadSpec,
};

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 4,
        ..ServiceConfig::default()
    }
}

#[test]
fn batched_replay_is_bit_identical_to_per_request() {
    let mut rng = StdRng::seed_from_u64(20210415);
    let graph = bigraph::generators::random_bipartite(120, 120, 1800, &mut rng);
    let search = CommunitySearch::shared(graph);

    let spec = WorkloadSpec {
        n_queries: 1000,
        alpha: 2,
        beta: 2,
        algo: Algorithm::Auto,
        repeat_fraction: 0.5,
        zipf: 0.0,
        seed: 11,
    };
    let workload = build_workload(&search, &spec);
    assert_eq!(workload.len(), 1000, "core must be populated at (2,2)");

    let engine = QueryEngine::start(search.clone(), config());
    let (_, per_request) = replay(&engine, &workload, 6);
    engine.shutdown();

    let engine = QueryEngine::start(search.clone(), config());
    let (report, batched) = replay_batched(&engine, &workload, 6, 32);
    engine.shutdown();

    assert_eq!(per_request.len(), batched.len());
    for (i, ((req, a), b)) in workload.iter().zip(&per_request).zip(&batched).enumerate() {
        assert_eq!(a.request, *req, "per-request slot {i} out of order");
        assert_eq!(b.request, *req, "batched slot {i} out of order");
        assert_eq!(
            a.summary, b.summary,
            "slot {i} diverged between submission modes"
        );
        let sub =
            search.significant_community(req.q, req.alpha as usize, req.beta as usize, req.algo);
        assert_eq!(
            b.summary,
            CommunitySummary::from_subgraph(&sub),
            "slot {i} diverged from the single-threaded oracle"
        );
    }

    // The batched run actually took the batch path.
    assert_eq!(report.stats.batched, 1000);
    assert_eq!(report.stats.completed, 1000);
    assert!(
        report.stats.batches >= 32,
        "batches={}",
        report.stats.batches
    );
}

#[test]
fn service_stats_are_submission_mode_invariant() {
    // The same workload replayed serially (one client) through two
    // fresh engines — per-request and batched — must leave identical
    // per-request counters behind: the batch path may amortize the
    // queue hop and the snapshot read, but it must *account* per
    // request.
    let mut rng = StdRng::seed_from_u64(20260730);
    let graph = bigraph::generators::random_bipartite(90, 90, 1200, &mut rng);
    let search = CommunitySearch::shared(graph);
    let spec = WorkloadSpec {
        n_queries: 400,
        alpha: 2,
        beta: 2,
        algo: Algorithm::Auto,
        repeat_fraction: 0.5,
        zipf: 0.0,
        seed: 5,
    };
    let workload = build_workload(&search, &spec);
    assert_eq!(workload.len(), 400);

    let per_request = QueryEngine::start(search.clone(), config());
    let (_, _) = replay(&per_request, &workload, 1);
    let a = per_request.stats();
    per_request.shutdown();

    let batched = QueryEngine::start(search.clone(), config());
    let (_, _) = replay_batched(&batched, &workload, 1, 32);
    let b = batched.stats();
    batched.shutdown();

    assert_eq!(a.completed, b.completed, "batched: completed drifted");
    let counts = |s: &scs_service::ServiceStats| s.algos.map(|row| row.total.count);
    assert_eq!(
        counts(&a),
        counts(&b),
        "batched: per-algorithm rows drifted"
    );
    assert_eq!((a.batched, b.batched), (0, 400));
}

#[test]
fn serial_batches_match_per_request_slot_for_slot() {
    let mut rng = StdRng::seed_from_u64(20210415);
    let graph = bigraph::generators::random_bipartite(120, 120, 1800, &mut rng);
    let search = CommunitySearch::shared(graph);
    let spec = WorkloadSpec {
        n_queries: 900,
        alpha: 2,
        beta: 2,
        algo: Algorithm::Auto,
        repeat_fraction: 0.5,
        zipf: 0.0,
        seed: 11,
    };
    let workload = build_workload(&search, &spec);
    assert_eq!(workload.len(), 900, "core must be populated at (2,2)");

    // One client everywhere: a serial submitter makes epochs and
    // counters deterministic, so "bit-identical" can include them.
    let engine = QueryEngine::start(search.clone(), config());
    let (batch_report, batched) = replay_batched(&engine, &workload, 1, 64);
    engine.shutdown();

    let engine = QueryEngine::start(search.clone(), config());
    let (per_report, per_request) = replay(&engine, &workload, 1);
    engine.shutdown();

    for (i, req) in workload.iter().enumerate() {
        let (b, p) = (&batched[i], &per_request[i]);
        assert_eq!(b.request, *req, "batched slot {i} out of order");
        assert_eq!(p.request, *req, "per-request slot {i} out of order");
        assert_eq!(
            b.summary, p.summary,
            "slot {i}: batched vs per-request diverged"
        );
        assert_eq!(
            b.epoch, p.epoch,
            "slot {i}: epoch diverged between batched and per-request"
        );
        let sub =
            search.significant_community(req.q, req.alpha as usize, req.beta as usize, req.algo);
        assert_eq!(
            b.summary,
            CommunitySummary::from_subgraph(&sub),
            "slot {i} diverged from the single-threaded oracle"
        );
    }

    assert_eq!(batch_report.stats.completed, per_report.stats.completed);
}

#[test]
fn one_giant_batch_matches_oracle() {
    let mut rng = StdRng::seed_from_u64(99);
    let graph = bigraph::generators::random_bipartite(150, 150, 2200, &mut rng);
    let search = CommunitySearch::shared(graph);
    let engine = QueryEngine::start(search.clone(), config());
    // Every vertex twice (two algorithms) in one submission.
    let reqs: Vec<QueryRequest> = search
        .graph()
        .vertices()
        .flat_map(|v| {
            [
                QueryRequest::new(v, 2, 2, Algorithm::Peel),
                QueryRequest::new(v, 1, 2, Algorithm::Expand),
            ]
        })
        .collect();
    let resps = engine.query_batch(&reqs);
    engine.shutdown();

    for (req, resp) in reqs.iter().zip(&resps) {
        assert_eq!(resp.request, *req, "submission order broken");
        let sub =
            search.significant_community(req.q, req.alpha as usize, req.beta as usize, req.algo);
        assert_eq!(
            resp.summary,
            CommunitySummary::from_subgraph(&sub),
            "{req:?} diverged from the oracle"
        );
    }
}

#[test]
fn batches_race_single_requests_on_one_engine() {
    let mut rng = StdRng::seed_from_u64(77);
    let graph = bigraph::generators::random_bipartite(60, 60, 700, &mut rng);
    let search = CommunitySearch::shared(graph);

    let spec = WorkloadSpec {
        n_queries: 400,
        alpha: 2,
        beta: 2,
        algo: Algorithm::Auto,
        repeat_fraction: 0.6,
        zipf: 0.0,
        seed: 3,
    };
    let workload = build_workload(&search, &spec);
    assert!(!workload.is_empty());

    // Half the clients submit per-request, half in batches, all racing
    // on the same engine over the same keys, so batch and single
    // requests race the one profile build and then share its classes.
    let engine = QueryEngine::start(search.clone(), config());
    let mut collected: Vec<(QueryRequest, CommunitySummary)> = Vec::new();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for c in 0..4usize {
            let engine = &engine;
            let workload = &workload;
            joins.push(scope.spawn(move || {
                let mine: Vec<QueryRequest> = (0..workload.len())
                    .skip(c)
                    .step_by(4)
                    .map(|i| workload[i])
                    .collect();
                let mut got = Vec::new();
                if c % 2 == 0 {
                    for chunk in mine.chunks(16) {
                        for (req, resp) in chunk.iter().zip(engine.query_batch(chunk)) {
                            got.push((*req, resp.summary.clone()));
                        }
                    }
                } else {
                    for req in mine {
                        got.push((req, engine.query(req).summary.clone()));
                    }
                }
                got
            }));
        }
        for j in joins {
            collected.extend(j.join().expect("client panicked"));
        }
    });
    engine.shutdown();

    for (req, summary) in collected {
        let sub =
            search.significant_community(req.q, req.alpha as usize, req.beta as usize, req.algo);
        assert_eq!(
            summary,
            CommunitySummary::from_subgraph(&sub),
            "{req:?} diverged under mixed batch/single racing"
        );
    }
}
