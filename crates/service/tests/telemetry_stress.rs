//! Concurrent-recording stress for the telemetry plane.
//!
//! Two layers:
//!
//! * [`Telemetry`] in isolation, hammered from many threads — after the
//!   dust settles every histogram must be internally consistent
//!   (`count == Σ buckets`, sum and max match what was recorded).
//! * A live [`QueryEngine`] under per-request load from several client
//!   threads — the per-algorithm totals and the reply stage must
//!   reconcile with the engine's own `completed` counter, and for every
//!   request retained in the slow-query ring the per-stage sums must
//!   reconcile with its end-to-end latency: the stages tile the request
//!   (`queue + snapshot + answer + publish + reply ≈ total`).

use bigraph::builder::figure2_example;
use scs::{Algorithm, CommunitySearch};
use scs_service::telemetry::{StageSet, Telemetry};
use scs_service::{
    CommunitySummary, QueryEngine, QueryRequest, QueryResponse, ServiceConfig, Stage, N_STAGES,
};

/// Truncation slack: each stage is truncated to whole µs when recorded
/// (and the total once more), so a fully tiled request may reconcile
/// up to ~1µs short per stage.
const SLACK_US: u64 = N_STAGES as u64 + 2;

#[test]
fn concurrent_recording_keeps_histograms_consistent() {
    let telem = Telemetry::new(8);
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 5_000;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let telem = &telem;
            scope.spawn(move || {
                let resp = QueryResponse {
                    request: QueryRequest::new(
                        bigraph::Vertex(t as u32),
                        2,
                        2,
                        Algorithm::ALL[(t % Algorithm::ALL.len() as u64) as usize],
                    ),
                    summary: CommunitySummary::empty(),
                    cached: false,
                    coalesced: false,
                    epoch: 0,
                    service_us: 0,
                };
                let mut stages = StageSet::new();
                for i in 0..PER_THREAD {
                    // Deterministic spread across buckets, with the
                    // kernel dominating like a real request.
                    let kernel = 1 + (t * PER_THREAD + i) % 4096;
                    stages
                        .set(Stage::QueueWait, i % 7)
                        .set(Stage::Snapshot, 1)
                        .set(Stage::Kernel, kernel);
                    telem.record(&stages.trace(&resp, i % 7 + 1 + kernel));
                }
            });
        }
    });
    let snap = telem.snapshot();
    let mut total_count = 0u64;
    for algo_hist in &snap.total {
        let bucket_sum: u64 = (0..scs_service::HistSnapshot::N_BUCKETS)
            .map(|i| algo_hist.bucket_count(i))
            .sum();
        assert_eq!(
            algo_hist.count(),
            bucket_sum,
            "count must equal the sum of bucket counts"
        );
        total_count += algo_hist.count();
    }
    assert_eq!(total_count, THREADS * PER_THREAD, "no record may be lost");
    for algo_stages in &snap.stage {
        for hist in algo_stages {
            let bucket_sum: u64 = (0..scs_service::HistSnapshot::N_BUCKETS)
                .map(|i| hist.bucket_count(i))
                .sum();
            assert_eq!(hist.count(), bucket_sum);
        }
    }
    // Every record touched the same three stages.
    for algo_stages in &snap.stage {
        let kernels = algo_stages[Stage::Kernel as usize].count();
        assert_eq!(algo_stages[Stage::QueueWait as usize].count(), kernels);
        assert_eq!(algo_stages[Stage::Snapshot as usize].count(), kernels);
    }
}

#[test]
fn engine_under_load_reconciles_stages_with_totals() {
    let engine = QueryEngine::start(
        CommunitySearch::shared(figure2_example()),
        ServiceConfig {
            workers: 4,
            // Retain plenty so the ring holds many traces.
            slow_ring_capacity: 64,
            ..ServiceConfig::default()
        },
    );
    let g = engine.current_index().0.graph().clone();
    std::thread::scope(|scope| {
        let engine = &engine;
        let g = &g;
        for c in 0..4usize {
            scope.spawn(move || {
                let algo = Algorithm::ALL[c % Algorithm::ALL.len()];
                for round in 0..8 {
                    for i in 0..g.n_upper() {
                        engine.query(QueryRequest::new(g.upper(i), 2, 2, algo));
                        engine.query(QueryRequest::new(g.upper(i), 1 + (round % 2), 2, algo));
                    }
                }
            });
        }
    });

    let stats = engine.stats();
    let algo_total: u64 = stats.algos.iter().map(|a| a.total.count).sum();
    assert_eq!(
        algo_total, stats.completed,
        "every completed request must be recorded exactly once"
    );
    // Every request waits in the queue; the queue-wait stage must have
    // seen them all.
    assert_eq!(stats.stages[Stage::QueueWait as usize].count, algo_total);
    // Every request records its reply stage after answering, so the
    // reply stage has seen them all too.
    assert_eq!(stats.stages[Stage::Reply as usize].count, stats.completed);

    // Per-request reconciliation on what the ring retained — the ring
    // keeps the worst requests with their full breakdown, so these are
    // real recorded requests, not aggregates.
    let slow = stats.slow;
    assert!(!slow.is_empty(), "load this size must retain slow queries");
    for sq in &slow {
        let stage_sum: u64 = sq.stages_us.iter().sum();
        assert!(
            stage_sum <= sq.total_us + SLACK_US,
            "stages exceed the request: {sq}"
        );
        assert!(
            stage_sum + SLACK_US >= sq.total_us,
            "stages must tile the request: {stage_sum}µs attributed of {}µs total ({sq})",
            sq.total_us
        );
    }
    engine.shutdown();
}
