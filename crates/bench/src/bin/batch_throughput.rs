//! Batched-submission smoke benchmark in two modes: the same replayed
//! workload submitted per-request (`QueryEngine::query`, one queue
//! round-trip and snapshot read per request) and batched (`QueryEngine::submit_batch`, those costs paid once per
//! batch, one worker per batch).
//!
//! The graph is the same grid of small disjoint bicliques as
//! `workspace_reuse`: every answer is tiny, so the per-request fixed
//! costs dominate and batching's amortization is exactly what is
//! measured. Each mode gets a fresh engine per round;
//! rounds are interleaved and each mode keeps its best, so one
//! scheduling hiccup cannot decide the comparison.
//!
//! CI gate, exiting nonzero on failure: batched submission must not
//! fall below per-request submission, measured at `SCS_CLIENTS`
//! concurrent clients.
//!
//! Knobs: `SCS_QUERIES` (workload size, floor 2000 here), `SCS_SEED`,
//! `SCS_BATCH` (batch size, default 64), `SCS_CLIENTS` (default 2).
//! Malformed knob values abort loudly (see `scs_bench::env_or`).
//!
//! `cargo run -p scs-bench --release --bin batch_throughput`

use bigraph::GraphBuilder;
use scs::{Algorithm, CommunitySearch};
use scs_bench::{env_usize, print_header, print_row, Config};
use scs_service::{
    build_workload, replay, replay_batched, QueryEngine, ReplayReport, ServiceConfig, WorkloadSpec,
};
use std::sync::Arc;

/// Disjoint `blocks` × (`side` × `side`) bicliques with mixed weights.
fn biclique_grid(blocks: usize, side: usize) -> bigraph::BipartiteGraph {
    let mut b = GraphBuilder::new();
    for blk in 0..blocks {
        for u in 0..side {
            for l in 0..side {
                let w = if (u + l) % 2 == 0 { 5.0 } else { 3.0 };
                b.add_edge(blk * side + u, blk * side + l, w);
            }
        }
    }
    b.build().expect("grid is duplicate-free")
}

/// Best replay QPS of `rounds` interleaved measurements on fresh
/// engines, plus the last round's report for counters.
fn best_of(
    rounds: usize,
    search: &Arc<CommunitySearch>,
    config: &ServiceConfig,
    workload: &[scs_service::QueryRequest],
    clients: usize,
    batch_size: usize,
) -> (f64, ReplayReport) {
    let mut best = 0.0f64;
    let mut last = None;
    for _ in 0..rounds {
        let engine = QueryEngine::start(search.clone(), config.clone());
        let (report, _) = if batch_size <= 1 {
            replay(&engine, workload, clients)
        } else {
            replay_batched(&engine, workload, clients, batch_size)
        };
        engine.shutdown();
        best = best.max(report.replay_qps);
        last = Some(report);
    }
    (best, last.expect("at least one round"))
}

fn main() {
    let cfg = Config::from_env();
    let batch_size = env_usize("SCS_BATCH", 64, 1);
    let clients = env_usize("SCS_CLIENTS", 2, 1);
    let workers = 2usize;

    let g = biclique_grid(1500, 4);
    println!("batch_throughput on {}", g.summary());
    let search = CommunitySearch::shared(g);
    let spec = WorkloadSpec {
        n_queries: cfg.n_queries.max(2000),
        alpha: 2,
        beta: 2,
        algo: Algorithm::Peel,
        repeat_fraction: 0.3,
        zipf: 0.0,
        seed: cfg.seed,
    };
    let workload = build_workload(&search, &spec);
    println!(
        "workload: {} queries, repeat fraction {:.2}, {clients} clients, {workers} workers, batch size {batch_size}\n",
        workload.len(),
        spec.repeat_fraction,
    );

    let config = ServiceConfig {
        workers,
        ..ServiceConfig::default()
    };

    let (per_request_best, _) = best_of(3, &search, &config, &workload, clients, 1);
    let (batched_best, batched_report) =
        best_of(3, &search, &config, &workload, clients, batch_size);

    let widths = [30, 14];
    print_header(&["mode", "QPS"], &widths);
    print_row(
        &["per-request".into(), format!("{per_request_best:.0}")],
        &widths,
    );
    print_row(
        &[
            format!("batched ({batch_size}/job)"),
            format!("{batched_best:.0}"),
        ],
        &widths,
    );
    println!(
        "\nbatching speedup {:.2}x over {} batch jobs",
        batched_best / per_request_best,
        batched_report.stats.batches,
    );

    if batched_best < per_request_best {
        eprintln!("REGRESSION: batched submission throughput fell below per-request submission");
        std::process::exit(1);
    }
}
