//! Serving-throughput scaling: replays the same workload through the
//! `scs-service` engine with 1/2/4/8 workers and reports QPS, speedup
//! over the single-worker run and latency quantiles — then re-runs the widest configuration sharded (2 shards) and gates
//! on every shard actually serving traffic.
//!
//! Knobs: `SCS_SCALE` (dataset scale, default 0.05 here — serving runs
//! live on a bigger graph than the micro-benches), `SCS_SEED`,
//! `SCS_QUERIES` (workload size, default 2000 here), `SCS_DATASET`
//! (analogue name, default `ML`).

use scs::{Algorithm, CommunitySearch};
use scs_bench::{env_or, env_usize, load_dataset, print_table, Config};
use scs_service::{build_workload, replay, QueryEngine, ServiceConfig, WorkloadSpec};

fn main() {
    // This binary's own defaults differ from the harness-wide ones;
    // re-read the knobs through the loud parser so a malformed value
    // aborts instead of silently measuring the default.
    let mut cfg = Config::from_env();
    cfg.scale = env_or("SCS_SCALE", 0.05);
    cfg.n_queries = env_usize("SCS_QUERIES", 2000, 1);
    let dataset = env_or("SCS_DATASET", "ML".to_string());

    let g = load_dataset(&cfg, &dataset);
    println!("service_scaling on {dataset}: {}", g.summary());
    let search = CommunitySearch::shared(g);
    let spec = WorkloadSpec {
        n_queries: cfg.n_queries,
        alpha: 2,
        beta: 2,
        algo: Algorithm::Auto,
        repeat_fraction: 0.5,
        zipf: 0.0,
        seed: cfg.seed,
    };
    let workload = build_workload(&search, &spec);
    if workload.is_empty() {
        eprintln!("(2,2)-core is empty at this scale; raise SCS_SCALE");
        std::process::exit(1);
    }
    println!(
        "workload: {} queries, repeat fraction {:.2}, seed {}\n",
        workload.len(),
        spec.repeat_fraction,
        spec.seed
    );

    let header = ["workers", "QPS", "speedup", "p50 µs", "p99 µs"];
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut baseline_qps = None;
    for workers in [1usize, 2, 4, 8] {
        let engine = QueryEngine::start(
            search.clone(),
            ServiceConfig {
                workers,
                ..ServiceConfig::default()
            },
        );
        let (report, _) = replay(&engine, &workload, workers * 2);
        engine.shutdown();
        let qps = report.replay_qps;
        let base = *baseline_qps.get_or_insert(qps);
        rows.push(vec![
            workers.to_string(),
            format!("{qps:.0}"),
            format!("{:.2}x", qps / base),
            report.stats.p50_us.to_string(),
            report.stats.p99_us.to_string(),
        ]);
    }
    print_table(&header, &rows);

    // Sharded run: same workload, 8 workers split across 2 shards. The
    // gate is engagement, not speed — every shard must have completed
    // work (the router spreads core-sampled vertices), and the shard
    // rows must account for the full aggregate.
    let engine = QueryEngine::start(
        search.clone(),
        ServiceConfig {
            workers: 8,
            shards: 2,
            ..ServiceConfig::default()
        },
    );
    let (report, _) = replay(&engine, &workload, 16);
    engine.shutdown();
    let st = &report.stats;
    println!(
        "\nsharded (2 shards × 4 workers): {:.0} QPS, p99 {} µs",
        report.replay_qps, st.p99_us
    );
    for s in &st.per_shard {
        println!("  shard {}: {} completed", s.shard, s.completed);
    }
    if st.per_shard.len() != 2 || st.per_shard.iter().any(|s| s.completed == 0) {
        eprintln!("sharded engine left a shard idle: {:?}", st.per_shard);
        std::process::exit(1);
    }
    if st.per_shard.iter().map(|s| s.completed).sum::<u64>() != st.completed {
        eprintln!("per-shard rows do not sum to the aggregate: {st:?}");
        std::process::exit(1);
    }
}
