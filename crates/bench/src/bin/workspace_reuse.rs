//! Workspace-reuse smoke benchmark: the same query stream answered with
//! per-query fresh scratch (the `significant_community` wrapper, which
//! allocates a throwaway workspace) versus one warm, reused
//! [`scs::QueryWorkspace`] (`significant_community_into`).
//!
//! The graph is a grid of small disjoint bicliques, so every answer is
//! tiny and the fresh path's Ω(n + m) per-query buffer churn dominates —
//! exactly the pathology the workspace layer removes. The binary exits
//! nonzero if the reused-workspace run is not at least as fast as the
//! fresh-allocation run, which makes it a CI guard against regressions
//! in the reuse path.
//!
//! `cargo run -p scs-bench --release --bin workspace_reuse`

use bigraph::{GraphBuilder, Vertex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scs::{Algorithm, CommunitySearch, QueryWorkspace};
use scs_bench::{print_header, print_row, Config};
use std::time::Instant;

/// Disjoint `blocks` × (`side` × `side`) bicliques with mixed weights.
fn biclique_grid(blocks: usize, side: usize) -> bigraph::BipartiteGraph {
    let mut b = GraphBuilder::new();
    for blk in 0..blocks {
        for u in 0..side {
            for l in 0..side {
                // Two weight levels per block so the peel loop runs.
                let w = if (u + l) % 2 == 0 { 5.0 } else { 3.0 };
                b.add_edge(blk * side + u, blk * side + l, w);
            }
        }
    }
    b.build().expect("grid is duplicate-free")
}

fn main() {
    let cfg = Config::from_env();
    let blocks = 1500;
    let side = 4;
    let g = biclique_grid(blocks, side);
    println!("workspace_reuse on {}", g.summary());
    let search = CommunitySearch::new(g);

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n_queries = cfg.n_queries.max(500);
    let queries: Vec<Vertex> = (0..n_queries)
        .map(|_| search.graph().upper(rng.gen_range(0..blocks * side)))
        .collect();

    // Interleave the modes over several rounds and keep each mode's best
    // round, so one scheduling hiccup cannot decide the comparison.
    let mut fresh_best = 0.0f64;
    let mut reused_best = 0.0f64;
    let mut ws = QueryWorkspace::new();
    let mut out = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        for &q in &queries {
            std::hint::black_box(search.significant_community(q, 2, 2, Algorithm::Peel));
        }
        fresh_best = fresh_best.max(n_queries as f64 / t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        for &q in &queries {
            search.significant_community_into(q, 2, 2, Algorithm::Peel, &mut ws, &mut out);
            std::hint::black_box(&out);
        }
        reused_best = reused_best.max(n_queries as f64 / t0.elapsed().as_secs_f64());
    }

    let widths = [22, 14];
    print_header(&["mode", "QPS"], &widths);
    print_row(
        &["fresh allocation".into(), format!("{fresh_best:.0}")],
        &widths,
    );
    print_row(
        &["reused workspace".into(), format!("{reused_best:.0}")],
        &widths,
    );
    println!(
        "\nspeedup {:.2}x, scratch resident {} bytes",
        reused_best / fresh_best,
        ws.heap_bytes()
    );

    if reused_best < fresh_best {
        eprintln!("REGRESSION: reused-workspace throughput fell below fresh allocation");
        std::process::exit(1);
    }
}
