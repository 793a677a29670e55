//! Quickstart: build a small weighted bipartite graph, index it, and run
//! a significant (α,β)-community search — the paper's Figure 1 scenario —
//! then serve the same queries concurrently and read back the engine's
//! per-stage latency telemetry.
//!
//! Run with: `cargo run --example quickstart`

use bigraph::builder::figure1_example;
use scs::{Algorithm, CommunitySearch};
use scs_service::{QueryEngine, QueryRequest, ServiceConfig, Stage};

fn main() {
    // The user–movie network of the paper's Figure 1: 7 users, 7 movies,
    // edge weights are star ratings.
    let g = figure1_example();
    println!("graph: {}", g.summary());

    let search = CommunitySearch::new(g);
    println!("degeneracy δ = {}", search.delta());

    // "Eric" is upper vertex 2; search his (3,2)-community.
    let eric = search.graph().upper(2);
    let community = search.community(eric, 3, 2);
    println!(
        "\n(3,2)-community of Eric: {} edges, {} users, {} movies, min rating {:?}",
        community.size(),
        community.layer_vertices().0.len(),
        community.layer_vertices().1.len(),
        community.min_weight()
    );

    // The significant (3,2)-community keeps only the strongly rated part
    // (excluding "Taylor" and "Alien" in the paper's story).
    let sc = search.significant_community(eric, 3, 2, Algorithm::Auto);
    println!(
        "significant (3,2)-community: {} edges, min rating {:?}",
        sc.size(),
        sc.min_weight()
    );
    let users_dropped = community
        .layer_vertices()
        .0
        .iter()
        .filter(|&&u| !sc.contains_vertex(u))
        .count();
    let movies_dropped = community
        .layer_vertices()
        .1
        .iter()
        .filter(|&&l| !sc.contains_vertex(l))
        .count();
    println!(
        "excluded vs structural community: {users_dropped} user(s), {movies_dropped} movie(s)"
    );

    // All algorithms agree; pick by parameter regime (see Fig. 13).
    for algo in [Algorithm::Peel, Algorithm::Expand, Algorithm::Binary] {
        let r = search.significant_community(eric, 3, 2, algo);
        assert!(r.same_edges(&sc));
    }
    println!("\npeel / expand / binary all agree ✓");

    // The serving layer: the same graph behind a concurrent engine,
    // queried twice over. Telemetry is on by default (and
    // allocation-free), so afterwards the stats can say where each
    // microsecond went — queue wait, snapshot, answer, reply.
    let engine = QueryEngine::start(
        CommunitySearch::shared(figure1_example()),
        ServiceConfig::default(),
    );
    let g = engine.current_index().0.graph().clone();
    let reqs: Vec<QueryRequest> = (0..g.n_upper())
        .map(|i| QueryRequest::new(g.upper(i), 2, 2, Algorithm::Auto))
        .collect();
    for req in reqs.iter().chain(&reqs) {
        // The first request builds the (2,2) profile; every later
        // answer is a class lookup.
        engine.query(*req);
    }

    let stats = engine.stats();
    println!("\nserved {} requests — stage breakdown:", stats.completed);
    println!(
        "  {:<11} {:>6} {:>9} {:>7} {:>7}",
        "stage", "count", "mean µs", "p99 µs", "max µs"
    );
    for (stage, s) in Stage::ALL.iter().zip(stats.stages.iter()) {
        if s.count == 0 {
            continue; // stages no request passed through stay silent
        }
        println!(
            "  {:<11} {:>6} {:>9.1} {:>7} {:>7}",
            stage.name(),
            s.count,
            s.mean_us,
            s.p99_us,
            s.max_us
        );
    }
    if let Some(sq) = stats.slow.first() {
        println!("slowest retained request: {sq}");
    }
    engine.shutdown();
}
