//! Property test (seeded, exhaustive over a random grid): every
//! workspace-reusing `*_into` entry point returns exactly the same
//! community as the fresh-allocation wrapper it shadows.
//!
//! One `QueryWorkspace` is deliberately reused across random Chung–Lu
//! graphs of *different sizes* — the serving layer does exactly this
//! when an epoch swap installs a bigger or smaller graph — so stale
//! stamps, stale capacities and stale local-graph state from a previous
//! graph must never leak into an answer.

use bigraph::generators::{chung_lu_bipartite, power_law_degrees, ChungLuConfig};
use bigraph::weights::WeightModel;
use bigraph::{BipartiteGraph, Vertex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scs::query::{
    scs_baseline, scs_baseline_into, scs_binary, scs_binary_into, scs_expand, scs_expand_into,
    scs_peel, scs_peel_into, ExpandOptions,
};
use scs::{Algorithm, CommunitySearch, QueryWorkspace};

fn random_graph(rng: &mut StdRng, nu: usize, nl: usize, m: usize) -> BipartiteGraph {
    let cfg = ChungLuConfig {
        upper_degrees: power_law_degrees(nu, 2.2, 1.0, 30.0, rng),
        lower_degrees: power_law_degrees(nl, 2.5, 1.0, 20.0, rng),
        m,
    };
    let g = chung_lu_bipartite(&cfg, rng);
    WeightModel::Uniform { lo: 0.5, hi: 9.5 }.apply(&g, rng)
}

#[test]
fn reused_workspace_matches_fresh_wrappers_across_graph_swaps() {
    let mut rng = StdRng::seed_from_u64(20260730);
    // One workspace across every graph and every query of the test.
    let mut ws = QueryWorkspace::new();
    let mut out = Vec::new();
    let mut bytes = Vec::new();

    // Sizes deliberately go big → small → big so the workspace sees both
    // growth and logically-stale oversized buffers (the epoch-swap case).
    for (nu, nl, m) in [(60, 50, 400), (18, 22, 90), (80, 70, 600)] {
        let g = random_graph(&mut rng, nu, nl, m);
        let search = CommunitySearch::new(g.clone());

        for _ in 0..60 {
            let q = Vertex(rng.gen_range(0..g.n_vertices() as u32));
            let alpha = rng.gen_range(1..=4usize);
            let beta = rng.gen_range(1..=4usize);
            let algo = Algorithm::ALL[rng.gen_range(0..Algorithm::ALL.len())];
            let label = format!("q={q:?} α={alpha} β={beta} algo={algo}");

            // Facade level: _into agrees with the wrapper.
            let fresh = search.significant_community(q, alpha, beta, algo);
            search.significant_community_into(q, alpha, beta, algo, &mut ws, &mut out);
            assert_eq!(out, fresh.edges(), "{label}");

            // Step-1 retrieval agrees too.
            let c = search.community(q, alpha, beta);
            let c_in = search.community_in(q, alpha, beta, &mut ws);
            assert!(c_in.same_edges(&c), "{label}");

            // Kernel level: every algorithm entry point, same workspace.
            if !c.is_empty() {
                let ce = c.edges();
                scs_peel_into(&g, ce, q, alpha, beta, &mut ws, &mut out);
                let peel = scs_peel(&g, &c, q, alpha, beta);
                assert_eq!(out, peel.edges(), "peel {label}");
                let opts = ExpandOptions::default();
                scs_expand_into(&g, ce, q, alpha, beta, opts, &mut ws, &mut out);
                let expand = scs_expand(&g, &c, q, alpha, beta);
                assert_eq!(out, expand.edges(), "expand {label}");
                scs_binary_into(&g, ce, q, alpha, beta, &mut ws, &mut out);
                let binary = scs_binary(&g, &c, q, alpha, beta);
                assert_eq!(out, binary.edges(), "binary {label}");
            }
            scs_baseline_into(&g, q, alpha, beta, &mut ws, &mut out);
            let baseline = scs_baseline(&g, q, alpha, beta);
            assert_eq!(out, baseline.edges(), "baseline {label}");
        }
        bytes.push(ws.heap_bytes());
    }
    // The small graph was served from the buffers the big one grew.
    assert_eq!(bytes[1], bytes[0], "the smaller graph grew the workspace");
}
