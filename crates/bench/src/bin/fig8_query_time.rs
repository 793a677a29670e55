//! Fig. 8 — retrieving the (α,β)-community: Qo (online) vs Qv (bicore
//! index) vs Qopt (Iδ), α = β = 0.7δ, averaged over random core queries.
//!
//! `cargo run -p scs-bench --release --bin fig8_query_time`

use bicore::abcore::abcore_community_into;
use bicore::bicore_index::BicoreIndex;
use bigraph::workspace::Workspace;
use datasets::random_core_queries;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scs::DeltaIndex;
use scs_bench::*;

fn main() {
    let cfg = Config::from_env();
    println!(
        "Fig. 8: (α,β)-community retrieval, α=β=0.7δ, {} queries (scale={})\n",
        cfg.n_queries, cfg.scale
    );
    let widths = [8, 5, 12, 12, 12, 9];
    print_header(&["Dataset", "α=β", "Qo", "Qv", "Qopt", "speedup"], &widths);
    for name in dataset_names() {
        let g = load_dataset(&cfg, name);
        let iv = BicoreIndex::build(&g);
        let id = DeltaIndex::build(&g);
        let t = default_params(id.delta());
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let queries = random_core_queries(&g, t, t, cfg.n_queries, &mut rng);
        if queries.is_empty() {
            println!("{name:>8}  (empty ({t},{t})-core, skipped)");
            continue;
        }
        // Each contender reuses one warm workspace across its queries,
        // mirroring how the serving layer runs them.
        let mut ws = Workspace::new();
        let mut out = Vec::new();
        let (qo_mean, _) = mean_std(&time_queries(&queries, |q| {
            abcore_community_into(&g, q, t, t, &mut ws, &mut out);
            std::hint::black_box(&out);
        }));
        let (qv_mean, _) = mean_std(&time_queries(&queries, |q| {
            std::hint::black_box(iv.query_community(&g, q, t, t));
        }));
        let (qopt_mean, _) = mean_std(&time_queries(&queries, |q| {
            id.query_community_into(&g, q, t, t, &mut ws, &mut out);
            std::hint::black_box(&out);
        }));
        print_row(
            &[
                name.to_string(),
                t.to_string(),
                fmt_secs(qo_mean),
                fmt_secs(qv_mean),
                fmt_secs(qopt_mean),
                format!("{:.0}x", qo_mean / qopt_mean.max(1e-12)),
            ],
            &widths,
        );
    }
    println!("\nExpected shape: Qopt fastest everywhere; gap vs Qo grows with |E|.");
}
