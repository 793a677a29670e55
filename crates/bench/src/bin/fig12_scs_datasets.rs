//! Fig. 12 — significant (α,β)-community query time on every dataset:
//! SCS-Baseline vs SCS-Peel vs SCS-Expand, α = β = 0.7δ, mean ± stdev
//! over random core queries (all using Qopt for step 1, as in the
//! paper). An `auto` column times the serving path, which answers from
//! the (α,β) threshold profile; one untimed query builds the profile
//! first.
//!
//! Exits nonzero if any sampled query's `auto` answer differs from
//! `peel`'s.
//!
//! `cargo run -p scs-bench --release --bin fig12_scs_datasets`

use datasets::random_core_queries;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scs::query::{scs_baseline_into, scs_expand_into, scs_peel_into, ExpandOptions};
use scs::{Algorithm, CommunitySearch, QueryWorkspace};
use scs_bench::*;

fn main() {
    let cfg = Config::from_env();
    println!(
        "Fig. 12: SCS query time, α=β=0.7δ, {} queries, mean±σ (scale={})\n",
        cfg.n_queries, cfg.scale
    );
    let widths = [8, 5, 19, 19, 19, 19];
    print_header(
        &["Dataset", "α=β", "baseline", "peel", "expand", "auto"],
        &widths,
    );
    let mut mismatches = 0;
    for name in dataset_names() {
        let search = CommunitySearch::new(load_dataset(&cfg, name));
        let (g, id) = (search.graph(), search.index());
        let t = default_params(id.delta());
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let queries = random_core_queries(g, t, t, cfg.n_queries, &mut rng);
        if queries.is_empty() {
            println!("{name:>8}  (empty ({t},{t})-core, skipped)");
            continue;
        }
        // One warm workspace per dataset, shared by all four
        // contenders — the serving layer's reuse discipline.
        let mut ws = QueryWorkspace::new();
        let mut out = Vec::new();
        let (bl_m, bl_s) = mean_std(&time_queries(&queries, |q| {
            scs_baseline_into(g, q, t, t, &mut ws, &mut out);
            std::hint::black_box(&out);
        }));
        let (pe_m, pe_s) = mean_std(&time_queries(&queries, |q| {
            let c = id.query_community(g, q, t, t);
            scs_peel_into(g, c.edges(), q, t, t, &mut ws, &mut out);
            std::hint::black_box(&out);
        }));
        let (ex_m, ex_s) = mean_std(&time_queries(&queries, |q| {
            let c = id.query_community(g, q, t, t);
            let opts = ExpandOptions::default();
            scs_expand_into(g, c.edges(), q, t, t, opts, &mut ws, &mut out);
            std::hint::black_box(&out);
        }));
        search.significant_community_into(queries[0], t, t, Algorithm::Auto, &mut ws, &mut out);
        let (au_m, au_s) = mean_std(&time_queries(&queries, |q| {
            search.significant_community_into(q, t, t, Algorithm::Auto, &mut ws, &mut out);
            std::hint::black_box(&out);
        }));
        for &q in &queries {
            search.significant_community_into(q, t, t, Algorithm::Auto, &mut ws, &mut out);
            if out
                != search
                    .significant_community(q, t, t, Algorithm::Peel)
                    .edges()
            {
                eprintln!("error: {name} q={q:?} α=β={t}: auto differs from peel");
                mismatches += 1;
            }
        }
        let pm = |m: f64, s: f64| format!("{}±{}", fmt_secs(m), fmt_secs(s));
        print_row(
            &[
                name.to_string(),
                t.to_string(),
                pm(bl_m, bl_s),
                pm(pe_m, pe_s),
                pm(ex_m, ex_s),
                pm(au_m, au_s),
            ],
            &widths,
        );
    }
    println!("\nExpected shape: peel & expand ≫ baseline (two-step framework);");
    println!("expand usually ≤ peel on average, with larger variance;");
    println!("auto (one class slice per query) below all three.");
    if mismatches > 0 {
        eprintln!("error: {mismatches} sampled auto answers differ from peel");
        std::process::exit(1);
    }
}
