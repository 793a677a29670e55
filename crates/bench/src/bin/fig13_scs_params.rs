//! Fig. 13 — SCS query time varying parameters on the DT and ML
//! analogues: (a)/(b) α = β = c·δ; (c) α = c·δ, β = 0.5δ on DT;
//! (d) α = 0.5δ, β = c·δ on ML.
//!
//! `cargo run -p scs-bench --release --bin fig13_scs_params`

use datasets::random_core_queries;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scs::query::{scs_baseline_into, scs_expand_into, scs_peel_into, ExpandOptions};
use scs::{DeltaIndex, QueryWorkspace};
use scs_bench::*;

const CS: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

fn sweep(
    g: &bigraph::BipartiteGraph,
    id: &DeltaIndex,
    cfg: &Config,
    label: &str,
    param: impl Fn(f64) -> (usize, usize),
) {
    println!("\n{label}");
    let widths = [6, 5, 5, 13, 13, 13];
    print_header(&["c", "α", "β", "baseline", "peel", "expand"], &widths);
    for c in CS {
        let (a, b) = param(c);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let queries = random_core_queries(g, a, b, cfg.n_queries, &mut rng);
        if queries.is_empty() {
            println!("{c:>6}  (empty core, skipped)");
            continue;
        }
        // Warm-workspace runs, as in the serving layer.
        let mut ws = QueryWorkspace::new();
        let mut out = Vec::new();
        let (bl, _) = mean_std(&time_queries(&queries, |q| {
            scs_baseline_into(g, q, a, b, &mut ws, &mut out);
            std::hint::black_box(&out);
        }));
        let (pe, _) = mean_std(&time_queries(&queries, |q| {
            let cm = id.query_community(g, q, a, b);
            scs_peel_into(g, cm.edges(), q, a, b, &mut ws, &mut out);
            std::hint::black_box(&out);
        }));
        let (ex, _) = mean_std(&time_queries(&queries, |q| {
            let cm = id.query_community(g, q, a, b);
            let opts = ExpandOptions::default();
            scs_expand_into(g, cm.edges(), q, a, b, opts, &mut ws, &mut out);
            std::hint::black_box(&out);
        }));
        print_row(
            &[
                format!("{c}"),
                a.to_string(),
                b.to_string(),
                fmt_secs(bl),
                fmt_secs(pe),
                fmt_secs(ex),
            ],
            &widths,
        );
    }
}

fn main() {
    let cfg = Config::from_env();
    println!(
        "Fig. 13: SCS query time varying α and β, {} queries (scale={})",
        cfg.n_queries, cfg.scale
    );
    for (name, fix_beta) in [("DT", true), ("ML", false)] {
        let g = load_dataset(&cfg, name);
        let id = DeltaIndex::build(&g);
        let delta = id.delta().max(2);
        let sc = |c: f64| ((delta as f64 * c).round() as usize).max(1);
        println!("\n=== {name} (δ = {delta}) ===");
        sweep(
            &g,
            &id,
            &cfg,
            &format!("(a/b) {name}: α = β = c·δ"),
            |c| (sc(c), sc(c)),
        );
        if fix_beta {
            sweep(
                &g,
                &id,
                &cfg,
                &format!("(c) {name}: α = c·δ, β = 0.5·δ"),
                |c| (sc(c), sc(0.5)),
            );
        } else {
            sweep(
                &g,
                &id,
                &cfg,
                &format!("(d) {name}: α = 0.5·δ, β = c·δ"),
                |c| (sc(0.5), sc(c)),
            );
        }
    }
    println!("\nExpected shape: expand wins at small c (big community, small R);");
    println!("peel catches up / wins at large c; both ≫ baseline throughout.");
}
