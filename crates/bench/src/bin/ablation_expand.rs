//! Ablation study for the design choices inside SCS-Expand: the ε
//! validation schedule the paper derives (ε = 2 from the
//! geometric-series argument: validating only when the query's component
//! has grown by a factor ε since the last validation keeps the total
//! validation work within a constant factor of the last validation) and
//! the Lemma 7/8 pruning rules.
//!
//! `cargo run -p scs-bench --release --bin ablation_expand`

use datasets::random_core_queries;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scs::query::{scs_expand_into, ExpandOptions};
use scs::{DeltaIndex, QueryWorkspace};
use scs_bench::*;

fn measure(
    g: &bigraph::BipartiteGraph,
    id: &DeltaIndex,
    queries: &[bigraph::Vertex],
    a: usize,
    b: usize,
    opts: ExpandOptions,
    ws: &mut QueryWorkspace,
) -> f64 {
    let mut out = Vec::new();
    let (mean, _) = mean_std(&time_queries(queries, |q| {
        let c = id.query_community(g, q, a, b);
        scs_expand_into(g, c.edges(), q, a, b, opts, ws, &mut out);
        std::hint::black_box(&out);
    }));
    mean
}

fn main() {
    let cfg = Config::from_env();
    println!(
        "Ablation: SCS-Expand design choices, {} queries (scale={})\n",
        cfg.n_queries, cfg.scale
    );

    for name in ["DT", "ML"] {
        let g = load_dataset(&cfg, name);
        let id = DeltaIndex::build(&g);
        let delta = id.delta().max(2);
        // Small parameters: the regime where expansion's checks matter.
        let (a, b) = {
            let t = ((delta as f64 * 0.3).round() as usize).max(1);
            (t, t)
        };
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let queries = random_core_queries(&g, a, b, cfg.n_queries, &mut rng);
        if queries.is_empty() {
            continue;
        }
        println!("=== {name} (δ = {delta}, α = β = {a}) ===\n");
        // One warm workspace per dataset, shared by every configuration.
        let mut ws = QueryWorkspace::new();

        println!("(1) ε sweep — the paper derives ε = 2 as optimal:");
        let widths = [8, 12];
        print_header(&["ε", "expand"], &widths);
        for eps in [1.25, 1.5, 2.0, 4.0, 8.0] {
            let t = measure(
                &g,
                &id,
                &queries,
                a,
                b,
                ExpandOptions {
                    epsilon: eps,
                    ..Default::default()
                },
                &mut ws,
            );
            print_row(&[format!("{eps}"), fmt_secs(t)], &widths);
        }

        println!("\n(2) pruning rules on/off (ε = 2):");
        let widths = [22, 12];
        print_header(&["configuration", "expand"], &widths);
        let configs = [
            ("lemma7 + lemma8", true, true),
            ("lemma7 only", true, false),
            ("lemma8 only", false, true),
            ("no pruning", false, false),
        ];
        for (label, l7, l8) in configs {
            let t = measure(
                &g,
                &id,
                &queries,
                a,
                b,
                ExpandOptions {
                    epsilon: 2.0,
                    use_lemma7: l7,
                    use_lemma8: l8,
                },
                &mut ws,
            );
            print_row(&[label.to_string(), fmt_secs(t)], &widths);
        }
        println!();
    }
    println!("Expected shape: ε = 2 at or near the minimum of the sweep;");
    println!("disabling both lemmas costs extra validations (slower or equal).");
}
