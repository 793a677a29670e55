//! Randomized property tests for the core invariants the paper's
//! correctness arguments rest on.
//!
//! These used to be `proptest` strategies; the offline build has no
//! registry access, so they now run as seeded loops over the same random
//! graph distribution (`CASES` graphs per property, deterministic per
//! seed). Shrinking is lost, but the failure message always includes the
//! case seed, which reproduces the graph exactly.

use bicore::abcore::abcore;
use bicore::decompose::{alpha_offsets, beta_offsets};
use bicore::degeneracy::degeneracy;
use bigraph::builder::{DuplicatePolicy, GraphBuilder};
use bigraph::{BipartiteGraph, Subgraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scs::query::oracle::verify_significant;
use scs::query::{scs_binary, scs_expand, scs_peel};
use scs::{Algorithm, CommunitySearch, DeltaIndex, DynamicIndex};

/// Cases per property (matches the old `ProptestConfig::with_cases(48)`).
const CASES: u64 = 48;

/// A random weighted bipartite graph with `nu × nl` vertices and up to
/// `max_m` edges (duplicates collapsed by max) — the old `arb_graph`
/// strategy.
fn arb_graph(nu: usize, nl: usize, max_m: usize, rng: &mut StdRng) -> BipartiteGraph {
    let m = rng.gen_range(1..=max_m);
    let mut b = GraphBuilder::with_policy(DuplicatePolicy::KeepMax);
    b.ensure_upper(nu - 1);
    b.ensure_lower(nl - 1);
    for _ in 0..m {
        let u = rng.gen_range(0..nu);
        let l = rng.gen_range(0..nl);
        let w = rng.gen_range(1..=50u32);
        b.add_edge(u, l, w as f64);
    }
    b.build().expect("keep-max dedup cannot fail")
}

/// Runs `check` on `CASES` random graphs. A failing case's panic is
/// caught and re-raised with the case seed prepended, so the graph that
/// broke the property can be regenerated exactly:
/// `StdRng::seed_from_u64(seed)` + the same `arb_graph` dimensions.
fn for_random_graphs(
    nu: usize,
    nl: usize,
    max_m: usize,
    check: impl Fn(&BipartiteGraph, &mut StdRng),
) {
    for case in 0..CASES {
        let seed = 0xC0FFEE ^ case;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = arb_graph(nu, nl, max_m, &mut rng);
            check(&g, &mut rng);
        }));
        if let Err(payload) = result {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic payload>");
            panic!(
                "property failed on case {case} \
                 (seed {seed:#x}, arb_graph({nu}, {nl}, {max_m})): {msg}"
            );
        }
    }
}

/// Core hierarchy (Lemma 2): (α,β)-core ⊆ (α′,β′)-core when α ≥ α′,
/// β ≥ β′.
#[test]
fn core_hierarchy() {
    for_random_graphs(12, 12, 60, |g, _| {
        for a in 1..=3usize {
            for b in 1..=3usize {
                let big = abcore(g, a, b);
                let small = abcore(g, a + 1, b + 1);
                for v in g.vertices() {
                    assert!(!small.contains(v) || big.contains(v));
                }
            }
        }
    });
}

/// Offset consistency: s_a(v,α) ≥ β ⇔ v ∈ (α,β)-core, and symmetrically
/// for β-offsets.
#[test]
fn offset_consistency() {
    for_random_graphs(10, 10, 50, |g, _| {
        for a in 1..=4usize {
            let off = alpha_offsets(g, a);
            for b in 1..=4usize {
                let core = abcore(g, a, b);
                for v in g.vertices() {
                    assert_eq!(off[v.index()] as usize >= b, core.contains(v));
                }
            }
        }
        for b in 1..=4usize {
            let off = beta_offsets(g, b);
            for a in 1..=4usize {
                let core = abcore(g, a, b);
                for v in g.vertices() {
                    assert_eq!(off[v.index()] as usize >= a, core.contains(v));
                }
            }
        }
    });
}

/// Degeneracy bound: δ² ≤ m, the (δ,δ)-core is nonempty and the
/// (δ+1,δ+1)-core is empty.
#[test]
fn degeneracy_bound() {
    for_random_graphs(14, 14, 80, |g, _| {
        let d = degeneracy(g);
        assert!(d * d <= g.n_edges());
        if d > 0 {
            assert!(!abcore(g, d, d).is_empty());
        }
        assert!(abcore(g, d + 1, d + 1).is_empty());
    });
}

/// Qopt answers match the online computation for every vertex and a grid
/// of parameters (Lemma 3 correctness side).
#[test]
fn index_query_equivalence() {
    for_random_graphs(10, 10, 55, |g, _| {
        let idx = DeltaIndex::build(g);
        for a in 1..=3usize {
            for b in 1..=3usize {
                for v in g.vertices() {
                    let online = bicore::abcore::abcore_community(g, v, a, b);
                    let fast = idx.query_community(g, v, a, b);
                    assert!(fast.same_edges(&online));
                }
            }
        }
    });
}

/// The three SCS algorithms agree and satisfy Definition 5 (checked by
/// the independent oracle), and `Auto`'s threshold-profile answer equals
/// Peel's for every vertex — empty outside the core.
#[test]
fn scs_algorithms_agree() {
    for_random_graphs(9, 9, 45, |g, _| {
        let idx = DeltaIndex::build(g);
        let search = CommunitySearch::new(g.clone());
        for (a, b) in [(1usize, 1usize), (2, 2), (1, 2), (2, 1)] {
            for v in g.vertices().step_by(3) {
                let c = idx.query_community(g, v, a, b);
                let rp = scs_peel(g, &c, v, a, b);
                let re = scs_expand(g, &c, v, a, b);
                let rb = scs_binary(g, &c, v, a, b);
                assert!(re.same_edges(&rp));
                assert!(rb.same_edges(&rp));
                if let Err(e) = verify_significant(g, &c, v, a, b, &rp) {
                    panic!("oracle rejected: {e}");
                }
            }
            for v in g.vertices() {
                let c = idx.query_community(g, v, a, b);
                let rp = scs_peel(g, &c, v, a, b);
                let auto = search.significant_community(v, a, b, Algorithm::Auto);
                assert_eq!(
                    auto.edges(),
                    rp.edges(),
                    "Auto vs Peel: v={v:?} α={a} β={b}"
                );
            }
        }
    });
}

/// Result monotonicity: tighter (α,β) ⇒ the community shrinks.
#[test]
fn community_monotone_in_parameters() {
    for_random_graphs(10, 10, 60, |g, _| {
        let idx = DeltaIndex::build(g);
        for v in g.vertices().step_by(4) {
            let loose = idx.query_community(g, v, 1, 1);
            let tight = idx.query_community(g, v, 2, 2);
            for e in tight.edges() {
                assert!(loose.contains_edge(*e));
            }
        }
    });
}

/// Index maintenance: after a random insertion, the dynamic index
/// answers exactly like a fresh rebuild.
#[test]
fn maintenance_insert_equivalence() {
    for_random_graphs(8, 8, 35, |g, rng| {
        let u = rng.gen_range(0..8usize);
        let l = rng.gen_range(0..8usize);
        let w = rng.gen_range(1..=50u32);
        let mut dynidx = DynamicIndex::new(g.clone());
        let exists = {
            let gr = dynidx.graph();
            u < gr.n_upper() && l < gr.n_lower() && gr.has_edge(gr.upper(u), gr.lower(l))
        };
        if exists {
            assert!(dynidx.insert_edge(u, l, w as f64).is_err());
            return;
        }
        dynidx.insert_edge(u, l, w as f64).unwrap();
        let fresh = DeltaIndex::build(dynidx.graph());
        assert_eq!(dynidx.index().delta(), fresh.delta());
        for a in 1..=3usize {
            for b in 1..=3usize {
                for v in dynidx.graph().vertices() {
                    let m = dynidx.query_community(v, a, b);
                    let f = fresh.query_community(dynidx.graph(), v, a, b);
                    assert!(m.same_edges(&f));
                }
            }
        }
    });
}

/// Index maintenance under removal, same equivalence.
#[test]
fn maintenance_remove_equivalence() {
    for_random_graphs(8, 8, 40, |g, rng| {
        if g.n_edges() == 0 {
            return;
        }
        let pick = rng.gen_range(0..1000usize);
        let e = bigraph::EdgeId((pick % g.n_edges()) as u32);
        let (u, l) = g.endpoints(e);
        let (ui, li) = (g.local_index(u), g.local_index(l));
        let mut dynidx = DynamicIndex::new(g.clone());
        dynidx.remove_edge(ui, li).unwrap();
        let fresh = DeltaIndex::build(dynidx.graph());
        assert_eq!(dynidx.index().delta(), fresh.delta());
        for a in 1..=3usize {
            for b in 1..=3usize {
                for v in dynidx.graph().vertices() {
                    let m = dynidx.query_community(v, a, b);
                    let f = fresh.query_community(dynidx.graph(), v, a, b);
                    assert!(m.same_edges(&f));
                }
            }
        }
    });
}

/// Peeling to a core is a fixpoint and yields a degree-feasible subgraph.
#[test]
fn peel_fixpoint() {
    for_random_graphs(12, 12, 70, |g, rng| {
        let a = rng.gen_range(1..4usize);
        let b = rng.gen_range(1..4usize);
        let core = Subgraph::full(g).peel_to_core(a, b);
        assert!(core.same_edges(&core.peel_to_core(a, b)));
        if !core.is_empty() {
            assert!(core.satisfies_degrees(a, b));
        }
    });
}

/// Edge-list serialization round-trips every edge exactly. Isolated
/// vertices are not serialized, so the comparison goes through side-local
/// indices (the id space may compact).
#[test]
fn edgelist_roundtrip() {
    for_random_graphs(10, 10, 60, |g, _| {
        let mut buf = Vec::new();
        bigraph::edgelist::write_edgelist(g, &mut buf).unwrap();
        let g2 = bigraph::edgelist::read_edgelist(
            buf.as_slice(),
            &bigraph::edgelist::ReadOptions::default(),
        )
        .unwrap();
        assert_eq!(g.n_edges(), g2.n_edges());
        for e in g.edge_ids() {
            let (u, l) = g.endpoints(e);
            let u2 = g2.upper(g.local_index(u));
            let l2 = g2.lower(g.local_index(l));
            let e2 = g2.find_edge(u2, l2).expect("edge survives");
            assert_eq!(g.weight(e), g2.weight(e2));
        }
    });
}

/// Projection edge count equals the number of same-side pairs with a
/// common neighbor, and total wedge count is conserved.
#[test]
fn projection_wedge_conservation() {
    use bigraph::projection::{project, ProjectionWeight};
    use bigraph::Side;
    for_random_graphs(8, 8, 40, |g, _| {
        let pu = project(g, Side::Upper, ProjectionWeight::CommonNeighbors);
        let pl = project(g, Side::Lower, ProjectionWeight::CommonNeighbors);
        // Σ weights over the upper projection counts wedges centered on
        // lower vertices and vice versa; both equal Σ_v C(deg(v), 2).
        let wedges = |side_upper: bool| -> f64 {
            g.vertices()
                .filter(|&v| g.is_upper(v) == side_upper)
                .map(|v| {
                    let d = g.degree(v) as f64;
                    d * (d - 1.0) / 2.0
                })
                .sum()
        };
        let sum_u: f64 = pu.edges.iter().map(|e| e.2).sum();
        let sum_l: f64 = pl.edges.iter().map(|e| e.2).sum();
        assert!((sum_u - wedges(false)).abs() < 1e-9);
        assert!((sum_l - wedges(true)).abs() < 1e-9);
    });
}

/// Butterfly support ignores weights and the total count formula holds.
#[test]
fn butterfly_total_formula() {
    for_random_graphs(8, 8, 40, |g, _| {
        let s = cohesion::butterfly_support(g);
        let total = cohesion::butterfly_count_total(g);
        assert_eq!(s.iter().sum::<u64>(), 4 * total);
        let reweighted = g.reweighted(|_, _, w| w * 2.0);
        assert_eq!(cohesion::butterfly_support(&reweighted), s);
    });
}
