//! Maintenance-under-serving oracle (the paper's dynamic-graph story,
//! §VI): a [`scs::DynamicIndex`] absorbs edge insertions and removals
//! while a live 4-worker [`QueryEngine`] keeps serving; after every
//! maintenance round the maintained snapshot is installed and the
//! engine's answers are compared **bit-identically** against a
//! [`CommunitySearch`] freshly built from scratch on the same graph —
//! the incremental index repair must be indistinguishable from a full
//! rebuild at every epoch, under concurrent query traffic.

use bigraph::generators::random_bipartite;
use bigraph::weights::WeightModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scs::{Algorithm, CommunitySearch, DynamicIndex};
use scs_service::{CommunitySummary, QueryEngine, QueryRequest, ServiceConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[test]
fn incremental_maintenance_matches_fresh_rebuild_at_every_epoch() {
    let mut rng = StdRng::seed_from_u64(0xD15C0);
    let g0 = random_bipartite(12, 12, 70, &mut rng);
    let g = WeightModel::Uniform { lo: 1.0, hi: 9.0 }.apply(&g0, &mut rng);
    let mut maintained = DynamicIndex::new(g);

    let engine = QueryEngine::start(
        Arc::new(maintained.snapshot()),
        ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        },
    );

    // Background traffic keeps the workers genuinely live across every
    // install: responses must stay internally consistent (each reply's
    // summary is valid for *some* installed epoch) but are not
    // epoch-pinned, so the thread only checks that nothing wedges or
    // panics.
    let stop = AtomicBool::new(false);
    let background_served = std::thread::scope(|scope| {
        let background = scope.spawn(|| {
            let mut i = 0usize;
            let mut served = 0u64;
            // ordering: Relaxed — a plain stop flag; no data is
            // published through it.
            while !stop.load(Ordering::Relaxed) {
                let q = bigraph::Vertex((i % 24) as u32);
                let resp =
                    engine.query(QueryRequest::new(q, 1 + i % 2, 1 + i % 3, Algorithm::Auto));
                // Sanity that can't depend on the racing epoch: an
                // empty result has no minimum weight, a non-empty one
                // always does.
                assert_eq!(resp.summary.min_weight.is_some(), resp.summary.size() > 0);
                served += 1;
                i += 1;
            }
            served
        });

        let mut last_epoch = 0u64;
        for round in 0..6 {
            // A seeded burst of mutations per round: removals of
            // existing edges and insertions of currently-absent pairs,
            // interleaved.
            for step in 0..3 {
                let g = maintained.graph();
                let (n_upper, n_lower) = (g.n_upper(), g.n_lower());
                if (round + step) % 2 == 0 && g.n_edges() > 20 {
                    // Remove a random existing edge.
                    let eid = bigraph::EdgeId(rng.gen_range(0..g.n_edges()) as u32);
                    let (u, l) = g.endpoints(eid);
                    let (ui, li) = (g.local_index(u), g.local_index(l));
                    maintained
                        .remove_edge(ui, li)
                        .expect("endpoints taken from a live edge");
                } else {
                    // Insert a random absent pair (retry a few times;
                    // the graph is sparse so absent pairs dominate).
                    for _ in 0..50 {
                        let ui = rng.gen_range(0..n_upper);
                        let li = rng.gen_range(0..n_lower);
                        let w = rng.gen_range(1.0..9.0);
                        if maintained.insert_edge(ui, li, w).is_ok() {
                            break;
                        }
                    }
                }
            }

            // Epoch swap: snapshot the maintained pair (a clone, not a
            // rebuild) and install it into the serving engine.
            let epoch = engine.install(Arc::new(maintained.snapshot()));
            assert!(epoch > last_epoch, "install must advance the epoch");
            last_epoch = epoch;

            // Oracle: a CommunitySearch built *from scratch* on the
            // same graph — full DeltaIndex rebuild, no incremental
            // repair.
            let fresh = CommunitySearch::new(maintained.graph().clone());
            for qi in 0..maintained.graph().n_upper() {
                let q = maintained.graph().upper(qi);
                for (alpha, beta) in [(1, 1), (1, 2), (2, 2), (2, 3)] {
                    for algo in [Algorithm::Peel, Algorithm::Expand] {
                        let resp = engine.query(QueryRequest::new(q, alpha, beta, algo));
                        assert_eq!(resp.epoch, epoch, "round {round}: reply from a stale epoch");
                        let expect = CommunitySummary::from_subgraph(
                            &fresh.significant_community(q, alpha, beta, algo),
                        );
                        // Bit-identical: same edge ids, same member
                        // counts, same minimum weight.
                        assert_eq!(
                            resp.summary, expect,
                            "round {round}, q=u:{qi}, (α,β)=({alpha},{beta}), {algo:?}: \
                             incrementally maintained index diverged from fresh rebuild"
                        );
                    }
                }
            }
        }

        // ordering: Relaxed — see the load in the background thread.
        stop.store(true, Ordering::Relaxed);
        background.join().expect("background client must not panic")
    });
    assert!(background_served > 0, "background traffic never ran");
    engine.shutdown();
}
