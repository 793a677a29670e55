//! Index maintenance: seeded edge updates applied through
//! `DynamicIndex`, snapshotted and installed into a running engine.

use crate::inputs::edge_hash;
use bigraph::EdgeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scs::{Algorithm, CommunitySearch, DynamicIndex, QueryWorkspace};
use scs_service::{QueryEngine, QueryRequest};
use std::sync::Arc;
use std::time::Instant;

/// Alternately removes a seeded edge and inserts it back, so the graph
/// never drifts over a run.
pub struct Toggle {
    edges: Vec<(usize, usize)>,
    removed: Option<(usize, usize, f64)>,
    done: usize,
}

impl Toggle {
    /// `n` seeded edges drawn uniformly from the graph. Their endpoints
    /// are therefore picked in proportion to degree, hubs included, as
    /// in a stream of edge updates.
    pub fn new(search: &CommunitySearch, n: usize, seed: u64) -> Toggle {
        let g = search.graph();
        let ids: Vec<EdgeId> = g.edge_ids().collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7570_6461_7465);
        let edges = (0..n)
            .map(|_| {
                let (u, l) = g.endpoints(ids[rng.gen_range(0..ids.len())]);
                (g.local_index(u), g.local_index(l))
            })
            .collect();
        Toggle {
            edges,
            removed: None,
            done: 0,
        }
    }

    /// Applies the next update.
    pub fn step(&mut self, dynx: &mut DynamicIndex) {
        match self.removed.take() {
            Some((u, l, w)) => dynx.insert_edge(u, l, w).expect("re-insert removed edge"),
            None => {
                let (u, l) = self.edges[(self.done / 2) % self.edges.len()];
                let w = dynx.remove_edge(u, l).expect("remove a present edge");
                self.removed = Some((u, l, w));
            }
        }
        self.done += 1;
    }
}

/// One update made visible.
#[derive(Debug, Clone, Copy)]
pub struct Cycle {
    /// `DynamicIndex` remove or insert, ms.
    pub update_ms: f64,
    /// `DynamicIndex::snapshot`, ms.
    pub snapshot_ms: f64,
    /// `QueryEngine::install`, ms.
    pub install_ms: f64,
    /// Update start to `install` returning, ms.
    pub visible_ms: f64,
    /// Whether the probe query, asked right after the install, was
    /// answered wrongly or from another epoch.
    pub probe_wrong: bool,
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// Runs one update → snapshot → install cycle, then checks `probe` against the installed snapshot with a
/// second-step algorithm other than the one `probe` names.
pub fn cycle(
    dynx: &mut DynamicIndex,
    toggle: &mut Toggle,
    engine: &QueryEngine,
    probe: QueryRequest,
) -> Cycle {
    let t0 = Instant::now();
    toggle.step(dynx);
    let t1 = Instant::now();
    let snap = Arc::new(dynx.snapshot());
    let t2 = Instant::now();
    let epoch = engine.install(snap.clone());
    let t3 = Instant::now();
    let got = engine.query(probe);
    let want = direct(&snap, probe);
    Cycle {
        update_ms: ms(t0, t1),
        snapshot_ms: ms(t1, t2),
        install_ms: ms(t2, t3),
        visible_ms: ms(t0, t3),
        probe_wrong: got.epoch != epoch || edge_hash(got.summary.edges()) != want.0,
    }
}

/// `(edge hash, edge count, min weight)` of `req` computed directly on
/// `search` with Binary — a second-step algorithm `Auto` never picks.
pub fn direct(search: &CommunitySearch, req: QueryRequest) -> (u64, usize, Option<f64>) {
    let mut ws = QueryWorkspace::new();
    let mut out = Vec::new();
    search.significant_community_into(
        req.q,
        req.alpha as usize,
        req.beta as usize,
        Algorithm::Binary,
        &mut ws,
        &mut out,
    );
    let min_w = out
        .iter()
        .map(|&e| search.graph().weight(e))
        .min_by(f64::total_cmp);
    (edge_hash(&out), out.len(), min_w)
}
