//! The traced layer replay: the same requests run through the kernel
//! functions directly, through `QueryEngine` and through HTTP, each
//! call in a span. An engine span is the parent of the kernel span of the same
//! request when the engine computed it (not a cache hit or a coalesced
//! wait); an HTTP span is always the parent of the engine span.

use crate::http::{field, Conn};
use crate::trace::{by_name, Tracer};
use bigraph::EdgeId;
use scs::query::{scs_binary_into, scs_expand_into, scs_peel_into, ExpandOptions};
use scs::{Algorithm, CommunitySearch, QueryWorkspace};
use scs_service::{QueryEngine, QueryRequest, Server, ServiceConfig, ServiceStats};
use std::sync::Arc;

/// Step 1 alone.
pub const STEP1: &str = "index.community_in";
/// Step 2 alone, per algorithm.
pub const STEP2: [(&str, Algorithm); 3] = [
    ("query.step2.peel", Algorithm::Peel),
    ("query.step2.expand", Algorithm::Expand),
    ("query.step2.binary", Algorithm::Binary),
];
/// Both steps through the façade with `Auto`.
pub const KERNEL: &str = "kernel.significant_community_into";
/// One blocking engine round trip.
pub const ENGINE: &str = "engine.query";
/// One HTTP round trip on a keep-alive connection.
pub const HTTP: &str = "http.get";

#[derive(Clone, Copy)]
enum Layer {
    Kernel,
    Engine,
    Http,
}

/// The order the layers run a request in, by request index.
const LAYER_ORDERS: [[Layer; 3]; 3] = [
    [Layer::Kernel, Layer::Engine, Layer::Http],
    [Layer::Engine, Layer::Http, Layer::Kernel],
    [Layer::Http, Layer::Kernel, Layer::Engine],
];

/// What the replay measured, beyond the spans.
pub struct Replay {
    /// Mean community size |C_{α,β}(q)|, edges.
    pub community_edges: f64,
    /// Mean answer size, edges.
    pub result_edges: f64,
    /// Mean step-2 time per algorithm, µs, in [`STEP2`] order.
    pub step2_us: [f64; 3],
    /// Mean step-1 time, µs.
    pub step1_us: f64,
    /// Server stats after the HTTP replay.
    pub server: ServiceStats,
    /// Replayed answers that disagreed between layers.
    pub mismatches: u64,
}

/// Replays `reqs` layer by layer; the first `n_alg` of them also run
/// step 1 and each step-2 algorithm on their own. Each request passes
/// through the layers back to back, so a change in machine speed hits
/// a request's layers alike and cancels in the subtraction.
pub fn replay(
    tr: &mut Tracer,
    search: &Arc<CommunitySearch>,
    reqs: &[QueryRequest],
    n_alg: usize,
    config: &ServiceConfig,
) -> Replay {
    let g = search.graph();
    let mut ws = QueryWorkspace::new();
    let mut out: Vec<EdgeId> = Vec::new();
    let engine = QueryEngine::start(search.clone(), config.clone());
    let server = Server::start(
        QueryEngine::start(search.clone(), config.clone()),
        "127.0.0.1:0",
        config,
    )
    .expect("bind loopback");
    let mut conn = Conn::connect(server.local_addr()).expect("connect loopback");
    // Warm both engines' workspaces with a key the replay never asks.
    if let Some(&first) = reqs.first() {
        let warm = QueryRequest {
            alpha: first.alpha + 1,
            ..first
        };
        engine.query(warm);
        // A failed warm-up shows again, and is counted, in the replay.
        let _ = conn.get(&crate::query_target(&warm));
    }
    let (mut comm_sum, mut res_sum, mut mismatches) = (0usize, 0usize, 0u64);
    for (i, r) in reqs.iter().enumerate() {
        let (a, b) = (r.alpha as usize, r.beta as usize);
        let id = i as u64;
        if i < n_alg {
            let (community, _) = tr.span(STEP1, id, None, || {
                search.community_in(r.q, a, b, &mut ws).edges().to_vec()
            });
            comm_sum += community.len();
            for (name, algo) in STEP2 {
                tr.span(name, id, None, || match algo {
                    Algorithm::Peel => scs_peel_into(g, &community, r.q, a, b, &mut ws, &mut out),
                    Algorithm::Expand => scs_expand_into(
                        g,
                        &community,
                        r.q,
                        a,
                        b,
                        ExpandOptions::default(),
                        &mut ws,
                        &mut out,
                    ),
                    _ => scs_binary_into(g, &community, r.q, a, b, &mut ws, &mut out),
                });
            }
            res_sum += out.len();
        }
        // The layer running second or third finds the request's data
        // warm in the CPU caches; rotating the order spreads that gain.
        let (mut kernel, mut engine_span, mut http_span) = (0, 0, 0);
        let (mut resp, mut http, mut kernel_edges) = (None, None, 0);
        for layer in LAYER_ORDERS[i % LAYER_ORDERS.len()] {
            match layer {
                Layer::Kernel => {
                    kernel = tr
                        .span(KERNEL, id, None, || {
                            search.significant_community_into(r.q, a, b, r.algo, &mut ws, &mut out)
                        })
                        .1;
                    kernel_edges = out.len();
                }
                Layer::Engine => {
                    let (got, span) = tr.span(ENGINE, id, None, || engine.query(*r));
                    resp = Some(got);
                    engine_span = span;
                }
                Layer::Http => {
                    let target = crate::query_target(r);
                    let (got, span) = tr.span(HTTP, id, None, || conn.get(&target));
                    http = got.ok();
                    http_span = span;
                }
            }
        }
        let resp = resp.expect("every order runs the engine");
        if !resp.cached && !resp.coalesced {
            tr.set_parent(kernel, engine_span);
        }
        tr.set_parent(engine_span, http_span);
        let http_edges = http
            .filter(|(status, _)| *status == 200)
            .and_then(|(_, body)| field(&body, "edges")?.parse::<usize>().ok());
        mismatches += u64::from(resp.summary.size() != kernel_edges);
        mismatches += u64::from(http_edges != Some(kernel_edges));
    }
    engine.shutdown();
    drop(conn);
    let stats = server.stats();
    server.stop();

    let names = by_name(tr.spans());
    let mean = |n: &str| names.get(n).map_or(0.0, |e| e.1);
    Replay {
        community_edges: comm_sum as f64 / n_alg.max(1) as f64,
        result_edges: res_sum as f64 / n_alg.max(1) as f64,
        step2_us: STEP2.map(|(n, _)| mean(n)),
        step1_us: mean(STEP1),
        server: stats,
        mismatches,
    }
}
