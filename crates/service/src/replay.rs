//! Workload construction and replay.
//!
//! The paper's efficiency experiments replay batches of random queries
//! against the index; this module scales that up to a serving workload:
//! [`build_workload`] draws query vertices from the (α,β)-core via
//! `datasets::workload` (so answers are nonempty) and mixes in repeats —
//! real query streams are heavily skewed, and the repeats send
//! concurrent requests for one answer at the engine.
//! [`replay`] then hammers a running [`QueryEngine`] from a configurable
//! number of client threads and reports the engine's stats plus replay
//! wall time.

use crate::engine::QueryEngine;
use crate::stats::ServiceStats;
use crate::{QueryRequest, QueryResponse};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scs::{Algorithm, CommunitySearch};
use std::fmt;
use std::time::Instant;

/// Shape of a generated workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Total queries to generate.
    pub n_queries: usize,
    /// Degree constraints applied to every query.
    pub alpha: usize,
    /// See `alpha`.
    pub beta: usize,
    /// Second-step algorithm for every query.
    pub algo: Algorithm,
    /// Fraction in `[0, 1]` of queries that repeat an earlier query
    /// (drawn uniformly from the history), producing concurrent
    /// duplicates. Out-of-range or NaN values are clamped
    /// into `[0, 1]` (NaN counts as 0) by [`build_workload`].
    pub repeat_fraction: f64,
    /// Zipf exponent `s` for fresh-vertex popularity. `0.0` (the
    /// default) keeps the historical uniform draw bit-for-bit; `s > 0`
    /// weights the (α,β)-core members by `1/(rank+1)^s` in their
    /// deterministic population order, so a few vertices dominate the
    /// stream — the skew that concentrates traffic on a handful of
    /// engine shards. NaN or negative values are
    /// rejected ([`WorkloadError::InvalidZipf`]), not clamped: a bad
    /// skew silently becoming uniform would invalidate a benchmark.
    pub zipf: f64,
    /// Generator seed.
    pub seed: u64,
}

impl WorkloadSpec {
    /// `repeat_fraction` clamped into `[0, 1]`, with NaN as 0 — the
    /// value the generator actually uses, so a slightly out-of-range
    /// computed fraction degrades gracefully instead of panicking.
    pub fn effective_repeat_fraction(&self) -> f64 {
        if self.repeat_fraction.is_nan() {
            0.0
        } else {
            self.repeat_fraction.clamp(0.0, 1.0)
        }
    }
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            n_queries: 1000,
            alpha: 2,
            beta: 2,
            algo: Algorithm::Auto,
            repeat_fraction: 0.5,
            zipf: 0.0,
            seed: 42,
        }
    }
}

/// Why [`try_build_workload`] could not produce a workload.
// PartialEq without Eq: `InvalidZipf` carries the offending f64.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// The (α,β)-core of the graph has no vertices, so there is no
    /// query vertex to draw. Distinct from asking for zero queries,
    /// which is `Ok(vec![])` — an earlier version conflated the two,
    /// and the CLI diagnosed a perfectly populated core as empty
    /// whenever the request count was zero.
    EmptyCore {
        /// The α the core was computed for.
        alpha: usize,
        /// The β the core was computed for.
        beta: usize,
    },
    /// [`WorkloadSpec::zipf`] is NaN or negative. Unlike
    /// `repeat_fraction` (clamped — a ULP of drift is harmless), a bad
    /// Zipf exponent means the caller asked for a skew that does not
    /// exist; serving a uniform stream instead would silently change
    /// what a benchmark measures.
    InvalidZipf {
        /// The rejected exponent.
        zipf: f64,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::EmptyCore { alpha, beta } => write!(
                f,
                "the ({alpha},{beta})-core is empty — no query vertices to draw"
            ),
            WorkloadError::InvalidZipf { zipf } => write!(
                f,
                "zipf exponent {zipf} is invalid — must be a finite value ≥ 0 \
                 (0 = uniform, larger = more skewed)"
            ),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Generates a replayable request stream for `search`, distinguishing
/// "nothing requested" from "nothing to serve".
///
/// Fresh queries sample vertices from the (α,β)-core — uniformly
/// ([`datasets::workload::random_core_queries`]) when
/// [`WorkloadSpec::zipf`] is 0, Zipf-weighted over the core population
/// otherwise; with probability `repeat_fraction` a query instead
/// repeats a uniformly chosen earlier one. Exactly as many core
/// vertices are drawn as fresh slots exist — the distinct-query pool
/// matches `(1 − repeat_fraction)·n_queries` in expectation (an earlier
/// version drew `n_queries` and silently threw one away per repeat).
/// `n_queries == 0` yields `Ok(vec![])`; an empty (α,β)-core yields
/// [`WorkloadError::EmptyCore`]; a NaN, negative or non-finite `zipf`
/// yields [`WorkloadError::InvalidZipf`].
pub fn try_build_workload(
    search: &CommunitySearch,
    spec: &WorkloadSpec,
) -> Result<Vec<QueryRequest>, WorkloadError> {
    if !spec.zipf.is_finite() || spec.zipf < 0.0 {
        return Err(WorkloadError::InvalidZipf { zipf: spec.zipf });
    }
    let repeat = spec.effective_repeat_fraction();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    // Decide the repeat/fresh pattern first (the first query has no
    // history, so it is always fresh), then draw exactly the fresh
    // vertices the pattern consumes. With n_queries ≥ 1 the pattern
    // always has ≥ 1 fresh slot, so an empty draw can only mean an
    // empty core.
    let is_repeat: Vec<bool> = (0..spec.n_queries)
        .map(|i| i > 0 && rng.gen_bool(repeat))
        .collect();
    if is_repeat.is_empty() {
        return Ok(Vec::new());
    }
    let n_fresh = is_repeat.iter().filter(|r| !**r).count();
    let fresh = if spec.zipf > 0.0 {
        zipf_core_queries(search, spec, n_fresh, &mut rng)
    } else {
        // zipf == 0.0 takes the historical uniform path verbatim, so
        // existing seeds reproduce their exact pre-zipf streams.
        datasets::workload::random_core_queries(
            search.graph(),
            spec.alpha,
            spec.beta,
            n_fresh,
            &mut rng,
        )
    };
    if fresh.is_empty() {
        return Err(WorkloadError::EmptyCore {
            alpha: spec.alpha,
            beta: spec.beta,
        });
    }
    let mut fresh = fresh.into_iter();
    let mut out: Vec<QueryRequest> = Vec::with_capacity(spec.n_queries);
    for repeat_slot in is_repeat {
        let req = if repeat_slot {
            out[rng.gen_range(0..out.len())]
        } else {
            let q = fresh.next().expect("one draw per fresh slot");
            QueryRequest::new(q, spec.alpha, spec.beta, spec.algo)
        };
        out.push(req);
    }
    Ok(out)
}

/// Draws `n` query vertices from the (α,β)-core with Zipf popularity:
/// member at population rank `r` (the deterministic order of
/// [`datasets::workload::core_members`]) has weight `1/(r+1)^s`.
/// Sampling inverts the cumulative weight with a binary search, so a
/// draw costs O(log |core|). Empty core ⇒ empty vec (the caller turns
/// that into [`WorkloadError::EmptyCore`]).
fn zipf_core_queries(
    search: &CommunitySearch,
    spec: &WorkloadSpec,
    n: usize,
    rng: &mut StdRng,
) -> Vec<bigraph::Vertex> {
    let members = datasets::workload::core_members(search.graph(), spec.alpha, spec.beta);
    if members.is_empty() {
        return Vec::new();
    }
    let mut cumulative = Vec::with_capacity(members.len());
    let mut total = 0.0f64;
    for rank in 0..members.len() {
        total += ((rank + 1) as f64).powf(-spec.zipf);
        cumulative.push(total);
    }
    (0..n)
        .map(|_| {
            let u = rng.gen::<f64>() * total; // in [0, total)
            let i = cumulative.partition_point(|&c| c <= u);
            members[i.min(members.len() - 1)]
        })
        .collect()
}

/// [`try_build_workload`] flattened to the historical signature: an
/// empty vec for *both* an empty core and a zero request count. Callers
/// that report diagnostics should use [`try_build_workload`] and tell
/// the user which one happened.
pub fn build_workload(search: &CommunitySearch, spec: &WorkloadSpec) -> Vec<QueryRequest> {
    try_build_workload(search, spec).unwrap_or_default()
}

/// Outcome of one replay run.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Engine metrics at the end of the run.
    pub stats: ServiceStats,
    /// Requests actually replayed.
    pub n_queries: usize,
    /// Client threads used.
    pub clients: usize,
    /// Requests per [`QueryEngine::submit_batch`] job (1 = per-request
    /// submission via [`QueryEngine::query`]).
    pub batch_size: usize,
    /// Wall-clock duration of the replay itself, seconds.
    pub wall_secs: f64,
    /// `n_queries / wall_secs` — throughput of this replay (the engine's
    /// own `stats.qps` averages over the engine's whole lifetime).
    pub replay_qps: f64,
}

/// Replays `workload` against `engine` from `clients` threads, round-robin
/// partitioned, collecting every response. Responses are returned in
/// workload order so callers can compare them one-to-one against an
/// oracle. Per-request submission; see [`replay_batched`] for the
/// amortized mode.
pub fn replay(
    engine: &QueryEngine,
    workload: &[QueryRequest],
    clients: usize,
) -> (ReplayReport, Vec<QueryResponse>) {
    replay_batched(engine, workload, clients, 1)
}

/// [`replay`] with batched submission: each client slices its round-robin
/// share into chunks of `batch_size` and submits every chunk as one
/// [`QueryEngine::submit_batch`] job, paying the queue round-trip and
/// the index-snapshot read once per chunk instead of once per request. `batch_size ≤ 1` degrades to per-request
/// submit+wait ([`QueryEngine::query`]), which is how [`replay`] is
/// implemented. Responses are identical to per-request submission and
/// returned in workload order.
pub fn replay_batched(
    engine: &QueryEngine,
    workload: &[QueryRequest],
    clients: usize,
    batch_size: usize,
) -> (ReplayReport, Vec<QueryResponse>) {
    let clients = clients.max(1);
    let batch_size = batch_size.max(1);
    let t0 = Instant::now();
    let mut responses: Vec<Option<QueryResponse>> = vec![None; workload.len()];
    std::thread::scope(|scope| {
        let mut joins = Vec::with_capacity(clients);
        for c in 0..clients {
            joins.push(scope.spawn(move || {
                // Each client models one synchronous caller submitting
                // its next request (or next batch) only after the
                // previous answer arrives, so concurrency = clients.
                let mut got = Vec::new();
                let mine: Vec<usize> = (0..workload.len()).skip(c).step_by(clients).collect();
                if batch_size == 1 {
                    for &i in &mine {
                        got.push((i, engine.query(workload[i])));
                    }
                } else {
                    for chunk in mine.chunks(batch_size) {
                        let reqs: Vec<QueryRequest> = chunk.iter().map(|&i| workload[i]).collect();
                        for (&i, resp) in chunk.iter().zip(engine.query_batch(&reqs)) {
                            got.push((i, resp));
                        }
                    }
                }
                got
            }));
        }
        for j in joins {
            for (i, resp) in j.join().expect("client thread panicked") {
                responses[i] = Some(resp);
            }
        }
    });
    let wall_secs = t0.elapsed().as_secs_f64().max(1e-9);
    let report = ReplayReport {
        stats: engine.stats(),
        n_queries: workload.len(),
        clients,
        batch_size,
        wall_secs,
        replay_qps: workload.len() as f64 / wall_secs,
    };
    let responses = responses
        .into_iter()
        .map(|r| r.expect("every slot answered"))
        .collect();
    (report, responses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;
    use bigraph::generators::random_bipartite;
    use std::sync::Arc;

    fn small_search() -> Arc<CommunitySearch> {
        let mut rng = StdRng::seed_from_u64(9);
        CommunitySearch::shared(random_bipartite(30, 30, 220, &mut rng))
    }

    #[test]
    fn workload_has_requested_shape() {
        let search = small_search();
        let spec = WorkloadSpec {
            n_queries: 200,
            repeat_fraction: 0.6,
            ..WorkloadSpec::default()
        };
        let w = build_workload(&search, &spec);
        assert_eq!(w.len(), 200);
        // With 60% repeats the distinct count must be well below 200.
        let mut distinct: Vec<_> = w.clone();
        distinct.sort_by_key(|r| (r.q, r.alpha, r.beta));
        distinct.dedup();
        assert!(distinct.len() < 150, "distinct={}", distinct.len());
        // Determinism: same seed, same stream.
        assert_eq!(w, build_workload(&search, &spec));
    }

    #[test]
    fn workload_distinct_pool_matches_repeat_fraction() {
        // A graph whose (1,1)-core is huge relative to the fresh-draw
        // count, so sampling-with-replacement collisions stay small and
        // the distinct pool ≈ the number of fresh draws, which must be
        // (1 − repeat_fraction)·n_queries in expectation. (The pre-fix
        // generator drew n_queries core vertices and discarded one per
        // repeat slot, wasting draws the documentation promised as
        // distinct queries.)
        let mut rng = StdRng::seed_from_u64(17);
        let search = CommunitySearch::shared(bigraph::generators::random_bipartite(
            3000, 3000, 9000, &mut rng,
        ));
        let spec = WorkloadSpec {
            n_queries: 400,
            alpha: 1,
            beta: 1,
            repeat_fraction: 0.5,
            ..WorkloadSpec::default()
        };
        let w = build_workload(&search, &spec);
        assert_eq!(w.len(), 400);
        let mut distinct: Vec<_> = w.iter().map(|r| r.q).collect();
        distinct.sort();
        distinct.dedup();
        let expect = (1.0 - spec.repeat_fraction) * spec.n_queries as f64;
        assert!(
            (distinct.len() as f64 - expect).abs() < 30.0,
            "distinct pool {} far from (1−{})·{} = {expect}",
            distinct.len(),
            spec.repeat_fraction,
            spec.n_queries
        );
    }

    #[test]
    fn workload_repeat_fraction_extremes_and_out_of_range() {
        let search = small_search();
        // 0.0: every query fresh; 1.0: one fresh query repeated — both
        // must generate without panicking.
        for (rf, max_distinct) in [(0.0, usize::MAX), (1.0, 1)] {
            let w = build_workload(
                &search,
                &WorkloadSpec {
                    n_queries: 50,
                    repeat_fraction: rf,
                    ..WorkloadSpec::default()
                },
            );
            assert_eq!(w.len(), 50, "repeat_fraction={rf}");
            let mut distinct: Vec<_> = w.clone();
            distinct.sort_by_key(|r| r.q);
            distinct.dedup();
            assert!(distinct.len() <= max_distinct, "repeat_fraction={rf}");
        }
        // Out-of-range and NaN specs clamp instead of panicking.
        for rf in [-0.5, 1.5, f64::NAN] {
            let spec = WorkloadSpec {
                n_queries: 40,
                repeat_fraction: rf,
                ..WorkloadSpec::default()
            };
            assert_eq!(build_workload(&search, &spec).len(), 40, "rf={rf}");
        }
        let nan = WorkloadSpec {
            repeat_fraction: f64::NAN,
            ..WorkloadSpec::default()
        };
        assert_eq!(nan.effective_repeat_fraction(), 0.0);
        let hot = WorkloadSpec {
            repeat_fraction: 1.5,
            ..WorkloadSpec::default()
        };
        assert_eq!(hot.effective_repeat_fraction(), 1.0);
    }

    #[test]
    fn zipf_workload_is_deterministic_and_skewed() {
        // Big core so skew is visible: rank the draw counts and compare
        // the head's share under uniform vs. heavy Zipf.
        let mut rng = StdRng::seed_from_u64(23);
        let search = CommunitySearch::shared(bigraph::generators::random_bipartite(
            500, 500, 2500, &mut rng,
        ));
        let spec = WorkloadSpec {
            n_queries: 2000,
            alpha: 1,
            beta: 1,
            repeat_fraction: 0.0,
            zipf: 1.5,
            ..WorkloadSpec::default()
        };
        let w = build_workload(&search, &spec);
        assert_eq!(w.len(), 2000);
        // Same seed, same stream.
        assert_eq!(w, build_workload(&search, &spec));
        let top_share = |w: &[QueryRequest]| {
            let mut counts = std::collections::HashMap::new();
            for r in w {
                *counts.entry(r.q).or_insert(0usize) += 1;
            }
            *counts.values().max().unwrap() as f64 / w.len() as f64
        };
        let skewed = top_share(&w);
        let uniform = top_share(&build_workload(
            &search,
            &WorkloadSpec { zipf: 0.0, ..spec },
        ));
        // s = 1.5 puts ≳30% of the mass on rank 0 (1/ζ(1.5) ≈ 0.38);
        // uniform over a core of hundreds puts well under 5% anywhere.
        assert!(
            skewed > 0.2 && skewed > 4.0 * uniform,
            "zipf head share {skewed} vs uniform {uniform}"
        );
    }

    #[test]
    fn zipf_zero_reproduces_the_uniform_stream() {
        let search = small_search();
        let spec = WorkloadSpec {
            n_queries: 100,
            ..WorkloadSpec::default()
        };
        assert_eq!(spec.zipf, 0.0, "uniform must be the default");
        // zipf: 0.0 is spelled out vs. defaulted — same stream either
        // way, so adding the knob changed no existing workload.
        let explicit = WorkloadSpec {
            zipf: 0.0,
            ..spec.clone()
        };
        assert_eq!(
            build_workload(&search, &spec),
            build_workload(&search, &explicit)
        );
    }

    #[test]
    fn invalid_zipf_is_rejected_loudly() {
        let search = small_search();
        for bad in [f64::NAN, -0.1, -3.0, f64::INFINITY, f64::NEG_INFINITY] {
            let spec = WorkloadSpec {
                zipf: bad,
                ..WorkloadSpec::default()
            };
            let err = try_build_workload(&search, &spec).unwrap_err();
            assert!(
                matches!(err, WorkloadError::InvalidZipf { .. }),
                "zipf={bad} accepted"
            );
            let msg = err.to_string();
            assert!(msg.contains("zipf") && msg.contains("invalid"), "{msg}");
        }
    }

    #[test]
    fn workload_empty_when_core_empty() {
        let search = small_search();
        let spec = WorkloadSpec {
            alpha: 50,
            beta: 50,
            ..WorkloadSpec::default()
        };
        assert!(build_workload(&search, &spec).is_empty());
        // The checked variant names the reason.
        assert_eq!(
            try_build_workload(&search, &spec),
            Err(WorkloadError::EmptyCore {
                alpha: 50,
                beta: 50
            })
        );
        let msg = try_build_workload(&search, &spec).unwrap_err().to_string();
        assert!(msg.contains("(50,50)-core is empty"), "{msg}");
    }

    #[test]
    fn zero_queries_is_not_an_empty_core() {
        // Regression: n_queries == 0 used to fall through the
        // empty-draw check and masquerade as an empty core, so the CLI
        // told users to lower --alpha/--beta on a populated graph.
        let search = small_search();
        let spec = WorkloadSpec {
            n_queries: 0,
            alpha: 1,
            beta: 1,
            ..WorkloadSpec::default()
        };
        assert_eq!(try_build_workload(&search, &spec), Ok(Vec::new()));
        assert!(build_workload(&search, &spec).is_empty());
        // …while the same spec against an actually empty core still
        // reports the core, not the count.
        let starved = WorkloadSpec {
            n_queries: 10,
            alpha: 50,
            beta: 50,
            ..WorkloadSpec::default()
        };
        assert!(matches!(
            try_build_workload(&search, &starved),
            Err(WorkloadError::EmptyCore { .. })
        ));
    }

    #[test]
    fn replay_answers_everything_in_order() {
        let search = small_search();
        let spec = WorkloadSpec {
            n_queries: 120,
            ..WorkloadSpec::default()
        };
        let w = build_workload(&search, &spec);
        let engine = QueryEngine::start(
            search,
            ServiceConfig {
                workers: 4,
                ..ServiceConfig::default()
            },
        );
        let (report, responses) = replay(&engine, &w, 3);
        assert_eq!(report.n_queries, 120);
        assert_eq!(responses.len(), 120);
        for (req, resp) in w.iter().zip(&responses) {
            assert_eq!(resp.request, *req);
        }
        assert_eq!(report.stats.completed, 120);
        engine.shutdown();
    }

    #[test]
    fn batched_replay_matches_per_request() {
        let search = small_search();
        let spec = WorkloadSpec {
            n_queries: 150,
            repeat_fraction: 0.4,
            ..WorkloadSpec::default()
        };
        let w = build_workload(&search, &spec);
        let config = ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        };
        let per_request = QueryEngine::start(search.clone(), config.clone());
        let (_, base) = replay(&per_request, &w, 3);
        per_request.shutdown();

        let batched = QueryEngine::start(search, config);
        let (report, got) = replay_batched(&batched, &w, 3, 16);
        batched.shutdown();

        assert_eq!(report.batch_size, 16);
        assert!(report.stats.batches > 0, "no batch jobs recorded");
        assert_eq!(report.stats.batched, 150);
        assert_eq!(got.len(), base.len());
        for (i, (a, b)) in base.iter().zip(&got).enumerate() {
            assert_eq!(a.request, b.request, "slot {i} out of order");
            assert_eq!(a.summary, b.summary, "slot {i} diverged");
        }
    }
}
