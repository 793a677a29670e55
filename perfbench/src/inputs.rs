//! Generated inputs: the Table-I analogues at scale 1.0, each workload's
//! request stream, and the fingerprint guard that refuses to report when
//! regenerated inputs differ from the recorded ones.
//!
//! The graphs come from one fixed generator seed, as a paper benchmark
//! runs on fixed datasets; the run's `--seed` draws the queries, the
//! checked sample and the edges the maintenance cycles update. Graph-to-graph differences
//! would otherwise dominate the run-to-run spread.

use bigraph::{BipartiteGraph, EdgeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scs::{Algorithm, CommunitySearch};
use scs_service::{QueryRequest, WorkloadSpec};

/// The recorded fingerprints: one `graph` line per dataset and one
/// `queries` line per workload, for the stream of [`REFERENCE_SEED`].
const TABLE: &str = include_str!("../fingerprints.tsv");

/// The run seed whose query streams the table records. Every run
/// regenerates these streams, whatever its own seed: they come from the
/// same generator code as the run's stream.
const REFERENCE_SEED: u64 = 0;

/// Generator seed of both graphs.
pub const GRAPH_SEED: u64 = 7;

/// Requests in each generated ML stream. Loops wrap around when a run
/// consumes more.
const ML_STREAM_LEN: usize = 65_536;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// EN at α=β=2: in-process closed loop, every query distinct.
    EnKernel,
    /// ML at α=β=10: fixed-rate open loop over loopback HTTP.
    MlHttpOpen,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::EnKernel, Workload::MlHttpOpen];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EnKernel => "en_kernel",
            Workload::MlHttpOpen => "ml_http_open",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Table-I tag of the dataset the workload queries.
    pub fn dataset(self) -> &'static str {
        match self {
            Workload::EnKernel => "EN",
            Workload::MlHttpOpen => "ML",
        }
    }

    /// The (α, β) every request of the workload uses.
    pub fn alpha_beta(self) -> (usize, usize) {
        match self {
            Workload::EnKernel => (2, 2),
            Workload::MlHttpOpen => (10, 10),
        }
    }

    /// Whether requests arrive at a fixed offered rate (an open loop).
    /// Its qps is then that rate, not a measure of host speed, and its
    /// median latency is mostly the batcher's deadline, a timer. Neither
    /// is scaled to reference host speed (see `host.rs`).
    pub fn open_loop(self) -> bool {
        self == Workload::MlHttpOpen
    }

    /// The request stream for `search` under `seed`.
    ///
    /// EN: every (2,2)-core member once, in seeded random order, so no
    /// request repeats and the result cache never hits. ML: the
    /// service's own generator at Zipf 1.1 with half the requests
    /// repeating an earlier one, so the cache serves most requests.
    pub fn stream(self, search: &CommunitySearch, seed: u64) -> Vec<QueryRequest> {
        let (alpha, beta) = self.alpha_beta();
        match self {
            Workload::EnKernel => {
                let mut members = datasets::workload::core_members(search.graph(), alpha, beta);
                let mut rng = StdRng::seed_from_u64(seed ^ 0x656e_6b65_726e_656c);
                for i in (1..members.len()).rev() {
                    members.swap(i, rng.gen_range(0..=i));
                }
                members
                    .into_iter()
                    .map(|q| QueryRequest::new(q, alpha, beta, Algorithm::Auto))
                    .collect()
            }
            Workload::MlHttpOpen => {
                let spec = WorkloadSpec {
                    n_queries: ML_STREAM_LEN,
                    alpha,
                    beta,
                    algo: Algorithm::Auto,
                    repeat_fraction: 0.5,
                    zipf: 1.1,
                    seed: seed ^ 0x6d6c_7374_7265_616d,
                };
                scs_service::try_build_workload(search, &spec)
                    .expect("the ML (10,10)-core is nonempty for every seed")
            }
        }
    }
}

/// The generated graph for `dataset` at scale 1.0, plus its edge list
/// as text (what set-up parses).
pub fn generate(dataset: &str) -> (BipartiteGraph, Vec<u8>) {
    let spec = datasets::DatasetSpec::by_name(dataset).expect("catalog dataset");
    let g = spec.build(GRAPH_SEED);
    let mut text = Vec::new();
    bigraph::edgelist::write_edgelist(&g, &mut text).expect("write to memory");
    (g, text)
}

/// 64-bit FNV-1a step.
pub fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x100_0000_01b3)
}

/// FNV-1a offset basis.
pub const FNV0: u64 = 0xcbf2_9ce4_8422_2325;

/// Hash of a sorted edge-id list: the answer identity the checks use.
pub fn edge_hash(edges: &[EdgeId]) -> u64 {
    edges.iter().fold(FNV0, |h, e| fnv(h, u64::from(e.0)))
}

/// `|U| |L| m δ weight-hash` of a built graph: tab-separated, as the
/// table records it. δ is the one the index reports.
pub fn graph_print(search: &CommunitySearch) -> String {
    let g = search.graph();
    let weights = g.weights().iter().fold(FNV0, |h, w| fnv(h, w.to_bits()));
    format!(
        "{}\t{}\t{}\t{}\t{weights:016x}",
        g.n_upper(),
        g.n_lower(),
        g.n_edges(),
        search.delta()
    )
}

/// Distinct query vertices in a stream.
pub fn distinct(stream: &[QueryRequest]) -> usize {
    let mut qs: Vec<u32> = stream.iter().map(|r| r.q.0).collect();
    qs.sort_unstable();
    qs.dedup();
    qs.len()
}

/// `distinct-queries stream-hash` of `workload`'s stream for
/// [`REFERENCE_SEED`]: tab-separated, as the table records it. The hash
/// covers every request in order, so a reordered stream differs too.
fn stream_print(workload: Workload, search: &CommunitySearch) -> String {
    let stream = workload.stream(search, REFERENCE_SEED);
    let hash = stream.iter().fold(FNV0, |h, r| {
        fnv(
            fnv(fnv(h, u64::from(r.q.0)), u64::from(r.alpha)),
            u64::from(r.beta),
        )
    });
    format!("{}\t{hash:016x}", distinct(&stream))
}

fn recorded(kind: &str, key: &str) -> Option<&'static str> {
    TABLE.lines().find_map(|l| {
        let rest = l.strip_prefix(kind)?.strip_prefix('\t')?;
        rest.strip_prefix(key)?.strip_prefix('\t')
    })
}

/// Checks the workload's graph and its reference query stream against
/// the recorded fingerprints.
pub fn guard(workload: Workload, search: &CommunitySearch) -> Result<(), String> {
    let mismatch = |what: &str, want: &str, got: &str| {
        format!(
            "{what} of {} differs from perfbench/fingerprints.tsv: \
             recorded [{want}], regenerated [{got}]",
            workload.name()
        )
    };
    let got = graph_print(search);
    let want = recorded("graph", workload.dataset()).ok_or("no recorded graph fingerprint")?;
    if want != got {
        return Err(mismatch("the graph", want, &got));
    }
    let got = stream_print(workload, search);
    let want = recorded("queries", workload.name()).ok_or("no recorded query fingerprint")?;
    if want != got {
        return Err(mismatch("the reference query stream", want, &got));
    }
    Ok(())
}

/// The fingerprint table.
pub fn table() -> String {
    let mut out = String::from("# graph\tdataset\tn_upper\tn_lower\tm\tdelta\tweight_fnv\n");
    let mut searches = Vec::new();
    for dataset in ["EN", "ML"] {
        let search = CommunitySearch::new(generate(dataset).0);
        out.push_str(&format!("graph\t{dataset}\t{}\n", graph_print(&search)));
        searches.push((dataset, search));
    }
    out.push_str(&format!(
        "# queries\tworkload\tdistinct query vertices\tstream fnv (run seed {REFERENCE_SEED})\n"
    ));
    for w in Workload::ALL {
        let search = &searches
            .iter()
            .find(|(d, _)| *d == w.dataset())
            .expect("built")
            .1;
        out.push_str(&format!(
            "queries\t{}\t{}\n",
            w.name(),
            stream_print(w, search)
        ));
    }
    out
}
