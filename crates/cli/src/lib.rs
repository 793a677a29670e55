//! Implementation of the `scs` command-line tool.
//!
//! Subcommands (see `scs help`):
//!
//! * `stats <edgelist>` — graph summary: sizes, degeneracy, max degrees;
//! * `community <edgelist> <side:q> <alpha> <beta>` — the (α,β)-community;
//! * `search <edgelist> <side:q> <alpha> <beta> [--algo ...]` — the
//!   significant (α,β)-community;
//! * `serve <edgelist> [--addr HOST:PORT] ...` — serve queries over a
//!   std-only HTTP/1.1 front end with admission control (see
//!   `scs-service`'s `server` module); prints the bound
//!   address, then blocks until killed;
//! * `serve-bench <edgelist> [--threads N] [--queries K] ...` — replay a
//!   generated query workload through the concurrent `scs-service`
//!   engine and print its replay QPS and the latency stats table; with
//!   `--remote HOST:PORT` the same workload is driven over HTTP
//!   against a running `scs serve` instead;
//! * `analyze [--root DIR] [--allow RULE]` — run the workspace's
//!   concurrency-correctness lint pass (see `scs-analyze`); exits
//!   non-zero when any diagnostic fires, so CI can gate on it.
//!
//! Query vertices are written `u:<i>` or `l:<j>` (side-local 0-based
//! indices). Edge lists are whitespace-separated `upper lower [weight]`
//! with `%`/`#` comments; pass `--one-based` for KONECT files.
//!
//! The argument handling is deliberately dependency-free (the approved
//! crate set has no CLI parser); [`parse_args`] is pure and unit-tested.

// No unsafe in this crate — and none may creep in.
#![forbid(unsafe_code)]

use bigraph::edgelist::{read_edgelist_file, ReadOptions};
use bigraph::{BipartiteGraph, Side, Vertex};
use scs::{Algorithm, CommunitySearch, DeltaIndex};
use std::fmt;

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print usage.
    Help,
    /// Graph summary.
    Stats { path: String, one_based: bool },
    /// Step-1 query.
    Community {
        path: String,
        one_based: bool,
        query: QueryRef,
        alpha: usize,
        beta: usize,
    },
    /// Full significant-community query.
    Search {
        path: String,
        one_based: bool,
        query: QueryRef,
        alpha: usize,
        beta: usize,
        algo: Algorithm,
    },
    /// Write the 11 synthetic dataset analogues as edge lists.
    Generate(GenerateArgs),
    /// Serve queries over the std-only network front end.
    Serve(ServeArgs),
    /// Replay a generated workload through the concurrent query engine.
    ServeBench(ServeBenchArgs),
    /// Run the concurrency-correctness lint pass over the workspace.
    Analyze {
        /// Workspace root to scan (defaults to the current directory).
        root: String,
        /// Rule names to disable (`--allow`), already validated.
        allow: Vec<String>,
        /// Report format name (`--format`), already validated.
        format: String,
    },
}

/// Arguments of `scs serve-bench`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchArgs {
    /// Edge-list path.
    pub path: String,
    /// KONECT-style 1-based ids.
    pub one_based: bool,
    /// Worker threads in the engine.
    pub threads: usize,
    /// Queries in the replayed workload.
    pub queries: usize,
    /// Client threads submitting the workload.
    pub clients: usize,
    /// Degree constraint for upper vertices.
    pub alpha: usize,
    /// Degree constraint for lower vertices.
    pub beta: usize,
    /// Second-step algorithm.
    pub algo: Algorithm,
    /// Fraction of repeated queries in the workload.
    pub repeat: f64,
    /// Zipf exponent for fresh-query popularity (0 = uniform).
    pub zipf: f64,
    /// Workload seed.
    pub seed: u64,
    /// Warmup queries replayed (and then excluded from the steady-state
    /// window) before the measured run; defaults to `queries / 10`.
    pub warmup: Option<usize>,
    /// Write the engine's Prometheus text exposition here after the run.
    pub metrics_out: Option<String>,
    /// Write the schema-versioned `BENCH_service.json` artifact here.
    pub bench_json: Option<String>,
    /// Drive the workload over HTTP against a running `scs serve` at
    /// this address instead of an in-process engine.
    pub remote: Option<String>,
}

/// Arguments of `scs serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Edge-list path.
    pub path: String,
    /// KONECT-style 1-based ids.
    pub one_based: bool,
    /// Listen address (`host:port`; port 0 picks an ephemeral one).
    pub addr: String,
    /// Worker threads in the engine.
    pub threads: usize,
    /// Admission budget: admitted-but-unanswered requests past this
    /// are shed with `429 + Retry-After`.
    pub pending_budget: usize,
    /// Per-tenant token-bucket refill rate, requests/second (0 = off).
    pub tenant_rate: u64,
    /// Per-tenant token-bucket burst capacity.
    pub tenant_burst: u64,
    /// Socket read/write timeout, milliseconds (0 = none).
    pub socket_timeout_ms: u64,
}

/// A side-qualified query vertex (`u:3` / `l:17`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryRef {
    /// Which layer the index refers to.
    pub side: Side,
    /// Side-local 0-based index.
    pub index: usize,
}

impl QueryRef {
    /// Resolves against a graph, checking bounds.
    pub fn resolve(&self, g: &BipartiteGraph) -> Result<Vertex, CliError> {
        let bound = match self.side {
            Side::Upper => g.n_upper(),
            Side::Lower => g.n_lower(),
        };
        if self.index >= bound {
            return Err(CliError::new(format!(
                "query vertex {} out of range (layer has {bound} vertices)",
                self
            )));
        }
        Ok(match self.side {
            Side::Upper => g.upper(self.index),
            Side::Lower => g.lower(self.index),
        })
    }
}

impl fmt::Display for QueryRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = if self.side == Side::Upper { 'u' } else { 'l' };
        write!(f, "{tag}:{}", self.index)
    }
}

/// Generate the synthetic dataset catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateArgs {
    /// Output directory for the TSV files.
    pub dir: String,
    /// Scale factor in (0, 1].
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
}

/// CLI error with a user-facing message.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError(pub String);

impl CliError {
    fn new(msg: impl Into<String>) -> Self {
        CliError(msg.into())
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// Usage text.
pub const USAGE: &str = "\
scs — significant (α,β)-community search on weighted bipartite graphs

USAGE:
  scs stats <edgelist> [--one-based]
  scs community <edgelist> <u:IDX|l:IDX> <alpha> <beta> [--one-based]
  scs search <edgelist> <u:IDX|l:IDX> <alpha> <beta>
             [--algo auto|peel|expand|binary|baseline] [--one-based]
  scs generate <dir> [--scale S] [--seed N]
  scs serve <edgelist> [--addr HOST:PORT] [--threads N]
             [--pending-budget N] [--tenant-rate R] [--tenant-burst B]
             [--socket-timeout-ms MS] [--one-based]
  scs serve-bench <edgelist> [--threads N] [--queries K]
             [--clients C] [--alpha A] [--beta B] [--repeat F]
             [--zipf Z] [--seed N]
             [--warmup W] [--metrics-out FILE] [--bench-json FILE]
             [--remote HOST:PORT]
             [--algo auto|peel|expand|binary|baseline] [--one-based]
  scs analyze [--root DIR] [--allow RULE]... [--format human|github|json]
  scs help

Edge lists are `upper lower [weight]` per line; query vertices are
side-qualified 0-based indices (u:3 = fourth upper vertex).";

fn parse_query(tok: &str) -> Result<QueryRef, CliError> {
    let (side, rest) = match tok.split_once(':') {
        Some(("u", rest)) => (Side::Upper, rest),
        Some(("l", rest)) => (Side::Lower, rest),
        _ => {
            return Err(CliError::new(format!(
                "query vertex must be u:<i> or l:<j>, got {tok:?}"
            )))
        }
    };
    let index = rest
        .parse()
        .map_err(|_| CliError::new(format!("invalid vertex index {rest:?}")))?;
    Ok(QueryRef { side, index })
}

fn parse_usize(tok: &str, what: &str) -> Result<usize, CliError> {
    let v: usize = tok
        .parse()
        .map_err(|_| CliError::new(format!("invalid {what} {tok:?}")))?;
    if v == 0 {
        return Err(CliError::new(format!("{what} must be at least 1")));
    }
    Ok(v)
}

fn parse_algo(tok: &str) -> Result<Algorithm, CliError> {
    Algorithm::ALL
        .into_iter()
        .find(|a| a.name() == tok)
        .ok_or_else(|| CliError::new(format!("unknown algorithm {tok:?}")))
}

/// Parses raw arguments (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut positional: Vec<&str> = Vec::new();
    let mut one_based = false;
    let mut algo = Algorithm::Auto;
    let mut scale = 1.0f64;
    let mut seed = 42u64;
    let mut threads = 4usize;
    let mut queries = 1000usize;
    let mut clients: Option<usize> = None;
    let mut alpha_flag = 2usize;
    let mut beta_flag = 2usize;
    let mut repeat = 0.5f64;
    let mut zipf = 0.0f64;
    let mut warmup: Option<usize> = None;
    let mut metrics_out: Option<String> = None;
    let mut bench_json: Option<String> = None;
    let mut analyze_root: Option<String> = None;
    let mut analyze_allow: Vec<String> = Vec::new();
    let mut analyze_format: Option<String> = None;
    let mut addr: Option<String> = None;
    let mut remote: Option<String> = None;
    let serve_defaults = scs_service::ServiceConfig::default();
    let mut pending_budget = serve_defaults.pending_budget;
    let mut tenant_rate = serve_defaults.tenant_rate;
    let mut tenant_burst = serve_defaults.tenant_burst;
    let mut socket_timeout_ms = serve_defaults.socket_timeout_ms;
    let mut analyze_flags: Vec<&'static str> = Vec::new();
    // Subcommand-specific flags seen, so the other subcommands can
    // reject them instead of silently ignoring a misplaced knob.
    let mut serve_flags: Vec<&'static str> = Vec::new();
    // Engine sizing shared by `serve` and `serve-bench`.
    let mut engine_flags: Vec<&'static str> = Vec::new();
    // Listen address and admission knobs of `serve` only.
    let mut serve_only_flags: Vec<&'static str> = Vec::new();
    let mut scale_flag_seen = false;
    let mut algo_flag_seen = false;
    let mut seed_flag_seen = false;
    let mut it = args.iter().map(String::as_str).peekable();
    while let Some(tok) = it.next() {
        match tok {
            "--help" | "-h" => return Ok(Command::Help),
            "--one-based" => one_based = true,
            "--algo" => {
                algo_flag_seen = true;
                let val = it
                    .next()
                    .ok_or_else(|| CliError::new("--algo needs a value"))?;
                algo = parse_algo(val)?;
            }
            "--scale" => {
                scale_flag_seen = true;
                let val = it
                    .next()
                    .ok_or_else(|| CliError::new("--scale needs a value"))?;
                scale = val
                    .parse()
                    .map_err(|_| CliError::new(format!("invalid scale {val:?}")))?;
                if !(scale > 0.0 && scale <= 1.0) {
                    return Err(CliError::new("scale must be in (0, 1]"));
                }
            }
            "--seed" => {
                seed_flag_seen = true;
                let val = it
                    .next()
                    .ok_or_else(|| CliError::new("--seed needs a value"))?;
                seed = val
                    .parse()
                    .map_err(|_| CliError::new(format!("invalid seed {val:?}")))?;
            }
            "--threads" => {
                engine_flags.push("--threads");
                let val = it
                    .next()
                    .ok_or_else(|| CliError::new("--threads needs a value"))?;
                threads = parse_usize(val, "thread count")?;
            }
            "--addr" => {
                serve_only_flags.push("--addr");
                let val = it
                    .next()
                    .ok_or_else(|| CliError::new("--addr needs a host:port value"))?;
                addr = Some(val.to_string());
            }
            "--pending-budget" => {
                serve_only_flags.push("--pending-budget");
                let val = it
                    .next()
                    .ok_or_else(|| CliError::new("--pending-budget needs a value"))?;
                pending_budget = parse_usize(val, "pending budget")?;
            }
            "--tenant-rate" => {
                serve_only_flags.push("--tenant-rate");
                let val = it
                    .next()
                    .ok_or_else(|| CliError::new("--tenant-rate needs a value"))?;
                // Zero is meaningful (quotas off), so parse directly.
                tenant_rate = val
                    .parse()
                    .map_err(|_| CliError::new(format!("invalid tenant rate {val:?}")))?;
            }
            "--tenant-burst" => {
                serve_only_flags.push("--tenant-burst");
                let val = it
                    .next()
                    .ok_or_else(|| CliError::new("--tenant-burst needs a value"))?;
                tenant_burst = parse_usize(val, "tenant burst")? as u64;
            }
            "--socket-timeout-ms" => {
                serve_only_flags.push("--socket-timeout-ms");
                let val = it
                    .next()
                    .ok_or_else(|| CliError::new("--socket-timeout-ms needs a value"))?;
                // Zero is meaningful (no timeout), so parse directly.
                socket_timeout_ms = val
                    .parse()
                    .map_err(|_| CliError::new(format!("invalid socket timeout {val:?}")))?;
            }
            "--remote" => {
                serve_flags.push("--remote");
                let val = it
                    .next()
                    .ok_or_else(|| CliError::new("--remote needs a host:port value"))?;
                remote = Some(val.to_string());
            }
            "--queries" => {
                serve_flags.push("--queries");
                let val = it
                    .next()
                    .ok_or_else(|| CliError::new("--queries needs a value"))?;
                queries = parse_usize(val, "query count")?;
            }
            "--clients" => {
                serve_flags.push("--clients");
                let val = it
                    .next()
                    .ok_or_else(|| CliError::new("--clients needs a value"))?;
                clients = Some(parse_usize(val, "client count")?);
            }
            "--alpha" => {
                serve_flags.push("--alpha");
                let val = it
                    .next()
                    .ok_or_else(|| CliError::new("--alpha needs a value"))?;
                alpha_flag = parse_usize(val, "alpha")?;
            }
            "--beta" => {
                serve_flags.push("--beta");
                let val = it
                    .next()
                    .ok_or_else(|| CliError::new("--beta needs a value"))?;
                beta_flag = parse_usize(val, "beta")?;
            }
            "--repeat" => {
                serve_flags.push("--repeat");
                let val = it
                    .next()
                    .ok_or_else(|| CliError::new("--repeat needs a value"))?;
                repeat = val
                    .parse()
                    .map_err(|_| CliError::new(format!("invalid repeat fraction {val:?}")))?;
                if !(0.0..=1.0).contains(&repeat) {
                    return Err(CliError::new("repeat fraction must be in [0, 1]"));
                }
            }
            "--zipf" => {
                serve_flags.push("--zipf");
                let val = it
                    .next()
                    .ok_or_else(|| CliError::new("--zipf needs a value"))?;
                zipf = val
                    .parse()
                    .map_err(|_| CliError::new(format!("invalid zipf exponent {val:?}")))?;
                // Mirrors WorkloadError::InvalidZipf, but at parse time
                // so the bad flag dies before any graph is loaded.
                if !zipf.is_finite() || zipf < 0.0 {
                    return Err(CliError::new(
                        "zipf exponent must be a finite value ≥ 0 (0 = uniform)",
                    ));
                }
            }
            "--warmup" => {
                serve_flags.push("--warmup");
                let val = it
                    .next()
                    .ok_or_else(|| CliError::new("--warmup needs a value"))?;
                // Zero is meaningful here (no warmup), so parse directly
                // instead of through `parse_usize`.
                warmup = Some(
                    val.parse()
                        .map_err(|_| CliError::new(format!("invalid warmup count {val:?}")))?,
                );
            }
            "--metrics-out" => {
                serve_flags.push("--metrics-out");
                let val = it
                    .next()
                    .ok_or_else(|| CliError::new("--metrics-out needs a path"))?;
                metrics_out = Some(val.to_string());
            }
            "--bench-json" => {
                serve_flags.push("--bench-json");
                let val = it
                    .next()
                    .ok_or_else(|| CliError::new("--bench-json needs a path"))?;
                bench_json = Some(val.to_string());
            }
            "--root" => {
                analyze_flags.push("--root");
                let val = it
                    .next()
                    .ok_or_else(|| CliError::new("--root needs a directory"))?;
                analyze_root = Some(val.to_string());
            }
            "--allow" => {
                analyze_flags.push("--allow");
                let val = it
                    .next()
                    .ok_or_else(|| CliError::new("--allow needs a rule name"))?;
                if scs_analyze::Rule::from_name(val).is_none() {
                    let known: Vec<&str> =
                        scs_analyze::Rule::ALL.iter().map(|r| r.name()).collect();
                    return Err(CliError::new(format!(
                        "unknown rule {val:?}; rules: {}",
                        known.join(", ")
                    )));
                }
                analyze_allow.push(val.to_string());
            }
            "--format" => {
                analyze_flags.push("--format");
                let val = it
                    .next()
                    .ok_or_else(|| CliError::new("--format needs a format name"))?;
                if scs_analyze::Format::from_name(val).is_none() {
                    return Err(CliError::new(format!(
                        "unknown format {val:?}; formats: human, github, json"
                    )));
                }
                analyze_format = Some(val.to_string());
            }
            flag if flag.starts_with("--") => {
                return Err(CliError::new(format!("unknown flag {flag:?}")))
            }
            pos => positional.push(pos),
        }
    }
    let Some((&cmd, rest)) = positional.split_first() else {
        return Ok(Command::Help);
    };
    if cmd != "serve-bench" {
        if let Some(flag) = serve_flags.first() {
            return Err(CliError::new(format!(
                "{flag} only applies to `scs serve-bench`"
            )));
        }
    }
    if !matches!(cmd, "serve" | "serve-bench") {
        if let Some(flag) = engine_flags.first() {
            return Err(CliError::new(format!(
                "{flag} only applies to `scs serve` and `scs serve-bench`"
            )));
        }
    }
    if cmd != "serve" {
        if let Some(flag) = serve_only_flags.first() {
            return Err(CliError::new(format!("{flag} only applies to `scs serve`")));
        }
    }
    if cmd != "analyze" {
        if let Some(flag) = analyze_flags.first() {
            return Err(CliError::new(format!(
                "{flag} only applies to `scs analyze`"
            )));
        }
    }
    if cmd != "generate" && scale_flag_seen {
        return Err(CliError::new("--scale only applies to `scs generate`"));
    }
    if algo_flag_seen && !matches!(cmd, "search" | "serve-bench") {
        return Err(CliError::new(
            "--algo only applies to `scs search` and `scs serve-bench`",
        ));
    }
    if seed_flag_seen && !matches!(cmd, "generate" | "serve-bench") {
        return Err(CliError::new(
            "--seed only applies to `scs generate` and `scs serve-bench`",
        ));
    }
    let need = |n: usize| -> Result<(), CliError> {
        if rest.len() != n {
            Err(CliError::new(format!(
                "`{cmd}` expects {n} argument(s), got {}; try `scs help`",
                rest.len()
            )))
        } else {
            Ok(())
        }
    };
    match cmd {
        "help" | "-h" | "--help" => Ok(Command::Help),
        "stats" => {
            need(1)?;
            Ok(Command::Stats {
                path: rest[0].into(),
                one_based,
            })
        }
        "community" => {
            need(4)?;
            Ok(Command::Community {
                path: rest[0].into(),
                one_based,
                query: parse_query(rest[1])?,
                alpha: parse_usize(rest[2], "alpha")?,
                beta: parse_usize(rest[3], "beta")?,
            })
        }
        "search" => {
            need(4)?;
            Ok(Command::Search {
                path: rest[0].into(),
                one_based,
                query: parse_query(rest[1])?,
                alpha: parse_usize(rest[2], "alpha")?,
                beta: parse_usize(rest[3], "beta")?,
                algo,
            })
        }
        "generate" => {
            need(1)?;
            Ok(Command::Generate(GenerateArgs {
                dir: rest[0].into(),
                scale,
                seed,
            }))
        }
        "analyze" => {
            need(0)?;
            Ok(Command::Analyze {
                root: analyze_root.unwrap_or_else(|| ".".to_string()),
                allow: analyze_allow,
                format: analyze_format.unwrap_or_else(|| "human".to_string()),
            })
        }
        "serve" => {
            need(1)?;
            Ok(Command::Serve(ServeArgs {
                path: rest[0].into(),
                one_based,
                addr: addr.unwrap_or_else(|| "127.0.0.1:7474".to_string()),
                threads,
                pending_budget,
                tenant_rate,
                tenant_burst,
                socket_timeout_ms,
            }))
        }
        "serve-bench" => {
            need(1)?;
            Ok(Command::ServeBench(ServeBenchArgs {
                path: rest[0].into(),
                one_based,
                threads,
                queries,
                clients: clients.unwrap_or(threads * 2),
                alpha: alpha_flag,
                beta: beta_flag,
                algo,
                repeat,
                zipf,
                seed,
                warmup,
                metrics_out,
                bench_json,
                remote,
            }))
        }
        other => Err(CliError::new(format!(
            "unknown command {other:?}; try `scs help`"
        ))),
    }
}

fn load(path: &str, one_based: bool) -> Result<BipartiteGraph, CliError> {
    let opts = ReadOptions {
        one_based,
        ..Default::default()
    };
    read_edgelist_file(path, &opts).map_err(|e| CliError::new(format!("{path}: {e}")))
}

fn describe_subgraph(g: &BipartiteGraph, sub: &bigraph::Subgraph<'_>) -> String {
    if sub.is_empty() {
        return "empty".into();
    }
    let (us, ls) = sub.layer_vertices();
    let mut out = format!(
        "{} edges, {} upper, {} lower, f = {:.4}\nupper:",
        sub.size(),
        us.len(),
        ls.len(),
        sub.min_weight().unwrap()
    );
    for u in us.iter().take(20) {
        out.push_str(&format!(" {}", g.local_index(*u)));
    }
    if us.len() > 20 {
        out.push_str(" …");
    }
    out.push_str("\nlower:");
    for l in ls.iter().take(20) {
        out.push_str(&format!(" {}", g.local_index(*l)));
    }
    if ls.len() > 20 {
        out.push_str(" …");
    }
    out
}

/// Executes a parsed command, returning the text to print.
pub fn run(cmd: Command) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Stats { path, one_based } => {
            let g = load(&path, one_based)?;
            let delta = bicore::degeneracy(&g);
            Ok(format!(
                "{}\nδ (degeneracy) = {delta}\nα_max = {}, β_max = {}\nmin weight = {:?}",
                g.summary(),
                g.max_degree(Side::Upper),
                g.max_degree(Side::Lower),
                g.min_weight()
            ))
        }
        Command::Community {
            path,
            one_based,
            query,
            alpha,
            beta,
        } => {
            let g = load(&path, one_based)?;
            let q = query.resolve(&g)?;
            let index = DeltaIndex::build(&g);
            let c = index.query_community(&g, q, alpha, beta);
            Ok(format!(
                "({alpha},{beta})-community of {query}: {}",
                describe_subgraph(&g, &c)
            ))
        }
        Command::Search {
            path,
            one_based,
            query,
            alpha,
            beta,
            algo,
        } => {
            let g = load(&path, one_based)?;
            let q = query.resolve(&g)?;
            let search = CommunitySearch::new(g);
            let r = search.significant_community(q, alpha, beta, algo);
            Ok(format!(
                "significant ({alpha},{beta})-community of {query}: {}",
                describe_subgraph(search.graph(), &r)
            ))
        }
        Command::Generate(args) => {
            let paths = datasets::catalog::export_catalog(
                std::path::Path::new(&args.dir),
                args.scale,
                args.seed,
            )
            .map_err(|e| CliError::new(format!("{}: {e}", args.dir)))?;
            let mut out = format!(
                "wrote {} dataset analogues (scale {}, seed {}):",
                paths.len(),
                args.scale,
                args.seed
            );
            for p in paths {
                out.push_str(&format!("\n  {}", p.display()));
            }
            Ok(out)
        }
        Command::Serve(args) => run_serve(args),
        Command::ServeBench(args) => run_serve_bench(args),
        Command::Analyze {
            root,
            allow,
            format,
        } => {
            let mut cfg = scs_analyze::Config::new(&root);
            cfg.disabled = allow
                .iter()
                .filter_map(|name| scs_analyze::Rule::from_name(name))
                .collect();
            let format = scs_analyze::Format::from_name(&format)
                .ok_or_else(|| CliError::new(format!("unknown format {format:?}")))?;
            let analysis = scs_analyze::analyze_workspace(&cfg).map_err(CliError::new)?;
            if analysis.is_clean() {
                Ok(analysis.render_as(format))
            } else if format == scs_analyze::Format::Human {
                // Diagnostics go through the error path so `main` exits
                // non-zero — the property the CI gate relies on.
                Err(CliError::new(analysis.render()))
            } else {
                // Machine formats must reach stdout intact: GitHub only
                // parses `::error` commands from stdout, and the error
                // path would prefix every report with `error: `. Print
                // here, then exit non-zero with a one-line summary.
                println!("{}", analysis.render_as(format));
                Err(CliError::new(format!(
                    "scs analyze: {} diagnostic(s)",
                    analysis.diagnostics.len()
                )))
            }
        }
    }
}

/// `scs serve`: build the engine from the edge list, bind the std-only
/// HTTP front end (admission control, see `scs-service`'s `server`
/// module) and serve until killed. Prints the bound address up front —
/// flushed, so supervisors and the CI smoke job can poll readiness —
/// and never returns on success.
fn run_serve(args: ServeArgs) -> Result<String, CliError> {
    use scs_service::{QueryEngine, Server, ServiceConfig};
    use std::io::Write as _;

    let g = load(&args.path, args.one_based)?;
    let summary = g.summary();
    let search = CommunitySearch::shared(g);
    let config = ServiceConfig {
        workers: args.threads,
        pending_budget: args.pending_budget,
        tenant_rate: args.tenant_rate,
        tenant_burst: args.tenant_burst,
        socket_timeout_ms: args.socket_timeout_ms,
        ..ServiceConfig::default()
    };
    let engine = QueryEngine::start(search, config.clone());
    let handle = Server::start(engine, &args.addr, &config)
        .map_err(|e| CliError::new(format!("{}: {e}", args.addr)))?;
    println!("scs serve: {summary}");
    println!(
        "listening on {} — {} worker(s), pending budget {}, \
         tenant quota {}/s (burst {}), socket timeout {} ms",
        handle.local_addr(),
        args.threads,
        args.pending_budget,
        args.tenant_rate,
        args.tenant_burst,
        args.socket_timeout_ms,
    );
    println!("endpoints: /query /metrics /stats /healthz — Ctrl-C to stop");
    std::io::stdout().flush().ok();
    loop {
        // Serve until the process is killed; the handle's threads do
        // all the work. `park` may wake spuriously, hence the loop.
        std::thread::park();
    }
}

/// `scs serve-bench`: build the index, replay a core-sampled workload
/// with repeats through the concurrent engine, print the replay QPS —
/// measured requests over the measured replay's wall time, the run's
/// one throughput figure — and the stats table (plus a steady-state
/// latency window excluding warmup), and optionally export
/// Prometheus text and the `BENCH_service.json` artifact. With
/// `--remote`, the same workload is driven over HTTP against a running
/// `scs serve` instead ([`run_remote_bench`]).
fn run_serve_bench(args: ServeBenchArgs) -> Result<String, CliError> {
    use scs_service::{
        render_bench_json, replay, try_build_workload, validate_bench_json, validate_prometheus,
        BenchMeta, QueryEngine, ServiceConfig, WorkloadSpec,
    };

    let warmup = args.warmup.unwrap_or(args.queries / 10);
    if let Some(remote) = args.remote.clone() {
        return run_remote_bench(&args, &remote, warmup);
    }
    let g = load(&args.path, args.one_based)?;
    let summary = g.summary();
    let search = CommunitySearch::shared(g);
    let spec = WorkloadSpec {
        // One workload covers warmup + measured run, so the measured
        // requests find the profiles the same distribution built.
        n_queries: warmup + args.queries,
        alpha: args.alpha,
        beta: args.beta,
        algo: args.algo,
        repeat_fraction: args.repeat,
        zipf: args.zipf,
        seed: args.seed,
    };
    // The parser guarantees --queries ≥ 1, so the only workload error
    // left is a genuinely empty core — and try_build_workload keeps the
    // two cases apart, so an empty request count can never be
    // misdiagnosed as "lower --alpha/--beta" again.
    let workload = try_build_workload(&search, &spec)
        .map_err(|e| CliError::new(format!("{}: {e}; lower --alpha/--beta", args.path)))?;
    let engine = QueryEngine::start(
        search,
        ServiceConfig {
            workers: args.threads,
            ..ServiceConfig::default()
        },
    );
    if warmup > 0 {
        let _ = replay(&engine, &workload[..warmup], args.clients);
    }
    // Reset the window baseline so `steady` covers exactly the measured
    // replay — warmup requests stay in the cumulative table only.
    let _ = engine.stats_window();
    let (report, _responses) = replay(&engine, &workload[warmup..], args.clients);
    let steady = engine.stats_window();
    let mut out = format!(
        "serve-bench {summary}\n\
         workload: {} queries (+{warmup} warmup) (α={}, β={}, algo={}, repeat={:.2}, \
         zipf={:.2}, seed={})\n\
         replayed by {} clients over {} workers in {:.3} s — {:.1} QPS\n",
        report.n_queries,
        args.alpha,
        args.beta,
        args.algo,
        args.repeat,
        args.zipf,
        args.seed,
        report.clients,
        report.stats.workers,
        report.wall_secs,
        report.replay_qps,
    );
    out.push_str(&report.stats.to_string());
    if !out.ends_with('\n') {
        out.push('\n'); // the stats table ends flush after the slow-query ring
    }
    out.push_str(&format!(
        "steady state (excl. warmup): {} queries in window — \
         mean {:.1}µs, p50 {}µs, p99 {}µs, max {}µs\n",
        steady.completed, steady.mean_us, steady.p50_us, steady.p99_us, steady.max_us,
    ));
    if let Some(path) = &args.metrics_out {
        let text = engine.render_metrics();
        validate_prometheus(&text)
            .map_err(|e| CliError::new(format!("metrics self-validation failed: {e}")))?;
        std::fs::write(path, &text).map_err(|e| CliError::new(format!("{path}: {e}")))?;
        out.push_str(&format!("wrote Prometheus metrics → {path}\n"));
    }
    if let Some(path) = &args.bench_json {
        let meta = BenchMeta {
            dataset: &args.path,
            threads: args.threads,
            queries: args.queries,
            warmup,
            clients: report.clients,
            alpha: args.alpha,
            beta: args.beta,
            algo: args.algo,
            repeat_fraction: args.repeat,
            zipf: args.zipf,
            seed: args.seed,
            wall_secs: report.wall_secs,
        };
        let json = render_bench_json(&meta, &report.stats, &steady);
        validate_bench_json(&json)
            .map_err(|e| CliError::new(format!("bench-json self-validation failed: {e}")))?;
        std::fs::write(path, &json).map_err(|e| CliError::new(format!("{path}: {e}")))?;
        out.push_str(&format!("wrote bench artifact → {path}\n"));
    }
    engine.shutdown();
    Ok(out)
}

/// `scs serve-bench --remote`: drive the generated workload over
/// keep-alive HTTP connections against a running `scs serve`, counting
/// `200`s, `429` sheds and errors and measuring client-side latency.
/// The engine knob `--threads` belongs to the server process and is
/// ignored here;
/// `--bench-json` needs in-process engine stats and is rejected.
fn run_remote_bench(
    args: &ServeBenchArgs,
    remote: &str,
    warmup: usize,
) -> Result<String, CliError> {
    use scs_service::{try_build_workload, validate_prometheus, LatencyHistogram, WorkloadSpec};
    use std::sync::Arc;
    use std::time::Instant;

    if args.bench_json.is_some() {
        return Err(CliError::new(
            "--bench-json needs in-process engine stats; not available with --remote",
        ));
    }
    let g = load(&args.path, args.one_based)?;
    let summary = g.summary();
    let search = CommunitySearch::new(g);
    let spec = WorkloadSpec {
        n_queries: warmup + args.queries,
        alpha: args.alpha,
        beta: args.beta,
        algo: args.algo,
        repeat_fraction: args.repeat,
        zipf: args.zipf,
        seed: args.seed,
    };
    let workload = try_build_workload(&search, &spec)
        .map_err(|e| CliError::new(format!("{}: {e}; lower --alpha/--beta", args.path)))?;
    drop(search); // the client side needs only the request list

    // Warmup over one connection, results discarded (the server builds
    // the profiles of the distribution the measured run uses).
    if warmup > 0 {
        let mut conn = HttpClient::connect(remote)?;
        for req in &workload[..warmup] {
            conn.query(req)?;
        }
    }

    let hist = Arc::new(LatencyHistogram::default());
    let measured = &workload[warmup..];
    let clients = args.clients.clamp(1, measured.len().max(1));
    let t0 = Instant::now();
    let counts = std::thread::scope(|scope| -> Result<(u64, u64, u64), CliError> {
        let mut joins = Vec::with_capacity(clients);
        for chunk in measured.chunks(measured.len().div_ceil(clients)) {
            let hist = Arc::clone(&hist);
            joins.push(scope.spawn(move || -> Result<(u64, u64, u64), CliError> {
                let mut conn = HttpClient::connect(remote)?;
                let (mut ok, mut shed, mut other) = (0u64, 0u64, 0u64);
                for req in chunk {
                    let t = Instant::now();
                    let (status, _body) = conn.query(req)?;
                    hist.record(u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX));
                    match status {
                        200 => ok += 1,
                        429 => shed += 1,
                        _ => other += 1,
                    }
                }
                Ok((ok, shed, other))
            }));
        }
        let mut total = (0u64, 0u64, 0u64);
        for j in joins {
            let (ok, shed, other) = j
                .join()
                .map_err(|_| CliError::new("bench client thread panicked"))??;
            total.0 += ok;
            total.1 += shed;
            total.2 += other;
        }
        Ok(total)
    })?;
    let wall = t0.elapsed().as_secs_f64();
    let (ok, shed, other) = counts;
    let lat = hist.snapshot().summary();
    let mut out = format!(
        "serve-bench --remote {remote} {summary}\n\
         workload: {} queries (+{warmup} warmup) (α={}, β={}, algo={}, repeat={:.2}, \
         zipf={:.2}, seed={})\n\
         driven by {clients} HTTP client(s) in {wall:.3} s — {:.1} QPS\n\
         ok (200) {ok}, shed (429) {shed}, other {other}\n\
         client latency: mean {:.1}µs, p50 {}µs, p99 {}µs, max {}µs\n",
        measured.len(),
        args.alpha,
        args.beta,
        args.algo,
        args.repeat,
        args.zipf,
        args.seed,
        measured.len() as f64 / wall.max(1e-9),
        lat.mean_us,
        lat.p50_us,
        lat.p99_us,
        lat.max_us,
    );
    if let Some(path) = &args.metrics_out {
        let mut conn = HttpClient::connect(remote)?;
        let (status, text) = conn.get("/metrics")?;
        if status != 200 {
            return Err(CliError::new(format!("{remote}/metrics returned {status}")));
        }
        validate_prometheus(&text)
            .map_err(|e| CliError::new(format!("served metrics failed validation: {e}")))?;
        std::fs::write(path, &text).map_err(|e| CliError::new(format!("{path}: {e}")))?;
        out.push_str(&format!("wrote Prometheus metrics → {path}\n"));
    }
    Ok(out)
}

/// A minimal keep-alive HTTP/1.1 client for `scs serve` — request per
/// call, content-length framed responses, no dependencies.
struct HttpClient {
    write: std::net::TcpStream,
    read: std::io::BufReader<std::net::TcpStream>,
    addr: String,
}

impl HttpClient {
    fn connect(addr: &str) -> Result<Self, CliError> {
        let stream = std::net::TcpStream::connect(addr)
            .map_err(|e| CliError::new(format!("{addr}: connect failed: {e}")))?;
        stream.set_nodelay(true).ok();
        let read = std::io::BufReader::new(
            stream
                .try_clone()
                .map_err(|e| CliError::new(format!("{addr}: {e}")))?,
        );
        Ok(HttpClient {
            write: stream,
            read,
            addr: addr.to_string(),
        })
    }

    fn query(&mut self, req: &scs_service::QueryRequest) -> Result<(u16, String), CliError> {
        let target = format!(
            "/query?q={}&alpha={}&beta={}&algo={}",
            req.q.0,
            req.alpha,
            req.beta,
            req.algo.name()
        );
        self.get(&target)
    }

    fn get(&mut self, target: &str) -> Result<(u16, String), CliError> {
        use std::io::{BufRead, Read, Write};

        write!(self.write, "GET {target} HTTP/1.1\r\nHost: scs\r\n\r\n")
            .and_then(|()| self.write.flush())
            .map_err(|e| CliError::new(format!("{}: send failed: {e}", self.addr)))?;
        let mut line = String::new();
        self.read
            .read_line(&mut line)
            .map_err(|e| CliError::new(format!("{}: read failed: {e}", self.addr)))?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| {
                CliError::new(format!("{}: malformed status line {line:?}", self.addr))
            })?;
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            self.read
                .read_line(&mut header)
                .map_err(|e| CliError::new(format!("{}: read failed: {e}", self.addr)))?;
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| CliError::new(format!("{}: bad content length", self.addr)))?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.read
            .read_exact(&mut body)
            .map_err(|e| CliError::new(format!("{}: read failed: {e}", self.addr)))?;
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_help_and_empty() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&args(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&args(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn parses_stats() {
        let cmd = parse_args(&args(&["stats", "g.tsv", "--one-based"])).unwrap();
        assert_eq!(
            cmd,
            Command::Stats {
                path: "g.tsv".into(),
                one_based: true
            }
        );
    }

    #[test]
    fn parses_search_with_algo() {
        let cmd = parse_args(&args(&[
            "search", "g.tsv", "u:3", "2", "4", "--algo", "expand",
        ]))
        .unwrap();
        match cmd {
            Command::Search {
                query,
                alpha,
                beta,
                algo,
                ..
            } => {
                assert_eq!(
                    query,
                    QueryRef {
                        side: Side::Upper,
                        index: 3
                    }
                );
                assert_eq!((alpha, beta), (2, 4));
                assert_eq!(algo, Algorithm::Expand);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args(&["frobnicate"])).is_err());
        assert!(parse_args(&args(&["search", "g", "x:1", "2", "2"])).is_err());
        assert!(parse_args(&args(&["search", "g", "u:1", "0", "2"])).is_err());
        assert!(parse_args(&args(&["search", "g", "u:1", "2"])).is_err());
        assert!(parse_args(&args(&["--algo"])).is_err());
        assert!(parse_args(&args(&["--bogus"])).is_err());
        assert!(parse_args(&args(&["search", "g", "u:1", "2", "2", "--algo", "x"])).is_err());
    }

    #[test]
    fn parses_generate() {
        let cmd = parse_args(&args(&[
            "generate", "/tmp/x", "--scale", "0.1", "--seed", "7",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate(GenerateArgs {
                dir: "/tmp/x".into(),
                scale: 0.1,
                seed: 7
            })
        );
        assert!(parse_args(&args(&["generate", "/tmp/x", "--scale", "2.0"])).is_err());
        assert!(parse_args(&args(&["generate", "/tmp/x", "--seed", "abc"])).is_err());
    }

    #[test]
    fn parses_serve_bench() {
        let cmd = parse_args(&args(&[
            "serve-bench",
            "g.tsv",
            "--threads",
            "8",
            "--queries",
            "500",
            "--alpha",
            "3",
            "--beta",
            "4",
            "--repeat",
            "0.25",
            "--zipf",
            "1.1",
            "--algo",
            "peel",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::ServeBench(ServeBenchArgs {
                path: "g.tsv".into(),
                one_based: false,
                threads: 8,
                queries: 500,
                clients: 16, // defaults to 2 × threads
                alpha: 3,
                beta: 4,
                algo: Algorithm::Peel,
                repeat: 0.25,
                zipf: 1.1,
                seed: 42,
                warmup: None,
                metrics_out: None,
                bench_json: None,
                remote: None,
            })
        );
        // A uniform workload unless asked.
        match parse_args(&args(&["serve-bench", "g.tsv"])).unwrap() {
            Command::ServeBench(a) => assert_eq!(a.zipf, 0.0),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&args(&["serve-bench"])).is_err());
        assert!(parse_args(&args(&["serve-bench", "g", "--threads", "0"])).is_err());
        assert!(parse_args(&args(&["serve-bench", "g", "--repeat", "1.5"])).is_err());
        // Zipf validation: NaN/negative/non-finite exponents die in the
        // parser with the flag named.
        for bad in ["nan", "-0.5", "inf", "abc"] {
            let err = parse_args(&args(&["serve-bench", "g", "--zipf", bad])).unwrap_err();
            assert!(err.to_string().contains("zipf"), "{bad:?}: {err}");
        }
        // --zipf is serve-bench-only like the other knobs.
        assert!(parse_args(&args(&["stats", "g", "--zipf", "1.0"])).is_err());
    }

    #[test]
    fn parses_serve_bench_telemetry_flags() {
        let cmd = parse_args(&args(&[
            "serve-bench",
            "g.tsv",
            "--warmup",
            "0",
            "--metrics-out",
            "m.prom",
            "--bench-json",
            "b.json",
        ]))
        .unwrap();
        match cmd {
            Command::ServeBench(a) => {
                // --warmup 0 is legal (disables warmup); absent means
                // the runner defaults to queries / 10.
                assert_eq!(a.warmup, Some(0));
                assert_eq!(a.metrics_out.as_deref(), Some("m.prom"));
                assert_eq!(a.bench_json.as_deref(), Some("b.json"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&args(&["serve-bench", "g", "--warmup", "x"])).is_err());
        assert!(parse_args(&args(&["serve-bench", "g", "--metrics-out"])).is_err());
        assert!(parse_args(&args(&["serve-bench", "g", "--bench-json"])).is_err());
        // Telemetry flags are serve-bench-only, like the rest.
        let err = parse_args(&args(&["stats", "g", "--warmup", "5"])).unwrap_err();
        assert!(err.to_string().contains("serve-bench"), "{err}");
        assert!(parse_args(&args(&["stats", "g", "--metrics-out", "m"])).is_err());
        assert!(parse_args(&args(&["stats", "g", "--bench-json", "b"])).is_err());
    }

    #[test]
    fn serve_bench_rejects_degenerate_counts_in_the_parser() {
        // --queries 0 must die here with a count diagnosis, never reach
        // the workload builder and come back as "the core is empty".
        let err = parse_args(&args(&["serve-bench", "g", "--queries", "0"])).unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");
        assert!(!err.to_string().contains("core"), "{err}");
        // Negative / non-numeric values name the flag.
        for bad in ["-1", "many"] {
            let err = parse_args(&args(&["serve-bench", "g", "--queries", bad])).unwrap_err();
            assert!(
                err.to_string().contains("invalid query count"),
                "{bad:?}: {err}"
            );
        }
    }

    #[test]
    fn serve_bench_flags_rejected_elsewhere() {
        let err =
            parse_args(&args(&["search", "g", "u:1", "2", "2", "--threads", "4"])).unwrap_err();
        assert!(err.to_string().contains("serve-bench"), "{err}");
        assert!(parse_args(&args(&["stats", "g", "--queries", "10"])).is_err());
        let err = parse_args(&args(&["serve-bench", "g", "--scale", "0.5"])).unwrap_err();
        assert!(err.to_string().contains("generate"), "{err}");
        assert!(parse_args(&args(&[
            "community",
            "g",
            "u:1",
            "2",
            "2",
            "--algo",
            "peel"
        ]))
        .is_err());
        assert!(parse_args(&args(&["search", "g", "u:1", "2", "2", "--seed", "9"])).is_err());
        assert!(parse_args(&args(&[
            "serve-bench",
            "g",
            "--seed",
            "9",
            "--algo",
            "peel"
        ]))
        .is_ok());
        // Shared flags still work everywhere they used to.
        assert!(parse_args(&args(&["generate", "d", "--seed", "3"])).is_ok());
        assert!(parse_args(&args(&["search", "g", "u:1", "2", "2", "--algo", "peel"])).is_ok());
    }

    #[test]
    fn serve_bench_end_to_end() {
        let dir = std::env::temp_dir().join("scs_cli_serve_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.tsv");
        // A 3×3 biclique with one weak edge, same graph as the facade doc
        // example: plenty of (2,2)-core to sample queries from.
        let mut body = String::new();
        for u in 0..3 {
            for l in 0..3 {
                let w = if u == 2 && l == 2 { 1 } else { 5 };
                body.push_str(&format!("{u} {l} {w}\n"));
            }
        }
        std::fs::write(&path, body).unwrap();
        let out = run(Command::ServeBench(ServeBenchArgs {
            path: path.to_str().unwrap().into(),
            one_based: false,
            threads: 4,
            queries: 200,
            clients: 4,
            alpha: 2,
            beta: 2,
            algo: Algorithm::Auto,
            repeat: 0.5,
            zipf: 0.0,
            seed: 1,
            warmup: None,
            metrics_out: None,
            bench_json: None,
            remote: None,
        }))
        .unwrap();
        assert!(out.contains("200 queries"), "{out}");
        // One throughput figure per run: the replay rate.
        assert_eq!(out.matches("QPS").count(), 1, "{out}");
        // The table counts the 200 measured and 20 warm-up requests.
        assert!(out.contains("completed           │          220"), "{out}");

        let err = run(Command::ServeBench(ServeBenchArgs {
            path: path.to_str().unwrap().into(),
            one_based: false,
            threads: 2,
            queries: 10,
            clients: 2,
            alpha: 50,
            beta: 50,
            algo: Algorithm::Auto,
            repeat: 0.0,
            zipf: 0.0,
            seed: 1,
            warmup: None,
            metrics_out: None,
            bench_json: None,
            remote: None,
        }))
        .unwrap_err();
        // The empty-core diagnosis names the core, with the lone
        // possible confusion (--queries 0) ruled out by the parser.
        assert!(err.to_string().contains("(50,50)-core is empty"), "{err}");
        assert!(err.to_string().contains("lower --alpha/--beta"), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn serve_bench_exports_metrics_and_bench_json() {
        let dir = std::env::temp_dir().join("scs_cli_serve_bench_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.tsv");
        let mut body = String::new();
        for u in 0..3 {
            for l in 0..3 {
                let w = if u == 2 && l == 2 { 1 } else { 5 };
                body.push_str(&format!("{u} {l} {w}\n"));
            }
        }
        std::fs::write(&path, body).unwrap();
        let metrics = dir.join("metrics.prom");
        let bench = dir.join("BENCH_service.json");
        let out = run(Command::ServeBench(ServeBenchArgs {
            path: path.to_str().unwrap().into(),
            one_based: false,
            threads: 4,
            queries: 200,
            clients: 4,
            alpha: 2,
            beta: 2,
            algo: Algorithm::Auto,
            repeat: 0.5,
            zipf: 0.0,
            seed: 1,
            warmup: Some(40),
            metrics_out: Some(metrics.to_str().unwrap().into()),
            bench_json: Some(bench.to_str().unwrap().into()),
            remote: None,
        }))
        .unwrap();
        assert!(out.contains("200 queries (+40 warmup)"), "{out}");
        assert!(out.contains("steady state (excl. warmup)"), "{out}");
        assert!(out.contains("wrote Prometheus metrics"), "{out}");
        assert!(out.contains("wrote bench artifact"), "{out}");

        // Both artifacts exist and re-validate from disk.
        let prom = std::fs::read_to_string(&metrics).unwrap();
        scs_service::validate_prometheus(&prom).unwrap();
        assert!(prom.contains("scs_requests_total"), "{prom}");
        assert!(prom.contains("scs_stage_duration_us_bucket"), "{prom}");
        let json = std::fs::read_to_string(&bench).unwrap();
        scs_service::validate_bench_json(&json).unwrap();
        assert!(json.contains(scs_service::BENCH_SCHEMA), "{json}");
        // Warmup is excluded from the steady window: 200 measured of
        // 240 replayed.
        assert!(json.contains("\"queries\": 200"), "{json}");
        assert!(json.contains("\"warmup\": 40"), "{json}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn parses_serve() {
        let cmd = parse_args(&args(&["serve", "g.tsv"])).unwrap();
        match cmd {
            Command::Serve(a) => {
                assert_eq!(a.path, "g.tsv");
                assert_eq!(a.addr, "127.0.0.1:7474");
                // Admission knobs default to the ServiceConfig values.
                let d = scs_service::ServiceConfig::default();
                assert_eq!(a.pending_budget, d.pending_budget);
                assert_eq!(a.tenant_rate, d.tenant_rate);
                assert_eq!(a.tenant_burst, d.tenant_burst);
                assert_eq!(a.socket_timeout_ms, d.socket_timeout_ms);
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse_args(&args(&[
            "serve",
            "g.tsv",
            "--addr",
            "0.0.0.0:0",
            "--threads",
            "8",
            "--pending-budget",
            "64",
            "--tenant-rate",
            "100",
            "--tenant-burst",
            "10",
            "--socket-timeout-ms",
            "500",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve(ServeArgs {
                path: "g.tsv".into(),
                one_based: false,
                addr: "0.0.0.0:0".into(),
                threads: 8,
                pending_budget: 64,
                tenant_rate: 100,
                tenant_burst: 10,
                socket_timeout_ms: 500,
            })
        );
        // Serve knobs are serve-only; engine sizing is shared with
        // serve-bench; bench knobs stay bench-only.
        let err = parse_args(&args(&["serve-bench", "g", "--addr", "x:1"])).unwrap_err();
        assert!(err.to_string().contains("`scs serve`"), "{err}");
        assert!(parse_args(&args(&["stats", "g", "--pending-budget", "9"])).is_err());
        assert!(parse_args(&args(&["serve", "g", "--queries", "10"])).is_err());
        assert!(parse_args(&args(&["serve", "g", "--threads", "2"])).is_ok());
        assert!(parse_args(&args(&["stats", "g", "--threads", "2"])).is_err());
        assert!(parse_args(&args(&["serve", "g", "--pending-budget", "0"])).is_err());
        assert!(parse_args(&args(&["serve", "g", "--addr"])).is_err());
        assert!(parse_args(&args(&["serve"])).is_err());
    }

    #[test]
    fn parses_serve_bench_remote() {
        match parse_args(&args(&[
            "serve-bench",
            "g.tsv",
            "--remote",
            "10.0.0.1:7474",
        ]))
        .unwrap()
        {
            Command::ServeBench(a) => assert_eq!(a.remote.as_deref(), Some("10.0.0.1:7474")),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&args(&["serve-bench", "g", "--remote"])).is_err());
        let err = parse_args(&args(&["stats", "g", "--remote", "x:1"])).unwrap_err();
        assert!(err.to_string().contains("serve-bench"), "{err}");
    }

    #[test]
    fn remote_bench_drives_a_live_server() {
        use scs_service::{QueryEngine, Server, ServiceConfig};

        let dir = std::env::temp_dir().join("scs_cli_remote_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.tsv");
        let mut body = String::new();
        for u in 0..3 {
            for l in 0..3 {
                let w = if u == 2 && l == 2 { 1 } else { 5 };
                body.push_str(&format!("{u} {l} {w}\n"));
            }
        }
        std::fs::write(&path, body).unwrap();
        // A real server on an ephemeral loopback port, fed from the
        // same edge list the client derives its workload from.
        let g = load(path.to_str().unwrap(), false).unwrap();
        let config = ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        };
        let engine = QueryEngine::start(CommunitySearch::shared(g), config.clone());
        let server = Server::start(engine, "127.0.0.1:0", &config).unwrap();
        let addr = server.local_addr().to_string();

        let metrics = dir.join("remote_metrics.prom");
        let out = run(Command::ServeBench(ServeBenchArgs {
            path: path.to_str().unwrap().into(),
            one_based: false,
            threads: 2,
            queries: 60,
            clients: 3,
            alpha: 2,
            beta: 2,
            algo: Algorithm::Auto,
            repeat: 0.5,
            zipf: 0.0,
            seed: 1,
            warmup: Some(5),
            metrics_out: Some(metrics.to_str().unwrap().into()),
            bench_json: None,
            remote: Some(addr.clone()),
        }))
        .unwrap();
        assert!(out.contains("--remote"), "{out}");
        assert!(out.contains("ok (200) 60"), "{out}");
        assert!(out.contains("shed (429) 0"), "{out}");
        assert!(out.contains("wrote Prometheus metrics"), "{out}");
        let prom = std::fs::read_to_string(&metrics).unwrap();
        assert!(prom.contains("scs_admission_admitted_total"), "{prom}");

        // --bench-json needs the in-process engine and says so.
        let err = run(Command::ServeBench(ServeBenchArgs {
            path: path.to_str().unwrap().into(),
            one_based: false,
            threads: 2,
            queries: 10,
            clients: 1,
            alpha: 2,
            beta: 2,
            algo: Algorithm::Auto,
            repeat: 0.0,
            zipf: 0.0,
            seed: 1,
            warmup: Some(0),
            metrics_out: None,
            bench_json: Some(dir.join("b.json").to_str().unwrap().into()),
            remote: Some(addr),
        }))
        .unwrap_err();
        assert!(err.to_string().contains("--remote"), "{err}");

        let fin = server.stop();
        assert_eq!(fin.admitted, fin.served + fin.shed_after_admit);
        assert!(fin.admitted >= 65, "{fin:?}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn parses_analyze() {
        assert_eq!(
            parse_args(&args(&["analyze"])).unwrap(),
            Command::Analyze {
                root: ".".into(),
                allow: vec![],
                format: "human".into()
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "analyze",
                "--root",
                "/tmp/ws",
                "--allow",
                "unsafe-allowlist",
                "--allow",
                "alloc-free-region",
                "--format",
                "github",
            ]))
            .unwrap(),
            Command::Analyze {
                root: "/tmp/ws".into(),
                allow: vec!["unsafe-allowlist".into(), "alloc-free-region".into()],
                format: "github".into()
            }
        );
        // Unknown rules die in the parser, naming the valid set.
        let err = parse_args(&args(&["analyze", "--allow", "bogus"])).unwrap_err();
        assert!(err.to_string().contains("unsafe-safety-comment"), "{err}");
        // Unknown formats likewise, naming the valid set.
        let err = parse_args(&args(&["analyze", "--format", "xml"])).unwrap_err();
        assert!(err.to_string().contains("github"), "{err}");
        assert!(parse_args(&args(&["analyze", "--root"])).is_err());
        assert!(parse_args(&args(&["analyze", "--format"])).is_err());
        assert!(parse_args(&args(&["analyze", "extra"])).is_err());
        // Analyze flags are analyze-only, like every other knob.
        let err = parse_args(&args(&["stats", "g", "--root", "/x"])).unwrap_err();
        assert!(err.to_string().contains("analyze"), "{err}");
        assert!(parse_args(&args(&["stats", "g", "--allow", "unsafe-allowlist"])).is_err());
    }

    #[test]
    fn analyze_runs_against_a_seeded_tree() {
        let dir = std::env::temp_dir().join("scs_cli_analyze_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // One unsafe block with no SAFETY comment and no allowlist:
        // two rules fire, and the CLI surfaces them as an error.
        std::fs::write(
            dir.join("lib.rs"),
            "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
        )
        .unwrap();
        let err = run(Command::Analyze {
            root: dir.to_str().unwrap().into(),
            allow: vec![],
            format: "human".into(),
        })
        .unwrap_err();
        assert!(err.to_string().contains("unsafe-safety-comment"), "{err}");
        assert!(err.to_string().contains("lib.rs:2"), "{err}");
        // Machine formats print the report to stdout and keep only a
        // one-line count on the error path.
        let err = run(Command::Analyze {
            root: dir.to_str().unwrap().into(),
            allow: vec![],
            format: "github".into(),
        })
        .unwrap_err();
        assert!(err.to_string().contains("diagnostic(s)"), "{err}");
        assert!(!err.to_string().contains("::error"), "{err}");
        // Allowing both rules turns the same tree clean, in any format.
        let out = run(Command::Analyze {
            root: dir.to_str().unwrap().into(),
            allow: vec!["unsafe-safety-comment".into(), "unsafe-allowlist".into()],
            format: "json".into(),
        })
        .unwrap();
        assert!(out.contains("\"diagnostics\": []"), "{out}");
        let out = run(Command::Analyze {
            root: dir.to_str().unwrap().into(),
            allow: vec!["unsafe-safety-comment".into(), "unsafe-allowlist".into()],
            format: "human".into(),
        })
        .unwrap();
        assert!(
            out.contains("0 diagnostics") || out.contains("clean"),
            "{out}"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn generate_end_to_end() {
        let dir = std::env::temp_dir().join("scs_cli_generate_test");
        std::fs::remove_dir_all(&dir).ok();
        let out = run(Command::Generate(GenerateArgs {
            dir: dir.to_str().unwrap().into(),
            scale: 0.02,
            seed: 3,
        }))
        .unwrap();
        assert!(out.contains("11 dataset analogues"), "{out}");
        // The generated files feed straight back into `scs stats`.
        let bs = dir.join("bs.tsv");
        let stats = run(Command::Stats {
            path: bs.to_str().unwrap().into(),
            one_based: false,
        })
        .unwrap();
        assert!(stats.contains("|E|="), "{stats}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn end_to_end_on_temp_file() {
        let dir = std::env::temp_dir().join("scs_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.tsv");
        std::fs::write(&path, "0 0 5\n0 1 4\n1 0 5\n1 1 3\n1 2 1\n0 2 1\n").unwrap();
        let p = path.to_str().unwrap().to_string();

        let out = run(Command::Stats {
            path: p.clone(),
            one_based: false,
        })
        .unwrap();
        assert!(out.contains("|E|=6"), "{out}");
        assert!(out.contains("δ (degeneracy) = 2"), "{out}");

        let out = run(Command::Community {
            path: p.clone(),
            one_based: false,
            query: QueryRef {
                side: Side::Upper,
                index: 0,
            },
            alpha: 2,
            beta: 2,
        })
        .unwrap();
        assert!(out.contains("6 edges"), "{out}");

        let out = run(Command::Search {
            path: p.clone(),
            one_based: false,
            query: QueryRef {
                side: Side::Upper,
                index: 0,
            },
            alpha: 2,
            beta: 2,
            algo: Algorithm::Auto,
        })
        .unwrap();
        // The two weight-1 edges force l2 out: 4 edges, f = 3.
        assert!(out.contains("4 edges"), "{out}");
        assert!(out.contains("f = 3"), "{out}");

        let err = run(Command::Search {
            path: p,
            one_based: false,
            query: QueryRef {
                side: Side::Lower,
                index: 99,
            },
            alpha: 2,
            beta: 2,
            algo: Algorithm::Auto,
        })
        .unwrap_err();
        assert!(err.to_string().contains("out of range"));
        std::fs::remove_dir_all(dir).ok();
    }
}
