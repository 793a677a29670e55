//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <en_kernel|ml_http_open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are the generated Table-I analogues at scale 1.0; `--seed`
//! draws the request stream.
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics, from a separate traced
//! pass and a layer-by-layer replay. The last line of standard output
//! is one JSON object; a human-readable table goes to standard error.
//! `--fingerprints` prints the input fingerprint table instead.
//! See `perfbench/README.md` for the workloads and the metric map.

mod host;
mod http;
mod inputs;
mod layers;
mod loadgen;
mod maint;
mod selftest;
mod stats;
mod trace;

use bigraph::edgelist::{read_edgelist, ReadOptions};
use inputs::{edge_hash, Workload};
use loadgen::{closed_loop, fixed_schedule, open_loop, Answer, LoopResult, Outcome};
use maint::{cycle, direct, Cycle, Toggle};
use scs::{CommunitySearch, DynamicIndex};
use scs_service::{QueryEngine, QueryRequest, Server, ServerHandle, ServiceConfig, ServiceStats};
use stats::{median, Latency};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Engine workers: the 2 cores the figures in `README.md` were sized on.
const WORKERS: usize = 2;
/// Result-cache entries. Bounded so that EN's ~180 KB answers cannot
/// make resident memory grow with throughput.
const CACHE_ENTRIES: usize = 512;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Parts of an untraced window, each followed by a host probe; `qps` is
/// the median of their rates.
const UNTRACED_PARTS: usize = 6;
/// Warm-up before the timed window (workspaces, arenas, cache).
const WARMUP: Duration = Duration::from_secs(1);
/// `ml_http_open` offered load, requests/s: about half of the loopback
/// capacity on 2 cores.
const ML_OFFERED_QPS: f64 = 120.0;
/// `ml_http_open` runs whose generator sent its p99 request later than
/// this after it was due and its connection free are invalid: half the
/// interval between two sends on one of the 2 connections. Later than
/// that, the generator has let requests bunch up.
const LATE_LIMIT_MS: f64 = 1e3 * 2.0 / ML_OFFERED_QPS / 2.0;
/// Maintenance cycles timed on an idle engine after a traced run's
/// window: a remove and a re-insert of each of 6 seeded edges.
const IDLE_UPDATES: usize = 12;
/// One request in this many (seeded) has its answer checked.
const SAMPLE_EVERY: u64 = 32;
/// Layer replay: requests through every layer, and how many of them
/// also run step 1 and each step-2 algorithm alone.
const REPLAY_EN: (usize, usize) = (96, 12);
const REPLAY_ML: (usize, usize) = (160, 32);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// What the command line asks for.
enum Mode {
    Run(Args),
    Fingerprints,
    Probe,
}

fn parse_args() -> Result<Mode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--fingerprints") {
        return Ok(Mode::Fingerprints);
    }
    if argv.iter().any(|a| a == host::PROBE_FLAG) {
        return Ok(Mode::Probe);
    }
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let workload = Workload::parse(&workload).ok_or(format!("unknown workload {workload}"))?;
    let seed = get("--seed")?.parse().map_err(|_| "--seed must be a u64")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err("--seconds must be in 1..=60".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Mode::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        shards: 1,
        cache_capacity: CACHE_ENTRIES,
        ..ServiceConfig::default()
    }
}

/// The `/query` target of `r`.
pub fn query_target(r: &QueryRequest) -> String {
    format!(
        "/query?q={}&alpha={}&beta={}&algo={}",
        r.q.0,
        r.alpha,
        r.beta,
        r.algo.name()
    )
}

/// Whether stream position `idx` is in the seeded check sample.
fn sampled(seed: u64, idx: usize) -> bool {
    inputs::fnv(inputs::fnv(inputs::FNV0, seed), idx as u64).is_multiple_of(SAMPLE_EVERY)
}

enum Serving {
    Engine(QueryEngine),
    Server(ServerHandle),
}

impl Serving {
    fn stats(&self) -> ServiceStats {
        match self {
            Serving::Engine(e) => e.stats(),
            Serving::Server(s) => s.stats(),
        }
    }

    fn stop(self) {
        match self {
            Serving::Engine(e) => e.shutdown(),
            Serving::Server(s) => {
                s.stop();
            }
        }
    }
}

/// What one set-up produced and the CPU time its parts took.
struct Built {
    search: Arc<CommunitySearch>,
    serving: Serving,
    parse_ms: f64,
    build_ms: f64,
    total_s: f64,
}

/// Edge-list parse, index build, engine (and server) start, timed in
/// process CPU time.
fn setup(wl: Workload, text: &[u8]) -> Result<Built, String> {
    let t0 = host::process_cpu_s();
    let g = read_edgelist(text, &ReadOptions::default()).map_err(|e| e.to_string())?;
    let t1 = host::process_cpu_s();
    let search = CommunitySearch::shared(g);
    let t2 = host::process_cpu_s();
    let engine = QueryEngine::start(search.clone(), config());
    let serving = if wl == Workload::MlHttpOpen {
        Serving::Server(Server::start(engine, "127.0.0.1:0", &config()).map_err(|e| e.to_string())?)
    } else {
        Serving::Engine(engine)
    };
    let t3 = host::process_cpu_s();
    Ok(Built {
        search,
        serving,
        parse_ms: (t1 - t0) * 1e3,
        build_ms: (t2 - t1) * 1e3,
        total_s: t3 - t0,
    })
}

/// Engine (and server) counters; subtract two to get a window.
#[derive(Clone, Copy, Default)]
struct Counters {
    completed: f64,
    coalesced: f64,
    hits: f64,
    misses: f64,
    invalidated: f64,
    batches: f64,
    batched: f64,
    /// (sum µs, count) of the queue-wait stage.
    queue_wait: (f64, f64),
    /// (sum µs, count) of the accept stage.
    accept: (f64, f64),
    admitted: f64,
    shed: f64,
    deadline_flushes: f64,
    size_flushes: f64,
}

impl Counters {
    fn of(s: &ServiceStats) -> Counters {
        let stage = |st: scs_service::Stage| {
            let l = &s.stages[st as usize];
            (l.mean_us * l.count as f64, l.count as f64)
        };
        let a = &s.admission;
        Counters {
            completed: s.completed as f64,
            coalesced: s.coalesced as f64,
            hits: s.cache.hits as f64,
            misses: s.cache.misses as f64,
            invalidated: s.cache.invalidated as f64,
            batches: s.batches as f64,
            batched: s.batched as f64,
            queue_wait: stage(scs_service::Stage::QueueWait),
            accept: stage(scs_service::Stage::Accept),
            admitted: a.admitted as f64,
            shed: (a.shed + a.quota_rejected) as f64,
            deadline_flushes: a.deadline_flushes as f64,
            size_flushes: a.size_flushes as f64,
        }
    }

    /// `self` minus an earlier snapshot `b`.
    fn since(self, b: Counters) -> Counters {
        let pair = |x: (f64, f64), y: (f64, f64)| (x.0 - y.0, x.1 - y.1);
        Counters {
            completed: self.completed - b.completed,
            coalesced: self.coalesced - b.coalesced,
            hits: self.hits - b.hits,
            misses: self.misses - b.misses,
            invalidated: self.invalidated - b.invalidated,
            batches: self.batches - b.batches,
            batched: self.batched - b.batched,
            queue_wait: pair(self.queue_wait, b.queue_wait),
            accept: pair(self.accept, b.accept),
            admitted: self.admitted - b.admitted,
            shed: self.shed - b.shed,
            deadline_flushes: self.deadline_flushes - b.deadline_flushes,
            size_flushes: self.size_flushes - b.size_flushes,
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The engine call of the closed loops.
fn engine_call(engine: &QueryEngine, stream: &[QueryRequest], seed: u64, idx: usize) -> Outcome {
    let resp = engine.query(stream[idx % stream.len()]);
    if resp.summary.size() == 0 {
        Outcome::Failed
    } else if sampled(seed, idx) {
        Outcome::Sampled(Answer {
            idx,
            edges: resp.summary.size(),
            min_w: resp.summary.min_weight,
            hash: Some(edge_hash(resp.summary.edges())),
        })
    } else {
        Outcome::Ok
    }
}

/// The HTTP call of the open loop.
fn http_call(conn: &mut http::Conn, stream: &[QueryRequest], seed: u64, idx: usize) -> Outcome {
    let req = stream[idx % stream.len()];
    let Ok((200, body)) = conn.get(&query_target(&req)) else {
        return Outcome::Failed;
    };
    let edges: usize = match http::field(&body, "edges").and_then(|v| v.parse().ok()) {
        Some(n) if n > 0 => n,
        _ => return Outcome::Failed,
    };
    if !sampled(seed, idx) {
        return Outcome::Ok;
    }
    Outcome::Sampled(Answer {
        idx,
        edges,
        min_w: http::field(&body, "min_weight").and_then(|v| v.parse().ok()),
        hash: None,
    })
}

/// Checks up to `cap` answers against `search` with a different
/// second-step algorithm; returns (checked, wrong).
fn check(
    search: &CommunitySearch,
    stream: &[QueryRequest],
    answers: &[&Answer],
    cap: usize,
) -> (u64, u64) {
    let mut wrong = 0;
    let n = answers.len().min(cap);
    for a in &answers[..n] {
        let (hash, edges, min_w) = direct(search, stream[a.idx % stream.len()]);
        let bad = edges != a.edges || min_w != a.min_w || a.hash.is_some_and(|h| h != hash);
        wrong += u64::from(bad);
    }
    (n as u64, wrong)
}

/// Peak resident set of this process, MB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One run's results.
#[derive(Default)]
struct Report {
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    notes: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }
}

/// The timed part of a run: `seconds` split into parts, with a host
/// probe after each. Untraced, all parts are untraced; traced, they run
/// untraced, traced, traced, untraced, so that the tracing overhead
/// shows and a steady drift of host speed over the run cancels out of
/// the comparison.
struct Windows {
    lr: LoopResult,
    /// Median rate of the untraced parts.
    qps_untraced: f64,
    /// Median rate of the traced parts.
    qps_traced: f64,
    /// Per untraced part: its rate, its median latency (ms) and the
    /// host slowdown the probes on either side of it measured.
    untraced_parts: Vec<(f64, f64, f64)>,
}

fn windows(
    args: &Args,
    tr: &mut Tracer,
    probes_ms: &mut Vec<f64>,
    span: &'static str,
    mut run: impl FnMut(Duration, Option<Instant>) -> LoopResult,
) -> Result<Windows, String> {
    let parts: &[bool] = if args.trace {
        &[false, true, true, false]
    } else {
        &[false; UNTRACED_PARTS]
    };
    let part_len = Duration::from_secs_f64(args.seconds / parts.len() as f64);
    let mut lr = LoopResult::default();
    let (mut untraced, mut traced_qps) = (Vec::new(), Vec::new());
    let mut untraced_parts = Vec::new();
    for &traced in parts {
        let part = run(part_len, traced.then(|| tr.origin()));
        let before = *probes_ms.last().expect("set-up probes come first");
        let after = host::measure()?;
        probes_ms.push(after);
        if traced {
            traced_qps.push(part.qps());
            for &(idx, s, e) in &part.calls {
                tr.push(span, idx as u64, None, s, e);
            }
        } else {
            untraced.push(part.qps());
            untraced_parts.push((
                part.qps(),
                median(&part.latencies_ms),
                host::slowdown((before + after) / 2.0),
            ));
        }
        lr.absorb(part);
    }
    Ok(Windows {
        lr,
        qps_untraced: median(&untraced),
        qps_traced: median(&traced_qps),
        untraced_parts,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    selftest::run()?;
    let wl = args.workload;
    let (alpha, beta) = wl.alpha_beta();
    let (_, text) = inputs::generate(wl.dataset());

    let mut parse_ms = Vec::new();
    let mut build_ms = Vec::new();
    let mut setup_s = Vec::new();
    // Host probes: one before each set-up and one after each window
    // part. Their median sets the run's host speed.
    let mut probes_ms = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = built.take() {
            let Built { serving, .. } = old;
            serving.stop();
        }
        probes_ms.push(host::measure()?);
        let b = setup(wl, &text)?;
        parse_ms.push(b.parse_ms);
        build_ms.push(b.build_ms);
        setup_s.push(b.total_s);
        built = Some(b);
    }
    drop(text);
    let Built {
        search, serving, ..
    } = built.expect("at least one set-up");

    inputs::guard(wl, &search)?;
    let stream = wl.stream(&search, args.seed);

    let mut rep = Report::default();
    let mut tr = Tracer::default();
    let seed = args.seed;
    let before;
    let mut cycles: Vec<Cycle> = Vec::new();

    let win = match (&serving, wl) {
        (Serving::Engine(engine), Workload::EnKernel) => {
            let call = |idx| engine_call(engine, &stream, seed, idx);
            let (_, mut next) = closed_loop(2, 0, WARMUP, None, call);
            before = serving.stats();
            windows(
                args,
                &mut tr,
                &mut probes_ms,
                "loop.engine.query",
                |d, t| {
                    let (lr, n) = closed_loop(2, next, d, t, call);
                    next = n;
                    lr
                },
            )?
        }
        (Serving::Server(server), Workload::MlHttpOpen) => {
            let addr = server.local_addr();
            let mut conns = (0..2)
                .map(|_| http::Conn::connect(addr))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            let call = |c: &mut http::Conn, idx| http_call(c, &stream, seed, idx);
            let warm = fixed_schedule(ML_OFFERED_QPS, WARMUP.as_secs_f64(), 0);
            let mut next = warm.len();
            open_loop(&mut conns, &warm, None, call);
            before = serving.stats();
            windows(args, &mut tr, &mut probes_ms, "loop.http.get", |d, t| {
                let sched = fixed_schedule(ML_OFFERED_QPS, d.as_secs_f64(), next);
                next += sched.len();
                open_loop(&mut conns, &sched, t, call)
            })?
        }
        _ => unreachable!("set-up matches the workload"),
    };
    let window = Counters::of(&serving.stats()).since(Counters::of(&before));
    let rss_mb = rss_peak_mb();

    let answers: Vec<&Answer> = win.lr.answers.iter().collect();
    let cap = if wl == Workload::EnKernel { 16 } else { 64 };
    let (checked, bad) = check(&search, &stream, &answers, cap);
    rep.wrong += bad;

    // Index maintenance, traced run only: update → snapshot → install
    // cycles on an idle engine over this workload's graph.
    let mut invalidated = 0.0;
    if args.trace {
        let mut d = DynamicIndex::new(search.graph().clone());
        let mut toggle = Toggle::new(&search, IDLE_UPDATES, seed);
        let own;
        let engine = match &serving {
            Serving::Engine(e) => e,
            Serving::Server(_) => {
                own = QueryEngine::start(search.clone(), config());
                &own
            }
        };
        let b = Counters::of(&engine.stats());
        for _ in 0..IDLE_UPDATES {
            cycles.push(cycle(&mut d, &mut toggle, engine, stream[0]));
        }
        invalidated = Counters::of(&engine.stats()).since(b).invalidated;
        rep.wrong += cycles.iter().filter(|c| c.probe_wrong).count() as u64;
    }
    rep.notes.push(format!(
        "checked {checked} sampled answers and {} post-install probes; {} wrong",
        cycles.len(),
        rep.wrong
    ));

    let lr = &win.lr;
    rep.attempted = lr.attempted + checked + cycles.len() as u64;
    rep.failed = lr.failed + rep.wrong;
    let late = Latency::summarise(&lr.late_ms, 99.0).map_or(0.0, |l| l.tail);
    if wl == Workload::MlHttpOpen && late > LATE_LIMIT_MS {
        return Err(format!(
            "invalid run: the load generator sent its p99 request {late:.3} ms late \
             (limit {LATE_LIMIT_MS:.2} ms); latency not reported"
        ));
    }
    let c = window;

    let probe_ms = median(&probes_ms);
    let slow = host::slowdown(probe_ms);
    rep.notes.push(format!(
        "host probe median {probe_ms:.2} ms over {} probes (reference {} ms); \
         raw set-up median {:.4} s CPU",
        probes_ms.len(),
        host::PROBE_REF_MS,
        median(&setup_s)
    ));
    let lat = Latency::summarise(&lr.latencies_ms, 99.0)
        .ok_or("too few requests completed for a latency tail")?;
    rep.notes.push(format!(
        "latency_p99_ms is p{} of {} samples ({} beyond): {:.4} ms; \
         raw p50 {:.4} ms, raw qps {:.4}",
        lat.tail_p,
        lat.n,
        lr.latencies_ms.iter().filter(|&&x| x > lat.tail).count(),
        lat.tail,
        lat.p50,
        win.qps_untraced
    ));
    if !args.trace {
        // Each part at the host speed measured around it; the median
        // over parts, so one part with a disturbed probe cannot move it.
        let parts = &win.untraced_parts;
        let scale = |s: f64| if wl.open_loop() { 1.0 } else { s };
        let qps: Vec<f64> = parts.iter().map(|&(q, _, s)| q * scale(s)).collect();
        let p50: Vec<f64> = parts.iter().map(|&(_, l, s)| l / scale(s)).collect();
        rep.put("setup_s", median(&setup_s) / slow, "s");
        rep.put("qps", median(&qps), "1/s");
        rep.put("latency_p50_ms", median(&p50), "ms");
        rep.put("rss_peak_mb", rss_mb, "MB");
    } else {
        rep.put("latency_p99_ms", lat.tail, "ms");
        let (n, n_alg) = if wl == Workload::EnKernel {
            REPLAY_EN
        } else {
            REPLAY_ML
        };
        let reqs: Vec<QueryRequest> = stream.iter().copied().cycle().take(n).collect();
        let r = layers::replay(&mut tr, &search, &reqs, n_alg, &config());
        rep.wrong += r.mismatches;
        rep.failed += r.mismatches;
        let names = trace::by_name(tr.spans());
        let span = |name: &str| names.get(name).copied().unwrap_or_default();
        let (kernel, engine, net) = (
            span(layers::KERNEL),
            span(layers::ENGINE),
            span(layers::HTTP),
        );
        rep.notes.push(format!(
            "replayed {n} requests per layer: kernel.us = {:.1}% of engine.us",
            100.0 * ratio(kernel.1, engine.1)
        ));
        // The batcher and admission counters come from this workload's
        // own server where it has one, else from the replay's server.
        let sc = if wl == Workload::MlHttpOpen {
            c
        } else {
            Counters::of(&r.server)
        };
        rep.put("startup.parse_ms", median(&parse_ms), "ms");
        rep.put("startup.index_build_ms", median(&build_ms), "ms");
        rep.put(
            "startup.index_mb",
            search.index().heap_bytes() as f64 / 1e6,
            "MB",
        );
        rep.put("index.step1_us", r.step1_us, "us");
        rep.put("index.community_edges", r.community_edges, "count");
        rep.put("query.step2_us.peel", r.step2_us[0], "us");
        rep.put("query.step2_us.expand", r.step2_us[1], "us");
        rep.put("query.step2_us.binary", r.step2_us[2], "us");
        rep.put("query.result_edges", r.result_edges, "count");
        rep.put(
            "query.result_over_community",
            ratio(r.result_edges, r.community_edges),
            "ratio",
        );
        rep.put("kernel.us", kernel.1, "us");
        rep.put("engine.us", engine.1, "us");
        rep.put("engine.overhead_us", engine.2, "us");
        rep.put(
            "engine.queue_wait_us",
            ratio(c.queue_wait.0, c.queue_wait.1),
            "us",
        );
        rep.put(
            "engine.coalesced_frac",
            ratio(c.coalesced, c.completed),
            "frac",
        );
        rep.put("cache.hit_frac", ratio(c.hits, c.hits + c.misses), "frac");
        rep.put("net.client_us", net.1, "us");
        rep.put("net.overhead_us", net.2, "us");
        rep.put(
            "batcher.batch_size_mean",
            ratio(sc.batched, sc.batches),
            "count",
        );
        rep.put(
            "batcher.deadline_flush_frac",
            ratio(sc.deadline_flushes, sc.deadline_flushes + sc.size_flushes),
            "frac",
        );
        rep.put("server.accept_us", ratio(sc.accept.0, sc.accept.1), "us");
        rep.put(
            "server.shed_frac",
            ratio(sc.shed, sc.admitted + sc.shed),
            "frac",
        );
        let med = |f: fn(&Cycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
        rep.put("maint.update_ms", med(|c| c.update_ms), "ms");
        rep.put("maint.snapshot_ms", med(|c| c.snapshot_ms), "ms");
        rep.put("maint.install_ms", med(|c| c.install_ms), "ms");
        rep.put("maint.visible_ms_p50", med(|c| c.visible_ms), "ms");
        rep.put("cache.invalidated", invalidated, "count");
        rep.put("loadgen.late_ms_p99", late, "ms");
        rep.put("host.probe_ms", probe_ms, "ms");
        rep.put(
            "trace.overhead_frac",
            ratio(win.qps_untraced - win.qps_traced, win.qps_untraced),
            "frac",
        );
        rep.put(
            "error_frac",
            ratio(rep.failed as f64, rep.attempted as f64),
            "frac",
        );
        let dir = std::path::Path::new(".bench_out");
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("spans-{}-seed{}.jsonl", wl.name(), seed));
        let mut f =
            std::io::BufWriter::new(std::fs::File::create(&path).map_err(|e| e.to_string())?);
        tr.write_jsonl(&mut f).map_err(|e| e.to_string())?;
        std::io::Write::flush(&mut f).map_err(|e| e.to_string())?;
        rep.notes.push(format!(
            "{} spans written to {}",
            tr.spans().len(),
            path.display()
        ));
    }
    rep.notes.push(format!(
        "{}: alpha={alpha} beta={beta} graph [|U| |L| m delta weights] = [{}], {} distinct queries",
        wl.name(),
        inputs::graph_print(&search).replace('\t', " "),
        inputs::distinct(&stream)
    ));
    serving.stop();
    Ok(rep)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Mode::Run(a)) => a,
        Ok(Mode::Fingerprints) => {
            print!("{}", inputs::table());
            return ExitCode::SUCCESS;
        }
        Ok(Mode::Probe) => {
            println!("{}", host::probe_ms());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let rep = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for n in &rep.notes {
        eprintln!("{n}");
    }
    let mut json = String::new();
    for (name, (value, unit)) in &rep.metrics {
        eprintln!("{name:<30} {value:>14.4} {unit}");
        if !value.is_finite() {
            eprintln!("error: {name} is not a finite number");
            return ExitCode::from(2);
        }
        if !json.is_empty() {
            json.push(',');
        }
        json.push_str(&format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    // A failed request (error status, refusal, empty answer) is as
    // incorrect as a wrong one: either makes the run's figures invalid.
    let correct = rep.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        rep.attempted, rep.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} of {} requests failed, {} of them with wrong answers",
            rep.failed, rep.attempted, rep.wrong
        );
        ExitCode::from(1)
    }
}
