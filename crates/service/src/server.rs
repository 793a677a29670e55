//! `scs serve` — a std-only TCP network front end over the
//! [`QueryEngine`], with admission control and graceful overload.
//!
//! # Protocol
//!
//! Hand-rolled minimal HTTP/1.1 (same no-dependency policy as the
//! vendored crates): one `GET` per request, keep-alive by default
//! (pipelined requests in one segment are preserved, not dropped),
//! JSON responses. A body declared by `Content-Length` (up to 8 KiB)
//! is read and discarded, so it can never be parsed as the next
//! request; a longer body (`413`), a malformed or conflicting
//! `Content-Length` (`400`) or any `Transfer-Encoding` (`501`) is
//! answered and the connection closed. Endpoints:
//!
//! * `GET /query?q=<vertex>&alpha=<a>&beta=<b>[&algo=<name>][&tenant=<id>]`
//!   — answer one (α,β)-community query. `algo` is one of
//!   `auto|peel|expand|binary|baseline` (default `auto`); `tenant`
//!   attributes the request to a per-tenant quota bucket; unknown
//!   parameters are ignored. `algo` is echoed; every algorithm returns
//!   the same community. The response carries the community's member
//!   counts, size and minimum weight, the `epoch` that answered it and
//!   per-request timings: `accept_us` (admission → engine enqueue),
//!   `service_us` (engine dequeue → response) and `total_us`
//!   (admission → reply handoff).
//! * `GET /metrics` — Prometheus text exposition, the engine families
//!   plus the live `scs_admission_*` counters.
//! * `GET /stats` — the human-readable stats table.
//! * `GET /healthz` — liveness probe.
//!
//! # Request path
//!
//! Each connection has its own thread, and that thread serves its
//! requests: it parses a request, admits it, submits it to the engine
//! ([`QueryEngine::submit`], one job on the engine's one queue) and
//! waits for the answer, then writes the reply. Nothing
//! sits between the socket and the engine's job queue, so a request
//! waits on no timer and crosses no other server thread.
//!
//! # Admission control and overload
//!
//! A request is admitted only if (a) its tenant's token bucket has a
//! token and (b) the **pending budget**
//! ([`ServiceConfig::pending_budget`]) — admitted requests not yet
//! answered — has room. Anything else is shed *immediately* with
//! `429 Too Many Requests` and a `Retry-After` whose value is derived
//! from the p99 of admitted requests' admission → reply time (how long
//! a request admitted now can expect to take), jittered ±25% so a
//! synchronized client herd does not return as one wave. Under
//! overload the server therefore degrades by answering fast 429s
//! rather than growing an unbounded queue; admitted requests keep
//! bounded latency because the budget caps what can be in flight.
//! Socket read/write timeouts ([`ServiceConfig::socket_timeout_ms`])
//! stop a slow or dead client from pinning its connection thread, and
//! a reply the engine has not produced within
//! `max(socket_timeout_ms, 1 s)` is answered `503`.
//!
//! At quiescence the counters reconcile exactly:
//! `admitted == served + shed_after_admit` — every admitted request
//! is resolved by its owning connection thread as either a written
//! reply or a recorded post-admission shed (client death, reply
//! timeout or shutdown). No reply is lost or duplicated: the thread
//! that admitted a request is the only one that waits on its reply
//! cell, and it writes at most one reply.

use crate::engine::{QueryEngine, ResponseHandle, ServiceConfig};
use crate::stats::{AdmissionStats, LatencyHistogram, ServiceStats};
use crate::{QueryRequest, QueryResponse};
use bigraph::Vertex;
use scs::Algorithm;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maximum bytes of one request head (request line + headers), and of
/// one declared request body.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Everything the server's threads share.
struct ServerInner {
    engine: QueryEngine,
    stop: AtomicBool,
    /// Admitted-but-unanswered requests, bounded by `pending_budget`.
    pending: AtomicUsize,
    pending_budget: usize,
    socket_timeout: Option<Duration>,
    /// How long a connection thread waits for its admitted request's
    /// reply before declaring it shed-after-admit.
    reply_timeout: Duration,
    admitted: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    quota_rejected: AtomicU64,
    shed_after_admit: AtomicU64,
    quotas: Mutex<TenantQuotas>,
    /// Admission → reply time of every admitted request; its p99
    /// feeds the `Retry-After` hint on 429s.
    reply_latency: LatencyHistogram,
    /// Jitter state for `Retry-After` (a splitmix64 counter — no
    /// external RNG, deterministic per process but decorrelated across
    /// rejections).
    jitter: AtomicU64,
    /// Clones of live connection sockets keyed by connection id, so
    /// shutdown can unblock reads immediately instead of waiting out
    /// socket timeouts. Each connection thread removes its own entry
    /// on exit — the map holds only live connections, so a
    /// long-running server does not leak one duplicated fd per
    /// connection ever accepted.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Live connection threads keyed by connection id. The accept
    /// loop reaps finished handles between accepts; shutdown joins
    /// whatever is left.
    conn_joins: Mutex<HashMap<u64, JoinHandle<()>>>,
    /// Id source for the two maps above.
    next_conn_id: AtomicU64,
}

impl ServerInner {
    fn admission(&self) -> AdmissionStats {
        // ordering: Relaxed — statistics reads; each counter is
        // independent and the reconciliation invariant is only claimed
        // at quiescence (no concurrent writers).
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            quota_rejected: self.quota_rejected.load(Ordering::Relaxed), // ordering: Relaxed, as above
            shed_after_admit: self.shed_after_admit.load(Ordering::Relaxed), // ordering: Relaxed, as above
            ..AdmissionStats::default()
        }
    }

    /// The jittered `Retry-After` hint, milliseconds: the p99 of
    /// admitted requests' admission → reply time (how long a request
    /// admitted now can expect to take), clamped to [50ms, 5s], ±25%
    /// jitter.
    fn retry_after_ms(&self) -> u64 {
        let p99_us = self.reply_latency.snapshot().quantile_us(0.99);
        let base_ms = (p99_us / 1000).clamp(50, 5000);
        // splitmix64 over a counter: cheap decorrelated jitter.
        // ordering: Relaxed — the counter only needs uniqueness-ish,
        // not ordering.
        let mut x = self
            .jitter
            .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        // jitter in [-25%, +25%] of base.
        let span = base_ms / 2;
        let off = if span == 0 { 0 } else { x % (span + 1) };
        base_ms - span / 2 + off
    }
}

/// The running network front end. Construct with [`Server::start`];
/// the handle stops (and joins) everything on [`ServerHandle::stop`].
pub struct Server;

/// Handle to a running [`Server`]: the bound address, live stats and
/// the shutdown switch. Dropping the handle without calling
/// [`Self::stop`] leaks the serving threads (they keep serving) — the
/// CLI relies on that to serve "forever".
pub struct ServerHandle {
    inner: Arc<ServerInner>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port), takes
    /// ownership of `engine` and starts the accept loop; each accepted
    /// connection gets a thread that serves its requests. Admission
    /// knobs come from `config` (the same struct that sized the
    /// engine).
    pub fn start(
        engine: QueryEngine,
        addr: &str,
        config: &ServiceConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let socket_timeout = match config.socket_timeout_ms {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        };
        let reply_timeout = Duration::from_millis(config.socket_timeout_ms.max(1_000));
        let inner = Arc::new(ServerInner {
            engine,
            stop: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            pending_budget: config.pending_budget.max(1),
            socket_timeout,
            reply_timeout,
            admitted: AtomicU64::new(0),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            quota_rejected: AtomicU64::new(0),
            shed_after_admit: AtomicU64::new(0),
            quotas: Mutex::new(TenantQuotas::new(config.tenant_rate, config.tenant_burst)),
            reply_latency: LatencyHistogram::default(),
            jitter: AtomicU64::new(0x5ca1_ab1e),
            conns: Mutex::new(HashMap::new()),
            conn_joins: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
        });

        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("scs-accept".into())
                .spawn(move || accept_loop(&inner, &listener))
                .expect("spawn accept loop")
        };

        Ok(ServerHandle {
            inner,
            addr: local,
            accept: Some(accept),
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live admission counters.
    pub fn admission(&self) -> AdmissionStats {
        self.inner.admission()
    }

    /// Engine stats with the live admission counters spliced in.
    pub fn stats(&self) -> ServiceStats {
        let mut stats = self.inner.engine.stats();
        stats.admission = self.inner.admission();
        stats
    }

    /// Graceful shutdown: stop accepting, unblock and join every
    /// connection thread (each resolves its in-flight request as
    /// served or shed-after-admit), then shut the engine down. Returns
    /// the final admission counters, reconciled
    /// (`admitted == served + shed_after_admit`).
    pub fn stop(mut self) -> AdmissionStats {
        // ordering: Release pairs with the Acquire loads in the accept
        // and connection loops — threads that observe the flag also
        // observe everything the stopper did before raising it.
        self.inner.stop.store(true, Ordering::Release);
        // Unblock the accept loop: it checks `stop` after every
        // accept, so one throwaway connection gets it to exit.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Unblock connection threads stuck in read() and join them;
        // each resolves its in-flight request on the way out.
        {
            let mut conns = self.inner.conns.lock().unwrap();
            for (_, c) in conns.drain() {
                let _ = c.shutdown(std::net::Shutdown::Both);
            }
        }
        let joins: Vec<_> = {
            let mut j = self.inner.conn_joins.lock().unwrap();
            j.drain().map(|(_, h)| h).collect()
        };
        for h in joins {
            let _ = h.join();
        }
        self.inner.admission()
        // `self.inner` drops here; the engine's Drop drains and joins
        // its workers.
    }
}

fn accept_loop(inner: &Arc<ServerInner>, listener: &TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) => {
                // ordering: Acquire pairs with the stopper's Release.
                if inner.stop.load(Ordering::Acquire) {
                    return;
                }
                // A persistent accept failure (EMFILE/ENFILE under fd
                // pressure) would otherwise spin this loop at 100%
                // CPU; back off briefly so exhaustion degrades instead
                // of livelocking the server.
                if !matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock
                ) {
                    std::thread::sleep(Duration::from_millis(50));
                }
                continue;
            }
        };
        // ordering: Acquire pairs with the stopper's Release store.
        if inner.stop.load(Ordering::Acquire) {
            return;
        }
        reap_finished_conns(inner);
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(inner.socket_timeout);
        let _ = stream.set_write_timeout(inner.socket_timeout);
        // ordering: Relaxed — the id only needs uniqueness.
        let id = inner.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            inner.conns.lock().unwrap().insert(id, clone);
        }
        let inner2 = Arc::clone(inner);
        match std::thread::Builder::new()
            .name("scs-conn".into())
            .spawn(move || {
                connection_loop(&inner2, stream);
                // Drop our socket clone (and its duplicated fd) as
                // soon as the connection ends, not at shutdown.
                inner2.conns.lock().unwrap().remove(&id);
            }) {
            Ok(h) => {
                inner.conn_joins.lock().unwrap().insert(id, h);
            }
            Err(_) => {
                inner.conns.lock().unwrap().remove(&id);
            }
        }
    }
}

/// Joins connection threads that have already exited, so the join map
/// tracks only live connections instead of growing by one handle per
/// connection ever accepted.
fn reap_finished_conns(inner: &ServerInner) {
    let finished: Vec<JoinHandle<()>> = {
        let mut joins = inner.conn_joins.lock().unwrap();
        let done: Vec<u64> = joins
            .iter()
            .filter(|(_, h)| h.is_finished())
            .map(|(&id, _)| id)
            .collect();
        done.into_iter()
            .filter_map(|id| joins.remove(&id))
            .collect()
    };
    for h in finished {
        let _ = h.join();
    }
}

/// One HTTP request head, split into what the handler needs.
struct HttpRequest<'a> {
    method: &'a str,
    path: &'a str,
    query: &'a str,
    keep_alive: bool,
    /// Declared `Content-Length` (0 when absent), at most
    /// [`MAX_REQUEST_BYTES`]; drained before the request is handled.
    body_len: usize,
}

/// A request head the connection refuses: answered with `status`, then
/// the connection closes — past a head it cannot frame, the byte
/// stream can no longer be trusted to start at a request boundary.
struct Rejected {
    status: u16,
    reason: &'static str,
    msg: &'static str,
}

impl Rejected {
    fn bad_request(msg: &'static str) -> Self {
        Rejected {
            status: 400,
            reason: "Bad Request",
            msg,
        }
    }
}

/// One response on its way out.
struct HttpResponse {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    body: String,
    retry_after_ms: Option<u64>,
}

impl HttpResponse {
    fn json(status: u16, reason: &'static str, body: String) -> Self {
        HttpResponse {
            status,
            reason,
            content_type: "application/json",
            body,
            retry_after_ms: None,
        }
    }

    fn error(status: u16, reason: &'static str, msg: &str) -> Self {
        HttpResponse::json(status, reason, format!("{{\"error\":\"{msg}\"}}\n"))
    }
}

/// What a `/query` request resolved to, for the admission ledger.
enum QueryOutcome {
    /// Not admitted (shed, quota-rejected, parse error…) — nothing to
    /// reconcile.
    NotAdmitted,
    /// Admitted and a reply is in hand: a successful socket write
    /// counts `served`, a failed one `shed_after_admit`.
    Delivered,
}

fn connection_loop(inner: &Arc<ServerInner>, mut stream: TcpStream) {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    loop {
        // ordering: Acquire pairs with the stopper's Release store.
        if inner.stop.load(Ordering::Acquire) {
            return;
        }
        let head = match read_request_head(&mut stream, &mut buf) {
            Ok(Some(head)) => head,
            Ok(None) => return, // clean EOF between requests
            Err(_) => return,   // timeout / reset / oversized head
        };
        let (resp, outcome, keep_alive) = match parse_request(&head) {
            Ok(req) => {
                if discard_body(&mut stream, &mut buf, req.body_len).is_err() {
                    return; // timeout / reset / eof mid-body
                }
                let keep_alive = req.keep_alive;
                let (resp, outcome) = handle_request(inner, &req);
                (resp, outcome, keep_alive)
            }
            Err(rej) => (
                HttpResponse::error(rej.status, rej.reason, rej.msg),
                QueryOutcome::NotAdmitted,
                false,
            ),
        };
        let wrote = write_response(&mut stream, &resp, keep_alive).is_ok();
        if let QueryOutcome::Delivered = outcome {
            if wrote {
                // ordering: Relaxed — independent statistics counters;
                // quiescent reconciliation needs no ordering.
                inner.served.fetch_add(1, Ordering::Relaxed);
            } else {
                // ordering: Relaxed — as above.
                inner.shed_after_admit.fetch_add(1, Ordering::Relaxed);
            }
        }
        if !wrote || !keep_alive {
            return;
        }
    }
}

/// Reads one request head (through `\r\n\r\n`) into `buf` and returns
/// it as text. `Ok(None)` on clean EOF before any byte. Bytes past
/// the terminator stay in `buf` for the next call, so a keep-alive
/// client that pipelines several requests in one segment loses none
/// of them.
fn read_request_head(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<Option<String>> {
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(end) = find_head_end(buf) {
            let head = String::from_utf8_lossy(buf.get(..end).unwrap_or_default()).into_owned();
            buf.drain(..(end + 4).min(buf.len()));
            return Ok(Some(head));
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return if buf.is_empty() {
                Ok(None)
            } else {
                Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof mid-request",
                ))
            };
        }
        buf.extend_from_slice(chunk.get(..n).unwrap_or_default());
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Consumes a request's declared body — first the bytes already
/// buffered past its head, then the rest from the socket — so the
/// next request on a keep-alive connection starts exactly where this
/// one ended. Every endpoint is a `GET`, so the body is never read as
/// data; draining it is what keeps it from being parsed as a request.
fn discard_body(stream: &mut TcpStream, buf: &mut Vec<u8>, len: usize) -> io::Result<()> {
    let buffered = len.min(buf.len());
    buf.drain(..buffered);
    let mut left = len - buffered;
    let mut chunk = [0u8; 1024];
    while left > 0 {
        let want = left.min(chunk.len());
        let n = stream.read(chunk.get_mut(..want).unwrap_or_default())?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "eof mid-body"));
        }
        left -= n;
    }
    Ok(())
}

// The per-connection request handler must never take the whole server
// down: a malformed request, an unexpected parameter or a dead socket
// ends at worst this one connection. The analyzer proves the handler
// and its transitive callees free of panic sites.
// scs-contract: no-panic
fn parse_request<'a>(head: &'a str) -> Result<HttpRequest<'a>, Rejected> {
    let bad = Rejected::bad_request;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(bad("empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts.next().ok_or(bad("missing method"))?;
    let target = parts.next().ok_or(bad("missing request target"))?;
    let version = parts.next().ok_or(bad("missing HTTP version"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    // Keep-alive: HTTP/1.1 defaults on, `Connection: close` (or an
    // HTTP/1.0 client) turns it off.
    let mut keep_alive = version == "HTTP/1.1";
    // Body framing: only a plain `Content-Length` is accepted. Any
    // `Transfer-Encoding`, or a length that is malformed or disagrees
    // with an earlier one, leaves the body's end ambiguous — the
    // request-smuggling class — so the request is refused.
    let mut body_len: Option<usize> = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(Rejected {
                status: 501,
                reason: "Not Implemented",
                msg: "Transfer-Encoding is not supported",
            });
        }
        if name.eq_ignore_ascii_case("content-length") {
            // Digits only: `usize::from_str` would also take a `+`.
            let v = value.trim();
            let digits = !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit());
            let len = v
                .parse::<usize>()
                .ok()
                .filter(|_| digits)
                .ok_or(bad("malformed Content-Length"))?;
            if body_len.is_some_and(|prev| prev != len) {
                return Err(bad("conflicting Content-Length headers"));
            }
            body_len = Some(len);
        } else if name.eq_ignore_ascii_case("connection") {
            let v = value.trim();
            if v.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if v.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    let body_len = body_len.unwrap_or(0);
    if body_len > MAX_REQUEST_BYTES {
        return Err(Rejected {
            status: 413,
            reason: "Payload Too Large",
            msg: "request body too large",
        });
    }
    Ok(HttpRequest {
        method,
        path,
        query,
        keep_alive,
        body_len,
    })
}

// scs-contract: no-panic — see `parse_request`; this is the dispatch
// half of the connection handler.
fn handle_request(inner: &Arc<ServerInner>, req: &HttpRequest<'_>) -> (HttpResponse, QueryOutcome) {
    if req.method != "GET" {
        return (
            HttpResponse::error(405, "Method Not Allowed", "only GET is served"),
            QueryOutcome::NotAdmitted,
        );
    }
    match req.path {
        "/query" => handle_query(inner, req.query),
        "/metrics" => {
            let text = inner.engine.render_metrics_with(inner.admission());
            (
                HttpResponse {
                    status: 200,
                    reason: "OK",
                    content_type: "text/plain; version=0.0.4",
                    body: text,
                    retry_after_ms: None,
                },
                QueryOutcome::NotAdmitted,
            )
        }
        "/stats" => {
            let mut stats = inner.engine.stats();
            stats.admission = inner.admission();
            (
                HttpResponse {
                    status: 200,
                    reason: "OK",
                    content_type: "text/plain; charset=utf-8",
                    body: stats.to_string(),
                    retry_after_ms: None,
                },
                QueryOutcome::NotAdmitted,
            )
        }
        "/healthz" => (
            HttpResponse::json(200, "OK", "{\"ok\":true}\n".to_string()),
            QueryOutcome::NotAdmitted,
        ),
        _ => (
            HttpResponse::error(404, "Not Found", "unknown path"),
            QueryOutcome::NotAdmitted,
        ),
    }
}

/// Query-string parameters of `/query`, parsed but not yet validated
/// as a complete request.
#[derive(Default)]
struct QueryParams {
    q: Option<u32>,
    alpha: Option<u32>,
    beta: Option<u32>,
    algo: Option<Algorithm>,
    tenant: Option<String>,
}

// scs-contract: no-panic — parameter parsing runs on every socket
// request; a hostile query string must yield a 400, not a panic.
fn parse_query_params(query: &str) -> Result<QueryParams, &'static str> {
    let mut p = QueryParams::default();
    for pair in query.split('&').filter(|s| !s.is_empty()) {
        let (key, value) = pair.split_once('=').ok_or("parameter without value")?;
        match key {
            "q" => p.q = Some(value.parse().map_err(|_| "q must be a u32 vertex id")?),
            "alpha" => p.alpha = Some(value.parse().map_err(|_| "alpha must be a u32")?),
            "beta" => p.beta = Some(value.parse().map_err(|_| "beta must be a u32")?),
            "algo" => {
                p.algo = Some(match value {
                    "auto" => Algorithm::Auto,
                    "peel" => Algorithm::Peel,
                    "expand" => Algorithm::Expand,
                    "binary" => Algorithm::Binary,
                    "baseline" => Algorithm::Baseline,
                    _ => return Err("unknown algo (auto|peel|expand|binary|baseline)"),
                })
            }
            "tenant" => p.tenant = Some(url_decode(value).ok_or("bad tenant encoding")?),
            _ => {} // ignore unknown parameters (forward compatibility)
        }
    }
    Ok(p)
}

// Percent-decoding works on raw bytes: a UTF-8 name like
// `caf%C3%A9` must decode through its byte sequence, not through
// per-byte `char::from` (Latin-1), or the tenant string is mojibake.
// Invalid UTF-8 after decoding is rejected (→ 400), never replaced,
// so distinct raw names cannot collide.
// scs-contract: no-panic — runs on attacker-controlled input.
fn url_decode(s: &str) -> Option<String> {
    let mut out = Vec::with_capacity(s.len());
    let mut bytes = s.bytes();
    while let Some(b) = bytes.next() {
        match b {
            b'%' => {
                let hi = hex_val(bytes.next()?)?;
                let lo = hex_val(bytes.next()?)?;
                out.push(hi * 16 + lo);
            }
            b'+' => out.push(b' '),
            _ => out.push(b),
        }
    }
    String::from_utf8(out).ok()
}

// scs-contract: no-panic
fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// The `/query` path: admission control, the engine round trip on
/// this thread, and the JSON reply.
// scs-contract: no-panic — the heart of the connection handler: every
// exit is an HTTP response, never an unwind.
fn handle_query(inner: &Arc<ServerInner>, query: &str) -> (HttpResponse, QueryOutcome) {
    let params = match parse_query_params(query) {
        Ok(p) => p,
        Err(msg) => {
            return (
                HttpResponse::error(400, "Bad Request", msg),
                QueryOutcome::NotAdmitted,
            )
        }
    };
    let (Some(q), Some(alpha), Some(beta)) = (params.q, params.alpha, params.beta) else {
        return (
            HttpResponse::error(400, "Bad Request", "q, alpha and beta are required"),
            QueryOutcome::NotAdmitted,
        );
    };
    let req = QueryRequest {
        q: Vertex(q),
        alpha,
        beta,
        algo: params.algo.unwrap_or(Algorithm::Auto),
    };
    let t_admit = Instant::now();

    // Tenant quota first: a quota-limited tenant must not consume
    // pending budget.
    {
        let mut quotas = match inner.quotas.lock() {
            Ok(g) => g,
            // Quota state is plain counters; a writer can't have left
            // them inconsistent mid-panic in any way that matters.
            Err(poisoned) => poisoned.into_inner(),
        };
        if !quotas.admit(params.tenant.as_deref(), t_admit) {
            // ordering: Relaxed — independent statistics counter.
            inner.quota_rejected.fetch_add(1, Ordering::Relaxed);
            drop(quotas); // contract-ok: dropping a MutexGuard cannot panic
            return (
                reject_429(inner, "tenant quota exhausted"),
                QueryOutcome::NotAdmitted,
            );
        }
    }

    // Pending budget: admit or shed, never queue unboundedly.
    // ordering: Relaxed — the budget is a statistical bound, not a
    // synchronization point; a transient overshoot of one is benign
    // and immediately corrected below.
    let prior = inner.pending.fetch_add(1, Ordering::Relaxed);
    if prior >= inner.pending_budget {
        // ordering: Relaxed — undoing the optimistic increment above.
        inner.pending.fetch_sub(1, Ordering::Relaxed);
        // ordering: Relaxed — independent statistics counter.
        inner.shed.fetch_add(1, Ordering::Relaxed);
        return (
            reject_429(inner, "pending budget exhausted"),
            QueryOutcome::NotAdmitted,
        );
    }
    // ordering: Relaxed — independent statistics counter.
    inner.admitted.fetch_add(1, Ordering::Relaxed);

    // Straight to the engine, and wait here for the answer.
    let accept_us = micros_since(t_admit);
    inner.engine.record_accept(accept_us);
    let handle: ResponseHandle = inner.engine.submit(req);
    let reply = handle.wait_timeout(inner.reply_timeout);
    // ordering: Relaxed — budget release; see the admission increment
    // above.
    inner.pending.fetch_sub(1, Ordering::Relaxed);
    let total_us = micros_since(t_admit);
    inner.reply_latency.record(total_us);
    match reply {
        Some(resp) => (
            HttpResponse::json(200, "OK", render_query_json(&resp, accept_us, total_us)),
            QueryOutcome::Delivered,
        ),
        None => {
            // No answer in time (engine wedged, or the query panicked):
            // resolve as shed-after-admit. A late answer lands in the
            // given-up reply cell, which the engine resets before
            // reuse, so it is never delivered.
            // ordering: Relaxed — independent statistics counter.
            inner.shed_after_admit.fetch_add(1, Ordering::Relaxed);
            (
                HttpResponse::error(503, "Service Unavailable", "reply timed out"),
                QueryOutcome::NotAdmitted,
            )
        }
    }
}

fn micros_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX)
}

// scs-contract: no-panic — the overload exit must itself be
// panic-free or shedding would be the crash it exists to prevent.
fn reject_429(inner: &Arc<ServerInner>, msg: &str) -> HttpResponse {
    let retry_ms = inner.retry_after_ms();
    HttpResponse {
        status: 429,
        reason: "Too Many Requests",
        content_type: "application/json",
        body: format!("{{\"error\":\"{msg}\",\"retry_after_ms\":{retry_ms}}}\n"),
        retry_after_ms: Some(retry_ms),
    }
}

fn render_query_json(resp: &QueryResponse, accept_us: u64, total_us: u64) -> String {
    let r = &resp.request;
    let min_weight = match resp.summary.min_weight {
        Some(w) => format!("{w}"),
        None => "null".to_string(),
    };
    format!(
        "{{\"q\":{},\"alpha\":{},\"beta\":{},\"algo\":\"{}\",\"epoch\":{},\
         \"n_upper\":{},\"n_lower\":{},\
         \"edges\":{},\"min_weight\":{},\"accept_us\":{},\"service_us\":{},\"total_us\":{}}}\n",
        r.q.0,
        r.alpha,
        r.beta,
        r.algo.name(),
        resp.epoch,
        resp.summary.n_upper,
        resp.summary.n_lower,
        resp.summary.size(),
        min_weight,
        accept_us,
        resp.service_us,
        total_us,
    )
}

fn write_response(stream: &mut TcpStream, resp: &HttpResponse, keep_alive: bool) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        resp.reason,
        resp.content_type,
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some(ms) = resp.retry_after_ms {
        // The header is whole seconds (RFC 9110), rounded up and ≥ 1;
        // the JSON body carries the precise milliseconds.
        head.push_str(&format!("Retry-After: {}\r\n", ms.div_ceil(1000).max(1)));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(resp.body.as_bytes())?;
    stream.flush()
}

/// A classic token bucket: `burst` capacity, refilled at `rate`
/// tokens/second, one token per admitted request. Time is supplied by
/// the caller. Token arithmetic is integer nanoseconds of "earned
/// refill" rather than floats, so long-running buckets cannot drift.
struct TokenBucket {
    rate: u64,
    burst: u64,
    tokens: u64,
    /// Nanoseconds of refill credit below one whole token.
    frac_ns: u128,
    last: Instant,
}

impl TokenBucket {
    /// A full bucket: `burst` tokens available immediately.
    fn new(rate: u64, burst: u64, now: Instant) -> Self {
        let burst = burst.max(1);
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            frac_ns: 0,
            last: now,
        }
    }

    /// Takes one token if available after refilling up to `now`.
    fn try_take(&mut self, now: Instant) -> bool {
        let elapsed = now.saturating_duration_since(self.last).as_nanos() + self.frac_ns;
        self.last = now;
        let earned = elapsed * u128::from(self.rate) / 1_000_000_000;
        // Keep the unconverted remainder so sub-token intervals add up.
        self.frac_ns = if self.rate == 0 {
            0
        } else {
            elapsed - earned * 1_000_000_000 / u128::from(self.rate)
        };
        self.tokens = self
            .tokens
            .saturating_add(u64::try_from(earned).unwrap_or(u64::MAX))
            .min(self.burst);
        if self.tokens == 0 {
            return false;
        }
        self.tokens -= 1;
        true
    }
}

/// Tenant → token-bucket table. Bounded: past [`Self::MAX_TENANTS`]
/// distinct tenant names, new tenants share one overflow bucket — an
/// adversarial stream of unique names cannot grow the map without
/// bound (and shares one quota, which is exactly what an abuser
/// deserves).
struct TenantQuotas {
    rate: u64,
    burst: u64,
    buckets: HashMap<String, TokenBucket>,
    overflow: Option<TokenBucket>,
}

impl TenantQuotas {
    /// Distinct tenants tracked individually before the overflow
    /// bucket takes over.
    const MAX_TENANTS: usize = 10_000;

    /// `rate == 0` disables quotas: every [`Self::admit`] succeeds.
    fn new(rate: u64, burst: u64) -> Self {
        TenantQuotas {
            rate,
            burst: burst.max(1),
            buckets: HashMap::new(),
            overflow: None,
        }
    }

    /// Whether `tenant` may spend one quota token at `now`. Requests
    /// without a tenant are exempt (quotas bound tenants, not the
    /// total — the pending budget does that).
    fn admit(&mut self, tenant: Option<&str>, now: Instant) -> bool {
        if self.rate == 0 {
            return true;
        }
        let Some(name) = tenant else { return true };
        let (rate, burst) = (self.rate, self.burst);
        let bucket = if self.buckets.len() >= Self::MAX_TENANTS && !self.buckets.contains_key(name)
        {
            self.overflow
                .get_or_insert_with(|| TokenBucket::new(rate, burst, now))
        } else {
            self.buckets
                .entry(name.to_string())
                .or_insert_with(|| TokenBucket::new(rate, burst, now))
        };
        bucket.try_take(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::builder::figure2_example;
    use scs::CommunitySearch;
    use std::io::BufRead;

    fn serve(config: ServiceConfig) -> ServerHandle {
        let engine = QueryEngine::start(CommunitySearch::shared(figure2_example()), config.clone());
        Server::start(engine, "127.0.0.1:0", &config).expect("bind loopback")
    }

    fn get(addr: SocketAddr, target: &str) -> (u16, Vec<String>, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(
            s,
            "GET {target} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        read_reply(&mut s)
    }

    fn read_reply(s: &mut TcpStream) -> (u16, Vec<String>, String) {
        read_reply_from(&mut io::BufReader::new(s))
    }

    /// [`read_reply`] from a reader that lives as long as the
    /// connection, so bytes of a following reply are never buffered
    /// away between calls.
    fn read_reply_from(reader: &mut impl BufRead) -> (u16, Vec<String>, String) {
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .unwrap_or(0);
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end().to_string();
            if line.is_empty() {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    content_length = v.trim().parse().unwrap_or(0);
                }
            }
            headers.push(line);
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        (status, headers, String::from_utf8_lossy(&body).into_owned())
    }

    #[test]
    fn serves_queries_with_provenance_and_timings() {
        let handle = serve(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let addr = handle.local_addr();
        // figure2's upper(2) answers (2,2) with a 4-edge community of
        // min weight 13 (the engine tests' oracle answer).
        let g = figure2_example();
        let q = g.upper(2).0;
        let (status, _, body) = get(addr, &format!("/query?q={q}&alpha=2&beta=2&algo=peel"));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"edges\":4"), "{body}");
        assert!(body.contains("\"min_weight\":13"), "{body}");
        assert!(body.contains("\"n_upper\":2,\"n_lower\":2"), "{body}");
        assert!(body.contains("\"epoch\":0"), "{body}");
        assert!(body.contains("\"accept_us\":"), "{body}");
        assert!(body.contains("\"service_us\":"), "{body}");
        assert!(body.contains("\"total_us\":"), "{body}");
        // Same key again, another algorithm: the same answer, echoed.
        let (status, _, again) = get(addr, &format!("/query?q={q}&alpha=2&beta=2&algo=expand"));
        assert_eq!(status, 200);
        assert!(again.contains("\"algo\":\"expand\""), "{again}");
        let answer = |b: &str| {
            b[b.find("\"n_upper\"").unwrap()..b.find(",\"accept_us\"").unwrap()].to_string()
        };
        assert_eq!(answer(&again), answer(&body));
        let fin = handle.stop();
        assert_eq!(fin.admitted, 2);
        assert_eq!(fin.served, 2);
        assert_eq!(fin.shed_after_admit, 0);
    }

    #[test]
    fn keep_alive_serves_many_requests_per_connection() {
        let handle = serve(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let q = figure2_example().upper(2).0;
        let mut s = TcpStream::connect(handle.local_addr()).unwrap();
        for i in 0..3 {
            write!(
                s,
                "GET /query?q={q}&alpha=1&beta={} HTTP/1.1\r\nHost: x\r\n\r\n",
                i + 1
            )
            .unwrap();
            let (status, _, body) = read_reply(&mut s);
            assert_eq!(status, 200, "request {i}: {body}");
        }
        drop(s);
        let fin = handle.stop();
        assert_eq!(fin.admitted, 3);
        assert_eq!(fin.served, 3);
    }

    #[test]
    fn pipelined_requests_all_get_replies() {
        let handle = serve(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let q = figure2_example().upper(2).0;
        // Two requests in one write: the head reader must retain the
        // bytes past the first `\r\n\r\n` instead of discarding them.
        // Both replies go through one reader, which may buffer them
        // together.
        let (_s, mut reader) = send_raw(
            handle.local_addr(),
            &format!(
                "GET /query?q={q}&alpha=1&beta=1 HTTP/1.1\r\nHost: x\r\n\r\n\
                 GET /query?q={q}&alpha=1&beta=2 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            ),
        );
        let (status1, _, body1) = read_reply_from(&mut reader);
        assert_eq!(status1, 200, "{body1}");
        assert!(body1.contains("\"beta\":1"), "{body1}");
        let (status2, _, body2) = read_reply_from(&mut reader);
        assert_eq!(status2, 200, "{body2}");
        assert!(body2.contains("\"beta\":2"), "{body2}");
        let fin = handle.stop();
        assert_eq!(fin.admitted, 2);
        assert_eq!(fin.served, 2);
    }

    /// Sends `raw` on a fresh connection; returns the connection's
    /// writer and a reader that outlives single replies.
    fn send_raw(addr: SocketAddr, raw: &str) -> (TcpStream, io::BufReader<TcpStream>) {
        let mut s = TcpStream::connect(addr).unwrap();
        let reader = io::BufReader::new(s.try_clone().unwrap());
        s.write_all(raw.as_bytes()).unwrap();
        (s, reader)
    }

    /// Asserts that the server closed the connection after its reply.
    fn assert_closed(mut reader: io::BufReader<TcpStream>) {
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert!(rest.is_empty(), "connection stayed open: {rest:?}");
    }

    #[test]
    fn request_body_is_drained_not_parsed_as_a_request() {
        let handle = serve(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        // The 34-byte body is itself a complete request. Read as a
        // request, it would draw a second reply (the smuggled 200).
        let smuggled = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        assert_eq!(smuggled.len(), 34);
        let (mut s, mut reader) = send_raw(
            handle.local_addr(),
            &format!("POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 34\r\n\r\n{smuggled}"),
        );
        let (status, _, body) = read_reply_from(&mut reader);
        assert_eq!(status, 405, "{body}");
        // The connection is still in sync and serves the next request.
        write!(
            s,
            "GET /nope HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let (status, _, body) = read_reply_from(&mut reader);
        assert_eq!(status, 404, "the body was answered as a request: {body}");
        assert_closed(reader);
        handle.stop();
    }

    #[test]
    fn oversized_body_gets_413_and_closes() {
        let handle = serve(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let (_s, mut reader) = send_raw(
            handle.local_addr(),
            &format!(
                "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
                MAX_REQUEST_BYTES + 1
            ),
        );
        let (status, headers, body) = read_reply_from(&mut reader);
        assert_eq!(status, 413, "{body}");
        assert!(
            headers.iter().any(|h| h == "Connection: close"),
            "{headers:?}"
        );
        assert_closed(reader);
        handle.stop();
    }

    #[test]
    fn malformed_or_conflicting_content_length_gets_400_and_closes() {
        let handle = serve(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        for lengths in [
            "Content-Length: abc\r\n",
            "Content-Length: +5\r\n",
            "Content-Length: 5, 5\r\n",
            "Content-Length: 5\r\nContent-Length: 6\r\n",
        ] {
            let (_s, mut reader) = send_raw(
                handle.local_addr(),
                &format!("GET /healthz HTTP/1.1\r\nHost: x\r\n{lengths}\r\nhello"),
            );
            let (status, _, body) = read_reply_from(&mut reader);
            assert_eq!(status, 400, "{lengths:?} → {body}");
            assert_closed(reader);
        }
        // Repeating the same length is not a conflict.
        let (_s, mut reader) = send_raw(
            handle.local_addr(),
            "GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\
             Content-Length: 5\r\nConnection: close\r\n\r\nhello",
        );
        assert_eq!(read_reply_from(&mut reader).0, 200);
        handle.stop();
    }

    #[test]
    fn transfer_encoding_gets_501_and_closes() {
        let handle = serve(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let (_s, mut reader) = send_raw(
            handle.local_addr(),
            "POST /query HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n\
             0\r\n\r\nGET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
        );
        let (status, _, body) = read_reply_from(&mut reader);
        assert_eq!(status, 501, "{body}");
        assert_closed(reader);
        handle.stop();
    }

    #[test]
    fn url_decode_is_utf8_not_latin1() {
        assert_eq!(url_decode("caf%C3%A9").as_deref(), Some("café"));
        assert_eq!(url_decode("a+b%20c").as_deref(), Some("a b c"));
        // A bare 0xFF is valid percent-encoding but invalid UTF-8:
        // reject, don't replace (distinct raw names must not collide).
        assert_eq!(url_decode("%ff"), None);
        assert_eq!(url_decode("%zz"), None);
        assert_eq!(url_decode("%a"), None);
    }

    #[test]
    fn closed_connections_are_pruned_not_leaked() {
        let handle = serve(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let addr = handle.local_addr();
        let q = figure2_example().upper(2).0;
        for _ in 0..20 {
            let (status, _, _) = get(addr, &format!("/query?q={q}&alpha=1&beta=1"));
            assert_eq!(status, 200);
        }
        // Each `Connection: close` request above ended its connection;
        // the socket-clone map must drain as the threads exit (that
        // clone is the duplicated fd a long-running server would
        // otherwise leak per connection)…
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline && !handle.inner.conns.lock().unwrap().is_empty() {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            handle.inner.conns.lock().unwrap().is_empty(),
            "socket clones leaked after connections closed"
        );
        // …and subsequent accepts must reap the finished join handles
        // (each probe below adds one live entry and sweeps the dead).
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (status, _, _) = get(addr, "/healthz");
            assert_eq!(status, 200);
            let n = handle.inner.conn_joins.lock().unwrap().len();
            if n <= 2 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "join handles not reaped: {n} still tracked"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        handle.stop();
    }

    #[test]
    fn bad_requests_get_400s_not_panics() {
        let handle = serve(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let addr = handle.local_addr();
        for target in [
            "/query",
            "/query?q=abc&alpha=1&beta=1",
            "/query?q=1&alpha=1",
            "/query?q=1&alpha=1&beta=1&algo=quantum",
        ] {
            let (status, _, body) = get(addr, target);
            assert_eq!(status, 400, "{target} → {body}");
        }
        let (status, _, _) = get(addr, "/nope");
        assert_eq!(status, 404);
        let (status, _, _) = get(addr, "/healthz");
        assert_eq!(status, 200);
        // Rejected requests leave the admission ledger at zero.
        let fin = handle.stop();
        assert_eq!(fin.admitted, 0);
        assert_eq!(fin.served, 0);
    }

    #[test]
    fn tenant_quota_rejects_with_retry_after() {
        let handle = serve(ServiceConfig {
            workers: 1,
            tenant_rate: 1,
            tenant_burst: 2,
            ..ServiceConfig::default()
        });
        let addr = handle.local_addr();
        let q = figure2_example().upper(2).0;
        let mut statuses = Vec::new();
        for _ in 0..4 {
            let (status, headers, body) =
                get(addr, &format!("/query?q={q}&alpha=2&beta=2&tenant=acme"));
            if status == 429 {
                assert!(
                    headers.iter().any(|h| h.starts_with("Retry-After:")),
                    "429 without Retry-After: {headers:?}"
                );
                assert!(body.contains("retry_after_ms"), "{body}");
            }
            statuses.push(status);
        }
        assert_eq!(
            statuses.iter().filter(|&&s| s == 200).count(),
            2,
            "burst of 2 admits exactly 2 immediately: {statuses:?}"
        );
        assert_eq!(statuses.iter().filter(|&&s| s == 429).count(), 2);
        // An anonymous request is exempt from tenant quotas.
        let (status, _, _) = get(addr, &format!("/query?q={q}&alpha=2&beta=2"));
        assert_eq!(status, 200);
        let fin = handle.stop();
        assert_eq!(fin.quota_rejected, 2);
        assert_eq!(fin.admitted, 3);
    }

    #[test]
    fn metrics_and_stats_expose_admission_counters() {
        let handle = serve(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let addr = handle.local_addr();
        let q = figure2_example().upper(2).0;
        for algo in ["auto", "peel", "binary"] {
            let (status, _, _) = get(addr, &format!("/query?q={q}&alpha=2&beta=2&algo={algo}"));
            assert_eq!(status, 200);
        }
        // Every admitted request records one accept window, and the
        // engine counts each request once, whatever algorithm it named.
        let st = handle.stats();
        assert_eq!(st.admission.admitted, 3);
        assert_eq!(
            st.stages[crate::Stage::Accept as usize].count,
            st.admission.admitted
        );
        assert_eq!(st.completed, 3);
        let (status, _, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        crate::telemetry::validate_prometheus(&metrics).expect("served metrics must validate");
        assert!(
            metrics.contains("scs_admission_admitted_total 3"),
            "{metrics}"
        );
        assert!(metrics.contains("scs_admission_shed_total 0"));
        assert!(metrics.contains("scs_admission_quota_rejected_total 0"));
        // The accept stage is recorded on the socket path.
        assert!(metrics.contains("scs_stage_duration_us_count{stage=\"accept\"} 3"));
        assert!(!metrics.contains("algo=\""), "{metrics}");
        let (status, _, table) = get(addr, "/stats");
        assert_eq!(status, 200);
        assert!(table.contains("admitted"), "{table}");
        handle.stop();
    }

    #[test]
    fn retry_after_tracks_admitted_latency() {
        let handle = serve(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let inner = &handle.inner;
        // Before any admitted request the hint sits at the floor.
        assert!((37..=63).contains(&inner.retry_after_ms()));
        // Admitted requests taking about 400 ms move it there, within
        // the ±25% jitter.
        for i in 0..100 {
            inner.reply_latency.record(380_000 + 400 * i);
        }
        let hints: Vec<u64> = (0..64).map(|_| inner.retry_after_ms()).collect();
        for &ms in &hints {
            assert!(
                (285..=525).contains(&ms),
                "Retry-After {ms} ms for ~400 ms replies"
            );
        }
        assert!(
            hints.iter().min() < hints.iter().max(),
            "Retry-After is not jittered: {hints:?}"
        );
        handle.stop();
    }

    #[test]
    fn token_bucket_enforces_rate_and_burst() {
        let t0 = Instant::now();
        let mut tb = TokenBucket::new(10, 3, t0);
        // The burst is immediately spendable, then the bucket is dry.
        assert!(tb.try_take(t0));
        assert!(tb.try_take(t0));
        assert!(tb.try_take(t0));
        assert!(!tb.try_take(t0));
        // 100ms at 10 tokens/s earns exactly one token.
        assert!(tb.try_take(t0 + Duration::from_millis(100)));
        assert!(!tb.try_take(t0 + Duration::from_millis(100)));
        // Sub-token intervals accumulate without float drift: 2 × 50ms
        // = one token.
        assert!(!tb.try_take(t0 + Duration::from_millis(150)));
        assert!(tb.try_take(t0 + Duration::from_millis(200)));
        // A long idle period refills to burst, not beyond.
        let later = t0 + Duration::from_secs(60);
        assert!(tb.try_take(later));
        assert!(tb.try_take(later));
        assert!(tb.try_take(later));
        assert!(!tb.try_take(later));
    }

    #[test]
    fn tenant_quotas_isolate_tenants_and_exempt_the_anonymous() {
        let t0 = Instant::now();
        let mut q = TenantQuotas::new(1, 2);
        // Tenant A spends its burst; tenant B is unaffected.
        assert!(q.admit(Some("a"), t0));
        assert!(q.admit(Some("a"), t0));
        assert!(!q.admit(Some("a"), t0));
        assert!(q.admit(Some("b"), t0));
        // Anonymous requests bypass tenant quotas entirely.
        for _ in 0..10 {
            assert!(q.admit(None, t0));
        }
        // rate == 0 disables quotas.
        let mut off = TenantQuotas::new(0, 1);
        for _ in 0..10 {
            assert!(off.admit(Some("a"), t0));
        }
    }
}
