//! Overload oracle for the network front end (`scs_service::Server`).
//!
//! Drives the server well past its admission budget — more concurrent
//! socket clients than `pending_budget` admits, i.e. a sustained ~4×
//! multiple of what the budget lets through at once — and checks the
//! graceful-overload contract:
//!
//! * requests over budget are shed **promptly** with `429` carrying a
//!   `Retry-After` header and a `retry_after_ms` JSON field;
//! * admitted requests keep **bounded** latency (the budget caps what
//!   can queue in the engine);
//! * every request gets exactly one reply — none lost, none
//!   duplicated;
//! * at quiescence the admission ledger reconciles exactly:
//!   `admitted == served + shed_after_admit`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use scs::CommunitySearch;
use scs_service::{QueryEngine, Server, ServiceConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One keep-alive GET; returns (status, headers, body).
fn get(stream: &mut TcpStream, target: &str) -> (u16, Vec<String>, String) {
    write!(stream, "GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line {status_line:?}"));
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
fn overload_sheds_promptly_serves_boundedly_and_reconciles() {
    // A tiny pending budget: with 12 clients in lockstep (each waits
    // for its reply before sending the next), up to 12 requests race
    // for 3 admission slots — a sustained ~4× of what the budget
    // admits — while admitted requests wait at most for the two others
    // ahead of them plus service time. Shedding is made certain, not
    // just likely: a barrier releases every client's first request at
    // once, at an (α,β) whose profile is not built yet, so the first
    // three admitted stay pending through a whole-core profile build
    // while the other nine arrive.
    const CLIENTS: usize = 12;
    const PER_CLIENT: usize = 25;
    let config = ServiceConfig {
        workers: 2,
        pending_budget: 3,
        socket_timeout_ms: 10_000,
        ..ServiceConfig::default()
    };
    let g =
        bigraph::generators::random_bipartite(2_000, 2_000, 40_000, &mut StdRng::seed_from_u64(23));
    let upper: Vec<u32> = (0..g.n_upper()).map(|i| g.upper(i).0).collect();
    let engine = QueryEngine::start(CommunitySearch::shared(g), config.clone());
    let server = Server::start(engine, "127.0.0.1:0", &config).expect("bind loopback");
    let addr = server.local_addr();
    let (upper, start) = (&upper, &Barrier::new(CLIENTS));

    struct ClientReport {
        ok: u64,
        shed: u64,
        replies: u64,
        max_ok_us: u64,
    }
    let reports: Vec<ClientReport> = std::thread::scope(|scope| {
        (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .unwrap();
                    let mut r = ClientReport {
                        ok: 0,
                        shed: 0,
                        replies: 0,
                        max_ok_us: 0,
                    };
                    start.wait();
                    for i in 0..PER_CLIENT {
                        // A few distinct (α, β) shapes; all answerable.
                        // Every client's first request is at (2,2).
                        let q = upper[(c + i) % upper.len()];
                        let (alpha, beta) = if i == 0 { (2, 2) } else { (1, 1 + (i % 2)) };
                        let t = Instant::now();
                        let (status, headers, body) = get(
                            &mut stream,
                            &format!("/query?q={q}&alpha={alpha}&beta={beta}"),
                        );
                        let us = u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX);
                        r.replies += 1;
                        match status {
                            200 => {
                                r.ok += 1;
                                r.max_ok_us = r.max_ok_us.max(us);
                            }
                            429 => {
                                r.shed += 1;
                                // Shedding is graceful: a machine-usable
                                // hint in both header and body.
                                assert!(
                                    headers.iter().any(|h| h.starts_with("Retry-After:")),
                                    "429 without Retry-After: {headers:?}"
                                );
                                assert!(body.contains("retry_after_ms"), "{body}");
                                // Shedding is prompt: a 429 never waits
                                // on the engine's queue. 2s is orders of
                                // magnitude of slack for a loaded CI
                                // machine.
                                assert!(us < 2_000_000, "429 took {us}µs — not prompt");
                            }
                            other => panic!("unexpected status {other}: {body}"),
                        }
                    }
                    r
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|j| j.join().unwrap())
            .collect()
    });

    let sent = (CLIENTS * PER_CLIENT) as u64;
    let replies: u64 = reports.iter().map(|r| r.replies).sum();
    let ok: u64 = reports.iter().map(|r| r.ok).sum();
    let shed: u64 = reports.iter().map(|r| r.shed).sum();
    // No reply lost, none duplicated: request/reply lockstep per
    // connection, and the totals cover every request exactly once
    // (anything that was neither 200 nor 429 panicked its client).
    assert_eq!(replies, sent);
    assert_eq!(ok + shed, sent);
    // Overload actually happened, and yet requests kept being served.
    assert!(shed > 0, "12 clients over a budget of 3 must shed");
    assert!(ok > 0, "admission must keep serving under overload");
    // Bounded latency for admitted requests: a budget of 3 × service
    // time leaves the worst admitted request far under 5s even on a
    // heavily loaded CI machine.
    let worst_ok = reports.iter().map(|r| r.max_ok_us).max().unwrap_or(0);
    assert!(
        worst_ok < 5_000_000,
        "admitted request took {worst_ok}µs — latency not bounded"
    );

    // Quiescent reconciliation: every admitted request resolved
    // exactly once.
    let fin = server.stop();
    assert_eq!(
        fin.admitted,
        fin.served + fin.shed_after_admit,
        "admission ledger must reconcile: {fin:?}"
    );
    assert_eq!(fin.served, ok, "server-side served == client-side 200s");
    assert_eq!(fin.shed + fin.quota_rejected, shed);
}
