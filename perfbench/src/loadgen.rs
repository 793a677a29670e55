//! Load generation: closed loops (each client waits for its reply) and
//! open loops (requests fall due on a fixed schedule regardless).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The identity of one sampled answer, checked after the timed window.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// Position of the request in the workload stream.
    pub idx: usize,
    /// Edge count.
    pub edges: usize,
    /// Minimum edge weight.
    pub min_w: Option<f64>,
    /// Hash of the sorted edge ids, where the layer returns them.
    pub hash: Option<u64>,
}

/// What one call produced.
pub enum Outcome {
    /// A valid answer, not sampled for checking.
    Ok,
    /// A valid answer, sampled for checking.
    Sampled(Answer),
    /// No valid answer: an error status, a refusal or an empty result.
    Failed,
}

/// Everything a loop measured.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Latency of every call that returned a valid answer, ms (open
    /// loop: from the due time).
    pub latencies_ms: Vec<f64>,
    /// Open loop only: how late the generator sent each request after
    /// it was both due and its connection free, ms.
    pub late_ms: Vec<f64>,
    /// Calls made.
    pub attempted: u64,
    /// Calls that failed.
    pub failed: u64,
    /// Calls that returned a valid answer.
    pub completed: u64,
    /// Sampled answers.
    pub answers: Vec<Answer>,
    /// Wall time from the loop's start until its last call ended, s.
    pub span_s: f64,
    /// `(stream index, start ns, end ns)` of every call, relative to
    /// `trace_t0`, when tracing.
    pub calls: Vec<(usize, u64, u64)>,
}

impl LoopResult {
    /// Completed calls per second of the loop's span.
    pub fn qps(&self) -> f64 {
        self.completed as f64 / self.span_s.max(1e-9)
    }

    /// Adds another loop's results to this one.
    pub fn absorb(&mut self, o: LoopResult) {
        self.latencies_ms.extend(o.latencies_ms);
        self.late_ms.extend(o.late_ms);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.completed += o.completed;
        self.answers.extend(o.answers);
        self.span_s += o.span_s;
        self.calls.extend(o.calls);
    }

    /// Counts a call that took `lat`. Only a valid answer adds a latency
    /// and a completion, so a layer that fails fast cannot read as a
    /// faster one.
    fn record(&mut self, out: Outcome, lat: Duration) {
        self.attempted += 1;
        match out {
            Outcome::Failed => {
                self.failed += 1;
                return;
            }
            Outcome::Ok => {}
            Outcome::Sampled(a) => self.answers.push(a),
        }
        self.completed += 1;
        self.latencies_ms.push(lat.as_secs_f64() * 1e3);
    }
}

fn ns_since(t0: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(t0).as_nanos() as u64
}

/// `clients` threads each call `call(stream index)` back to back until
/// `duration` has passed. Indexes are handed out in order from `first`.
/// With `trace_t0` set every call is also recorded as a span.
pub fn closed_loop<F>(
    clients: usize,
    first: usize,
    duration: Duration,
    trace_t0: Option<Instant>,
    call: F,
) -> (LoopResult, usize)
where
    F: Fn(usize) -> Outcome + Sync,
{
    let next = AtomicUsize::new(first);
    let t0 = Instant::now();
    let deadline = t0 + duration;
    let mut total = LoopResult::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut r = LoopResult::default();
                    loop {
                        let start = Instant::now();
                        if start >= deadline {
                            break;
                        }
                        // ordering: Relaxed — a ticket counter; nothing
                        // else is published through it.
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let out = call(idx);
                        let end = Instant::now();
                        r.record(out, end - start);
                        if let Some(tt) = trace_t0 {
                            r.calls.push((idx, ns_since(tt, start), ns_since(tt, end)));
                        }
                    }
                    r
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("closed-loop client panicked"));
        }
    });
    total.span_s = t0.elapsed().as_secs_f64();
    (total, next.into_inner())
}

/// Evenly spaced arrivals at `rate` per second for `seconds`:
/// `(offset s, stream index)` pairs, indexes counting up from `first`.
/// Even spacing keeps the offered load the same in every run, so the
/// latency tail reflects the server rather than arrival bursts.
pub fn fixed_schedule(rate: f64, seconds: f64, first: usize) -> Vec<(f64, usize)> {
    let n = (rate * seconds).round() as usize;
    (0..n)
        .map(|i| ((i as f64 + 0.5) / rate, first + i))
        .collect()
}

/// Sends the `schedule` over `clients` (request `i` on client
/// `i % clients.len()`), each request when it falls due, or as soon as
/// its client's previous reply arrives if that is later. Latency runs
/// from the due time, so a stall counts against every request it
/// delays.
pub fn open_loop<C, F>(
    clients: &mut [C],
    schedule: &[(f64, usize)],
    trace_t0: Option<Instant>,
    call: F,
) -> LoopResult
where
    C: Send,
    F: Fn(&mut C, usize) -> Outcome + Sync,
{
    let n = clients.len();
    let t0 = Instant::now();
    let mut total = LoopResult::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(j, client)| {
                let call = &call;
                s.spawn(move || {
                    let mut r = LoopResult::default();
                    let mut free_at = t0;
                    for &(offset, idx) in schedule.iter().skip(j).step_by(n) {
                        let due = t0 + Duration::from_secs_f64(offset);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let ready = due.max(free_at);
                        r.late_ms
                            .push(sent.saturating_duration_since(ready).as_secs_f64() * 1e3);
                        let out = call(client, idx);
                        let end = Instant::now();
                        free_at = end;
                        r.record(out, end - due);
                        if let Some(tt) = trace_t0 {
                            r.calls.push((idx, ns_since(tt, sent), ns_since(tt, end)));
                        }
                    }
                    r
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("open-loop client panicked"));
        }
    });
    total.span_s = t0.elapsed().as_secs_f64();
    total
}
