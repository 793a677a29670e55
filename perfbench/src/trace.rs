//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions. Nothing inside the program is instrumented:
//! a layer's self time comes from replaying the same requests one layer
//! at a time and subtracting the child layer's time on the same request.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in its [`Tracer`].
    pub id: usize,
    /// The span this call stands below (the same request one layer up).
    pub parent: Option<usize>,
    /// Layer function name, e.g. `engine.query`.
    pub name: &'static str,
    /// Request id: the request's position in the workload stream.
    pub req: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// Span store: spans stay in memory until [`Tracer::write_jsonl`].
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.t0
    }

    /// Times `f` as a span and returns its result with the span id.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = self.t0.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.t0.elapsed().as_nanos() as u64;
        (out, self.push(name, req, parent, start, end))
    }

    /// Records an already-measured span.
    pub fn push(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name,
            req,
            start_ns,
            end_ns,
        });
        id
    }

    /// Re-parents span `child` under `parent`.
    pub fn set_parent(&mut self, child: usize, parent: usize) {
        self.spans[child].parent = Some(parent);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of every span, µs: its duration minus the durations of
/// its children. Replayed children ran outside the parent's interval,
/// so durations are subtracted, not interval overlaps.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::dur_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_us();
        }
    }
    own
}

/// Per span name: (count, mean duration µs, mean self time µs).
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let own = self_times_us(spans);
    let mut acc: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (s, self_us) in spans.iter().zip(own) {
        let e = acc.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_us();
        e.2 += self_us;
    }
    for e in acc.values_mut() {
        e.1 /= e.0 as f64;
        e.2 /= e.0 as f64;
    }
    acc
}
