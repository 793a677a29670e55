//! Checks of the harness's own arithmetic, run before every benchmark
//! run (a failure refuses the report) and under `cargo test`.

use crate::loadgen::{open_loop, Outcome};
use crate::stats::{tail_percentile, Latency};
use crate::trace::{by_name, self_times_us, Tracer};
use std::time::Duration;

fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("harness self-test failed: {what}"))
    }
}

/// The tail rule reports the highest percentile with at least ten
/// samples beyond it, never above the requested cap.
pub fn quantile_rule() -> Result<(), String> {
    ensure(
        tail_percentile(1000, 99.0) == Some(99.0),
        "1000 samples support p99",
    )?;
    ensure(
        tail_percentile(999, 99.0) == Some(98.0),
        "999 samples fall back to p98",
    )?;
    ensure(
        tail_percentile(100_000, 99.0) == Some(99.0),
        "the cap holds",
    )?;
    ensure(
        tail_percentile(100_000, 99.9) == Some(99.9),
        "p99.9 with 100 beyond",
    )?;
    ensure(
        tail_percentile(20, 99.0) == Some(50.0),
        "20 samples support only p50",
    )?;
    ensure(
        tail_percentile(19, 99.0).is_none(),
        "19 samples support no tail",
    )?;
    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    let l = Latency::summarise(&samples, 99.0).ok_or("1000 samples summarise")?;
    let beyond = samples.iter().filter(|&&x| x > l.tail).count();
    ensure(
        l.n == 1000 && l.tail_p == 99.0,
        "summary keeps count and percentile",
    )?;
    ensure(beyond >= 10, "at least ten samples lie beyond the tail")?;
    ensure((l.p50 - 500.5).abs() < 1e-9, "median of 1..=1000")
}

/// Latency is measured from the due time: a 60 ms stall on the first
/// request is charged to the request queued behind it on the same
/// client, although that one is served instantly, and is not counted
/// as generator lateness.
pub fn latency_from_due() -> Result<(), String> {
    let schedule = [(0.0, 0), (0.010, 1), (0.100, 2)];
    let r = open_loop(&mut [()], &schedule, None, |_, idx| {
        if idx == 0 {
            std::thread::sleep(Duration::from_millis(60));
        }
        Outcome::Ok
    });
    let lat = &r.latencies_ms;
    ensure(lat.len() == 3, "every scheduled request ran")?;
    ensure(lat[0] >= 60.0, "the stalled request")?;
    ensure(
        lat[1] >= 49.0,
        "the request behind the stall is charged from its due time",
    )?;
    ensure(
        lat[2] < 40.0,
        "a request due after the stall is not charged",
    )?;
    ensure(
        r.late_ms.iter().all(|&l| l < 30.0),
        "waiting for a busy connection is not generator lateness",
    )
}

/// A failed call is counted against the attempts but adds neither a
/// latency nor a completion, so failing fast cannot read as a speed-up.
pub fn failures_untimed() -> Result<(), String> {
    let schedule = [(0.0, 0), (0.001, 1), (0.002, 2)];
    let r = open_loop(&mut [()], &schedule, None, |_, idx| {
        if idx == 1 {
            Outcome::Failed
        } else {
            Outcome::Ok
        }
    });
    ensure(
        r.attempted == 3 && r.failed == 1,
        "a failure counts as attempted and failed",
    )?;
    ensure(
        r.latencies_ms.len() == 2 && r.completed == 2,
        "a failure adds no latency and no completion",
    )
}

/// Self time subtracts the replayed child layer on the same request,
/// and a cache hit (no kernel child) keeps its whole time.
pub fn layer_subtraction() -> Result<(), String> {
    let mut tr = Tracer::default();
    let http0 = tr.push("http", 0, None, 0, 10_000);
    let engine0 = tr.push("engine", 0, Some(http0), 20_000, 27_000);
    tr.push("kernel", 0, Some(engine0), 30_000, 35_000);
    let http1 = tr.push("http", 1, None, 40_000, 48_000);
    tr.push("engine", 1, Some(http1), 50_000, 52_000);
    let own = self_times_us(tr.spans());
    ensure(own == [3.0, 2.0, 5.0, 6.0, 2.0], "per-span self times")?;
    let names = by_name(tr.spans());
    ensure(
        names["http"] == (2, 9.0, 4.5),
        "http mean duration and self time",
    )?;
    ensure(
        names["engine"] == (2, 4.5, 2.0),
        "engine mean duration and self time",
    )?;
    ensure(names["kernel"] == (1, 5.0, 5.0), "kernel has no child")
}

/// All self-tests.
pub fn run() -> Result<(), String> {
    quantile_rule()?;
    latency_from_due()?;
    failures_untimed()?;
    layer_subtraction()
}

#[cfg(test)]
mod tests {
    #[test]
    fn quantile_rule() {
        super::quantile_rule().unwrap();
    }

    #[test]
    fn latency_from_due() {
        super::latency_from_due().unwrap();
    }

    #[test]
    fn failures_untimed() {
        super::failures_untimed().unwrap();
    }

    #[test]
    fn layer_subtraction() {
        super::layer_subtraction().unwrap();
    }
}
