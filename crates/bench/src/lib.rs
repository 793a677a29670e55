//! Shared harness for the experiment reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's Section V on the synthetic dataset analogues (see
//! `datasets::catalog`, and the README's "Experiments" section for how
//! the runs are controlled). This library provides the
//! common plumbing: dataset loading with a global scale knob, timing
//! helpers, and fixed-width table printing.
//!
//! Environment knobs:
//! * `SCS_SCALE` — multiply every dataset's size (default 1.0; the test
//!   suite and CI use small values);
//! * `SCS_SEED` — generator seed (default 42);
//! * `SCS_QUERIES` — queries per measurement (default 100, as in the
//!   paper).

// No unsafe in this crate — and none may creep in.
#![forbid(unsafe_code)]

use bigraph::{BipartiteGraph, Vertex};
use datasets::DatasetSpec;
use std::time::{Duration, Instant};

/// Global experiment configuration, read from the environment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Dataset scale factor in (0, 1].
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Number of queries averaged per measurement.
    pub n_queries: usize,
}

impl Config {
    /// Reads `SCS_SCALE` / `SCS_SEED` / `SCS_QUERIES` with defaults.
    /// Malformed values terminate the process with a message instead of
    /// silently benchmarking the default (see [`env_or`]).
    pub fn from_env() -> Config {
        let cfg = Config {
            scale: env_or("SCS_SCALE", 1.0),
            seed: env_or("SCS_SEED", 42),
            n_queries: env_usize("SCS_QUERIES", 100, 1),
        };
        // NaN-safe: anything but a positive finite scale is rejected.
        if !cfg.scale.is_finite() || cfg.scale <= 0.0 {
            eprintln!("error: SCS_SCALE={} must be positive", cfg.scale);
            std::process::exit(2);
        }
        cfg
    }
}

/// Parses env var `key` as a `T`: `Ok(None)` when unset, `Err` with a
/// user-facing message when set but unparsable. The testable core of
/// [`env_or`].
pub fn env_parse<T: std::str::FromStr>(key: &str) -> Result<Option<T>, String> {
    match std::env::var(key) {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => Err(format!("{key} is not valid unicode")),
        Ok(raw) => raw.parse().map(Some).map_err(|_| {
            format!(
                "malformed {key}={raw:?} (expected {})",
                std::any::type_name::<T>()
            )
        }),
    }
}

/// [`env_parse`] with a default, terminating the process (status 2) on
/// a malformed value instead of silently falling back — a typo'd
/// `SCS_QUERIES=10 0` must not quietly benchmark the default. Shared by
/// every bench binary; an earlier per-binary helper swallowed the
/// parse error.
pub fn env_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    match env_parse(key) {
        Ok(Some(v)) => v,
        Ok(None) => default,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

/// [`env_or`] for `usize` knobs with a lower bound, rejecting (loudly)
/// values below `min` instead of clamping them.
pub fn env_usize(key: &str, default: usize, min: usize) -> usize {
    let v = env_or(key, default);
    if v < min {
        eprintln!("error: {key}={v} is below the minimum of {min}");
        std::process::exit(2);
    }
    v
}

/// Builds one dataset analogue under the configured scale.
pub fn load_dataset(cfg: &Config, name: &str) -> BipartiteGraph {
    let spec = DatasetSpec::by_name(name).unwrap_or_else(|| panic!("unknown dataset {name}"));
    let spec = if cfg.scale < 1.0 {
        spec.scaled(cfg.scale)
    } else {
        spec
    };
    spec.build(cfg.seed)
}

/// All dataset tags in Table I order.
pub fn dataset_names() -> Vec<&'static str> {
    DatasetSpec::catalog().iter().map(|s| s.name).collect()
}

/// Times one closure invocation.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Mean and sample standard deviation of per-query durations, in
/// seconds.
pub fn mean_std(durations: &[Duration]) -> (f64, f64) {
    if durations.is_empty() {
        return (0.0, 0.0);
    }
    let xs: Vec<f64> = durations.iter().map(Duration::as_secs_f64).collect();
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
    (mean, var.sqrt())
}

/// Runs `f` once per query vertex and returns per-query durations.
pub fn time_queries<F: FnMut(Vertex)>(queries: &[Vertex], mut f: F) -> Vec<Duration> {
    queries
        .iter()
        .map(|&q| {
            let start = Instant::now();
            f(q);
            start.elapsed()
        })
        .collect()
}

/// Formats seconds for table cells: scientific-ish, like the paper's
/// log-scale plots.
pub fn fmt_secs(s: f64) -> String {
    if s == 0.0 {
        "0".into()
    } else if s < 1e-4 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 0.1 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.3}s")
    }
}

/// Formats a byte count as MB with two decimals.
pub fn fmt_mb(bytes: usize) -> String {
    format!("{:.2}MB", bytes as f64 / (1024.0 * 1024.0))
}

/// Prints a fixed-width table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

/// Prints a header row followed by a separator.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
}

/// The `α = β = 0.7·δ` rule the paper uses for the all-datasets
/// experiments (Figs. 8 and 12), with a floor of 2.
pub fn default_params(delta: usize) -> usize {
    ((delta as f64 * 0.7).round() as usize).max(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults() {
        let cfg = Config::from_env();
        assert!(cfg.scale > 0.0);
        assert!(cfg.n_queries > 0);
    }

    #[test]
    fn env_parse_distinguishes_unset_from_malformed() {
        // Keys namespaced to this test: the suite runs multi-threaded
        // in one process and must not race the SCS_* knobs.
        std::env::remove_var("SCS_TEST_UNSET");
        assert_eq!(env_parse::<usize>("SCS_TEST_UNSET"), Ok(None));
        std::env::set_var("SCS_TEST_GOOD", "64");
        assert_eq!(env_parse::<usize>("SCS_TEST_GOOD"), Ok(Some(64)));
        std::env::set_var("SCS_TEST_BAD", "6 4");
        let err = env_parse::<usize>("SCS_TEST_BAD").unwrap_err();
        assert!(err.contains("SCS_TEST_BAD"), "{err}");
        assert!(err.contains("6 4"), "{err}");
        // The silent-fallback bug: the old helper mapped this Err to
        // the default; env_or instead exits the process, which is not
        // testable here — the distinction above is the load-bearing
        // part.
        std::env::set_var("SCS_TEST_FLOAT", "0.25");
        assert_eq!(env_parse::<f64>("SCS_TEST_FLOAT"), Ok(Some(0.25)));
        assert!(env_parse::<usize>("SCS_TEST_FLOAT").is_err());
        for k in ["SCS_TEST_GOOD", "SCS_TEST_BAD", "SCS_TEST_FLOAT"] {
            std::env::remove_var(k);
        }
    }

    #[test]
    fn stats_helpers() {
        let ds = vec![
            Duration::from_millis(10),
            Duration::from_millis(20),
            Duration::from_millis(30),
        ];
        let (mean, std) = mean_std(&ds);
        assert!((mean - 0.02).abs() < 1e-9);
        assert!((std - 0.01).abs() < 1e-9);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_secs(0.0), "0");
        assert!(fmt_secs(5e-6).ends_with("µs"));
        assert!(fmt_secs(5e-3).ends_with("ms"));
        assert!(fmt_secs(1.5).ends_with('s'));
        assert_eq!(fmt_mb(1024 * 1024), "1.00MB");
    }

    #[test]
    fn dataset_loading_scaled() {
        let cfg = Config {
            scale: 0.05,
            seed: 1,
            n_queries: 5,
        };
        let g = load_dataset(&cfg, "BS");
        assert!(g.n_edges() > 0);
        assert_eq!(dataset_names().len(), 11);
    }

    #[test]
    fn default_params_floor() {
        assert_eq!(default_params(0), 2);
        assert_eq!(default_params(10), 7);
    }
}
