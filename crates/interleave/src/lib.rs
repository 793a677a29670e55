//! # scs-interleave — a bounded interleaving checker for the engine's protocols
//!
//! The serving stack hand-rolls one concurrent protocol: the engine's
//! pooled one-shot reply cells, a mutex-and-condvar handshake whose
//! cells are recycled through a pool. Stress tests sample a few
//! schedules per run; this crate checks *every*
//! schedule of a bounded model, in the spirit of
//! [loom](https://docs.rs/loom) — but vendored and std-only, like the
//! workspace's `rand` stand-in, because the build is offline.
//!
//! ## How it works
//!
//! A protocol is modelled as a [`Model`]: a cloneable state machine
//! holding the shared state plus one program counter per thread. The
//! [`Explorer`] runs a depth-first search over scheduler choices: at
//! every step it clones the state once per enabled thread and recurses,
//! so each root-to-leaf path is one complete interleaving. Invariants
//! are checked two ways:
//!
//! * [`Model::step`] returns `Err` the moment a thread observes an
//!   impossible state (a waiter reading a recycled reply cell);
//! * the explorer itself reports **deadlock** (no thread enabled but not
//!   all finished — the shape of a lost wakeup) and **depth exhaustion**
//!   (a schedule longer than the bound — the shape of a livelock).
//!
//! The enumeration is exhaustive within the bound: two free-running
//! 6-step threads yield all `C(12,6) = 924` schedules, which is what the
//! protocol tests assert ([`Report::schedules`]). Models are exact-state
//! deterministic, so a reported [`Violation`] carries the exact thread
//! schedule that reproduces it.
//!
//! The protocol model mirroring the engine's reply cells lives in
//! [`models`], alongside deliberately broken variants proving the
//! checker actually distinguishes a correct protocol from subtly wrong
//! ones.

#![forbid(unsafe_code)]

pub mod models;

use std::fmt;

/// A bounded protocol model: shared state plus one deterministic state
/// machine per thread. Cloning must snapshot the *entire* state — the
/// explorer forks the model at every scheduling choice.
pub trait Model: Clone {
    /// Number of threads (fixed for the model's lifetime).
    fn threads(&self) -> usize;

    /// `true` once thread `tid` has run to completion.
    fn finished(&self, tid: usize) -> bool;

    /// `true` if thread `tid` can take a step now. A blocked thread
    /// (waiting on a lock or a condition) returns `false`; the explorer
    /// reports a deadlock if no unfinished thread is enabled.
    fn enabled(&self, tid: usize) -> bool {
        !self.finished(tid)
    }

    /// Advances thread `tid` by one atomic step. `Err` reports an
    /// invariant violation observed *during* the step (e.g. a torn
    /// read); the explorer attaches the schedule that led here.
    fn step(&mut self, tid: usize) -> Result<(), String>;

    /// Invariants of a completed run, checked once per schedule when
    /// every thread has finished.
    fn check_final(&self) -> Result<(), String>;
}

/// Exhaustive-enumeration statistics for a passing exploration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Report {
    /// Complete schedules (root-to-leaf interleavings) enumerated.
    pub schedules: u64,
    /// Total steps executed across all schedules (tree edges).
    pub steps: u64,
    /// Length of the longest schedule.
    pub longest: usize,
}

/// A schedule that broke the model: the exact thread ids to replay, in
/// order, plus what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Thread ids in execution order, ending at the failing step.
    pub schedule: Vec<usize>,
    /// What the model (or the explorer) observed.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (schedule: {:?})", self.message, self.schedule)
    }
}

impl std::error::Error for Violation {}

/// Depth-first exhaustive scheduler. The depth bound caps a *single*
/// schedule's length (models bound their own retry loops; hitting the
/// bound is reported as a livelock rather than silently truncated).
#[derive(Debug, Clone, Copy)]
pub struct Explorer {
    /// Maximum steps in one schedule before it is declared a livelock.
    pub max_steps: usize,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer { max_steps: 64 }
    }
}

impl Explorer {
    /// An explorer whose schedules may be at most `max_steps` long.
    pub fn with_depth(max_steps: usize) -> Explorer {
        Explorer { max_steps }
    }

    /// Enumerates every schedule of `model`. Returns the enumeration
    /// statistics, or the first [`Violation`] found (deterministic: the
    /// DFS visits lower thread ids first).
    pub fn explore<M: Model>(&self, model: &M) -> Result<Report, Violation> {
        let mut report = Report::default();
        let mut trace = Vec::with_capacity(self.max_steps);
        self.dfs(model, &mut trace, &mut report)?;
        Ok(report)
    }

    fn dfs<M: Model>(
        &self,
        model: &M,
        trace: &mut Vec<usize>,
        report: &mut Report,
    ) -> Result<(), Violation> {
        let n = model.threads();
        if (0..n).all(|t| model.finished(t)) {
            report.schedules += 1;
            report.longest = report.longest.max(trace.len());
            return model.check_final().map_err(|message| Violation {
                schedule: trace.clone(),
                message,
            });
        }
        if trace.len() >= self.max_steps {
            return Err(Violation {
                schedule: trace.clone(),
                message: format!(
                    "schedule exceeded {} steps: livelock or unbounded retry loop",
                    self.max_steps
                ),
            });
        }
        let mut any_enabled = false;
        for tid in 0..n {
            if model.finished(tid) || !model.enabled(tid) {
                continue;
            }
            any_enabled = true;
            let mut fork = model.clone();
            trace.push(tid);
            report.steps += 1;
            fork.step(tid).map_err(|message| Violation {
                schedule: trace.clone(),
                message,
            })?;
            self.dfs(&fork, trace, report)?;
            trace.pop();
        }
        if !any_enabled {
            return Err(Violation {
                schedule: trace.clone(),
                message: "deadlock: unfinished threads but none enabled (lost wakeup?)".to_string(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two free-running threads that each just count `steps` times.
    #[derive(Clone)]
    struct Independent {
        pc: [usize; 2],
        steps: usize,
    }

    impl Model for Independent {
        fn threads(&self) -> usize {
            2
        }
        fn finished(&self, tid: usize) -> bool {
            self.pc[tid] >= self.steps
        }
        fn step(&mut self, tid: usize) -> Result<(), String> {
            self.pc[tid] += 1;
            Ok(())
        }
        fn check_final(&self) -> Result<(), String> {
            Ok(())
        }
    }

    /// Both threads block immediately: the explorer must call it out.
    #[derive(Clone)]
    struct Stuck {
        done: bool,
    }

    impl Model for Stuck {
        fn threads(&self) -> usize {
            2
        }
        fn finished(&self, _tid: usize) -> bool {
            self.done
        }
        fn enabled(&self, _tid: usize) -> bool {
            false
        }
        fn step(&mut self, _tid: usize) -> Result<(), String> {
            unreachable!("never enabled")
        }
        fn check_final(&self) -> Result<(), String> {
            Ok(())
        }
    }

    fn binomial(n: u64, k: u64) -> u64 {
        (1..=k).fold(1, |acc, i| acc * (n - k + i) / i)
    }

    #[test]
    fn enumerates_all_interleavings_of_independent_threads() {
        for steps in 1..=6 {
            let r = Explorer::default()
                .explore(&Independent { pc: [0, 0], steps })
                .unwrap();
            let expect = binomial(2 * steps as u64, steps as u64);
            assert_eq!(r.schedules, expect, "steps={steps}");
            assert_eq!(r.longest, 2 * steps);
        }
        // The headline bound: 2 threads × 6 steps = C(12,6) = 924.
        assert_eq!(binomial(12, 6), 924);
    }

    #[test]
    fn deadlock_is_reported_with_its_schedule() {
        let err = Explorer::default()
            .explore(&Stuck { done: false })
            .unwrap_err();
        assert!(err.message.contains("deadlock"), "{err}");
        assert!(err.schedule.is_empty());
    }

    #[test]
    fn depth_bound_reports_livelock() {
        /// A thread that never finishes.
        #[derive(Clone)]
        struct Spinner;
        impl Model for Spinner {
            fn threads(&self) -> usize {
                1
            }
            fn finished(&self, _tid: usize) -> bool {
                false
            }
            fn step(&mut self, _tid: usize) -> Result<(), String> {
                Ok(())
            }
            fn check_final(&self) -> Result<(), String> {
                Ok(())
            }
        }
        let err = Explorer::with_depth(8).explore(&Spinner).unwrap_err();
        assert!(err.message.contains("livelock"), "{err}");
        assert_eq!(err.schedule.len(), 8);
    }

    #[test]
    fn step_violations_carry_the_failing_schedule() {
        /// Thread 1 trips an invariant on its second step.
        #[derive(Clone)]
        struct Tripwire {
            pc: [usize; 2],
        }
        impl Model for Tripwire {
            fn threads(&self) -> usize {
                2
            }
            fn finished(&self, tid: usize) -> bool {
                self.pc[tid] >= 2
            }
            fn step(&mut self, tid: usize) -> Result<(), String> {
                self.pc[tid] += 1;
                if tid == 1 && self.pc[1] == 2 {
                    return Err("boom".to_string());
                }
                Ok(())
            }
            fn check_final(&self) -> Result<(), String> {
                Ok(())
            }
        }
        let err = Explorer::default()
            .explore(&Tripwire { pc: [0, 0] })
            .unwrap_err();
        assert_eq!(err.message, "boom");
        assert_eq!(err.schedule.iter().filter(|&&t| t == 1).count(), 2);
    }
}
