//! Protocol models mirroring the engine's hand-rolled concurrent
//! structures, each with deliberately broken variants.
//!
//! Every model is a faithful *shape* of the production protocol — the
//! same reads, writes, guards and handshakes, at the granularity of one
//! shared-memory access per step — over plain fields. The
//! [`Explorer`](crate::Explorer) then enumerates every interleaving,
//! which is exactly the sequentially-consistent state space; the
//! production structure's mutex supplies the memory ordering, and the
//! ThreadSanitizer CI job checks it dynamically.
//!
//! | model | production structure | broken variant demonstrates |
//! |---|---|---|
//! | [`ReplyCell`] | engine's pooled one-shot reply cells | lost wakeup; recycled cell observed |

use crate::Model;

/// Which ReplyCell bug (if any) the model carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplyCellBug {
    None,
    /// The worker forgets to notify after setting `ready`.
    LostNotify,
    /// The pool recycles the cell before the waiter took the answer
    /// (the reset forgets `ready`, the realistic pooled-cell bug).
    EagerRecycle,
}

/// Pooled one-shot reply cell, the engine's blocking-submit handshake:
/// the worker locks, stores the answer, sets `ready`, wakes the waiter
/// and unlocks; the waiter sleeps under the lock until `ready`, takes
/// the answer and marks the cell `taken`; only a taken cell may be
/// recycled into the pool.
#[derive(Debug, Clone)]
pub struct ReplyCell {
    /// Which thread holds the mutex (`None` = free).
    lock: Option<usize>,
    ready: bool,
    value: u64,
    taken: bool,
    /// Waiter parked on the condvar.
    sleeping: bool,
    recycled: bool,
    observed: Option<u64>,
    wpc: usize,
    kpc: usize,
    bug: ReplyCellBug,
}

/// The answer the worker publishes.
const ANSWER: u64 = 42;

impl ReplyCell {
    /// The correct protocol.
    pub fn correct() -> ReplyCell {
        ReplyCell {
            lock: None,
            ready: false,
            value: 0,
            taken: false,
            sleeping: false,
            recycled: false,
            observed: None,
            wpc: 0,
            kpc: 0,
            bug: ReplyCellBug::None,
        }
    }

    /// The worker never notifies: a parked waiter sleeps forever, which
    /// the explorer reports as a deadlock.
    pub fn lost_notify() -> ReplyCell {
        ReplyCell {
            bug: ReplyCellBug::LostNotify,
            ..ReplyCell::correct()
        }
    }

    /// The cell is recycled before the waiter takes the answer; the
    /// waiter then observes the reset value through its stale handle.
    pub fn eager_recycle() -> ReplyCell {
        ReplyCell {
            bug: ReplyCellBug::EagerRecycle,
            ..ReplyCell::correct()
        }
    }
}

/// Lock-free steps before each thread touches the cell: the waiter
/// builds its request, the worker runs the kernel stages. These keep
/// the interleaving space honest — in the real engine most of both
/// threads' work happens outside the reply-cell lock.
const FREE_STEPS: usize = 5;

impl Model for ReplyCell {
    fn threads(&self) -> usize {
        2
    }

    fn finished(&self, tid: usize) -> bool {
        if tid == 0 {
            self.wpc >= FREE_STEPS + 6
        } else {
            self.kpc >= FREE_STEPS + 7
        }
    }

    fn enabled(&self, tid: usize) -> bool {
        if tid == 0 {
            match self.wpc.checked_sub(FREE_STEPS) {
                Some(0) => self.lock.is_none(),
                Some(4) => !self.sleeping,
                Some(pc) => pc < 6,
                None => true,
            }
        } else {
            match self.kpc.checked_sub(FREE_STEPS) {
                Some(0) => self.lock.is_none(),
                Some(5) => {
                    self.lock.is_none() && (self.taken || self.bug == ReplyCellBug::EagerRecycle)
                }
                Some(pc) => pc < 7,
                None => true,
            }
        }
    }

    fn step(&mut self, tid: usize) -> Result<(), String> {
        if tid == 0 {
            // Waiter: prep, lock, sleep-until-ready, take, unlock.
            match self.wpc.checked_sub(FREE_STEPS) {
                None => {} // build the request (local)
                Some(0) => self.lock = Some(0),
                Some(1) => {
                    if !self.ready {
                        self.sleeping = true;
                        self.lock = None;
                        self.wpc = FREE_STEPS + 4; // park
                        return Ok(());
                    }
                }
                Some(2) => {
                    let v = self.value;
                    self.observed = Some(v);
                    self.taken = true;
                    if v != ANSWER {
                        return Err(format!(
                            "waiter took {v} from a recycled/unanswered cell (expected {ANSWER})"
                        ));
                    }
                }
                Some(3) => {
                    self.lock = None;
                    self.wpc = FREE_STEPS + 6; // done
                    return Ok(());
                }
                Some(4) => {
                    // Woken: go back for the lock and re-check `ready`
                    // (the while-loop around the condvar wait).
                    self.wpc = FREE_STEPS;
                    return Ok(());
                }
                _ => unreachable!("waiter finished"),
            }
            self.wpc += 1;
        } else {
            // Worker: compute, lock, answer+notify, unlock, recycle.
            match self.kpc.checked_sub(FREE_STEPS) {
                None => {} // run the kernel stages (local)
                Some(0) => self.lock = Some(1),
                Some(1) => self.value = ANSWER,
                Some(2) => self.ready = true,
                Some(3) => {
                    if self.bug != ReplyCellBug::LostNotify {
                        self.sleeping = false; // notify
                    }
                }
                Some(4) => self.lock = None,
                Some(5) => self.lock = Some(1), // pool pulls the cell back
                Some(6) => {
                    // Reset for reuse. The realistic pool bug modelled by
                    // `eager_recycle` resets the value while `ready` is
                    // still observable.
                    self.value = 0;
                    self.recycled = true;
                    if self.bug != ReplyCellBug::EagerRecycle {
                        self.ready = false;
                    }
                    self.lock = None;
                }
                _ => unreachable!("worker finished"),
            }
            self.kpc += 1;
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        match self.observed {
            Some(ANSWER) => Ok(()),
            Some(v) => Err(format!("waiter finished with wrong answer {v}")),
            None => Err("waiter finished without an answer".to_string()),
        }
    }
}
