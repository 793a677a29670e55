//! Protocol models mirroring the engine's hand-rolled concurrent
//! structures, each with a deliberately broken variant.
//!
//! Every model is a faithful *shape* of the production protocol — the
//! same reads, writes, guards and handshakes, at the granularity of one
//! shared-memory access per step — over plain fields instead of
//! atomics. The [`Explorer`](crate::Explorer) then enumerates every
//! interleaving, which is exactly the sequentially-consistent state
//! space; the weak-memory half of the argument (which fence pairs with
//! which access) is carried by the `// ordering:` comments that
//! `scs analyze` enforces in the production files, and dynamically by
//! the ThreadSanitizer CI job.
//!
//! | model | production structure | broken variant demonstrates |
//! |---|---|---|
//! | [`Seqlock`] | `telemetry::SlowRing` slots | torn read accepted |
//! | [`ReplyCell`] | engine's pooled one-shot reply cells | lost wakeup; recycled cell observed |

use crate::Model;

/// The value every writer publishes; readers must see all-or-nothing.
const VAL: u64 = 1;
/// Words in the modelled seqlock payload.
const WORDS: usize = 4;

/// Seqlock writer vs. reader, the protocol of the telemetry slow-query
/// ring: the writer makes the sequence odd, writes [`WORDS`] payload
/// words, then makes it even; the reader snapshots the sequence, reads
/// the payload, and accepts only if the sequence was even and unchanged.
///
/// The broken variant writes the first payload word *before* making the
/// sequence odd — the model-level analogue of the missing release fence
/// the PR 8 ordering audit found in `SlowRing::offer` (data stores
/// allowed to become visible before the odd sequence).
#[derive(Debug, Clone)]
pub struct Seqlock {
    seq: u64,
    data: [u64; WORDS],
    wpc: usize,
    rpc: usize,
    rseq: u64,
    rdata: [u64; WORDS],
    retries: u32,
    accepted: Option<[u64; WORDS]>,
    gave_up: bool,
    write_before_odd: bool,
}

impl Seqlock {
    /// Retries the reader attempts before giving up (keeps every
    /// schedule bounded).
    const MAX_RETRIES: u32 = 2;

    /// The correct protocol: passes under every interleaving.
    pub fn correct() -> Seqlock {
        Seqlock {
            seq: 0,
            data: [0; WORDS],
            wpc: 0,
            rpc: 0,
            rseq: 0,
            rdata: [0; WORDS],
            retries: 0,
            accepted: None,
            gave_up: false,
            write_before_odd: false,
        }
    }

    /// The broken writer: first payload word lands before the sequence
    /// goes odd, so a reader can accept a torn snapshot.
    pub fn buggy() -> Seqlock {
        Seqlock {
            write_before_odd: true,
            ..Seqlock::correct()
        }
    }
}

impl Model for Seqlock {
    fn threads(&self) -> usize {
        2
    }

    fn finished(&self, tid: usize) -> bool {
        if tid == 0 {
            self.wpc >= 6
        } else {
            self.rpc >= 6
        }
    }

    fn step(&mut self, tid: usize) -> Result<(), String> {
        if tid == 0 {
            // Writer: 6 steps.
            match (self.wpc, self.write_before_odd) {
                (0, false) => self.seq += 1,
                (0, true) => self.data[0] = VAL, // bug: unannounced write
                (1, false) => self.data[0] = VAL,
                (1, true) => self.seq += 1,
                (i @ 2..=4, _) => self.data[i - 1] = VAL,
                (5, _) => self.seq += 1,
                _ => unreachable!("writer finished"),
            }
            self.wpc += 1;
        } else {
            // Reader: 6 steps per attempt, bounded retries.
            match self.rpc {
                0 => self.rseq = self.seq,
                i @ 1..=4 => self.rdata[i - 1] = self.data[i - 1],
                5 => {
                    if self.rseq.is_multiple_of(2) && self.seq == self.rseq {
                        let snap = self.rdata;
                        self.accepted = Some(snap);
                        if snap != [0; WORDS] && snap != [VAL; WORDS] {
                            return Err(format!("torn seqlock read accepted: {snap:?}"));
                        }
                    } else if self.retries < Self::MAX_RETRIES {
                        self.retries += 1;
                        self.rpc = 0;
                        return Ok(());
                    } else {
                        self.gave_up = true;
                    }
                }
                _ => unreachable!("reader finished"),
            }
            self.rpc += 1;
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        match self.accepted {
            Some(snap) if snap != [0; WORDS] && snap != [VAL; WORDS] => {
                Err(format!("torn seqlock read accepted: {snap:?}"))
            }
            None if !self.gave_up => Err("reader neither accepted nor gave up".to_string()),
            _ => Ok(()),
        }
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seqlock_retry_loop_is_bounded() {
        let mut m = Seqlock::correct();
        // Writer stops mid-write (seq odd), reader must give up.
        m.step(0).unwrap(); // seq -> 1
        for _ in 0..64 {
            if m.finished(1) {
                break;
            }
            m.step(1).unwrap();
        }
        assert!(m.finished(1));
        assert!(m.check_final().is_ok());
    }
}
