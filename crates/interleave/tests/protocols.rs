//! Exhaustive bounded-interleaving checks of the engine's protocol
//! models — and proof the checker can tell correct protocols from
//! subtly broken ones.
//!
//! The schedule-count assertions pin the exhaustiveness bound: two
//! free-running 6-step threads admit `C(12,6) = 924` interleavings, and
//! the reply-cell exploration must enumerate at least that many
//! complete schedules.

use scs_interleave::models::ReplyCell;
use scs_interleave::Explorer;

/// All interleavings of two free-running 6-step threads.
const TWO_BY_SIX: u64 = 924;

#[test]
fn reply_cell_correct_passes_every_interleaving() {
    let report = Explorer::default()
        .explore(&ReplyCell::correct())
        .expect("correct reply cell loses no wakeups and recycles only taken cells");
    assert!(
        report.schedules >= TWO_BY_SIX,
        "enumerated only {} schedules (need >= {TWO_BY_SIX})",
        report.schedules
    );
}

#[test]
fn reply_cell_lost_notify_deadlocks() {
    let err = Explorer::default()
        .explore(&ReplyCell::lost_notify())
        .expect_err("a forgotten notify must strand the parked waiter");
    assert!(err.message.contains("deadlock"), "{err}");
    // The failing schedule parks the waiter, then runs the worker dry.
    assert!(err.schedule.contains(&0) && err.schedule.contains(&1));
}

#[test]
fn reply_cell_eager_recycle_is_caught() {
    let err = Explorer::default()
        .explore(&ReplyCell::eager_recycle())
        .expect_err("recycling an untaken cell must be observable");
    assert!(
        err.message.contains("recycled") || err.message.contains("deadlock"),
        "{err}"
    );
}

#[test]
fn violation_schedules_replay_deterministically() {
    // Replaying the reported schedule step-by-step reproduces the exact
    // violation — the property that makes checker reports actionable.
    let err = Explorer::default()
        .explore(&ReplyCell::eager_recycle())
        .unwrap_err();
    assert!(err.message.contains("recycled"), "{err}");
    let mut replay = ReplyCell::eager_recycle();
    let mut failed = None;
    for &tid in &err.schedule {
        if let Err(msg) = scs_interleave::Model::step(&mut replay, tid) {
            failed = Some(msg);
            break;
        }
    }
    assert_eq!(failed.as_deref(), Some(err.message.as_str()));
}
