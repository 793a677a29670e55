//! Seeded: a bare atomic in a workspace member — reported.

use std::sync::atomic::{AtomicU64, Ordering};

pub static HITS: AtomicU64 = AtomicU64::new(0);

pub fn hit() {
    HITS.fetch_add(1, Ordering::Relaxed);
}
