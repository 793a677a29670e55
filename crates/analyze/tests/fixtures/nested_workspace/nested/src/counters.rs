//! Seeded: the same bare atomic in a nested workspace — skipped.

use std::sync::atomic::{AtomicU64, Ordering};

pub static HITS: AtomicU64 = AtomicU64::new(0);

pub fn hit() {
    HITS.fetch_add(1, Ordering::Relaxed);
}
