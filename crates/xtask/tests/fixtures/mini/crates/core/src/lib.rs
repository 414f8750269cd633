//! Fixture: atomic-ordering policy. Orderings must be spelled
//! `Ordering::X` at the call site, and anything stronger than Relaxed
//! needs a justified allow. This file seeds a bare-import use, an
//! unjustified SeqCst, and a stale allow; the justified Acquire and
//! the plain Relaxed uses must stay silent.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicU64, Ordering};

/// A shared hit counter.
pub struct Hits(pub AtomicU64);

/// Bare ordering at the call site — unreviewable without chasing the
/// import.
pub fn bump(h: &Hits) {
    h.0.fetch_add(1, Relaxed); // MARK-bare-ordering
}

/// An unjustified sequentially-consistent load.
pub fn read_strict(h: &Hits) -> u64 {
    h.0.load(Ordering::SeqCst) // MARK-seqcst
}

/// A justified strong ordering passes.
pub fn read_acquire(h: &Hits) -> u64 {
    // sgp-lint: allow(atomic-ordering-policy): pairs with the Release store in publish()
    h.0.load(Ordering::Acquire)
}

/// The blessed default needs no ceremony.
pub fn read(h: &Hits) -> u64 {
    h.0.load(Ordering::Relaxed)
}

/// A stale allow: the strong ordering it once justified was relaxed
/// away, so the directive must fire stale-allow.
pub fn publish(h: &Hits) {
    // sgp-lint: allow(atomic-ordering-policy): was Release before the refactor MARK-stale-ordering-allow
    h.0.store(0, Ordering::Relaxed);
}
