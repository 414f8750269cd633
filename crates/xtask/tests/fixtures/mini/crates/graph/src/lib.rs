//! Fixture: the graph crate is thread-discipline-scoped — concurrency
//! belongs to the designated execution backend, not to ad-hoc locks
//! and threads scattered through the loaders. This file seeds exactly
//! two violations (a lock type and a spawn call); the mere *words*
//! `channel` and `bounded` outside call position must stay silent.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Builds a degree snapshot behind a lock — but lock types may not even
/// be named outside the execution backend.
pub fn locked_snapshot() -> u32 {
    let m = std::sync::Mutex::new(7u32); // MARK-thread-mutex
    let v = *m.lock().unwrap_or_else(|e| e.into_inner());
    v
}

/// Spawns a background counter — same problem, call-position form.
pub fn background_count() {
    std::thread::spawn(|| {}); // MARK-thread-spawn
}

/// Negative: `channel` as a plain local and `bounded` in prose are not
/// constructor calls, so neither may fire. Retries are bounded by the
/// stream length.
pub fn channel_width() -> u32 {
    let channel = 3;
    channel
}
