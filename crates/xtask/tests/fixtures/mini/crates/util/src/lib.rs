//! Fixture: a crate *outside* the determinism scopes. Hash containers,
//! wall-clock and unwrap are all allowed here; only the attribute and
//! manifest policies apply (and this crate satisfies both).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

/// Out-of-scope crates may use hash containers and wall-clock freely.
pub fn hash_and_clock() -> u64 {
    let mut m = HashMap::new();
    m.insert(1u32, std::time::Instant::now());
    m.len() as u64
}

/// Out-of-scope crates may unwrap.
pub fn may_unwrap(v: Option<u32>) -> u32 {
    v.unwrap()
}
