//! Fixture: the observability crate is determinism-scoped — trace
//! stamps must be simulated time or logical sequence numbers, never
//! wallclock, or identical seeds stop producing byte-identical dumps.
//! This file seeds exactly one wallclock violation; the manifest and
//! crate attributes are clean, so only that finding may fire.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The canonical trace-key registry.
pub mod keys;

/// Version stamp of the JSON trace document schema — matches the
/// `trace=` pin in tests/goldens/SCHEMA_VERSIONS, so the sync rule
/// stays quiet (the drifted fixture lives in the fault crate).
pub const SCHEMA_VERSION: u64 = 1;

/// A span stamp taken from the machine clock instead of the simulation.
pub fn wallclock_span_stamp() -> u64 {
    let t = std::time::Instant::now(); // MARK-trace-instant
    let _ = t;
    0
}
