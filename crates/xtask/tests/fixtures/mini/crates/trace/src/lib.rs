//! Fixture: the observability crate, home of the trace-key registry
//! and the trace schema version. Nothing here may fire.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The canonical trace-key registry.
pub mod keys;

/// Version stamp of the JSON trace document schema — matches the
/// `trace=` pin in tests/goldens/SCHEMA_VERSIONS, so the sync rule
/// stays quiet (the drifted fixture lives in the fault crate).
pub const SCHEMA_VERSION: u64 = 1;
