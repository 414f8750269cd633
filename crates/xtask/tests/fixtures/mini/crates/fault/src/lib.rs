//! Fixture: the fault-plan crate's schema constant drifted one ahead
//! of its pin; nothing else in the crate may fire.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// FaultPlan document schema version — drifted one ahead of the
/// `fault-plan=` pin in tests/goldens/SCHEMA_VERSIONS, so the
/// schema-version-sync rule must fire here.
pub const FAULT_PLAN_SCHEMA_VERSION: u32 = 2; // MARK-schema-drift
