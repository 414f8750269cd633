//! Fixture: the fault-plan crate is determinism-scoped — every draw in
//! a seeded plan must come from the plan's own counters, never from
//! ambient machine state. This file seeds one wallclock and one
//! hash-iteration violation inside a fault-plan module; the manifest and
//! crate attributes are clean, so only those two findings may fire.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

// sgp-lint: allow-file(no-panic-in-lib): fixture — nothing in this file panics, so this file allow is unused MARK-unused-file-allow

/// FaultPlan document schema version — drifted one ahead of the
/// `fault-plan=` pin in tests/goldens/SCHEMA_VERSIONS, so the
/// schema-version-sync rule must fire here.
pub const FAULT_PLAN_SCHEMA_VERSION: u32 = 2; // MARK-schema-drift

/// A fault plan whose "random" crash times come from the wrong place.
pub fn ambient_crash_time() -> u64 {
    let _rng = rand::thread_rng(); // MARK-fault-rng
    0
}

/// Iterating a hash container makes fault-event order nondeterministic.
pub fn unordered_fault_events(machines: &[u32]) -> usize {
    let mut pending: std::collections::HashMap<u32, u64> = Default::default(); // MARK-fault-hash
    for &m in machines {
        pending.insert(m, 0);
    }
    pending.len()
}
