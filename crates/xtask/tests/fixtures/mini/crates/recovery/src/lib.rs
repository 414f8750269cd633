//! Fixture: the elastic recovery path is determinism-scoped — RTO and
//! migration accounting must come from simulated time and seeded draws,
//! never from the host. This crate reuses the `sgp-db` package name (the
//! layer the real recovery path lives in) and seeds one wallclock and
//! one hash-iteration violation inside a membership-rejoin handler; the
//! manifest and crate attributes are clean, so only those two findings
//! may fire.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Measuring recovery time with the host clock instead of the DES
/// clock makes the reported RTO depend on the machine running the sim.
pub fn rejoin_rto_ms() -> u128 {
    let started = std::time::Instant::now(); // MARK-recovery-instant
    started.elapsed().as_millis()
}

/// Iterating a hash container makes the migration target order — and
/// therefore the data-moved accounting — nondeterministic.
pub fn migration_targets(live: &[u32]) -> Vec<u32> {
    let mut up: std::collections::HashSet<u32> = Default::default(); // MARK-recovery-hash
    for &m in live {
        up.insert(m);
    }
    up.into_iter().collect()
}
