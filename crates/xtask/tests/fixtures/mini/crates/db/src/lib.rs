//! Fixture: the database-simulator crate. Its simulated-time and
//! message-accounting paths (src/sim.rs) must stay integral; this crate
//! root is clean, so only the seeded sim.rs findings may fire.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Simulated clock and queue accounting.
pub mod sim;
