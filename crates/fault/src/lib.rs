//! # sgp-fault
//!
//! Deterministic fault-injection plans shared by both execution
//! substrates of the reproduction (the `sgp-db` discrete-event cluster
//! simulator and the `sgp-engine` GAS superstep simulator).
//!
//! The paper measures both systems on a healthy cluster; this crate
//! supplies the failure model that turns the reproduction into a
//! robustness testbed (DESIGN.md §7). A [`FaultPlan`] is a seeded
//! description of four fault classes:
//!
//! * **machine crash** — permanent, or recovering after a delay;
//! * **straggler** — a per-machine service-rate multiplier over a
//!   simulated-time window;
//! * **message loss** — a per-message drop probability applied to
//!   cross-machine traffic, decided by a seeded hash of the message
//!   sequence number;
//! * **membership change** — scale-out, scale-in, and
//!   crash-then-rejoin events that change the live cluster and oblige a
//!   bounded-movement rebalance (DESIGN.md §11).
//!
//! Every random decision flows from [`FaultPlan::seed`] through a
//! counter-keyed [splitmix64](https://prng.di.unimi.it/splitmix64.c)
//! mix, so a run under a fixed plan is bit-for-bit reproducible — no
//! `thread_rng`, no wall-clock (`clippy.toml` disallows the host-clock
//! types and methods).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::dbg_macro
)]
#![warn(clippy::indexing_slicing)]

pub(crate) mod plan;
pub(crate) mod retry;
mod rng;

pub use plan::{FaultEvent, FaultPlan, FaultPlanConfig, MembershipKind, PlanError};
pub use retry::RetryPolicy;
