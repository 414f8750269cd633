//! # sgp-fault
//!
//! Deterministic fault-injection plans shared by both execution
//! substrates of the reproduction (the `sgp-db` discrete-event cluster
//! simulator and the `sgp-engine` GAS superstep simulator).
//!
//! The paper measures both systems on a healthy cluster; this crate
//! supplies the failure model that turns the reproduction into a
//! robustness testbed (DESIGN.md §7). A [`FaultPlan`] is a seeded,
//! schema-versioned description of three fault classes:
//!
//! * **machine crash** — permanent, or recovering after a delay;
//! * **straggler** — a per-machine service-rate multiplier over a
//!   simulated-time window;
//! * **message loss** — a per-message drop probability applied to
//!   cross-machine traffic, decided by a seeded hash of the message
//!   sequence number;
//! * **membership change** (schema v2) — scale-out, scale-in, and
//!   crash-then-rejoin events that change the live cluster and oblige a
//!   bounded-movement rebalance (DESIGN.md §11).
//!
//! Every random decision flows from [`FaultPlan::seed`] through a
//! counter-keyed [splitmix64](https://prng.di.unimi.it/splitmix64.c)
//! mix, so a run under a fixed plan is bit-for-bit reproducible — no
//! `thread_rng`, no wall-clock (enforced by `sgp-xtask lint`'s
//! `no-wallclock-in-sim` rule, which scopes this crate).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod plan;
pub mod retry;
mod rng;

pub use plan::{
    FaultEvent, FaultPlan, FaultPlanConfig, MembershipKind, PlanError, FAULT_PLAN_SCHEMA_VERSION,
};
pub use retry::RetryPolicy;
