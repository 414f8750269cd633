//! # sgp-db
//!
//! A JanusGraph-like distributed graph-database substrate for the SGP
//! reproduction: the system behind the paper's online-query experiments
//! (Table 4, Table 5, Figures 5–8, 12, 14, 15).
//!
//! Architecture (the paper's Appendix C / Fig. 11): every worker machine
//! hosts a query-execution instance co-located with its storage shard; a
//! **partitioning-aware query router** forwards each client query to the
//! machine owning its start vertex. The storage layer is an adjacency
//! list sharded by an *edge-cut* vertex-ownership map (JanusGraph "does
//! not provide support for vertex-cut partitioning").
//!
//! * [`store::PartitionedStore`] — the sharded adjacency store + router.
//! * [`query`] — the paper's three online query classes (1-hop, 2-hop,
//!   single-pair shortest path), executed for real with a full trace of
//!   which machine read which vertices in which communication round.
//! * [`workload`] — parameter-binding generators (uniform and
//!   Zipf-skewed, the paper's workload-skew knob) and the access
//!   recorder behind the workload-aware experiment (Fig. 8).
//! * [`sim::ClusterSim`] — a discrete-event simulation of the cluster
//!   serving closed-loop concurrent clients (12/machine = the paper's
//!   *medium load*, 24/machine = *high load*), producing throughput,
//!   mean/p99 latency, and per-machine read distributions.
//! * `fault_sim` — the simulation's one event loop, run under a
//!   deterministic [`sgp_fault::FaultPlan`]: crashes, stragglers,
//!   membership changes, message loss, retry/backoff, and mirror
//!   failover, producing availability and goodput (DESIGN.md §7). A
//!   healthy [`sim::ClusterSim::run`] is this loop under an empty plan.

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

pub(crate) mod fault_sim;
pub mod query;
pub(crate) mod sim;
pub(crate) mod store;
pub mod workload;

pub use fault_sim::{
    DegradedConfig, ElasticPlan, FaultSimConfig, FaultSimReport, MirrorDirectory, SimError,
};
pub use query::{Query, QueryResult, QueryTrace};
pub use sim::{ClusterSim, LoadLevel, SimConfig, SimReport};
pub use store::PartitionedStore;
pub use workload::{AccessRecorder, Workload, WorkloadKind};
