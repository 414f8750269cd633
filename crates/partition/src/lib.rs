//! # sgp-partition
//!
//! Every graph-partitioning algorithm evaluated by *"Experimental
//! Analysis of Streaming Algorithms for Graph Partitioning"* (Pacaci &
//! Özsu, SIGMOD 2019), implemented from scratch:
//!
//! * **Edge-cut SGP on vertex streams** (§4.1.1): hash (`ECR`),
//!   Linear Deterministic Greedy (`edge_cut::Ldg`), FENNEL
//!   (`edge_cut::Fennel`), and their re-streaming variants.
//! * **Vertex-cut SGP on edge streams** (§4.2.2): hash (`VCR`),
//!   Degree-Based Hashing (`vertex_cut::Dbh`), constrained Grid
//!   (`vertex_cut::GridConstrained`), PowerGraph oblivious greedy
//!   (`vertex_cut::PowerGraphGreedy`) and HDRF (`vertex_cut::Hdrf`).
//! * **Hybrid-cut** (§4.3): PowerLyra's hybrid random (`HCR`) and Ginger
//!   (`HG`).
//! * **Offline baseline**: a from-scratch multilevel partitioner
//!   ([`metis::MultilevelPartitioner`]) in the METIS mould (heavy-edge
//!   matching, greedy growing, FM boundary refinement), with optional
//!   vertex weights for the paper's workload-aware experiment (Fig. 8).
//!
//! All algorithms produce a [`Partitioning`], a unified edge-disjoint
//! placement plus (for vertex-disjoint models) the vertex ownership map,
//! following the paper's Appendix-B construction that makes edge-cut and
//! vertex-cut results directly comparable on one engine.
//!
//! [`metrics`] computes the paper's structural quality measures
//! (replication factor, edge-cut ratio, load imbalance); its tests hold
//! the hash partitioners to the closed-form expectations.
//!
//! Every algorithm runs on the incremental core in `streaming` —
//! `init(k, config) → ingest(chunk) → seal() → Partitioning` — from one
//! table of constructors in [`registry`], through one general entry:
//! [`Run`]`{ algorithm, cfg, order, exec }.execute(&g, &mut sink)`, of
//! which [`partition`], [`partition_multi_loader`] and
//! [`partition_threaded`] are the untraced calls. `loaders` splits one
//! logical stream across deterministic parallel loaders with periodic
//! state synchronization, turning Table 1's "parallelization" column
//! into measurable behaviour. `exec` runs the same loader rounds on
//! real OS threads — byte-identical to the modelled path, through the
//! one thread scope `clippy.toml` allows.
//!
//! The elasticity layer (DESIGN.md §11) builds on that core:
//! [`snapshot`] serializes a machine's decisions (plus its window and
//! the private tables no replay rebuilds) in a schema-versioned
//! canonical format, and restore replays them, such that
//! restore-then-continue is bit-identical to an uninterrupted run;
//! `migration` computes bounded-movement rebalance plans when the
//! cluster gains or loses machines.
//!
//! The dynamic-graph tier (DESIGN.md §12) adds the multi-pass and
//! buffered streaming models on the same machine lifecycle: 2PS
//! two-phase edge partitioning (`two_phase::TwoPhase`), a bounded
//! look-ahead window on every sequential run (`W = 1` degenerates
//! exactly to one-pass), and restreaming over a prior assignment with
//! bounded movement (`dynamic`).

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

pub mod assignment;
pub mod attribute;
pub(crate) mod config;
pub(crate) mod decisions;
pub(crate) mod dynamic;
pub(crate) mod edge_cut;
pub mod edge_stream_cut;
pub(crate) mod exec;
pub mod hetero;
pub(crate) mod hybrid;
mod kernels;
pub(crate) mod loaders;
pub mod metis;
pub mod metrics;
pub(crate) mod migration;
pub mod registry;
pub mod snapshot;
pub(crate) mod streaming;
pub(crate) mod two_phase;
pub(crate) mod vertex_cut;

#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod support;

pub use assignment::{CutModel, PartitionId, Partitioning};
pub use config::PartitionerConfig;
pub use decisions::{DecisionStats, WorkStats};
pub use dynamic::{cut_edges, restream_rounds, RestreamOutcome};
pub use exec::partition_threaded;
pub use loaders::{partition_multi_loader, LoaderConfig};
pub use migration::{
    plan_rebalance, MigrationConfig, MigrationPlan, MigrationStrategy, VertexMove,
};
pub use registry::{partition, Algorithm, Exec, Run, RunError};
pub use snapshot::{SnapshotError, SNAPSHOT_SCHEMA_VERSION};
pub use streaming::{
    run_edge_stream, run_vertex_stream, IngestError, StreamInput, StreamingPartitioner,
    DEFAULT_CHUNK,
};
