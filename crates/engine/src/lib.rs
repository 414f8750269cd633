//! # sgp-engine
//!
//! A PowerLyra-like distributed graph-analytics engine **simulator** for
//! the SGP reproduction: the substrate behind the paper's offline
//! experiments (Figures 1, 3, 4, 13).
//!
//! The engine executes real Gather–Apply–Scatter vertex programs
//! (PageRank, WCC, SSSP — [`apps`]) over a cluster of `k` simulated
//! machines defined by a [`placement::Placement`] (built from any
//! [`sgp_partition::Partitioning`]). Results are *computed for real* and
//! are bit-identical to the single-machine reference implementations in
//! [`mod@reference`]; what is simulated is the distributed execution:
//!
//! * **master/mirror replication** exactly as in PowerGraph/PowerLyra:
//!   a vertex is mastered on one machine and mirrored wherever it has
//!   incident edges;
//! * **synchronous supersteps** with sender-side aggregation: each
//!   active vertex receives one gather-partial message per mirror that
//!   holds gather-direction edges, and (when its value changes) sends
//!   one update message per mirror that needs the new value for future
//!   gathers — the Appendix-B semantics under which edge-cut placement
//!   makes PageRank's scatter free;
//! * **per-machine work accounting** (gather/scatter edge operations and
//!   apply vertex operations), from which load-balance distributions
//!   (Fig. 4) and the simulated execution time (Fig. 3) derive via the
//!   [`cost::CostModel`];
//! * **fault-inflated runs** ([`engine::run_program_with`]): the same
//!   superstep under a deterministic [`sgp_fault::FaultPlan`] —
//!   straggler-aware barriers plus crash-recovery charges (mirror state
//!   transfer or recomputation), reported in [`cost::FaultSummary`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apps;
pub mod cost;
pub mod engine;
pub mod placement;
pub mod program;
pub mod reference;
pub mod wire;

pub use cost::{CostModel, FaultSummary, IterationStats, RunReport};
pub use engine::{run_program, run_program_with, EngineError, EngineOptions};
pub use placement::Placement;
pub use program::{Direction, VertexProgram};
