//! # sgp-core
//!
//! The experiment framework of the SGP reproduction — the layer that
//! turns the substrate crates ([`sgp_graph`], [`sgp_partition`],
//! [`sgp_engine`], [`sgp_db`]) into the paper's tables and figures.
//!
//! * [`config`] — experiment scale knobs and the dataset registry
//!   (synthetic stand-ins for Twitter, UK2007-05, USA-Road, LDBC SNB).
//! * [`runners`] — suite runners producing typed result rows:
//!   partitioning quality (Fig. 2 / Table 4), offline analytics
//!   (Fig. 1/3/4/13), online queries (Table 5, Fig. 5/6/7/12/14/15),
//!   the workload-aware experiment (Fig. 8), and the fault-injection
//!   robustness suite (beyond the paper; DESIGN.md §7).
//! * [`decision`] — the paper's §6.4 decision tree as an executable
//!   artifact (Fig. 9).
//! * [`scaleout`] — the §7 future-work scale-out-factor advisor.
//! * [`trace_scenarios`] — the canonical traced workloads behind the
//!   `trace` experiment, the `--trace` flag, and the golden-snapshot
//!   tests (DESIGN.md §9).
//! * [`report`] — plain-text table rendering.
//! * [`error`] — the shared [`SgpError`] type for fallible framework
//!   paths (config parsing, serialization, I/O).
//!
//! The six sub-crates are re-exported so downstream users can depend on
//! `sgp-core` alone.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod decision;
pub mod error;
pub mod report;
pub mod runners;
pub mod scaleout;
pub mod trace_scenarios;

pub use config::{Dataset, Scale};
pub use decision::{recommend, OnlineObjective, Recommendation, WorkloadClass};
pub use error::SgpError;
pub use scaleout::{recommend_scale_out, ScaleOutReport};

pub use sgp_db as db;
pub use sgp_engine as engine;
pub use sgp_fault as fault;
pub use sgp_graph as graph;
pub use sgp_partition as partition;
