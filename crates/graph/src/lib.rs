//! # sgp-graph
//!
//! Graph representation, streaming input models, and synthetic dataset
//! generators for the reproduction of *"Experimental Analysis of Streaming
//! Algorithms for Graph Partitioning"* (Pacaci & Özsu, SIGMOD 2019).
//!
//! The paper's partitioning algorithms consume graphs in one of two
//! streaming forms (§3 of the paper):
//!
//! * a **vertex stream**, where each element is a vertex together with its
//!   complete neighbourhood `N(u)` (the adjacency-list loading model used
//!   by LDG and FENNEL), and
//! * an **edge stream**, where edges `(u, v)` arrive one at a time in an
//!   arbitrary order (the model used by DBH, Grid, HDRF and friends).
//!
//! This crate provides:
//!
//! * [`Graph`]: an immutable compressed-sparse-row (CSR) directed graph
//!   with both out- and in-adjacency, built via [`GraphBuilder`];
//! * [`stream`]: adapters that replay a [`Graph`] as a vertex or edge
//!   stream in several orders (random, BFS, DFS, natural);
//! * [`generators`]: deterministic synthetic generators standing in for
//!   the paper's datasets (Twitter, UK2007-05, USA-Road, LDBC SNB);
//! * [`sampling`]: the workspace RNG, and the Zipf and other samplers used
//!   by generators and by the skewed online-query workloads;
//! * [`stats`]: dataset characteristics à la the paper's Table 3;
//! * [`io`]: a plain-text edge-list format for persistence.
//!
//! All randomness is seeded explicitly so that every experiment in the
//! reproduction is deterministic.

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

pub(crate) mod builder;
pub(crate) mod churn;
pub(crate) mod csr;
pub mod generators;
pub mod io;
pub mod sampling;
pub mod stats;
pub mod stream;
pub(crate) mod types;

pub use builder::GraphBuilder;
pub use churn::{ChurnBatch, ChurnConfig, ChurnOp, ChurnStream};
pub use csr::Graph;
pub use stats::GraphStats;
pub use stream::{EdgeStreamSource, StreamOrder, VertexStreamSource};
pub use types::{Edge, VertexId};
