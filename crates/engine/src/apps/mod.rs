//! The paper's three offline analytic workloads (§5.1.3) as GAS vertex
//! programs: PageRank, Weakly Connected Components, and Single-Source
//! Shortest Path.

mod pagerank;
mod sssp;
mod wcc;

pub use pagerank::PageRank;
pub(crate) use pagerank::DAMPING;
pub use sssp::Sssp;
pub(crate) use sssp::UNREACHABLE;
pub use wcc::Wcc;
