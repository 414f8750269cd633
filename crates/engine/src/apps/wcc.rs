//! Weakly Connected Components (§5.1.3): label propagation over the
//! undirected view of the graph.
//!
//! "Each vertex updates its component id by retrieving those of each of
//! its neighbors and selecting the minimum. This is repeated until
//! convergence. [...] vertices are only activated with incoming messages
//! and therefore network communication shrinks [...] at each iteration."

use crate::program::{Direction, VertexProgram};
use sgp_graph::{Graph, VertexId};

/// The WCC (minimum label propagation) vertex program.
#[derive(Debug, Clone, Default)]
pub struct Wcc;

impl Wcc {
    /// Creates the WCC program.
    pub fn new() -> Self {
        Wcc
    }
}

impl VertexProgram for Wcc {
    type VertexData = u32;
    type Gather = u32;

    const DATA_BYTES: usize = 4;
    const GATHER_BYTES: usize = 4;

    fn name(&self) -> &'static str {
        "WCC"
    }

    fn gather_direction(&self) -> Direction {
        Direction::Both // weakly connected: ignore edge direction
    }

    fn scatter_direction(&self) -> Direction {
        Direction::Both
    }

    fn init(&self, v: VertexId, _g: &Graph) -> u32 {
        v // every vertex starts as its own component
    }

    fn initial_frontier(&self, _g: &Graph) -> Option<Vec<VertexId>> {
        None // all active at iteration 0
    }

    fn gather_identity(&self) -> u32 {
        u32::MAX
    }

    fn publish(&self, _g: &Graph, _v: VertexId, label: &u32) -> u32 {
        *label
    }

    fn gather_edge(&self, _g: &Graph, _v: VertexId, _nbr: VertexId, label: &u32) -> u32 {
        *label
    }

    fn merge(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn apply(&self, _g: &Graph, _v: VertexId, old: &u32, acc: u32, _iteration: usize) -> u32 {
        (*old).min(acc)
    }

    fn max_iterations(&self) -> usize {
        // Label propagation needs at most the diameter of the largest
        // component; cap generously for pathological chains.
        1 << 20
    }
}
