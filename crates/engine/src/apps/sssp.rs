//! Single-Source Shortest Path (§5.1.3), unit edge weights.
//!
//! "Initially, only the source vertex is active and other vertices are
//! activated upon receiving a message in BFS traversal order. Network
//! communication initially grows and then shrinks with each iteration."
//! The ordered activation makes SSSP "a challenging test for SGP
//! algorithms as it does not fit into the uniform workload assumption."

use crate::program::{Direction, VertexProgram};
use sgp_graph::{Graph, VertexId};

/// Distance value for unreachable vertices.
pub(crate) const UNREACHABLE: u64 = u64::MAX;

/// The SSSP vertex program (Bellman-Ford style over in-edges).
#[derive(Debug, Clone)]
pub struct Sssp {
    source: VertexId,
}

impl Sssp {
    /// SSSP from `source`.
    pub fn new(source: VertexId) -> Self {
        Sssp { source }
    }
}

impl VertexProgram for Sssp {
    type VertexData = u64;
    type Gather = u64;

    const DATA_BYTES: usize = 8;
    const GATHER_BYTES: usize = 8;

    fn name(&self) -> &'static str {
        "SSSP"
    }

    fn gather_direction(&self) -> Direction {
        Direction::In
    }

    fn scatter_direction(&self) -> Direction {
        Direction::Out
    }

    fn init(&self, v: VertexId, _g: &Graph) -> u64 {
        if v == self.source {
            0
        } else {
            UNREACHABLE
        }
    }

    fn initial_frontier(&self, _g: &Graph) -> Option<Vec<VertexId>> {
        Some(vec![self.source])
    }

    fn gather_identity(&self) -> u64 {
        UNREACHABLE
    }

    fn publish(&self, _g: &Graph, _v: VertexId, dist: &u64) -> u64 {
        *dist
    }

    fn gather_edge(&self, _g: &Graph, _v: VertexId, _nbr: VertexId, dist: &u64) -> u64 {
        dist.saturating_add(1)
    }

    fn merge(&self, a: u64, b: u64) -> u64 {
        a.min(b)
    }

    fn apply(&self, _g: &Graph, _v: VertexId, old: &u64, acc: u64, _iteration: usize) -> u64 {
        (*old).min(acc)
    }

    fn max_iterations(&self) -> usize {
        1 << 20 // bounded by the graph diameter in practice
    }
}
