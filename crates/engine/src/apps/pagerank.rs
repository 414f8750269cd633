//! PageRank: "the single most popular algorithm for evaluating the
//! performance of graph partitioning algorithms" (§5.1.3).
//!
//! Matches the PowerLyra implementation the paper uses: vertex weights
//! are "iteratively updated based on each vertex's incoming links for a
//! fixed number of iterations (20 in our experiments)"; every vertex is
//! active at every iteration, giving "uniform and stable computation and
//! communication costs".

use crate::program::{Direction, VertexProgram};
use sgp_graph::{Graph, VertexId};

/// Damping factor used by PowerGraph/PowerLyra's default PageRank.
pub(crate) const DAMPING: f64 = 0.85;

/// The PageRank vertex program.
#[derive(Debug, Clone)]
pub struct PageRank {
    iterations: usize,
}

impl PageRank {
    /// PageRank with a fixed iteration count (the paper uses 20).
    pub fn new(iterations: usize) -> Self {
        assert!(iterations >= 1, "need at least one iteration");
        PageRank { iterations }
    }
}

impl VertexProgram for PageRank {
    type VertexData = f64;
    type Gather = f64;

    const DATA_BYTES: usize = 8;
    const GATHER_BYTES: usize = 8;

    fn name(&self) -> &'static str {
        "PageRank"
    }

    fn gather_direction(&self) -> Direction {
        Direction::In
    }

    fn scatter_direction(&self) -> Direction {
        Direction::Out
    }

    fn init(&self, _v: VertexId, _g: &Graph) -> f64 {
        1.0
    }

    fn initial_frontier(&self, _g: &Graph) -> Option<Vec<VertexId>> {
        None // all active
    }

    fn gather_identity(&self) -> f64 {
        0.0
    }

    fn publish(&self, g: &Graph, v: VertexId, rank: &f64) -> f64 {
        // The rank spread over the out-edges. A vertex without out-edges
        // is never gathered from; `max(1)` keeps its share finite.
        rank / g.out_degree(v).max(1) as f64
    }

    fn gather_edge(&self, _g: &Graph, _v: VertexId, _nbr: VertexId, share: &f64) -> f64 {
        *share
    }

    fn merge(&self, a: f64, b: f64) -> f64 {
        a + b
    }

    fn apply(&self, _g: &Graph, _v: VertexId, _old: &f64, acc: f64, _iteration: usize) -> f64 {
        (1.0 - DAMPING) + DAMPING * acc
    }

    fn max_iterations(&self) -> usize {
        self.iterations
    }

    fn all_active(&self) -> bool {
        true
    }
}
