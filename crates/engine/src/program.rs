//! The Gather–Apply–Scatter vertex-program abstraction.
//!
//! Mirrors PowerGraph's programming model (§2 of the paper: "the state is
//! pulled (rather than pushed) by vertices at the beginning of each
//! iteration"): a program declares the edge direction it gathers over,
//! an associative accumulator with an identity, the value each vertex
//! publishes for its neighbours to gather, an apply function, and the
//! activation behaviour of its scatter phase.
//!
//! The engine keeps one accumulator slot per vertex, seeded at
//! [`VertexProgram::gather_identity`] and reset to it by every apply, and
//! one published value per vertex, refreshed by apply only when the
//! vertex's data changes. A gather edge is then one load of the
//! neighbour's published value and one [`VertexProgram::merge`]; the two
//! laws on [`VertexProgram`] are what make that the same computation as
//! reading the neighbour's data and merging only real contributions.
use sgp_graph::{Graph, VertexId};

/// Edge direction relative to the executing vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// In-edges only (PageRank, SSSP).
    In,
    /// Out-edges only.
    Out,
    /// Both directions, i.e. the undirected view (WCC).
    Both,
    /// No edges in this phase.
    None,
}

impl Direction {
    /// Does the direction include in-edges of the executing vertex?
    pub(crate) fn uses_in(self) -> bool {
        matches!(self, Direction::In | Direction::Both)
    }

    /// Does the direction include out-edges of the executing vertex?
    pub(crate) fn uses_out(self) -> bool {
        matches!(self, Direction::Out | Direction::Both)
    }
}

/// A GAS vertex program.
///
/// The engine guarantees PowerGraph's semantics: at the start of every
/// iteration, each *active* vertex gathers over its declared edge
/// direction, the partial results are merged with [`VertexProgram::merge`]
/// (which must be associative and commutative — this is what makes
/// sender-side aggregation legal), `apply` produces the new vertex value
/// at the master, and if the value changed the scatter phase activates
/// neighbours along [`VertexProgram::scatter_direction`].
///
/// Two laws let the engine gather over plain slots and published values;
/// the engine's tests check both for every program in the crate:
///
/// - **Identity.** `merge(gather_identity(), x)` is bit-equal to `x` for
///   every `x` that `gather_edge` returns, so a slot seeded at the
///   identity holds exactly the merge of the contributions it received.
/// - **Publish is pure.** `publish(g, v, data)` depends on nothing but
///   its arguments, so the value published when `v`'s data last changed
///   is the value a gather would compute from that data now.
pub trait VertexProgram {
    /// Per-vertex state.
    type VertexData: Clone + PartialEq + std::fmt::Debug;
    /// Gather accumulator.
    type Gather: Clone;

    /// Wire size of one vertex-data update message payload, in bytes.
    const DATA_BYTES: usize;
    /// Wire size of one gather-partial message payload, in bytes.
    const GATHER_BYTES: usize;

    /// Short program name for reports.
    fn name(&self) -> &'static str;

    /// Edge direction gathered over.
    fn gather_direction(&self) -> Direction;

    /// Edge direction scattered over (activation).
    fn scatter_direction(&self) -> Direction;

    /// Initial value of every vertex.
    fn init(&self, v: VertexId, g: &Graph) -> Self::VertexData;

    /// Initially active vertices. `None` means "all vertices".
    fn initial_frontier(&self, g: &Graph) -> Option<Vec<VertexId>>;

    /// Identity element of the gather accumulator: merged with any
    /// contribution, it gives that contribution back bit for bit.
    fn gather_identity(&self) -> Self::Gather;

    /// What `v`, holding `data`, offers every neighbour that gathers from
    /// it (PageRank: its rank spread over its out-edges). A pure function
    /// of its arguments; the engine calls it once per change of `data`.
    fn publish(&self, g: &Graph, v: VertexId, data: &Self::VertexData) -> Self::Gather;

    /// Contribution of the edge between `v` (the gathering vertex) and
    /// `nbr` (the other endpoint, whose published value is `published`).
    fn gather_edge(
        &self,
        g: &Graph,
        v: VertexId,
        nbr: VertexId,
        published: &Self::Gather,
    ) -> Self::Gather;

    /// Merges two accumulators (associative & commutative).
    fn merge(&self, a: Self::Gather, b: Self::Gather) -> Self::Gather;

    /// Computes the new vertex value at the master.
    fn apply(
        &self,
        g: &Graph,
        v: VertexId,
        old: &Self::VertexData,
        acc: Self::Gather,
        iteration: usize,
    ) -> Self::VertexData;

    /// Whether a changed vertex activates its scatter-direction
    /// neighbours for the next iteration. All-active programs
    /// (PageRank) return `true` unconditionally and bound the run with
    /// [`VertexProgram::max_iterations`].
    fn activates_on_change(&self) -> bool {
        true
    }

    /// Hard iteration cap. Activation-driven programs (WCC, SSSP) stop
    /// earlier when the frontier empties.
    fn max_iterations(&self) -> usize;

    /// Whether every vertex is re-activated each iteration regardless of
    /// change propagation ("all active algorithm" in the paper's
    /// terminology — PageRank).
    fn all_active(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_predicates() {
        assert!(Direction::In.uses_in());
        assert!(!Direction::In.uses_out());
        assert!(Direction::Both.uses_in() && Direction::Both.uses_out());
        assert!(!Direction::None.uses_in() && !Direction::None.uses_out());
        assert!(Direction::Out.uses_out());
    }
}
