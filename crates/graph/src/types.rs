//! Fundamental identifiers and edge types shared across the workspace.

/// A vertex identifier.
///
/// Vertices are dense integers in `0..n`; generators and the
/// [`crate::GraphBuilder`] remap arbitrary labels into this range. `u32`
/// comfortably covers the laptop-scale stand-ins for the paper's datasets
/// while keeping the CSR arrays compact (see the type-size guidance in the
/// Rust performance literature).
pub type VertexId = u32;

/// A directed edge `(src, dst)`.
///
/// The paper's graphs are directed (PageRank gathers along in-edges;
/// WCC treats edges as undirected at the algorithm level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    /// Source endpoint.
    pub src: VertexId,
    /// Destination endpoint.
    pub dst: VertexId,
}

impl Edge {
    /// Creates a new directed edge.
    #[inline]
    pub fn new(src: VertexId, dst: VertexId) -> Self {
        Edge { src, dst }
    }

    /// Returns the edge with endpoints swapped.
    #[inline]
    pub(crate) fn reversed(self) -> Self {
        Edge { src: self.dst, dst: self.src }
    }

    /// True if both endpoints are the same vertex.
    #[inline]
    pub fn is_loop(self) -> bool {
        self.src == self.dst
    }
}

impl From<(VertexId, VertexId)> for Edge {
    #[inline]
    fn from((src, dst): (VertexId, VertexId)) -> Self {
        Edge { src, dst }
    }
}

impl std::fmt::Display for Edge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} -> {}", self.src, self.dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_reversed_swaps_endpoints() {
        let e = Edge::new(3, 7);
        assert_eq!(e.reversed(), Edge::new(7, 3));
        assert_eq!(e.reversed().reversed(), e);
    }

    #[test]
    fn edge_loop_detection() {
        assert!(Edge::new(5, 5).is_loop());
        assert!(!Edge::new(5, 6).is_loop());
    }

    #[test]
    fn edge_from_tuple() {
        let e: Edge = (1u32, 2u32).into();
        assert_eq!(e, Edge::new(1, 2));
    }

    #[test]
    fn edge_display() {
        assert_eq!(Edge::new(1, 2).to_string(), "1 -> 2");
    }
}
