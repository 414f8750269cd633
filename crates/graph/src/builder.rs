//! Incremental construction of [`Graph`]s from edge lists.

use crate::csr::Graph;
use crate::types::{Edge, VertexId};

/// Builds a [`Graph`] from an arbitrary sequence of directed edges.
///
/// The builder tolerates duplicate edges and self-loops according to its
/// configuration; the paper's datasets are simple directed graphs, so the
/// default deduplicates and drops self-loops (matching how the original
/// study's loaders ingest SNAP/WebGraph edge lists).
///
/// # Examples
///
/// ```
/// use sgp_graph::GraphBuilder;
///
/// let g = GraphBuilder::new()
///     .add_edge(0, 1)
///     .add_edge(1, 2)
///     .add_edge(2, 0)
///     .build();
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.out_neighbors(0), &[1]);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    edges: Vec<Edge>,
    min_vertices: usize,
    keep_self_loops: bool,
    keep_duplicates: bool,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphBuilder {
    /// Creates an empty builder with default policies (no self-loops, no
    /// duplicate edges).
    pub fn new() -> Self {
        GraphBuilder {
            edges: Vec::new(),
            min_vertices: 0,
            keep_self_loops: false,
            keep_duplicates: false,
        }
    }

    /// Creates a builder with capacity for `edges` edges.
    pub fn with_capacity(edges: usize) -> Self {
        let mut b = Self::new();
        b.edges.reserve(edges);
        b
    }

    /// Keep self-loops instead of dropping them (default: drop).
    pub fn keep_self_loops(mut self, keep: bool) -> Self {
        self.keep_self_loops = keep;
        self
    }

    /// Keep duplicate (multi-)edges instead of deduplicating (default: dedup).
    pub fn keep_duplicates(mut self, keep: bool) -> Self {
        self.keep_duplicates = keep;
        self
    }

    /// Ensures the built graph has at least `n` vertices even if some have
    /// no incident edges (isolated vertices still need partition
    /// placements in the edge-cut model).
    pub fn ensure_vertices(mut self, n: usize) -> Self {
        self.min_vertices = self.min_vertices.max(n);
        self
    }

    /// Adds a directed edge `src -> dst`.
    pub fn add_edge(mut self, src: VertexId, dst: VertexId) -> Self {
        self.edges.push(Edge::new(src, dst));
        self
    }

    /// Adds a directed edge in place (non-consuming variant for loops).
    pub fn push_edge(&mut self, src: VertexId, dst: VertexId) {
        self.edges.push(Edge::new(src, dst));
    }

    /// Adds every edge from an iterator.
    pub fn extend_edges<I: IntoIterator<Item = Edge>>(mut self, iter: I) -> Self {
        self.edges.extend(iter);
        self
    }

    /// Number of edges currently staged (before dedup/self-loop policy).
    pub fn staged_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the builder into an immutable CSR [`Graph`].
    pub fn build(self) -> Graph {
        let GraphBuilder { mut edges, min_vertices, keep_self_loops, keep_duplicates } = self;
        if !keep_self_loops {
            edges.retain(|e| !e.is_loop());
        }
        let n = edges
            .iter()
            .map(|e| e.src.max(e.dst) as usize + 1)
            .max()
            .unwrap_or(0)
            .max(min_vertices);
        Graph::from_edges(n, edges, !keep_duplicates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_dedups_by_default() {
        let g = GraphBuilder::new().add_edge(0, 1).add_edge(0, 1).add_edge(1, 0).build();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn builder_drops_self_loops_by_default() {
        let g = GraphBuilder::new().add_edge(0, 0).add_edge(0, 1).build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_degree(0), 1);
    }

    #[test]
    fn builder_keeps_self_loops_when_asked() {
        let g = GraphBuilder::new().keep_self_loops(true).add_edge(0, 0).add_edge(0, 1).build();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn builder_keeps_duplicates_when_asked() {
        let g = GraphBuilder::new().keep_duplicates(true).add_edge(0, 1).add_edge(0, 1).build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_degree(0), 2);
    }

    #[test]
    fn builder_ensure_vertices_pads_isolated() {
        let g = GraphBuilder::new().add_edge(0, 1).ensure_vertices(10).build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.out_degree(9), 0);
        assert_eq!(g.in_degree(9), 0);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
