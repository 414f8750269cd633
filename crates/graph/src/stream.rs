//! Streaming input models (§3 of the paper).
//!
//! A streaming partitioner is "sequentially presented a stream
//! `S = <a1, a2, ...>` of graph G where `ai` is either an edge `(u, v)` or
//! a vertex `u` and its neighbors `N(u)`". This module replays an
//! immutable [`Graph`] as either stream, in a configurable arrival order.
//!
//! Stream order matters: §4.2.2 notes that PowerGraph's greedy vertex-cut
//! "is sensitive to stream orders and might result in a single partition
//! in case of breadth-first traversal order", which HDRF's balance term
//! avoids. The [`StreamOrder`] options let the reproduction's ablation
//! benches exercise exactly that.
//!
//! Two layers are exposed:
//!
//! * [`VertexStreamSource`] / [`EdgeStreamSource`] — chunked cursors that
//!   yield bounded chunks of stream elements in any order. `Natural`
//!   order walks the CSR directly (O(1) cursor state), `Bfs`/`Dfs` hold
//!   only the O(|V|) vertex visit order (edges are expanded lazily), and
//!   only `Random` materializes the full element permutation, because the
//!   seeded Fisher–Yates shuffle finalizes the *last* position first and
//!   therefore cannot be replayed lazily from the front.
//! * [`VertexStream`] / [`EdgeStream`] — the original whole-stream
//!   iterators, now thin adapters over the sources (`EdgeStream` remains
//!   fully materialized; it is the baseline the `ingest` bench compares
//!   chunked ingestion against).

use crate::csr::Graph;
use crate::sampling::{seeded_rng, shuffle};
use crate::types::{Edge, VertexId};

/// Arrival order of stream elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamOrder {
    /// The natural order of the dataset (vertex id / CSR order).
    Natural,
    /// Uniformly random permutation, seeded.
    Random {
        /// RNG seed for the permutation.
        seed: u64,
    },
    /// Breadth-first traversal from vertex 0 (unreached vertices appended
    /// in natural order afterwards, as in the original LDG evaluation).
    Bfs,
    /// Depth-first traversal from vertex 0 (unreached vertices appended).
    Dfs,
    /// Breadth-first traversal from a configurable start vertex.
    ///
    /// `BfsFrom { start: 0 }` is exactly [`StreamOrder::Bfs`]; the unit
    /// variants are kept so previously serialized orders still
    /// deserialize (backward-compatible default start of 0).
    BfsFrom {
        /// Root the traversal begins at (components unreachable from it
        /// are appended in natural root order, as with `Bfs`).
        start: VertexId,
    },
    /// Depth-first traversal from a configurable start vertex; see
    /// [`StreamOrder::BfsFrom`].
    DfsFrom {
        /// Root the traversal begins at.
        start: VertexId,
    },
}

impl Default for StreamOrder {
    fn default() -> Self {
        StreamOrder::Random { seed: 0x5347_5021 }
    }
}

/// Computes a vertex visit order over the undirected structure of `g`.
fn vertex_order(g: &Graph, order: StreamOrder) -> Vec<VertexId> {
    let n = g.num_vertices();
    match order {
        StreamOrder::Natural => (0..n as VertexId).collect(),
        StreamOrder::Random { seed } => {
            let mut v: Vec<VertexId> = (0..n as VertexId).collect();
            shuffle(&mut v, &mut seeded_rng(seed));
            v
        }
        StreamOrder::Bfs => traversal_order(g, true, 0),
        StreamOrder::Dfs => traversal_order(g, false, 0),
        StreamOrder::BfsFrom { start } => traversal_order(g, true, start),
        StreamOrder::DfsFrom { start } => traversal_order(g, false, start),
    }
}

fn traversal_order(g: &Graph, bfs: bool, start: VertexId) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut seen = vec![false; n];
    let mut out = Vec::with_capacity(n);
    let mut frontier: std::collections::VecDeque<VertexId> = std::collections::VecDeque::new();
    // The configured start vertex (if in range) is explored first; the
    // remaining components are then covered in natural root order, which
    // makes `start = 0` reproduce the historical fixed-root behaviour.
    for root in std::iter::once(start).chain(0..n as VertexId) {
        if (root as usize) >= n || seen[root as usize] {
            continue;
        }
        seen[root as usize] = true;
        frontier.push_back(root);
        while let Some(v) = if bfs { frontier.pop_front() } else { frontier.pop_back() } {
            out.push(v);
            for w in g.undirected_neighbors(v) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    frontier.push_back(w);
                }
            }
        }
    }
    out
}

/// A single vertex-stream element: a vertex with its full (undirected)
/// neighbourhood, the input model of LDG/FENNEL (§4.1.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexRecord {
    /// The arriving vertex.
    pub vertex: VertexId,
    /// Its complete neighbourhood `N(u)` over the undirected structure
    /// (out- and in-neighbours, deduplicated, sorted).
    pub neighbors: Vec<VertexId>,
    /// Out-neighbours only — needed when deriving the Appendix-B
    /// edge-disjoint placement (all out-edges follow the source).
    pub out_neighbors: Vec<VertexId>,
}

impl VertexRecord {
    /// Builds the stream element for `v` exactly as the stream sources
    /// do: undirected neighbourhood sorted and deduplicated, out-edges
    /// verbatim. Exposed so consumers that persist buffered records by
    /// vertex id (the windowed partitioner's snapshot layer) can rebuild
    /// them canonically from the graph.
    pub fn for_vertex(g: &Graph, v: VertexId) -> VertexRecord {
        let mut neighbors: Vec<VertexId> = g.undirected_neighbors(v).collect();
        neighbors.sort_unstable();
        neighbors.dedup();
        VertexRecord { vertex: v, neighbors, out_neighbors: g.out_neighbors(v).to_vec() }
    }
}

/// Cursor state of a [`VertexStreamSource`].
#[derive(Debug, Clone)]
enum VertexCursor {
    /// Natural order needs no buffer at all: just a position counter.
    Natural { next: VertexId },
    /// Random / traversal orders hold the materialized visit order.
    Materialized { order: Vec<VertexId>, pos: usize },
}

/// Chunked vertex-stream cursor: yields bounded chunks of
/// [`VertexRecord`]s in any [`StreamOrder`] without materializing the
/// records (and, for `Natural`, without materializing the permutation
/// either). This is the ingestion primitive of the incremental
/// partitioner core; [`VertexStream`] wraps it as a plain iterator.
#[derive(Debug, Clone)]
pub struct VertexStreamSource<'g> {
    graph: &'g Graph,
    cursor: VertexCursor,
}

impl<'g> VertexStreamSource<'g> {
    /// Creates a chunked vertex source over `g` in the given order.
    pub fn new(g: &'g Graph, order: StreamOrder) -> Self {
        let cursor = match order {
            StreamOrder::Natural => VertexCursor::Natural { next: 0 },
            _ => VertexCursor::Materialized { order: vertex_order(g, order), pos: 0 },
        };
        VertexStreamSource { graph: g, cursor }
    }

    /// Total number of elements in the stream (`|V|`).
    pub fn len(&self) -> usize {
        self.graph.num_vertices()
    }

    /// True if the stream has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Elements not yet yielded since the last [`restart`](Self::restart).
    pub fn remaining(&self) -> usize {
        match &self.cursor {
            VertexCursor::Natural { next } => self.len() - *next as usize,
            VertexCursor::Materialized { order, pos } => order.len() - pos,
        }
    }

    /// Restarts the stream from the beginning with the same order — the
    /// primitive behind the re-streaming variants (re-LDG / re-FENNEL).
    pub fn restart(&mut self) {
        match &mut self.cursor {
            VertexCursor::Natural { next } => *next = 0,
            VertexCursor::Materialized { pos, .. } => *pos = 0,
        }
    }

    fn next_vertex(&mut self) -> Option<VertexId> {
        match &mut self.cursor {
            VertexCursor::Natural { next } => {
                if (*next as usize) < self.graph.num_vertices() {
                    let v = *next;
                    *next += 1;
                    Some(v)
                } else {
                    None
                }
            }
            VertexCursor::Materialized { order, pos } => {
                let v = *order.get(*pos)?;
                *pos += 1;
                Some(v)
            }
        }
    }

    fn record_of(&self, v: VertexId) -> VertexRecord {
        VertexRecord::for_vertex(self.graph, v)
    }

    /// Yields the next stream element, or `None` at end of stream.
    pub fn next_record(&mut self) -> Option<VertexRecord> {
        self.next_vertex().map(|v| self.record_of(v))
    }

    /// Fills `out` with the next up-to-`max_len` stream elements
    /// (clearing it first) and returns how many were produced; 0 means
    /// end of stream. `max_len = 0` is treated as 1 so the cursor always
    /// makes progress.
    pub fn next_chunk(&mut self, max_len: usize, out: &mut Vec<VertexRecord>) -> usize {
        out.clear();
        let max_len = max_len.max(1);
        while out.len() < max_len {
            match self.next_record() {
                Some(rec) => out.push(rec),
                None => break,
            }
        }
        out.len()
    }
}

/// Replays a [`Graph`] as a vertex stream (adjacency-list loading model).
#[derive(Debug, Clone)]
pub struct VertexStream<'g> {
    source: VertexStreamSource<'g>,
}

impl<'g> VertexStream<'g> {
    /// Creates a vertex stream over `g` in the given arrival order.
    pub fn new(g: &'g Graph, order: StreamOrder) -> Self {
        VertexStream { source: VertexStreamSource::new(g, order) }
    }

    /// Total number of elements in the stream (`|V|`).
    pub fn len(&self) -> usize {
        self.source.len()
    }

    /// True if the stream has no elements.
    pub fn is_empty(&self) -> bool {
        self.source.is_empty()
    }

    /// Restarts the stream from the beginning with the same order — the
    /// primitive behind the re-streaming variants (re-LDG / re-FENNEL).
    pub fn restart(&mut self) {
        self.source.restart();
    }
}

impl<'g> Iterator for VertexStream<'g> {
    type Item = VertexRecord;

    fn next(&mut self) -> Option<Self::Item> {
        self.source.next_record()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.source.remaining();
        (rem, Some(rem))
    }
}

/// Cursor state of an [`EdgeStreamSource`].
#[derive(Debug, Clone)]
enum EdgeCursor {
    /// Natural order walks the CSR in place: no buffer at all.
    Csr { v: VertexId, off: usize },
    /// Traversal orders expand the out-edges of each vertex of the O(|V|)
    /// visit order lazily — no O(|E|) buffer.
    ByVertex { order: Vec<VertexId>, vi: usize, off: usize },
    /// Random order must materialize the permutation (backward
    /// Fisher–Yates finalizes the last slot first, so it cannot stream).
    Materialized { edges: Vec<Edge>, pos: usize },
}

/// Chunked edge-stream cursor: yields bounded chunks of [`Edge`]s in any
/// [`StreamOrder`]. `Natural` and the traversal orders never allocate the
/// O(|E|) edge vector the materialized [`EdgeStream`] carries.
///
/// For `StreamOrder::Bfs`/`Dfs` the edges arrive grouped by the traversal
/// order of their source vertex, which is the adversarial order for
/// PowerGraph-style greedy placement.
#[derive(Debug, Clone)]
pub struct EdgeStreamSource<'g> {
    graph: &'g Graph,
    cursor: EdgeCursor,
    emitted: usize,
}

impl<'g> EdgeStreamSource<'g> {
    /// Creates a chunked edge source over `g` in the given order.
    pub fn new(g: &'g Graph, order: StreamOrder) -> Self {
        let cursor = match order {
            StreamOrder::Natural => EdgeCursor::Csr { v: 0, off: 0 },
            StreamOrder::Random { seed } => {
                let mut e: Vec<Edge> = g.edges().collect();
                shuffle(&mut e, &mut seeded_rng(seed ^ 0x9E37_79B9));
                EdgeCursor::Materialized { edges: e, pos: 0 }
            }
            StreamOrder::Bfs
            | StreamOrder::Dfs
            | StreamOrder::BfsFrom { .. }
            | StreamOrder::DfsFrom { .. } => {
                EdgeCursor::ByVertex { order: vertex_order(g, order), vi: 0, off: 0 }
            }
        };
        EdgeStreamSource { graph: g, cursor, emitted: 0 }
    }

    /// Total number of elements in the stream (`|E|`).
    pub fn len(&self) -> usize {
        self.graph.num_edges()
    }

    /// True if the stream has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Elements not yet yielded since the last [`restart`](Self::restart).
    pub fn remaining(&self) -> usize {
        self.len() - self.emitted
    }

    /// Restarts the stream from the beginning with the same order.
    pub fn restart(&mut self) {
        self.emitted = 0;
        match &mut self.cursor {
            EdgeCursor::Csr { v, off } => {
                *v = 0;
                *off = 0;
            }
            EdgeCursor::ByVertex { vi, off, .. } => {
                *vi = 0;
                *off = 0;
            }
            EdgeCursor::Materialized { pos, .. } => *pos = 0,
        }
    }

    /// Yields the next stream element, or `None` at end of stream.
    pub fn next_edge(&mut self) -> Option<Edge> {
        let e = match &mut self.cursor {
            EdgeCursor::Csr { v, off } => loop {
                if (*v as usize) >= self.graph.num_vertices() {
                    break None;
                }
                let outs = self.graph.out_neighbors(*v);
                if *off < outs.len() {
                    let e = Edge::new(*v, outs[*off]);
                    *off += 1;
                    break Some(e);
                }
                *v += 1;
                *off = 0;
            },
            EdgeCursor::ByVertex { order, vi, off } => loop {
                let Some(&src) = order.get(*vi) else { break None };
                let outs = self.graph.out_neighbors(src);
                if *off < outs.len() {
                    let e = Edge::new(src, outs[*off]);
                    *off += 1;
                    break Some(e);
                }
                *vi += 1;
                *off = 0;
            },
            EdgeCursor::Materialized { edges, pos } => {
                let e = edges.get(*pos).copied();
                if e.is_some() {
                    *pos += 1;
                }
                e
            }
        };
        if e.is_some() {
            self.emitted += 1;
        }
        e
    }

    /// Fills `out` with the next up-to-`max_len` stream elements
    /// (clearing it first) and returns how many were produced; 0 means
    /// end of stream. `max_len = 0` is treated as 1 so the cursor always
    /// makes progress.
    pub fn next_chunk(&mut self, max_len: usize, out: &mut Vec<Edge>) -> usize {
        out.clear();
        let max_len = max_len.max(1);
        while out.len() < max_len {
            match self.next_edge() {
                Some(e) => out.push(e),
                None => break,
            }
        }
        out.len()
    }
}

/// Replays a [`Graph`] as a fully materialized edge stream (the vertex-cut
/// input model). The ordering logic lives in [`EdgeStreamSource`]; this
/// adapter buffers the whole permutation up front, which keeps
/// [`as_slice`](EdgeStream::as_slice) available and serves as the
/// materialized baseline in the `ingest` bench.
#[derive(Debug, Clone)]
pub struct EdgeStream {
    edges: Vec<Edge>,
    pos: usize,
}

impl EdgeStream {
    /// Creates an edge stream over `g` in the given arrival order.
    pub fn new(g: &Graph, order: StreamOrder) -> Self {
        let mut source = EdgeStreamSource::new(g, order);
        let mut edges = Vec::with_capacity(source.len());
        while let Some(e) = source.next_edge() {
            edges.push(e);
        }
        edges.shrink_to_fit();
        EdgeStream { edges, pos: 0 }
    }

    /// Number of elements in the stream (`|E|`).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if the stream has no elements.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Restarts the stream from the beginning with the same order.
    pub fn restart(&mut self) {
        self.pos = 0;
    }

    /// Borrow the underlying edge order (used by parallel-ingest tests).
    pub fn as_slice(&self) -> &[Edge] {
        &self.edges
    }
}

impl Iterator for EdgeStream {
    type Item = Edge;

    fn next(&mut self) -> Option<Self::Item> {
        let e = *self.edges.get(self.pos)?;
        self.pos += 1;
        Some(e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.edges.len() - self.pos;
        (rem, Some(rem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path_graph() -> Graph {
        GraphBuilder::new().add_edge(0, 1).add_edge(1, 2).add_edge(2, 3).build()
    }

    fn all_orders() -> Vec<StreamOrder> {
        vec![
            StreamOrder::Natural,
            StreamOrder::Random { seed: 7 },
            StreamOrder::Bfs,
            StreamOrder::Dfs,
            StreamOrder::BfsFrom { start: 2 },
            StreamOrder::DfsFrom { start: 3 },
        ]
    }

    #[test]
    fn vertex_stream_visits_every_vertex_once() {
        let g = path_graph();
        let mut seen: Vec<VertexId> =
            VertexStream::new(&g, StreamOrder::Random { seed: 11 }).map(|r| r.vertex).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn vertex_stream_neighborhoods_are_undirected() {
        let g = path_graph();
        let rec = VertexStream::new(&g, StreamOrder::Natural)
            .find(|r| r.vertex == 1)
            .expect("vertex 1 in stream");
        assert_eq!(rec.neighbors, vec![0, 2]);
        assert_eq!(rec.out_neighbors, vec![2]);
    }

    #[test]
    fn edge_stream_covers_all_edges() {
        let g = path_graph();
        let mut edges: Vec<Edge> = EdgeStream::new(&g, StreamOrder::Random { seed: 5 }).collect();
        edges.sort_unstable();
        assert_eq!(edges, g.edges().collect::<Vec<_>>());
    }

    #[test]
    fn bfs_order_starts_at_root_and_respects_layers() {
        let g =
            GraphBuilder::new().add_edge(0, 1).add_edge(0, 2).add_edge(1, 3).add_edge(2, 4).build();
        let order = vertex_order(&g, StreamOrder::Bfs);
        assert_eq!(order[0], 0);
        let pos = |v: VertexId| order.iter().position(|&x| x == v).unwrap();
        assert!(pos(1) < pos(3));
        assert!(pos(2) < pos(4));
    }

    #[test]
    fn dfs_order_differs_from_bfs_on_tree() {
        let g = GraphBuilder::new()
            .add_edge(0, 1)
            .add_edge(0, 2)
            .add_edge(1, 3)
            .add_edge(1, 4)
            .add_edge(2, 5)
            .add_edge(2, 6)
            .build();
        let bfs = vertex_order(&g, StreamOrder::Bfs);
        let dfs = vertex_order(&g, StreamOrder::Dfs);
        assert_ne!(bfs, dfs);
        assert_eq!(bfs.len(), dfs.len());
    }

    #[test]
    fn traversal_covers_disconnected_components() {
        let g = GraphBuilder::new().add_edge(0, 1).add_edge(2, 3).build();
        let order = vertex_order(&g, StreamOrder::Bfs);
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn random_order_is_seed_deterministic() {
        let g = path_graph();
        let a = vertex_order(&g, StreamOrder::Random { seed: 1 });
        let b = vertex_order(&g, StreamOrder::Random { seed: 1 });
        let c = vertex_order(&g, StreamOrder::Random { seed: 2 });
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn restart_replays_identical_stream() {
        let g = path_graph();
        let mut s = VertexStream::new(&g, StreamOrder::Random { seed: 4 });
        let first: Vec<VertexId> = s.by_ref().map(|r| r.vertex).collect();
        s.restart();
        let second: Vec<VertexId> = s.map(|r| r.vertex).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn edge_stream_size_hint_tracks_position() {
        let g = path_graph();
        let mut s = EdgeStream::new(&g, StreamOrder::Natural);
        assert_eq!(s.size_hint(), (3, Some(3)));
        s.next();
        assert_eq!(s.size_hint(), (2, Some(2)));
    }

    #[test]
    fn start_zero_traversals_match_unit_variants() {
        let g = GraphBuilder::new()
            .add_edge(0, 1)
            .add_edge(0, 2)
            .add_edge(1, 3)
            .add_edge(2, 4)
            .add_edge(5, 6)
            .build();
        assert_eq!(
            vertex_order(&g, StreamOrder::Bfs),
            vertex_order(&g, StreamOrder::BfsFrom { start: 0 })
        );
        assert_eq!(
            vertex_order(&g, StreamOrder::Dfs),
            vertex_order(&g, StreamOrder::DfsFrom { start: 0 })
        );
    }

    #[test]
    fn configurable_start_is_deterministic_and_complete() {
        let g =
            GraphBuilder::new().add_edge(0, 1).add_edge(1, 2).add_edge(2, 3).add_edge(4, 5).build();
        for start in 0..6u32 {
            let a = vertex_order(&g, StreamOrder::BfsFrom { start });
            let b = vertex_order(&g, StreamOrder::BfsFrom { start });
            assert_eq!(a, b, "same order twice for start {start}");
            assert_eq!(a[0], start, "traversal begins at the configured root");
            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..6).collect::<Vec<_>>(), "covers every vertex");
        }
        // Distinct starts produce distinct permutations on this graph.
        assert_ne!(
            vertex_order(&g, StreamOrder::BfsFrom { start: 0 }),
            vertex_order(&g, StreamOrder::BfsFrom { start: 3 }),
        );
    }

    #[test]
    fn out_of_range_start_falls_back_to_natural_roots() {
        let g = path_graph();
        let order = vertex_order(&g, StreamOrder::BfsFrom { start: 99 });
        assert_eq!(order, vertex_order(&g, StreamOrder::Bfs));
    }

    #[test]
    fn chunked_vertex_source_matches_iterator_in_every_order() {
        let g = GraphBuilder::new()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 3)
            .add_edge(3, 0)
            .add_edge(1, 4)
            .add_edge(5, 6)
            .build();
        for order in all_orders() {
            let whole: Vec<VertexRecord> = VertexStream::new(&g, order).collect();
            for chunk_len in [1usize, 2, 3, 64] {
                let mut source = VertexStreamSource::new(&g, order);
                let mut chunk = Vec::new();
                let mut got = Vec::new();
                while source.next_chunk(chunk_len, &mut chunk) > 0 {
                    got.extend(chunk.iter().cloned());
                }
                assert_eq!(got, whole, "order {order:?} chunk {chunk_len}");
            }
        }
    }

    #[test]
    fn chunked_edge_source_matches_iterator_in_every_order() {
        let g = GraphBuilder::new()
            .add_edge(0, 1)
            .add_edge(0, 2)
            .add_edge(2, 3)
            .add_edge(3, 4)
            .add_edge(4, 0)
            .add_edge(5, 6)
            .build();
        for order in all_orders() {
            let whole: Vec<Edge> = EdgeStream::new(&g, order).collect();
            for chunk_len in [1usize, 2, 5, 64] {
                let mut source = EdgeStreamSource::new(&g, order);
                let mut chunk = Vec::new();
                let mut got = Vec::new();
                while source.next_chunk(chunk_len, &mut chunk) > 0 {
                    got.extend(chunk.iter().copied());
                }
                assert_eq!(got, whole, "order {order:?} chunk {chunk_len}");
            }
        }
    }

    #[test]
    fn edge_source_restart_replays_and_tracks_remaining() {
        let g = path_graph();
        let mut s = EdgeStreamSource::new(&g, StreamOrder::Bfs);
        assert_eq!(s.remaining(), 3);
        let first: Vec<Edge> = std::iter::from_fn(|| s.next_edge()).collect();
        assert_eq!(s.remaining(), 0);
        s.restart();
        assert_eq!(s.remaining(), 3);
        let second: Vec<Edge> = std::iter::from_fn(|| s.next_edge()).collect();
        assert_eq!(first, second);
    }
}
