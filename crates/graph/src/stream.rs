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
//!   yield bounded chunks of stream elements in any order. Vertex records
//!   borrow CSR rows: a symmetric, duplicate-free row is lent as is, and
//!   any other neighbourhood is one linear merge of the out- and in-row.
//!   `Natural` order walks the CSR directly (O(1) cursor state),
//!   `Bfs`/`Dfs` hold only the O(|V|) vertex visit order (edges are
//!   expanded lazily), and only `Random` materializes the full element
//!   permutation, because the seeded Fisher–Yates shuffle finalizes the
//!   *last* position first and therefore cannot be replayed lazily from
//!   the front.
#![expect(
    clippy::indexing_slicing,
    reason = "stream orders permute 0..num_vertices / 0..num_edges, so replay indexes the backing arrays within their length"
)]

use crate::csr::Graph;
use crate::sampling::{seeded_rng, shuffle};
use crate::types::{Edge, VertexId};
use std::borrow::Cow;

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
            // `N(v)` is the out-row then the in-row. When the two rows
            // are equal, the out-row scan has already marked every
            // in-neighbour, so the in-row adds nothing.
            let (outs, ins) = (g.out_neighbors(v), g.in_neighbors(v));
            let ins = if ins == outs { &[][..] } else { ins };
            for &w in outs.iter().chain(ins) {
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
///
/// The record borrows its row from the graph's CSR whenever it can: a
/// vertex whose out-row equals its in-row and is strictly ascending
/// already holds `N(u)` in one slice. Other vertices get one owned row,
/// merged from the two sorted CSR rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexRecord<'g> {
    /// The arriving vertex.
    pub vertex: VertexId,
    /// Its complete neighbourhood `N(u)` over the undirected structure
    /// (out- and in-neighbours, deduplicated, sorted).
    pub neighbors: Cow<'g, [VertexId]>,
}

impl<'g> VertexRecord<'g> {
    /// Builds the stream element for `v`, the only constructor: the
    /// stream sources call it per record, and consumers that persist
    /// buffered records by vertex id (the windowed partitioner's
    /// snapshot layer) call it to rebuild them from the graph.
    pub fn for_vertex(g: &'g Graph, v: VertexId) -> VertexRecord<'g> {
        let (outs, ins) = (g.out_neighbors(v), g.in_neighbors(v));
        let neighbors = if outs == ins && outs.windows(2).all(|w| w[0] < w[1]) {
            Cow::Borrowed(outs)
        } else {
            Cow::Owned(merge_distinct(outs, ins))
        };
        VertexRecord { vertex: v, neighbors }
    }
}

/// The sorted union of two ascending rows, each value once.
fn merge_distinct(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut merged: Vec<VertexId> = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    loop {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x <= y => {
                i += 1;
                x
            }
            (_, Some(&y)) => {
                j += 1;
                y
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, None) => break,
        };
        if merged.last() != Some(&next) {
            merged.push(next);
        }
    }
    merged
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
/// [`VertexRecord`]s in any [`StreamOrder`]. Records borrow CSR rows
/// wherever the graph already holds `N(u)` as one row (see
/// [`VertexRecord::for_vertex`]), and `Natural` order does not
/// materialize the permutation either. This is the ingestion primitive
/// of the incremental partitioner core.
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

    /// Yields the next stream element, or `None` at end of stream.
    pub fn next_record(&mut self) -> Option<VertexRecord<'g>> {
        self.next_vertex().map(|v| VertexRecord::for_vertex(self.graph, v))
    }

    /// Fills `out` with the next up-to-`max_len` stream elements
    /// (clearing it first) and returns how many were produced; 0 means
    /// end of stream. `max_len = 0` is treated as 1 so the cursor always
    /// makes progress.
    pub fn next_chunk(&mut self, max_len: usize, out: &mut Vec<VertexRecord<'g>>) -> usize {
        fill_chunk(max_len, out, || self.next_record())
    }
}

/// Cursor state of an [`EdgeStreamSource`]. Every cursor knows the CSR
/// slot of the edge it yields, so no consumer searches the CSR for it.
#[derive(Debug, Clone)]
enum EdgeCursor {
    /// Natural order walks the CSR in place: the slot is the running
    /// offset, and `v` the row it falls in.
    Csr { v: VertexId, slot: usize },
    /// Traversal orders expand the out-edges of each vertex of the O(|V|)
    /// visit order lazily — no O(|E|) buffer. The slot is
    /// `out_edge_range(src).start + off`.
    ByVertex { order: Vec<VertexId>, vi: usize, off: usize },
    /// Random order must materialize the permutation (backward
    /// Fisher–Yates finalizes the last slot first, so it cannot stream).
    /// It shuffles `(slot, src)` pairs, as many bytes as the edges
    /// themselves, and reads `dst` from the CSR by slot.
    Materialized { edges: Vec<(u32, VertexId)>, pos: usize },
}

/// Chunked edge-stream cursor: yields bounded chunks of [`Edge`]s in any
/// [`StreamOrder`]. `Natural` and the traversal orders never allocate an
/// O(|E|) edge vector; `Random` holds the shuffled permutation.
///
/// Every edge comes with its CSR slot, its index in [`Graph::edges`]
/// order ([`next_slotted_chunk`](EdgeStreamSource::next_slotted_chunk)):
/// each parallel copy of a multigraph edge has a slot of its own.
/// [`next_edge`](EdgeStreamSource::next_edge) and
/// [`next_chunk`](EdgeStreamSource::next_chunk) are the same stream with
/// the slots dropped.
///
/// For `StreamOrder::Bfs`/`Dfs` the edges arrive grouped by the traversal
/// order of their source vertex, which is the adversarial order for
/// PowerGraph-style greedy placement.
#[derive(Debug, Clone)]
pub struct EdgeStreamSource<'g> {
    graph: &'g Graph,
    cursor: EdgeCursor,
}

impl<'g> EdgeStreamSource<'g> {
    /// Creates a chunked edge source over `g` in the given order.
    ///
    /// # Panics
    /// Panics if `g` has more than 2^32 edges: slots are `u32`, and a
    /// larger graph is refused here rather than streamed with slots
    /// that wrap (DESIGN.md §3.1).
    pub fn new(g: &'g Graph, order: StreamOrder) -> Self {
        assert!(
            u32::try_from(g.num_edges().saturating_sub(1)).is_ok(),
            "an edge stream numbers its slots in u32: {} edges do not fit",
            g.num_edges()
        );
        let cursor = match order {
            StreamOrder::Natural => EdgeCursor::Csr { v: 0, slot: 0 },
            StreamOrder::Random { seed } => {
                let mut e: Vec<(u32, VertexId)> = Vec::with_capacity(g.num_edges());
                for v in g.vertices() {
                    e.extend(g.out_edge_range(v).map(|slot| (slot as u32, v)));
                }
                // The draws depend only on the length, so the permutation
                // is the one a shuffle of the edges themselves would take.
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
        EdgeStreamSource { graph: g, cursor }
    }

    /// Restarts the stream from the beginning with the same order.
    pub fn restart(&mut self) {
        match &mut self.cursor {
            EdgeCursor::Csr { v, slot } => {
                *v = 0;
                *slot = 0;
            }
            EdgeCursor::ByVertex { vi, off, .. } => {
                *vi = 0;
                *off = 0;
            }
            EdgeCursor::Materialized { pos, .. } => *pos = 0,
        }
    }

    /// Yields the next stream element with its CSR slot, or `None` at
    /// end of stream: the one cursor core every other method projects.
    fn next_slotted(&mut self) -> Option<(u32, Edge)> {
        let g = self.graph;
        match &mut self.cursor {
            EdgeCursor::Csr { v, slot } => loop {
                if (*v as usize) >= g.num_vertices() {
                    break None;
                }
                let next = *slot;
                if next < g.out_edge_range(*v).end {
                    *slot += 1;
                    break Some((next as u32, Edge::new(*v, g.out_target(next))));
                }
                *v += 1;
            },
            EdgeCursor::ByVertex { order, vi, off } => loop {
                let Some(&src) = order.get(*vi) else { break None };
                let row = g.out_edge_range(src);
                if *off < row.len() {
                    let slot = row.start + *off;
                    *off += 1;
                    break Some((slot as u32, Edge::new(src, g.out_target(slot))));
                }
                *vi += 1;
                *off = 0;
            },
            EdgeCursor::Materialized { edges, pos } => {
                let &(slot, src) = edges.get(*pos)?;
                *pos += 1;
                Some((slot, Edge::new(src, g.out_target(slot as usize))))
            }
        }
    }

    /// Yields the next stream element, or `None` at end of stream.
    pub fn next_edge(&mut self) -> Option<Edge> {
        self.next_slotted().map(|(_, e)| e)
    }

    /// Fills `out` with the next up-to-`max_len` stream elements and
    /// their slots (clearing it first) and returns how many were
    /// produced; 0 means end of stream. `max_len = 0` is treated as 1 so
    /// the cursor always makes progress.
    pub fn next_slotted_chunk(&mut self, max_len: usize, out: &mut Vec<(u32, Edge)>) -> usize {
        fill_chunk(max_len, out, || self.next_slotted())
    }

    /// [`next_slotted_chunk`](EdgeStreamSource::next_slotted_chunk)
    /// without the slots.
    pub fn next_chunk(&mut self, max_len: usize, out: &mut Vec<Edge>) -> usize {
        fill_chunk(max_len, out, || self.next_edge())
    }
}

/// Clears `out` and fills it with up to `max_len.max(1)` elements drawn
/// from `next`; returns how many.
fn fill_chunk<T>(max_len: usize, out: &mut Vec<T>, mut next: impl FnMut() -> Option<T>) -> usize {
    out.clear();
    let max_len = max_len.max(1);
    while out.len() < max_len {
        match next() {
            Some(e) => out.push(e),
            None => break,
        }
    }
    out.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::{check_cases, Rng};
    use crate::GraphBuilder;

    fn path_graph() -> Graph {
        GraphBuilder::new().add_edge(0, 1).add_edge(1, 2).add_edge(2, 3).build()
    }

    /// Every record of a vertex stream, drained one at a time.
    fn records(g: &Graph, order: StreamOrder) -> Vec<VertexRecord<'_>> {
        let mut source = VertexStreamSource::new(g, order);
        std::iter::from_fn(|| source.next_record()).collect()
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
            records(&g, StreamOrder::Random { seed: 11 }).iter().map(|r| r.vertex).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn vertex_stream_neighborhoods_are_undirected() {
        let g = path_graph();
        let rec = records(&g, StreamOrder::Natural)
            .into_iter()
            .find(|r| r.vertex == 1)
            .expect("vertex 1 in stream");
        assert_eq!(rec.neighbors, vec![0, 2]);
        assert!(matches!(rec.neighbors, Cow::Owned(_)), "out-row [2] and in-row [0] are merged");
    }

    /// How the edges of a [`random_graph`] are drawn.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        /// Any directed edges, self-loops and parallel edges kept or not.
        Directed,
        /// Every edge in both directions, parallel edges merged.
        Symmetric,
        /// Every edge in both directions, some of them twice, all kept.
        SymmetricMulti,
    }

    /// A small random graph of the given shape, with a few isolated
    /// vertices appended past the last id an edge can name.
    fn random_graph(rng: &mut Rng, shape: Shape) -> Graph {
        let n = rng.range(1..12);
        let coin = |rng: &mut Rng| rng.below(2) == 1;
        let (symmetric, keep_duplicates) = match shape {
            Shape::Directed => (false, coin(rng)),
            Shape::Symmetric => (true, false),
            Shape::SymmetricMulti => (true, true),
        };
        let mut b = GraphBuilder::new()
            .keep_duplicates(keep_duplicates)
            .keep_self_loops(coin(rng))
            .ensure_vertices(n + rng.range(0..3));
        for _ in 0..rng.range(0..3 * n + 1) {
            let (u, v) = (rng.index(n) as VertexId, rng.index(n) as VertexId);
            let copies = if rng.below(4) == 0 { 2 } else { 1 };
            for _ in 0..copies {
                b.push_edge(u, v);
                if symmetric {
                    b.push_edge(v, u);
                }
            }
        }
        b.build()
    }

    /// The neighbourhood as the paper defines it, built the obvious way.
    fn textbook_neighbors(g: &Graph, v: VertexId) -> Vec<VertexId> {
        let mut row: Vec<VertexId> = g.undirected_neighbors(v).collect();
        row.sort_unstable();
        row.dedup();
        row
    }

    #[test]
    fn lent_rows_equal_the_textbook_neighbourhood() {
        let (mut records, mut mismatches, mut lent, mut repeated) =
            (0usize, 0usize, 0usize, 0usize);
        check_cases(96, |rng| {
            let shape = [Shape::Directed, Shape::Symmetric, Shape::SymmetricMulti][rng.index(3)];
            let g = random_graph(rng, shape);
            let mut orders = all_orders();
            orders.push(StreamOrder::Random { seed: rng.next_u64() });
            for order in orders {
                for chunk_len in [1usize, 2, 64] {
                    let mut source = VertexStreamSource::new(&g, order);
                    let mut chunk = Vec::new();
                    let mut seen = vec![false; g.num_vertices()];
                    while source.next_chunk(chunk_len, &mut chunk) > 0 {
                        for rec in &chunk {
                            let v = rec.vertex;
                            assert!(!seen[v as usize], "{v} streamed twice in {order:?}");
                            seen[v as usize] = true;
                            let (outs, ins) = (g.out_neighbors(v), g.in_neighbors(v));
                            let lendable = outs == ins && outs.windows(2).all(|w| w[0] < w[1]);
                            let borrowed = matches!(rec.neighbors, Cow::Borrowed(_));
                            // On a symmetric simple graph every row is lent
                            // straight out of the CSR: no record allocates.
                            let in_place = !matches!(shape, Shape::Symmetric)
                                || rec.neighbors.as_ptr() == outs.as_ptr();
                            records += 1;
                            lent += usize::from(borrowed);
                            repeated += usize::from(outs == ins && !lendable);
                            if rec.neighbors != textbook_neighbors(&g, v)
                                || borrowed != lendable
                                || !in_place
                            {
                                mismatches += 1;
                            }
                        }
                    }
                    assert!(seen.iter().all(|&s| s), "{order:?} chunk {chunk_len} skips a vertex");
                }
            }
        });
        assert_eq!(mismatches, 0, "{mismatches} of {records} records differ from the oracle");
        assert!(0 < lent && lent < records, "both row kinds occur: {lent} of {records} lent");
        assert!(repeated > 0, "some symmetric rows repeat a neighbour");
    }

    /// [`traversal_order`] as first written: every vertex scans its
    /// out-row and its in-row.
    fn textbook_traversal(g: &Graph, bfs: bool, start: VertexId) -> Vec<VertexId> {
        let n = g.num_vertices();
        let mut seen = vec![false; n];
        let mut out = Vec::new();
        let mut frontier = std::collections::VecDeque::new();
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

    #[test]
    fn traversal_order_equals_the_two_row_scan() {
        check_cases(96, |rng| {
            let shape = [Shape::Directed, Shape::Symmetric, Shape::SymmetricMulti][rng.index(3)];
            let g = random_graph(rng, shape);
            let start = rng.index(g.num_vertices() + 1) as VertexId;
            for bfs in [true, false] {
                assert_eq!(
                    traversal_order(&g, bfs, start),
                    textbook_traversal(&g, bfs, start),
                    "{shape:?} bfs {bfs} start {start}"
                );
            }
        });
    }

    #[test]
    fn edge_stream_covers_all_edges() {
        let g = path_graph();
        let mut s = EdgeStreamSource::new(&g, StreamOrder::Random { seed: 5 });
        let mut edges: Vec<Edge> = std::iter::from_fn(|| s.next_edge()).collect();
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
        let mut s = VertexStreamSource::new(&g, StreamOrder::Random { seed: 4 });
        let first: Vec<VertexId> =
            std::iter::from_fn(|| s.next_record()).map(|r| r.vertex).collect();
        s.restart();
        let second: Vec<VertexId> =
            std::iter::from_fn(|| s.next_record()).map(|r| r.vertex).collect();
        assert_eq!(first, second);
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
            let whole = records(&g, order);
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
            let mut s = EdgeStreamSource::new(&g, order);
            let whole: Vec<Edge> = std::iter::from_fn(|| s.next_edge()).collect();
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

    /// Every order yields each slot once, with the edge that sits in it,
    /// on multigraphs too; the random order is the permutation the seeded
    /// shuffle of the edge list itself takes.
    #[test]
    fn slotted_edge_stream_names_each_slot_once() {
        check_cases(96, |rng| {
            let shape = [Shape::Directed, Shape::Symmetric, Shape::SymmetricMulti][rng.index(3)];
            let g = random_graph(rng, shape);
            let seed = rng.next_u64();
            let mut orders = all_orders();
            orders.push(StreamOrder::Random { seed });
            for order in orders {
                let mut source = EdgeStreamSource::new(&g, order);
                let mut seen = vec![false; g.num_edges()];
                let mut chunk = Vec::new();
                let mut streamed = Vec::new();
                while source.next_slotted_chunk(rng.range(1..5), &mut chunk) > 0 {
                    for &(slot, e) in &chunk {
                        assert!(!seen[slot as usize], "slot {slot} twice in {order:?}");
                        seen[slot as usize] = true;
                        assert_eq!(g.edge_at(slot as usize), Some(e), "{order:?}");
                        streamed.push(e);
                    }
                }
                assert!(seen.iter().all(|&s| s), "{order:?} skips a slot");
                source.restart();
                let bare: Vec<Edge> = std::iter::from_fn(|| source.next_edge()).collect();
                assert_eq!(bare, streamed, "{order:?}: the bare stream is the slotted one");
            }
            let mut shuffled: Vec<Edge> = g.edges().collect();
            shuffle(&mut shuffled, &mut seeded_rng(seed ^ 0x9E37_79B9));
            let mut source = EdgeStreamSource::new(&g, StreamOrder::Random { seed });
            let random: Vec<Edge> = std::iter::from_fn(|| source.next_edge()).collect();
            assert_eq!(random, shuffled);
        });
    }

    #[test]
    fn edge_source_restart_replays() {
        let g = path_graph();
        let mut s = EdgeStreamSource::new(&g, StreamOrder::Bfs);
        let first: Vec<Edge> = std::iter::from_fn(|| s.next_edge()).collect();
        assert_eq!(first.len(), 3);
        s.restart();
        let second: Vec<Edge> = std::iter::from_fn(|| s.next_edge()).collect();
        assert_eq!(first, second);
    }
}
