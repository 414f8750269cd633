//! Immutable compressed-sparse-row graph with out- and in-adjacency.
//!
//! The four CSR arrays sit behind [`Arc`]: a graph never changes after
//! its build, so every clone (a store, a runner, a simulation) reads
//! the one copy, and `clone` costs four reference-count bumps.
#![expect(
    clippy::indexing_slicing,
    reason = "CSR invariant: out_offsets and in_offsets have num_vertices+1 ascending entries ending at m, so out_targets[out_offsets[v]..out_offsets[v+1]] and in_sources[in_offsets[v]..in_offsets[v+1]] are in bounds for every v < n; from_edges establishes it (endpoints are below n by the builder's choice of n, each counting-sort cursor starts at its row's offset and advances once per edge of the row, and the dedup compaction writes at or left of where it reads) and the struct is immutable after build"
)]

use crate::types::{Edge, VertexId};
use std::sync::Arc;

/// An immutable directed graph in compressed-sparse-row form.
///
/// Both out-adjacency (for scatter phases and 1-hop queries) and
/// in-adjacency (for PageRank-style gathers) are materialized, mirroring
/// what PowerLyra and JanusGraph keep per machine. Construction goes
/// through [`crate::GraphBuilder`] or the generator functions.
///
/// Cloning shares the adjacency arrays instead of copying them: a clone
/// and its original return the same slices from every accessor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    num_vertices: usize,
    /// CSR row offsets into `out_targets`, length `n + 1`.
    out_offsets: Arc<[u64]>,
    out_targets: Arc<[VertexId]>,
    /// CSR row offsets into `in_sources`, length `n + 1`.
    in_offsets: Arc<[u64]>,
    in_sources: Arc<[VertexId]>,
}

impl Graph {
    /// Builds the CSR over `n` vertices from an edge list in any order,
    /// keeping parallel edges unless `dedup`. Used by
    /// [`crate::GraphBuilder::build`]; prefer the builder in user code.
    ///
    /// A counting sort by source fills the out-rows, each row is then
    /// sorted (and compacted leftward when deduplicating), and the
    /// in-rows are filled by walking the sources in ascending order,
    /// which leaves them sorted: no sort ever sees more than one row.
    ///
    /// `Arc::from(Vec)` copies, so only the out-targets, whose length
    /// the dedup decides, take that step, after the staged list is
    /// freed; the other three arrays are filled inside their `Arc`. The
    /// build's peak stays the staged list plus the out-targets.
    pub(crate) fn from_edges(n: usize, edges: Vec<Edge>, dedup: bool) -> Self {
        let mut out_offsets = zeroed::<u64>(n + 1);
        let offsets = Arc::make_mut(&mut out_offsets);
        for e in &edges {
            offsets[e.src as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut out_targets = vec![0 as VertexId; edges.len()];
        let mut cursor = offsets[..n].to_vec();
        for e in &edges {
            let c = &mut cursor[e.src as usize];
            out_targets[*c as usize] = e.dst;
            *c += 1;
        }
        // The staged list and the cursor are dead weight from here on;
        // free them before the in-arrays are allocated.
        drop(edges);
        drop(cursor);

        let (mut read, mut write) = (0usize, 0usize);
        for v in 0..n {
            let end = offsets[v + 1] as usize;
            out_targets[read..end].sort_unstable();
            if dedup {
                let row = write;
                for r in read..end {
                    let w = out_targets[r];
                    if write == row || out_targets[write - 1] != w {
                        out_targets[write] = w;
                        write += 1;
                    }
                }
            } else {
                write = end;
            }
            read = end;
            offsets[v + 1] = write as u64;
        }
        out_targets.truncate(write);
        let out_targets: Arc<[VertexId]> = out_targets.into();

        let mut in_offsets = zeroed::<u64>(n + 1);
        let offsets = Arc::make_mut(&mut in_offsets);
        for &w in out_targets.iter() {
            offsets[w as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut in_sources = zeroed::<VertexId>(out_targets.len());
        let sources = Arc::make_mut(&mut in_sources);
        for v in 0..n {
            let (s, t) = (out_offsets[v] as usize, out_offsets[v + 1] as usize);
            for &w in &out_targets[s..t] {
                let c = &mut cursor[w as usize];
                sources[*c as usize] = v as VertexId;
                *c += 1;
            }
        }
        Graph { num_vertices: n, out_offsets, out_targets, in_offsets, in_sources }
    }

    /// Number of vertices `n = |V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges `m = |E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        (self.out_offsets[v as usize + 1] - self.out_offsets[v as usize]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        (self.in_offsets[v as usize + 1] - self.in_offsets[v as usize]) as usize
    }

    /// Total degree (in + out) of `v`, the degree notion used by the
    /// paper's edge-cut heuristics on undirected neighbourhoods.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Out-neighbours of `v`, sorted ascending.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let (s, t) =
            (self.out_offsets[v as usize] as usize, self.out_offsets[v as usize + 1] as usize);
        &self.out_targets[s..t]
    }

    /// In-neighbours of `v`, sorted ascending.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let (s, t) =
            (self.in_offsets[v as usize] as usize, self.in_offsets[v as usize + 1] as usize);
        &self.in_sources[s..t]
    }

    /// Iterates the union of in- and out-neighbours of `v` (with
    /// duplicates when an edge exists in both directions). This is the
    /// neighbourhood `N(u)` that vertex-stream partitioners see.
    pub fn undirected_neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.out_neighbors(v).iter().copied().chain(self.in_neighbors(v).iter().copied())
    }

    /// Dense index (slot) of the directed edge `src -> dst` in
    /// [`Graph::edges`] iteration order, or `None` if the edge does not
    /// exist. Partition assignments are stored as arrays indexed by slot.
    ///
    /// A binary search over the out-row: the stream sources hand every
    /// edge its slot ([`crate::EdgeStreamSource::next_slotted_chunk`]), so this
    /// serves only callers that hold bare `(src, dst)` pairs — the
    /// streaming facade's edge ingest, and tests. With multi-edges the
    /// slot of the first copy is returned.
    pub fn edge_index(&self, src: VertexId, dst: VertexId) -> Option<usize> {
        if src as usize >= self.num_vertices {
            return None;
        }
        let row = self.out_neighbors(src);
        let pos = row.partition_point(|&w| w < dst);
        (row.get(pos) == Some(&dst)).then(|| self.out_offsets[src as usize] as usize + pos)
    }

    /// The edge in `slot` ([`Graph::edges`] order), or `None` if
    /// `slot ≥ m`: a binary search over the row offsets for its source.
    pub fn edge_at(&self, slot: usize) -> Option<Edge> {
        let dst = *self.out_targets.get(slot)?;
        // out_offsets[0] = 0 ≤ slot < m = out_offsets[n]: the last row
        // starting at or before `slot` is non-empty and holds it.
        let src = self.out_offsets.partition_point(|&o| o <= slot as u64) - 1;
        Some(Edge::new(src as VertexId, dst))
    }

    /// The target of the edge in `slot`; `slot < m`.
    #[inline]
    pub(crate) fn out_target(&self, slot: usize) -> VertexId {
        self.out_targets[slot]
    }

    /// Range of dense edge indices covering all out-edges of `v` (in
    /// [`Graph::edges`] order); `out_neighbors(v)[i]` is the target of
    /// edge index `out_edge_range(v).start + i`.
    pub fn out_edge_range(&self, v: VertexId) -> std::ops::Range<usize> {
        self.out_offsets[v as usize] as usize..self.out_offsets[v as usize + 1] as usize
    }

    /// Range of slots covering the in-adjacency of `v`: `in_neighbors(v)[i]`
    /// sits in slot `in_edge_range(v).start + i` of an array laid out like
    /// the in-adjacency (one entry per edge, rows by target, sources
    /// ascending within a row).
    #[inline]
    pub fn in_edge_range(&self, v: VertexId) -> std::ops::Range<usize> {
        self.in_offsets[v as usize] as usize..self.in_offsets[v as usize + 1] as usize
    }

    /// Iterates all vertices `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices as VertexId
    }

    /// Iterates all directed edges in `(src, dst)` order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.vertices()
            .flat_map(move |v| self.out_neighbors(v).iter().map(move |&w| Edge::new(v, w)))
    }

    /// The maximum total degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average out-degree `m / n` (0.0 for an empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices as f64
        }
    }

    /// Returns the undirected view of this graph (every edge mirrored,
    /// deduplicated, self-loops dropped). WCC and the METIS-like offline
    /// partitioner operate on this view, as does the paper's weighted
    /// workload-aware experiment.
    pub fn to_undirected(&self) -> Graph {
        let mut edges = Vec::with_capacity(self.num_edges() * 2);
        for e in self.edges() {
            if !e.is_loop() {
                edges.push(e);
                edges.push(e.reversed());
            }
        }
        Graph::from_edges(self.num_vertices, edges, true)
    }
}

/// `len` zeros in a fresh, hence unique, `Arc`: [`Arc::make_mut`] lends
/// its slice without cloning. The iterator's exact length lets the
/// slice be allocated in place, with no staging `Vec` to copy from.
fn zeroed<T: Copy + Default>(len: usize) -> Arc<[T]> {
    std::iter::repeat_n(T::default(), len).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> Graph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        GraphBuilder::new().add_edge(0, 1).add_edge(0, 2).add_edge(1, 3).add_edge(2, 3).build()
    }

    #[test]
    fn csr_basic_counts() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn csr_adjacency_sorted() {
        let g = diamond();
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert!(g.out_neighbors(3).is_empty());
        assert!(g.in_neighbors(0).is_empty());
    }

    #[test]
    fn edge_index_matches_iteration_order() {
        let g = diamond();
        for (i, e) in g.edges().enumerate() {
            assert_eq!(g.edge_index(e.src, e.dst), Some(i));
        }
        assert_eq!(g.edge_index(3, 0), None);
    }

    #[test]
    fn edge_at_inverts_the_slot_order() {
        let g = GraphBuilder::new()
            .keep_duplicates(true)
            .keep_self_loops(true)
            .ensure_vertices(7)
            .extend_edges([(0, 1), (0, 1), (2, 2), (5, 0), (5, 6), (5, 6)].map(Edge::from))
            .build();
        for (slot, e) in g.edges().enumerate() {
            assert_eq!(g.edge_at(slot), Some(e), "slot {slot}");
        }
        assert_eq!(g.edge_at(g.num_edges()), None);
        assert_eq!(g.edge_index(7, 0), None, "a source past n is no edge");
    }

    #[test]
    fn edge_index_names_the_first_of_parallel_edges() {
        let g = GraphBuilder::new()
            .keep_duplicates(true)
            .extend_edges([(0, 1), (0, 1), (0, 1), (0, 2)].map(Edge::from))
            .build();
        assert_eq!(g.out_neighbors(0), &[1, 1, 1, 2]);
        assert_eq!(g.edge_index(0, 1), Some(0));
        assert_eq!(g.edge_index(0, 2), Some(3));
        assert_eq!(g.edge_index(0, 3), None);
    }

    #[test]
    fn in_edge_range_tiles_the_in_adjacency() {
        let g = diamond();
        let mut next = 0;
        for v in g.vertices() {
            let range = g.in_edge_range(v);
            assert_eq!((range.start, range.len()), (next, g.in_degree(v)));
            next = range.end;
        }
        assert_eq!(next, g.num_edges());
    }

    /// The build as it was: one global sort, dedup, rows cut from the
    /// sorted list, in-rows sorted after the fill.
    fn sort_and_dedup_reference(n: usize, mut edges: Vec<Edge>, dedup: bool) -> Graph {
        edges.sort_unstable();
        if dedup {
            edges.dedup();
        }
        let mut out_offsets = vec![0u64; n + 1];
        let mut in_offsets = vec![0u64; n + 1];
        for e in &edges {
            out_offsets[e.src as usize + 1] += 1;
            in_offsets[e.dst as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut by_target = edges.clone();
        by_target.sort_unstable_by_key(|e| (e.dst, e.src));
        Graph {
            num_vertices: n,
            out_offsets: out_offsets.into(),
            out_targets: edges.iter().map(|e| e.dst).collect(),
            in_offsets: in_offsets.into(),
            in_sources: by_target.iter().map(|e| e.src).collect(),
        }
    }

    #[test]
    fn from_edges_equals_the_sort_and_dedup_build() {
        // Unsorted, with parallel edges, self-loops, a reciprocal pair
        // and isolated tail vertices 7..9.
        let staged: Vec<Edge> = [
            (4, 1),
            (0, 3),
            (4, 1),
            (2, 2),
            (6, 0),
            (0, 3),
            (3, 0),
            (5, 5),
            (0, 1),
            (4, 1),
            (1, 4),
        ]
        .map(Edge::from)
        .to_vec();
        for keep_self_loops in [false, true] {
            for keep_duplicates in [false, true] {
                let what = format!("loops {keep_self_loops}, duplicates {keep_duplicates}");
                let g = GraphBuilder::new()
                    .keep_self_loops(keep_self_loops)
                    .keep_duplicates(keep_duplicates)
                    .ensure_vertices(10)
                    .extend_edges(staged.iter().copied())
                    .build();
                let kept: Vec<Edge> =
                    staged.iter().copied().filter(|e| keep_self_loops || !e.is_loop()).collect();
                assert_eq!(g, sort_and_dedup_reference(10, kept, !keep_duplicates), "{what}");

                let mirrored: Vec<Edge> =
                    g.edges().filter(|e| !e.is_loop()).flat_map(|e| [e, e.reversed()]).collect();
                let undirected = sort_and_dedup_reference(10, mirrored, true);
                assert_eq!(g.to_undirected(), undirected, "{what}: undirected view");
            }
        }
        let empty = GraphBuilder::new().build();
        assert_eq!(empty, sort_and_dedup_reference(0, Vec::new(), true));
        assert_eq!(empty.to_undirected(), empty);
    }

    #[test]
    fn a_graph_clone_shares_its_adjacency() {
        let g = GraphBuilder::new()
            .keep_duplicates(true)
            .keep_self_loops(true)
            .ensure_vertices(6)
            .extend_edges([(0, 1), (0, 1), (2, 2), (3, 0), (3, 4), (4, 3)].map(Edge::from))
            .build();
        let c = g.clone();
        assert_eq!(c, g);
        assert_eq!((c.num_vertices(), c.num_edges()), (g.num_vertices(), g.num_edges()));
        for v in g.vertices() {
            assert_eq!(c.out_neighbors(v).as_ptr(), g.out_neighbors(v).as_ptr(), "out-row {v}");
            assert_eq!(c.in_neighbors(v).as_ptr(), g.in_neighbors(v).as_ptr(), "in-row {v}");
            assert_eq!(c.out_neighbors(v), g.out_neighbors(v));
            assert_eq!(c.in_neighbors(v), g.in_neighbors(v));
            assert_eq!((c.out_degree(v), c.in_degree(v)), (g.out_degree(v), g.in_degree(v)));
            assert_eq!(
                (c.out_edge_range(v), c.in_edge_range(v)),
                (g.out_edge_range(v), g.in_edge_range(v))
            );
        }
        for (slot, e) in g.edges().enumerate() {
            assert_eq!(c.edge_at(slot), Some(e));
            assert_eq!(c.edge_index(e.src, e.dst), g.edge_index(e.src, e.dst));
        }
        assert_eq!(c.edges().collect::<Vec<_>>(), g.edges().collect::<Vec<_>>());
        assert_eq!((c.max_degree(), c.avg_degree()), (g.max_degree(), g.avg_degree()));
        assert_eq!(c.to_undirected(), g.to_undirected());
    }

    #[test]
    fn csr_edges_roundtrip() {
        let g = diamond();
        let edges: Vec<Edge> = g.edges().collect();
        assert_eq!(edges, vec![Edge::new(0, 1), Edge::new(0, 2), Edge::new(1, 3), Edge::new(2, 3)]);
    }

    #[test]
    fn csr_degree_stats() {
        let g = diamond();
        assert_eq!(g.max_degree(), 2);
        assert!((g.avg_degree() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn undirected_view_mirrors_edges() {
        let g = diamond().to_undirected();
        assert_eq!(g.num_edges(), 8);
        assert!(g.edge_index(1, 0).is_some());
        assert!(g.edge_index(0, 1).is_some());
        assert_eq!(g.out_degree(3), 2);
    }

    #[test]
    fn undirected_view_dedups_bidirectional_pairs() {
        let g = GraphBuilder::new().add_edge(0, 1).add_edge(1, 0).build().to_undirected();
        assert_eq!(g.num_edges(), 2); // 0->1 and 1->0 exactly once each
    }

    #[test]
    fn undirected_neighbors_covers_both_directions() {
        let g = diamond();
        let n1: Vec<_> = g.undirected_neighbors(1).collect();
        assert_eq!(n1, vec![3, 0]); // out first, then in
    }
}
