//! Master/mirror placement derived from a [`Partitioning`].
//!
//! This is the PowerGraph/PowerLyra data-layout layer: every edge lives
//! on exactly one machine; every vertex is *mastered* on one machine and
//! *mirrored* on every other machine holding one of its edges. The
//! per-vertex direction information (which mirrors hold in-edges, which
//! hold out-edges) is what determines the paper's communication
//! asymmetry between cut models (Appendix B, Fig. 10).
//!
//! The layout is flat (DESIGN.md §3.3): machine sets are fixed-stride
//! `u64` bitsets, the per-machine edge lists are ranges of one array,
//! and every in-adjacency slot carries its edge index.

use sgp_graph::{Edge, Graph, VertexId};
use sgp_partition::assignment::hashed_master;
use sgp_partition::{PartitionId, Partitioning};

/// The physical layout of a partitioned graph over `k` simulated
/// machines: `4 + 16 * ceil(k / 64)` bytes per vertex and 16 per edge,
/// in seven allocations whatever the graph.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Number of machines.
    pub k: usize,
    /// Master machine of every vertex.
    pub masters: Vec<PartitionId>,
    /// Machine of every edge, indexed by [`Graph::edge_index`].
    pub edge_parts: Vec<PartitionId>,
    /// Words per vertex in `out_bits` and `in_bits`: `ceil(k / 64)`.
    stride: usize,
    /// Bit `p` of vertex `v`'s block is set iff machine `p` stores an
    /// out-edge of `v`.
    out_bits: Vec<u64>,
    /// The same for in-edges. The replica set `A(v)` is not stored: it is
    /// `out | in | {master}`.
    in_bits: Vec<u64>,
    /// Every edge, grouped by machine, in edge-index order within a group.
    local_edges: Vec<Edge>,
    /// Machine `p`'s edges are `local_edges[local_offsets[p]..local_offsets[p + 1]]`.
    local_offsets: Vec<usize>,
    /// Edge index of every in-adjacency slot ([`Graph::in_edge_range`]).
    in_edge_ids: Vec<u32>,
}

impl Placement {
    /// Materializes the layout for `g` under partitioning `p`.
    ///
    /// # Panics
    /// Panics if `g` has more than `u32::MAX` edges: in-adjacency slots
    /// hold edge indices as `u32`.
    pub fn build(g: &Graph, p: &Partitioning) -> Self {
        let (n, m, k) = (g.num_vertices(), g.num_edges(), p.k);
        assert!(u32::try_from(m).is_ok(), "edge indices must fit in u32");
        let stride = k.div_ceil(64).max(1);

        let mut local_offsets = vec![0usize; k + 1];
        for &part in &p.edge_parts {
            local_offsets[part as usize + 1] += 1;
        }
        for i in 0..k {
            local_offsets[i + 1] += local_offsets[i];
        }

        // One pass in edge-index order, so each machine's group keeps
        // that order and each in-row's slots fill in source order.
        let mut out_bits = vec![0u64; n * stride];
        let mut in_bits = vec![0u64; n * stride];
        let mut local_edges = vec![Edge::new(0, 0); m];
        let mut in_edge_ids = vec![0u32; m];
        let mut local_cursor = local_offsets[..k].to_vec();
        let mut in_cursor: Vec<u32> =
            g.vertices().map(|v| g.in_edge_range(v).start as u32).collect();
        for (i, e) in g.edges().enumerate() {
            let part = p.edge_parts[i] as usize;
            let (word, bit) = (part >> 6, 1u64 << (part & 63));
            out_bits[e.src as usize * stride + word] |= bit;
            in_bits[e.dst as usize * stride + word] |= bit;
            local_edges[local_cursor[part]] = e;
            local_cursor[part] += 1;
            let slot = &mut in_cursor[e.dst as usize];
            in_edge_ids[*slot as usize] = i as u32;
            *slot += 1;
        }

        let masters = match &p.vertex_owner {
            Some(owner) => owner.clone(),
            None => {
                let mut block = vec![0u64; stride];
                g.vertices()
                    .map(|v| {
                        let at = v as usize * stride;
                        for (w, word) in block.iter_mut().enumerate() {
                            *word = out_bits[at + w] | in_bits[at + w];
                        }
                        hashed_master(v, &block, k)
                    })
                    .collect()
            }
        };
        Placement {
            k,
            masters,
            edge_parts: p.edge_parts.clone(),
            stride,
            out_bits,
            in_bits,
            local_edges,
            local_offsets,
            in_edge_ids,
        }
    }

    /// Number of vertices covered by the placement.
    pub fn num_vertices(&self) -> usize {
        self.masters.len()
    }

    /// Measured replication factor (average replica-set size), identical
    /// to [`sgp_partition::metrics::replication_factor`].
    // sgp-lint: allow-scope(no-float-accounting): replication factor is a report ratio over integral replica counts
    pub fn replication_factor(&self) -> f64 {
        if self.masters.is_empty() {
            return 0.0;
        }
        let total: usize = (0..self.masters.len()).map(|v| self.replica_count(v as VertexId)).sum();
        total as f64 / self.masters.len() as f64
    }

    /// Edges stored per machine (the vertex-cut load metric).
    pub fn edges_per_machine(&self) -> Vec<usize> {
        self.local_offsets.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Edges stored on `machine`, in edge-index order.
    #[inline]
    pub fn local_edges(&self, machine: usize) -> &[Edge] {
        &self.local_edges[self.local_offsets[machine]..self.local_offsets[machine + 1]]
    }

    /// Edge index of every in-edge of `v`: entry `i` is the index of the
    /// edge `g.in_neighbors(v)[i] -> v`, parallel edges each getting their
    /// own. `g` must be the graph the placement was built for.
    #[inline]
    pub fn in_edge_ids(&self, g: &Graph, v: VertexId) -> &[u32] {
        &self.in_edge_ids[g.in_edge_range(v)]
    }

    /// Machines holding at least one *out*-edge of `v`, ascending.
    pub fn out_parts(&self, v: VertexId) -> impl Iterator<Item = PartitionId> + '_ {
        SetBits::new(self.words(v, false, true))
    }

    /// Machines holding at least one *in*-edge of `v`, ascending.
    pub fn in_parts(&self, v: VertexId) -> impl Iterator<Item = PartitionId> + '_ {
        SetBits::new(self.words(v, true, false))
    }

    /// Full replica set `A(v)`, ascending; includes the master.
    pub fn replicas(&self, v: VertexId) -> impl Iterator<Item = PartitionId> + '_ {
        let (word, bit) = self.master_bit(v);
        let words = self.words(v, true, true).enumerate();
        SetBits::new(words.map(move |(w, bits)| if w == word { bits | bit } else { bits }))
    }

    /// `|A(v)|`.
    pub fn replica_count(&self, v: VertexId) -> usize {
        count_ones(self.mirror_words(v, true, true)) + 1
    }

    /// Mirrors of `v`: its replicas minus the master.
    pub fn mirrors(&self, v: VertexId) -> impl Iterator<Item = PartitionId> + '_ {
        SetBits::new(self.mirror_words(v, true, true))
    }

    /// Machines (excluding the master) that must send a gather partial
    /// for `v` when the gather direction needs in-edges (`use_in`) and/or
    /// out-edges (`use_out`).
    pub fn gather_partial_count(&self, v: VertexId, use_in: bool, use_out: bool) -> usize {
        count_ones(self.mirror_words(v, use_in, use_out))
    }

    /// The machines counted by [`Placement::gather_partial_count`],
    /// ascending.
    #[inline]
    pub fn gather_partial_parts(
        &self,
        v: VertexId,
        use_in: bool,
        use_out: bool,
    ) -> impl Iterator<Item = PartitionId> + '_ {
        SetBits::new(self.mirror_words(v, use_in, use_out))
    }

    /// Machines (excluding the master) that must receive `v`'s updated
    /// value so that *neighbours'* gathers keep working: mirrors holding
    /// out-edges when neighbours gather over IN, mirrors holding in-edges
    /// when neighbours gather over OUT.
    pub fn update_target_count(&self, v: VertexId, gather_in: bool, gather_out: bool) -> usize {
        self.gather_partial_count(v, gather_out, gather_in)
    }

    /// The machines counted by [`Placement::update_target_count`],
    /// ascending.
    #[inline]
    pub fn update_target_parts(
        &self,
        v: VertexId,
        gather_in: bool,
        gather_out: bool,
    ) -> impl Iterator<Item = PartitionId> + '_ {
        self.gather_partial_parts(v, gather_out, gather_in)
    }

    /// The bitset words of `v`'s in-parts (if `use_in`) united with its
    /// out-parts (if `use_out`), combined as they are read.
    ///
    /// `#[inline]` here and on the accessors the supersteps call per
    /// vertex: they are not generic, so without it each call crosses the
    /// crate boundary, which tripled the time of the message accounting.
    #[inline]
    fn words(&self, v: VertexId, use_in: bool, use_out: bool) -> impl Iterator<Item = u64> + '_ {
        let block = v as usize * self.stride..(v as usize + 1) * self.stride;
        let (ins, outs) = (&self.in_bits[block.clone()], &self.out_bits[block]);
        ins.iter()
            .zip(outs)
            .map(move |(&i, &o)| if use_in { i } else { 0 } | if use_out { o } else { 0 })
    }

    /// [`Placement::words`] without the master's bit.
    #[inline]
    fn mirror_words(
        &self,
        v: VertexId,
        use_in: bool,
        use_out: bool,
    ) -> impl Iterator<Item = u64> + '_ {
        let (word, bit) = self.master_bit(v);
        self.words(v, use_in, use_out)
            .enumerate()
            .map(move |(w, bits)| if w == word { bits & !bit } else { bits })
    }

    /// Word index and mask of the master's bit in `v`'s block.
    #[inline]
    fn master_bit(&self, v: VertexId) -> (usize, u64) {
        let master = self.masters[v as usize];
        ((master >> 6) as usize, 1u64 << (master & 63))
    }
}

fn count_ones(words: impl Iterator<Item = u64>) -> usize {
    words.map(|w| w.count_ones() as usize).sum()
}

/// The set bits of a sequence of bitset words, ascending: bit `b` of the
/// `i`-th word is machine `64 * i + b`.
struct SetBits<I> {
    words: I,
    /// Unread bits of the word in hand, and the machine of its bit 0.
    word: u64,
    base: PartitionId,
}

impl<I: Iterator<Item = u64>> SetBits<I> {
    #[inline]
    fn new(mut words: I) -> Self {
        let word = words.next().unwrap_or(0);
        SetBits { words, word, base: 0 }
    }
}

impl<I: Iterator<Item = u64>> Iterator for SetBits<I> {
    type Item = PartitionId;

    #[inline]
    fn next(&mut self) -> Option<PartitionId> {
        while self.word == 0 {
            self.word = self.words.next()?;
            self.base += 64;
        }
        let bit = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sgp_graph::sampling::{check_cases, Rng};
    use sgp_graph::GraphBuilder;
    use sgp_partition::assignment::fxhash64;
    use sgp_partition::Partitioning;
    use std::collections::BTreeSet;

    /// The 6-vertex example of the paper's Fig. 10: vertex 6 (here 5)
    /// receives edges from 1..=5 (here 0..=4), plus a few chain edges.
    fn fig10_graph() -> Graph {
        GraphBuilder::new()
            .add_edge(0, 5)
            .add_edge(1, 5)
            .add_edge(2, 5)
            .add_edge(3, 5)
            .add_edge(4, 5)
            .add_edge(0, 1)
            .build()
    }

    #[test]
    fn edge_cut_placement_keeps_out_edges_at_master() {
        let g = fig10_graph();
        // Vertices 0,1 on machine 0; 2,3 on 1; 4,5 on 2.
        let p = Partitioning::from_vertex_owners(&g, 3, vec![0, 0, 1, 1, 2, 2]);
        let pl = Placement::build(&g, &p);
        for v in g.vertices() {
            // Every out-edge partition must be exactly the master.
            for part in pl.out_parts(v) {
                assert_eq!(part, pl.masters[v as usize], "vertex {v}");
            }
        }
        // Vertex 5 has in-edges on machines 0, 1, 2 → 2 mirror machines.
        assert_eq!(pl.in_parts(5).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(pl.mirrors(5).count(), 2);
    }

    #[test]
    fn gather_partials_match_fig10b() {
        // Fig. 10(b): edge-cut with sender-side aggregation, PageRank
        // (gather over IN). Vertex 5 mastered on machine 2 receives one
        // partial from machine 0 and one from machine 1.
        let g = fig10_graph();
        let p = Partitioning::from_vertex_owners(&g, 3, vec![0, 0, 1, 1, 2, 2]);
        let pl = Placement::build(&g, &p);
        assert_eq!(pl.gather_partial_count(5, true, false), 2);
        // And zero update messages: all its out-edges (none) are local.
        assert_eq!(pl.update_target_count(5, true, false), 0);
    }

    #[test]
    fn vertex_cut_pays_updates_fig10c() {
        // Fig. 10(c): same graph, but edges of vertex 0 scattered across
        // machines. Give (0,5) to machine 1 and (0,1) to machine 0, with
        // 0 mastered on machine 0: machine 1 needs 0's data → 1 update.
        let g = fig10_graph();
        // Edge order: (0,1) (0,5) (1,5) (2,5) (3,5) (4,5)
        let p = Partitioning::from_edge_parts(&g, 3, vec![0, 1, 0, 1, 1, 2]);
        let pl = Placement::build(&g, &p);
        let v0_master = pl.masters[0];
        let updates = pl.update_target_count(0, true, false);
        // Vertex 0 has out-edges on machines {0, 1}; one of them is the
        // master, the other needs an update.
        assert_eq!(pl.out_parts(0).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(updates, if v0_master == 0 || v0_master == 1 { 1 } else { 2 });
    }

    #[test]
    fn replication_factor_matches_partition_metric() {
        let g = fig10_graph();
        let p = Partitioning::from_edge_parts(&g, 3, vec![0, 1, 0, 1, 1, 2]);
        let pl = Placement::build(&g, &p);
        let rf = sgp_partition::metrics::replication_factor(&g, &p);
        assert!((pl.replication_factor() - rf).abs() < 1e-12);
    }

    #[test]
    fn local_edges_partition_the_edge_set() {
        let g = fig10_graph();
        let p = Partitioning::from_edge_parts(&g, 3, vec![0, 1, 0, 1, 1, 2]);
        let pl = Placement::build(&g, &p);
        let total: usize = (0..pl.k).map(|m| pl.local_edges(m).len()).sum();
        assert_eq!(total, g.num_edges());
        assert_eq!(pl.edges_per_machine(), vec![2, 3, 1]);
    }

    #[test]
    fn both_direction_gather_counts_union() {
        let g = GraphBuilder::new().add_edge(0, 1).add_edge(1, 2).build();
        // (0,1) on machine 0, (1,2) on machine 1; master of 1 on machine 2
        // is impossible (masters come from replicas), so place manually:
        let p = Partitioning::from_edge_parts(&g, 3, vec![0, 1]);
        let pl = Placement::build(&g, &p);
        let m = pl.masters[1];
        // Vertex 1: in-edges on {0}, out-edges on {1}. Gather BOTH =
        // union {0,1} minus master.
        let expected = [0u32, 1u32].iter().filter(|&&x| x != m).count();
        assert_eq!(pl.gather_partial_count(1, true, true), expected);
    }

    #[test]
    fn edge_parts_preserved() {
        let g = fig10_graph();
        let parts = vec![0u32, 1, 0, 1, 1, 2];
        let p = Partitioning::from_edge_parts(&g, 3, parts.clone());
        let pl = Placement::build(&g, &p);
        assert_eq!(pl.edge_parts, parts);
    }

    // ---- flat layout ≡ nested reference -------------------------------------

    type Set = BTreeSet<PartitionId>;

    /// The layout written the obvious way — a `BTreeSet` per vertex, a
    /// `Vec<Edge>` per machine, a lookup per in-edge — sharing no code
    /// with `Placement`. The engine's tests run a naive engine over it.
    pub(crate) struct ReferencePlacement {
        pub(crate) k: usize,
        pub(crate) masters: Vec<PartitionId>,
        pub(crate) replicas: Vec<Set>,
        pub(crate) out_parts: Vec<Set>,
        pub(crate) in_parts: Vec<Set>,
        pub(crate) local_edges: Vec<Vec<Edge>>,
        /// Per vertex, the edge index of each in-adjacency slot.
        pub(crate) in_edge_ids: Vec<Vec<usize>>,
        pub(crate) edge_parts: Vec<PartitionId>,
    }

    impl ReferencePlacement {
        pub(crate) fn build(g: &Graph, p: &Partitioning) -> Self {
            let (n, k) = (g.num_vertices(), p.k);
            let mut out_parts = vec![Set::new(); n];
            let mut in_parts = vec![Set::new(); n];
            let mut local_edges = vec![Vec::new(); k];
            for (i, e) in g.edges().enumerate() {
                out_parts[e.src as usize].insert(p.edge_parts[i]);
                in_parts[e.dst as usize].insert(p.edge_parts[i]);
                local_edges[p.edge_parts[i] as usize].push(e);
            }
            let mut replicas = Vec::new();
            let mut masters = Vec::new();
            for v in 0..n {
                let mut set: Set = out_parts[v].union(&in_parts[v]).copied().collect();
                set.extend(p.vertex_owner.as_ref().map(|owner| owner[v]));
                if set.is_empty() {
                    set.insert((v % k) as PartitionId);
                }
                // The historical rule: the owner, else the replica at index
                // `hash(v) % |A(v)|` of the sorted set.
                masters.push(match &p.vertex_owner {
                    Some(owner) => owner[v],
                    None => {
                        let nth = fxhash64(v as u64) as usize % set.len();
                        *set.iter().nth(nth).expect("nth is below the set's size")
                    }
                });
                replicas.push(set);
            }
            // Slot `i` of `v`'s in-row holds source `w`; among parallel
            // edges `w -> v` it is the one as far past the first as the
            // slot is past `w`'s first slot.
            let in_edge_ids = g
                .vertices()
                .map(|v| {
                    let row = g.in_neighbors(v);
                    (0..row.len())
                        .map(|i| {
                            let first = g.edge_index(row[i], v).expect("in-edge exists");
                            first + (i - row.partition_point(|&w| w < row[i]))
                        })
                        .collect()
                })
                .collect();
            ReferencePlacement {
                k,
                masters,
                replicas,
                out_parts,
                in_parts,
                local_edges,
                in_edge_ids,
                edge_parts: p.edge_parts.clone(),
            }
        }

        /// The union of the sets whose flag is on, without `v`'s master, ascending.
        fn union_without_master(
            &self,
            v: VertexId,
            sets: [(bool, &Vec<Set>); 2],
        ) -> Vec<PartitionId> {
            let mut union = Set::new();
            for (on, per_vertex) in sets {
                if on {
                    union.extend(&per_vertex[v as usize]);
                }
            }
            union.remove(&self.masters[v as usize]);
            union.into_iter().collect()
        }

        /// Mirrors holding gather edges of `v`.
        pub(crate) fn gather_partial_parts(
            &self,
            v: VertexId,
            use_in: bool,
            use_out: bool,
        ) -> Vec<PartitionId> {
            self.union_without_master(v, [(use_in, &self.in_parts), (use_out, &self.out_parts)])
        }

        /// Mirrors whose neighbours' gathers read `v`: over its out-edges
        /// when they gather over IN, over its in-edges when over OUT.
        pub(crate) fn update_target_parts(
            &self,
            v: VertexId,
            gather_in: bool,
            gather_out: bool,
        ) -> Vec<PartitionId> {
            self.union_without_master(
                v,
                [(gather_in, &self.out_parts), (gather_out, &self.in_parts)],
            )
        }
    }

    /// A random directed graph on fewer than 40 vertices with self-loops
    /// kept and some vertices isolated, and a random vertex-owner or
    /// edge-parts partitioning of it over `k <= 130` machines (bitset
    /// strides 1, 2 and 3).
    pub(crate) fn arb_partitioned_graph(rng: &mut Rng) -> (Graph, Partitioning) {
        let n = rng.range(2..40);
        let k = if rng.index(2) == 0 { rng.range(1..7) } else { rng.range(1..131) };
        let mut b = GraphBuilder::new().keep_self_loops(true).ensure_vertices(n);
        for _ in 0..rng.range(0..161) {
            b.push_edge(rng.index(n) as u32, rng.index(n) as u32);
        }
        let g = b.build();
        let by_vertex = rng.index(2) == 0;
        let len = if by_vertex { n } else { g.num_edges() };
        let parts = (0..len).map(|_| rng.index(k) as PartitionId).collect();
        let p = if by_vertex {
            Partitioning::from_vertex_owners(&g, k, parts)
        } else {
            Partitioning::from_edge_parts(&g, k, parts)
        };
        (g, p)
    }

    /// Every accessor of the flat layout against the layout built the
    /// obvious way.
    fn assert_matches_reference(g: &Graph, p: &Partitioning) {
        let (pl, rp) = (Placement::build(g, p), ReferencePlacement::build(g, p));
        let sorted = |set: &Set| -> Vec<PartitionId> { set.iter().copied().collect() };
        assert_eq!((pl.k, pl.num_vertices()), (rp.k, g.num_vertices()));
        assert_eq!(pl.masters, rp.masters);
        for v in g.vertices() {
            let i = v as usize;
            assert_eq!(pl.replicas(v).collect::<Vec<_>>(), sorted(&rp.replicas[i]), "A({v})");
            assert_eq!(pl.replica_count(v), rp.replicas[i].len(), "|A({v})|");
            assert_eq!(pl.out_parts(v).collect::<Vec<_>>(), sorted(&rp.out_parts[i]), "out {v}");
            assert_eq!(pl.in_parts(v).collect::<Vec<_>>(), sorted(&rp.in_parts[i]), "in {v}");
            let mirrors: Vec<_> =
                sorted(&rp.replicas[i]).into_iter().filter(|&m| m != rp.masters[i]).collect();
            assert_eq!(pl.mirrors(v).collect::<Vec<_>>(), mirrors, "mirrors of {v}");
            for (a, b) in [(true, false), (false, true), (true, true)] {
                let gather = rp.gather_partial_parts(v, a, b);
                assert_eq!(pl.gather_partial_parts(v, a, b).collect::<Vec<_>>(), gather, "{v}");
                assert_eq!(pl.gather_partial_count(v, a, b), gather.len(), "{v}");
                let update = rp.update_target_parts(v, a, b);
                assert_eq!(pl.update_target_parts(v, a, b).collect::<Vec<_>>(), update, "{v}");
                assert_eq!(pl.update_target_count(v, a, b), update.len(), "{v}");
            }
            let ids: Vec<usize> = pl.in_edge_ids(g, v).iter().map(|&id| id as usize).collect();
            assert_eq!(ids, rp.in_edge_ids[i], "in-edge ids of {v}");
        }
        for (m, edges) in rp.local_edges.iter().enumerate() {
            assert_eq!(pl.local_edges(m), &edges[..], "machine {m}");
        }
        let per_machine: Vec<usize> = rp.local_edges.iter().map(|edges| edges.len()).collect();
        assert_eq!(pl.edges_per_machine(), per_machine);
        let total: usize = rp.replicas.iter().map(|set| set.len()).sum();
        let rf = if rp.replicas.is_empty() { 0.0 } else { total as f64 / rp.replicas.len() as f64 };
        assert_eq!(pl.replication_factor().to_bits(), rf.to_bits());
    }

    #[test]
    fn flat_layout_matches_reference_on_isolated_vertices_loops_and_parallel_edges() {
        // Vertices 6..9 have no edges; (2, 2) is a self-loop; (0, 1) is
        // tripled and (3, 1) doubled, so vertex 1's in-row is 0 0 0 3 3.
        let g = GraphBuilder::new()
            .keep_self_loops(true)
            .keep_duplicates(true)
            .ensure_vertices(10)
            .extend_edges(
                [(0, 1), (3, 1), (0, 1), (2, 2), (0, 1), (3, 1), (1, 4), (5, 0)].map(Edge::from),
            )
            .build();
        assert_eq!(g.num_edges(), 8);
        for k in [1usize, 3, 64, 65, 130] {
            let parts = |len: usize| (0..len).map(|i| (i * 37 % k) as PartitionId).collect();
            assert_matches_reference(&g, &Partitioning::from_edge_parts(&g, k, parts(8)));
            assert_matches_reference(&g, &Partitioning::from_vertex_owners(&g, k, parts(10)));
        }
        let empty = GraphBuilder::new().build();
        assert_matches_reference(&empty, &Partitioning::from_edge_parts(&empty, 4, Vec::new()));
    }

    #[test]
    fn flat_layout_matches_reference_on_random_partitionings() {
        check_cases(96, |rng| {
            let (g, p) = arb_partitioned_graph(rng);
            assert_matches_reference(&g, &p);
        });
    }
}
