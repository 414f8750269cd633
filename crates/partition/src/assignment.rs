//! Unified partitioning output shared by all algorithms.
//!
//! The paper compares edge-cut and vertex-cut algorithms on one system by
//! converting vertex-disjoint (edge-cut) partitionings into equivalent
//! edge-disjoint placements: "we create an equivalent edge-disjoint
//! (vertex-cut) partitioning by assigning all out-edges of vertex u to
//! partition Pi" (Appendix B). [`Partitioning`] stores exactly that: an
//! edge placement array (indexed by [`Graph::edge_index`]) plus, when the
//! producing algorithm is vertex-disjoint, the vertex ownership map.
use sgp_graph::{Graph, VertexId};

/// A partition identifier in `0..k`.
pub type PartitionId = u32;

/// Which cut model produced a [`Partitioning`] (Table 1's top-level
/// classification). The engine uses this only for reporting; the
/// communication semantics are fully determined by the edge placement
/// and vertex ownership.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CutModel {
    /// Vertex-disjoint placement; out-edges follow their source.
    EdgeCut,
    /// Edge-disjoint placement; vertices replicate freely.
    VertexCut,
    /// PowerLyra-style differentiated placement (low-degree grouped,
    /// high-degree scattered).
    HybridCut,
}

impl std::fmt::Display for CutModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(match self {
            CutModel::EdgeCut => "edge-cut",
            CutModel::VertexCut => "vertex-cut",
            CutModel::HybridCut => "hybrid-cut",
        })
    }
}

/// The result of partitioning a graph into `k` parts.
#[derive(Debug, Clone)]
pub struct Partitioning {
    /// Number of partitions.
    pub k: usize,
    /// The producing cut model.
    pub model: CutModel,
    /// `edge_parts[i]` is the partition of the i-th edge in
    /// [`Graph::edges`] order (see [`Graph::edge_index`]).
    pub edge_parts: Vec<PartitionId>,
    /// For vertex-disjoint models: the partition owning each vertex.
    /// `None` for pure vertex-cut placements, where masters are derived
    /// (see [`Partitioning::masters`]).
    pub vertex_owner: Option<Vec<PartitionId>>,
}

impl Partitioning {
    /// Builds an edge-cut partitioning from a vertex ownership map,
    /// deriving the Appendix-B edge placement (out-edges with source).
    ///
    /// # Panics
    /// Panics if `owner.len() != g.num_vertices()` or any id is ≥ `k`.
    pub fn from_vertex_owners(g: &Graph, k: usize, owner: Vec<PartitionId>) -> Self {
        assert_eq!(owner.len(), g.num_vertices(), "owner map must cover every vertex");
        assert!(owner.iter().all(|&p| (p as usize) < k), "partition id out of range");
        let mut edge_parts = Vec::with_capacity(g.num_edges());
        for v in g.vertices() {
            let p = owner[v as usize];
            edge_parts.extend(std::iter::repeat_n(p, g.out_degree(v)));
        }
        Partitioning { k, model: CutModel::EdgeCut, edge_parts, vertex_owner: Some(owner) }
    }

    /// Builds a vertex-cut partitioning from an edge placement given in
    /// [`Graph::edges`] order.
    ///
    /// # Panics
    /// Panics if the placement does not cover every edge or any id is ≥ `k`.
    pub fn from_edge_parts(g: &Graph, k: usize, edge_parts: Vec<PartitionId>) -> Self {
        assert_eq!(edge_parts.len(), g.num_edges(), "edge placement must cover every edge");
        assert!(edge_parts.iter().all(|&p| (p as usize) < k), "partition id out of range");
        Partitioning { k, model: CutModel::VertexCut, edge_parts, vertex_owner: None }
    }

    /// Flat replica-membership bitset: `stride` words per vertex, bit
    /// `p` of vertex `v`'s block set iff partition `p` holds an edge
    /// incident to `v` (or owns `v`, for vertex-disjoint models). The
    /// same fixed-stride layout as the streaming state's replica store
    /// (DESIGN.md §13): one pass over the edges, no per-vertex
    /// allocation or membership scan.
    fn replica_bits(&self, g: &Graph) -> (Vec<u64>, usize) {
        let stride = self.k.div_ceil(64).max(1);
        let mut bits = vec![0u64; g.num_vertices() * stride];
        for (i, e) in g.edges().enumerate() {
            let p = self.edge_parts[i] as usize;
            bits[e.src as usize * stride + (p >> 6)] |= 1u64 << (p & 63);
            bits[e.dst as usize * stride + (p >> 6)] |= 1u64 << (p & 63);
        }
        if let Some(owner) = &self.vertex_owner {
            for (v, &p) in owner.iter().enumerate() {
                bits[v * stride + (p as usize >> 6)] |= 1u64 << (p & 63);
            }
        }
        (bits, stride)
    }

    /// Computes the replica set `A(u)` for every vertex: the sorted set of
    /// partitions holding at least one edge incident to `u`, always
    /// including the owner for vertex-disjoint models (so isolated
    /// vertices still live somewhere).
    pub fn replica_sets(&self, g: &Graph) -> Vec<Vec<PartitionId>> {
        let (bits, stride) = self.replica_bits(g);
        bits.chunks_exact(stride)
            .enumerate()
            .map(|(v, block)| {
                // Ascending-bit materialization is already sorted.
                let mut set: Vec<PartitionId> = Vec::new();
                for (w, &word) in block.iter().enumerate() {
                    let mut word = word;
                    while word != 0 {
                        set.push(((w as PartitionId) << 6) + word.trailing_zeros());
                        word &= word - 1;
                    }
                }
                if set.is_empty() {
                    // Isolated vertex in a pure vertex-cut placement:
                    // park it deterministically so every vertex has a
                    // home.
                    set.push((v % self.k) as PartitionId);
                }
                set
            })
            .collect()
    }

    /// Sum of `|A(u)|` over all vertices — the numerator of the
    /// replication factor (Eq. 6) — computed by popcount over the flat
    /// bitset without materializing any replica set.
    pub(crate) fn total_replicas(&self, g: &Graph) -> usize {
        let (bits, stride) = self.replica_bits(g);
        bits.chunks_exact(stride)
            .map(|block| {
                let ones: u32 = block.iter().map(|w| w.count_ones()).sum();
                // An empty block is a parked isolated vertex: one replica.
                (ones as usize).max(1)
            })
            .sum()
    }

    /// The master partition of every vertex. For vertex-disjoint models
    /// this is the owner; for vertex-cut models the master is chosen
    /// deterministically among the replicas by hashing the vertex id,
    /// mirroring PowerGraph's randomized master placement.
    pub fn masters(&self, g: &Graph) -> Vec<PartitionId> {
        match &self.vertex_owner {
            Some(owner) => owner.clone(),
            None => {
                let (bits, stride) = self.replica_bits(g);
                bits.chunks_exact(stride)
                    .enumerate()
                    .map(|(v, block)| hashed_master(v as VertexId, block, self.k))
                    .collect()
            }
        }
    }

    /// Number of edges placed in each partition.
    pub fn edges_per_partition(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.k];
        for &p in &self.edge_parts {
            counts[p as usize] += 1;
        }
        counts
    }

    /// Number of owned vertices per partition (vertex-disjoint models
    /// only).
    pub fn vertices_per_partition(&self) -> Option<Vec<usize>> {
        self.vertex_owner.as_ref().map(|owner| {
            let mut counts = vec![0usize; self.k];
            for &p in owner {
                counts[p as usize] += 1;
            }
            counts
        })
    }

    /// Partition of the directed edge `src -> dst`, if it exists.
    pub fn edge_partition(&self, g: &Graph, src: VertexId, dst: VertexId) -> Option<PartitionId> {
        g.edge_index(src, dst).map(|i| self.edge_parts[i])
    }
}

/// The master of `v` in a placement without a vertex ownership map:
/// the replica picked by hashing the vertex id, mirroring PowerGraph's
/// randomized master placement. `block` is `v`'s replica bitset (bit `p`
/// of word `p / 64` set iff partition `p` holds an edge of `v`); a
/// vertex without edges is parked on `v % k`.
pub fn hashed_master(v: VertexId, block: &[u64], k: usize) -> PartitionId {
    let replicas: usize = block.iter().map(|w| w.count_ones() as usize).sum();
    if replicas == 0 {
        return (v as usize % k) as PartitionId;
    }
    // The `nth` set bit, ascending — the `nth` entry of the sorted set.
    let mut nth = fxhash64(v as u64) as usize % replicas;
    for (w, &word) in block.iter().enumerate() {
        let ones = word.count_ones() as usize;
        if nth < ones {
            let mut word = word;
            for _ in 0..nth {
                word &= word - 1;
            }
            return ((w as PartitionId) << 6) + word.trailing_zeros();
        }
        nth -= ones;
    }
    unreachable!("nth is below the number of set bits")
}

/// A fast, deterministic 64-bit mix (SplitMix64 finalizer). Used for all
/// hash-based placement decisions in the workspace so results are stable
/// across platforms and runs — `std`'s `DefaultHasher` is explicitly not
/// guaranteed stable.
#[inline]
pub fn fxhash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash a vertex id to a partition in `0..k`.
#[inline]
pub fn hash_to_partition(v: VertexId, k: usize, seed: u64) -> PartitionId {
    (fxhash64(v as u64 ^ seed.rotate_left(17)) % k as u64) as PartitionId
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgp_graph::GraphBuilder;

    fn diamond() -> Graph {
        GraphBuilder::new().add_edge(0, 1).add_edge(0, 2).add_edge(1, 3).add_edge(2, 3).build()
    }

    #[test]
    fn from_vertex_owners_groups_out_edges() {
        let g = diamond();
        let p = Partitioning::from_vertex_owners(&g, 2, vec![0, 1, 0, 1]);
        // Edge order: (0,1) (0,2) (1,3) (2,3); sources 0,0,1,2.
        assert_eq!(p.edge_parts, vec![0, 0, 1, 0]);
        assert_eq!(p.model, CutModel::EdgeCut);
    }

    #[test]
    fn replica_sets_include_owner_and_edge_parts() {
        let g = diamond();
        let p = Partitioning::from_vertex_owners(&g, 2, vec![0, 1, 0, 1]);
        let sets = p.replica_sets(&g);
        // Vertex 3 owned by 1, has in-edges in partitions 1 (from v1) and 0 (from v2).
        assert_eq!(sets[3], vec![0, 1]);
        // Vertex 0 owned by 0; all its out-edges are local.
        assert_eq!(sets[0], vec![0]);
    }

    #[test]
    fn masters_equal_owner_for_edge_cut() {
        let g = diamond();
        let owner = vec![0, 1, 0, 1];
        let p = Partitioning::from_vertex_owners(&g, 2, owner.clone());
        assert_eq!(p.masters(&g), owner);
    }

    #[test]
    fn vertex_cut_masters_drawn_from_replicas() {
        let g = diamond();
        let p = Partitioning::from_edge_parts(&g, 2, vec![0, 1, 1, 0]);
        let masters = p.masters(&g);
        let sets = p.replica_sets(&g);
        for (v, m) in masters.iter().enumerate() {
            assert!(sets[v].contains(m), "master of {v} must be a replica");
        }
    }

    #[test]
    fn hashed_masters_equal_the_pick_from_materialized_replica_sets() {
        use crate::{partition, Algorithm, PartitionerConfig};
        use sgp_graph::generators::{erdos_renyi, ErdosRenyiConfig};
        use sgp_graph::StreamOrder;
        // 200 vertices, 60 of them (the tail) without edges.
        let g = GraphBuilder::new()
            .extend_edges(
                erdos_renyi(ErdosRenyiConfig { vertices: 140, edges: 700, seed: 3 }).edges(),
            )
            .ensure_vertices(200)
            .build();
        for alg in [
            Algorithm::VcrHash,
            Algorithm::Dbh,
            Algorithm::Grid,
            Algorithm::PowerGraphGreedy,
            Algorithm::Hdrf,
            Algorithm::TwoPhaseHdrf,
        ] {
            for k in [2usize, 16, 64, 65, 130] {
                let p =
                    partition(&g, alg, &PartitionerConfig::new(k), StreamOrder::Random { seed: 1 });
                assert!(p.vertex_owner.is_none(), "{alg:?} derives its masters");
                // The rule as it was written before `hashed_master`.
                let historical: Vec<PartitionId> = p
                    .replica_sets(&g)
                    .iter()
                    .enumerate()
                    .map(|(v, set)| set[fxhash64(v as u64) as usize % set.len()])
                    .collect();
                assert_eq!(p.masters(&g), historical, "{alg:?}, k {k}");
                assert_eq!(historical[199], (199 % k) as PartitionId, "parked at v % k");
            }
        }
    }

    #[test]
    fn isolated_vertex_gets_deterministic_home_in_vertex_cut() {
        let g = GraphBuilder::new().add_edge(0, 1).ensure_vertices(5).build();
        let p = Partitioning::from_edge_parts(&g, 3, vec![2]);
        let sets = p.replica_sets(&g);
        assert_eq!(sets[4].len(), 1);
        assert_eq!(sets[4][0], (4 % 3) as PartitionId);
    }

    #[test]
    fn total_replicas_matches_materialized_sets() {
        let g = GraphBuilder::new()
            .add_edge(0, 1)
            .add_edge(0, 2)
            .add_edge(1, 3)
            .add_edge(2, 3)
            .ensure_vertices(6)
            .build();
        for k in [1usize, 2, 3, 64, 65, 100] {
            let parts: Vec<PartitionId> = (0..4).map(|i| (i * 31 % k) as PartitionId).collect();
            let p = Partitioning::from_edge_parts(&g, k, parts);
            let sets = p.replica_sets(&g);
            assert_eq!(p.total_replicas(&g), sets.iter().map(|s| s.len()).sum::<usize>(), "k={k}");
            // Parked isolated vertices count exactly one replica.
            assert_eq!(sets[5], vec![(5 % k) as PartitionId], "k={k}");
        }
    }

    #[test]
    fn edges_per_partition_sums_to_m() {
        let g = diamond();
        let p = Partitioning::from_edge_parts(&g, 3, vec![0, 1, 2, 1]);
        let counts = p.edges_per_partition();
        assert_eq!(counts.iter().sum::<usize>(), 4);
        assert_eq!(counts, vec![1, 2, 1]);
    }

    #[test]
    fn edge_partition_lookup() {
        let g = diamond();
        let p = Partitioning::from_edge_parts(&g, 2, vec![0, 1, 1, 0]);
        assert_eq!(p.edge_partition(&g, 0, 2), Some(1));
        assert_eq!(p.edge_partition(&g, 3, 0), None);
    }

    #[test]
    #[should_panic(expected = "owner map must cover every vertex")]
    fn owner_map_length_checked() {
        let g = diamond();
        Partitioning::from_vertex_owners(&g, 2, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "partition id out of range")]
    fn partition_range_checked() {
        let g = diamond();
        Partitioning::from_vertex_owners(&g, 2, vec![0, 1, 0, 5]);
    }

    #[test]
    fn hash_to_partition_in_range_and_deterministic() {
        for v in 0..1000u32 {
            let p = hash_to_partition(v, 7, 42);
            assert!((p as usize) < 7);
            assert_eq!(p, hash_to_partition(v, 7, 42));
        }
    }

    #[test]
    fn hash_to_partition_spreads_roughly_evenly() {
        let k = 8;
        let mut counts = vec![0usize; k];
        for v in 0..8000u32 {
            counts[hash_to_partition(v, k, 1) as usize] += 1;
        }
        for &c in &counts {
            assert!(c > 800 && c < 1200, "bucket count {c} too far from 1000");
        }
    }
}
