//! The sharded adjacency store and partitioning-aware query router.
#![expect(
    clippy::indexing_slicing,
    reason = "owner and adjacency tables are sized num_vertices at build; routed VertexIds originate from the workload generator, which samples only existing vertices"
)]
use sgp_graph::{Graph, VertexId};
use sgp_partition::{PartitionId, Partitioning};
use std::fmt;

/// Why a [`PartitionedStore`] could not be built from a partitioning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum StoreError {
    /// The partitioning carries no vertex-ownership map (a vertex-cut
    /// placement — §5.2.2: adjacency-list stores need edge-cut).
    NotVertexDisjoint,
    /// The ownership map does not cover the graph's vertices.
    OwnerLengthMismatch {
        /// Vertices in the graph.
        expected: usize,
        /// Entries in the ownership map.
        got: usize,
    },
    /// An owner id is outside `0..k`.
    OwnerOutOfRange {
        /// The offending vertex.
        vertex: VertexId,
        /// Its out-of-range owner.
        owner: PartitionId,
        /// The machine count.
        k: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotVertexDisjoint => {
                write!(f, "graph database requires a vertex-disjoint (edge-cut) partitioning")
            }
            StoreError::OwnerLengthMismatch { expected, got } => {
                write!(f, "ownership map covers {got} vertices but the graph has {expected}")
            }
            StoreError::OwnerOutOfRange { vertex, owner, k } => {
                write!(f, "vertex {vertex} owned by machine {owner}, but k = {k}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// A distributed graph store: the full adjacency structure plus the
/// vertex-ownership map that shards it over `k` machines.
///
/// Mirrors JanusGraph-on-Cassandra as configured in the paper's
/// Appendix C: "adjacency list representation", one storage shard
/// co-located with each query-execution instance, placement controlled
/// by a Byte Ordered Partitioner so arbitrary edge-cut partitionings can
/// be installed.
#[derive(Debug, Clone)]
pub struct PartitionedStore {
    graph: Graph,
    owner: Vec<PartitionId>,
    k: usize,
}

impl PartitionedStore {
    /// Builds a store from an edge-cut partitioning.
    ///
    /// # Panics
    /// Panics if `p` carries no vertex ownership (vertex-cut placements
    /// cannot back an adjacency-list store — §5.2.2 of the paper).
    /// `PartitionedStore::try_new` is the non-panicking equivalent.
    #[expect(
        clippy::expect_used,
        reason = "documented panic; callers that cannot prove edge-cut use try_new"
    )]
    pub fn new(graph: Graph, p: &Partitioning) -> Self {
        Self::try_new(graph, p).expect("graph database requires a vertex-disjoint partitioning")
    }

    /// Builds a store from an edge-cut partitioning, reporting *why* an
    /// incompatible partitioning was rejected instead of panicking.
    pub(crate) fn try_new(graph: Graph, p: &Partitioning) -> Result<Self, StoreError> {
        let owner = p.vertex_owner.clone().ok_or(StoreError::NotVertexDisjoint)?;
        Self::try_from_owner(graph, p.k, owner)
    }

    /// Builds a store directly from an ownership map (used by the
    /// workload-aware repartitioning path).
    ///
    /// # Panics
    /// Panics when the map does not cover the graph or names a machine
    /// `>= k`; `PartitionedStore::try_from_owner` reports instead.
    #[expect(
        clippy::expect_used,
        reason = "documented panic; callers that cannot prove coverage use try_from_owner"
    )]
    pub fn from_owner(graph: Graph, k: usize, owner: Vec<PartitionId>) -> Self {
        Self::try_from_owner(graph, k, owner).expect("ownership map must cover the graph")
    }

    /// Validating constructor behind [`PartitionedStore::from_owner`].
    pub(crate) fn try_from_owner(
        graph: Graph,
        k: usize,
        owner: Vec<PartitionId>,
    ) -> Result<Self, StoreError> {
        if owner.len() != graph.num_vertices() {
            return Err(StoreError::OwnerLengthMismatch {
                expected: graph.num_vertices(),
                got: owner.len(),
            });
        }
        if let Some((v, &p)) = owner.iter().enumerate().find(|&(_, &p)| (p as usize) >= k) {
            return Err(StoreError::OwnerOutOfRange { vertex: v as VertexId, owner: p, k });
        }
        Ok(PartitionedStore { graph, owner, k })
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.k
    }

    /// The stored graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The partitioning-aware router (Appendix C): the machine a client
    /// query for start vertex `v` is forwarded to.
    #[inline]
    pub(crate) fn route(&self, v: VertexId) -> PartitionId {
        self.owner[v as usize]
    }

    /// Undirected neighbourhood of `v` — what a JanusGraph `both()`
    /// traversal step reads from the adjacency shard.
    pub fn neighbors(&self, v: VertexId) -> Vec<VertexId> {
        let mut n: Vec<VertexId> = self.graph.undirected_neighbors(v).collect();
        n.sort_unstable();
        n.dedup();
        n
    }

    /// Fraction of edges whose endpoints live on different machines —
    /// the store-level edge-cut ratio driving remote reads.
    pub fn edge_cut_ratio(&self) -> f64 {
        sgp_partition::metrics::edge_cut_ratio_from_owner(&self.graph, &self.owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgp_graph::GraphBuilder;

    fn store() -> PartitionedStore {
        let g = GraphBuilder::new().add_edge(0, 1).add_edge(1, 2).add_edge(2, 0).build();
        let p = Partitioning::from_vertex_owners(&g, 2, vec![0, 1, 0]);
        PartitionedStore::new(g, &p)
    }

    #[test]
    fn router_follows_ownership() {
        let s = store();
        assert_eq!(s.route(0), 0);
        assert_eq!(s.route(1), 1);
        assert_eq!(s.route(2), 0);
    }

    #[test]
    fn neighbors_are_undirected_and_deduped() {
        let s = store();
        assert_eq!(s.neighbors(0), vec![1, 2]);
        assert_eq!(s.neighbors(1), vec![0, 2]);
    }

    #[test]
    fn a_store_built_from_a_clone_reads_the_original_graph() {
        let g = GraphBuilder::new().add_edge(0, 1).add_edge(1, 2).add_edge(2, 0).build();
        let s = PartitionedStore::new(
            g.clone(),
            &Partitioning::from_vertex_owners(&g, 2, vec![0, 1, 0]),
        );
        for v in g.vertices() {
            assert_eq!(s.graph().out_neighbors(v).as_ptr(), g.out_neighbors(v).as_ptr());
            assert_eq!(s.graph().in_neighbors(v).as_ptr(), g.in_neighbors(v).as_ptr());
        }
    }

    #[test]
    fn edge_cut_ratio_exposed() {
        let s = store();
        // Edges: (0,1) cut, (1,2) cut, (2,0) local → 2/3.
        assert!((s.edge_cut_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "vertex-disjoint")]
    fn vertex_cut_rejected() {
        let g = GraphBuilder::new().add_edge(0, 1).build();
        let p = Partitioning::from_edge_parts(&g, 2, vec![0]);
        PartitionedStore::new(g, &p);
    }

    #[test]
    fn try_new_reports_vertex_cut() {
        let g = GraphBuilder::new().add_edge(0, 1).build();
        let p = Partitioning::from_edge_parts(&g, 2, vec![0]);
        assert_eq!(PartitionedStore::try_new(g, &p).err(), Some(StoreError::NotVertexDisjoint));
    }

    #[test]
    fn try_from_owner_validates_coverage_and_range() {
        let g = GraphBuilder::new().add_edge(0, 1).add_edge(1, 2).build();
        let short = PartitionedStore::try_from_owner(g.clone(), 2, vec![0, 1]);
        assert_eq!(short.err(), Some(StoreError::OwnerLengthMismatch { expected: 3, got: 2 }));
        let oob = PartitionedStore::try_from_owner(g.clone(), 2, vec![0, 1, 2]);
        assert_eq!(oob.err(), Some(StoreError::OwnerOutOfRange { vertex: 2, owner: 2, k: 2 }));
        assert!(PartitionedStore::try_from_owner(g, 2, vec![0, 1, 1]).is_ok());
    }
}
