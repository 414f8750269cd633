//! Online graph queries (§5.2.3): 1-hop, 2-hop, and single-pair shortest
//! path, executed against a [`PartitionedStore`] with a full trace of the
//! distributed execution.
//!
//! Execution model (Appendix C): the router forwards the query to the
//! machine owning the start vertex (the *coordinator*). Each traversal
//! step is a communication **round**: the coordinator batches the
//! vertices it must read per machine, issues one request per machine,
//! and waits for all of them (scatter/gather RPC). The trace records,
//! per round, how many vertices each machine read — the quantity behind
//! Fig. 7/15 — plus the derived message and byte counts behind Fig. 5.

use crate::store::PartitionedStore;
use sgp_graph::VertexId;

/// Approximate serialized size of one vertex record on the wire
/// (JanusGraph vertices carry properties; 100 B is a conservative stand-in).
pub const VERTEX_RECORD_BYTES: u64 = 100;

/// Fixed RPC envelope size per inter-machine request.
pub const RPC_HEADER_BYTES: u64 = 64;

/// An online query (the paper's three classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// All adjacent vertices of `start` — "more than 50% of Facebook's
    /// LinkBench".
    OneHop {
        /// Start vertex.
        start: VertexId,
    },
    /// The distinct 2-hop neighbourhood of `start`.
    TwoHop {
        /// Start vertex.
        start: VertexId,
    },
    /// Unweighted single-pair shortest path via bidirectional BFS.
    ShortestPath {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
    },
}

impl Query {
    /// The vertex the router dispatches on.
    pub fn start_vertex(&self) -> VertexId {
        match *self {
            Query::OneHop { start } | Query::TwoHop { start } => start,
            Query::ShortestPath { src, .. } => src,
        }
    }
}

/// Result payload of a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryResult {
    /// Neighbour set (1-hop / 2-hop).
    Vertices(Vec<VertexId>),
    /// Shortest-path length, `None` if unreachable.
    PathLength(Option<u32>),
}

impl QueryResult {
    /// Number of vertices in the result (path queries count 0).
    pub fn len(&self) -> usize {
        match self {
            QueryResult::Vertices(v) => v.len(),
            QueryResult::PathLength(_) => 0,
        }
    }

    /// True for an empty vertex result.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-round read counts: `reads[machine]` vertices were read on that
/// machine in this round.
#[derive(Debug, Clone)]
pub struct RoundTrace {
    /// Vertices read per machine this round.
    pub reads: Vec<u32>,
}

impl RoundTrace {
    /// Machines touched this round.
    pub fn machines_touched(&self) -> usize {
        self.reads.iter().filter(|&&r| r > 0).count()
    }

    /// Total vertices read this round.
    pub fn total_reads(&self) -> u64 {
        self.reads.iter().map(|&r| r as u64).sum()
    }
}

/// Full execution trace of one query.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// The coordinator machine the router picked.
    pub coordinator: u32,
    /// One entry per communication round.
    pub rounds: Vec<RoundTrace>,
    /// The query result.
    pub result: QueryResult,
}

impl QueryTrace {
    /// Total vertices read per machine over all rounds.
    pub fn reads_per_machine(&self, k: usize) -> Vec<u64> {
        let mut totals = vec![0u64; k];
        for r in &self.rounds {
            for (m, &c) in r.reads.iter().enumerate() {
                totals[m] += c as u64;
            }
        }
        totals
    }

    /// Vertices read on machines other than the coordinator — the remote
    /// read amplification that the edge-cut ratio controls.
    pub fn remote_reads(&self) -> u64 {
        self.rounds
            .iter()
            .flat_map(|r| r.reads.iter().enumerate())
            .filter(|&(m, _)| m as u32 != self.coordinator)
            .map(|(_, &c)| c as u64)
            .sum()
    }

    /// Bytes moved over the network: vertex records from remote machines
    /// plus one RPC envelope per (round, remote machine) pair.
    pub fn network_bytes(&self) -> u64 {
        let mut bytes = 0u64;
        for r in &self.rounds {
            for (m, &c) in r.reads.iter().enumerate() {
                if m as u32 != self.coordinator && c > 0 {
                    bytes += RPC_HEADER_BYTES + c as u64 * VERTEX_RECORD_BYTES;
                }
            }
        }
        bytes
    }

    /// Number of inter-machine request messages.
    pub fn network_messages(&self) -> u64 {
        self.rounds
            .iter()
            .flat_map(|r| r.reads.iter().enumerate())
            .filter(|&(m, &c)| m as u32 != self.coordinator && c > 0)
            .count() as u64
    }
}

/// Executes `query` against `store`, producing the result and trace.
pub fn execute(store: &PartitionedStore, query: Query) -> QueryTrace {
    match query {
        Query::OneHop { start } => one_hop(store, start),
        Query::TwoHop { start } => two_hop(store, start),
        Query::ShortestPath { src, dst } => shortest_path(store, src, dst),
    }
}

fn one_hop(store: &PartitionedStore, start: VertexId) -> QueryTrace {
    let k = store.machines();
    let coordinator = store.route(start);
    // Round 1: read the start vertex + its adjacency at the coordinator.
    let mut r1 = vec![0u32; k];
    r1[coordinator as usize] = 1;
    // Round 2: fetch each neighbour's record from its owner.
    let neighbors = store.neighbors(start);
    let mut r2 = vec![0u32; k];
    for &w in &neighbors {
        r2[store.route(w) as usize] += 1;
    }
    QueryTrace {
        coordinator,
        rounds: vec![RoundTrace { reads: r1 }, RoundTrace { reads: r2 }],
        result: QueryResult::Vertices(neighbors),
    }
}

fn two_hop(store: &PartitionedStore, start: VertexId) -> QueryTrace {
    let k = store.machines();
    let coordinator = store.route(start);
    let mut r1 = vec![0u32; k];
    r1[coordinator as usize] = 1;
    let frontier = store.neighbors(start);
    // Round 2: read adjacency of every 1-hop neighbour at its owner.
    let mut r2 = vec![0u32; k];
    let mut second_hop: Vec<VertexId> = Vec::new();
    for &w in &frontier {
        r2[store.route(w) as usize] += 1;
        second_hop.extend(store.neighbors(w));
    }
    second_hop.sort_unstable();
    second_hop.dedup();
    second_hop.retain(|&v| v != start && frontier.binary_search(&v).is_err());
    // Round 3: fetch the distinct second-hop records.
    let mut r3 = vec![0u32; k];
    for &w in &second_hop {
        r3[store.route(w) as usize] += 1;
    }
    QueryTrace {
        coordinator,
        rounds: vec![RoundTrace { reads: r1 }, RoundTrace { reads: r2 }, RoundTrace { reads: r3 }],
        result: QueryResult::Vertices(second_hop),
    }
}

fn shortest_path(store: &PartitionedStore, src: VertexId, dst: VertexId) -> QueryTrace {
    let k = store.machines();
    let coordinator = store.route(src);
    let mut rounds: Vec<RoundTrace> = Vec::new();
    if src == dst {
        return QueryTrace { coordinator, rounds, result: QueryResult::PathLength(Some(0)) };
    }
    // Bidirectional BFS: expand the smaller frontier each round; every
    // expanded vertex is one adjacency read at its owner.
    let n = store.graph().num_vertices();
    let mut dist_f: Vec<u32> = vec![u32::MAX; n];
    let mut dist_b: Vec<u32> = vec![u32::MAX; n];
    dist_f[src as usize] = 0;
    dist_b[dst as usize] = 0;
    let mut frontier_f = vec![src];
    let mut frontier_b = vec![dst];
    let mut df = 0u32;
    let mut db = 0u32;
    let mut best: Option<u32> = None;
    while !frontier_f.is_empty() && !frontier_b.is_empty() {
        if let Some(b) = best {
            if df + db + 1 >= b {
                break;
            }
        }
        let forward = frontier_f.len() <= frontier_b.len();
        let (frontier, dist_mine, dist_other, depth) = if forward {
            (&mut frontier_f, &mut dist_f, &dist_b, &mut df)
        } else {
            (&mut frontier_b, &mut dist_b, &dist_f, &mut db)
        };
        let mut reads = vec![0u32; k];
        let mut next = Vec::new();
        for &v in frontier.iter() {
            reads[store.route(v) as usize] += 1;
            for w in store.neighbors(v) {
                if dist_mine[w as usize] == u32::MAX {
                    dist_mine[w as usize] = *depth + 1;
                    if dist_other[w as usize] != u32::MAX {
                        let total = *depth + 1 + dist_other[w as usize];
                        best = Some(best.map_or(total, |b| b.min(total)));
                    }
                    next.push(w);
                }
            }
        }
        *depth += 1;
        *frontier = next;
        rounds.push(RoundTrace { reads });
    }
    QueryTrace { coordinator, rounds, result: QueryResult::PathLength(best) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgp_graph::GraphBuilder;
    use sgp_partition::Partitioning;

    /// Path 0-1-2-3-4 plus a hub 5 connected to everything.
    fn store() -> PartitionedStore {
        let g = GraphBuilder::new()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 3)
            .add_edge(3, 4)
            .add_edge(5, 0)
            .add_edge(5, 1)
            .add_edge(5, 2)
            .add_edge(5, 3)
            .add_edge(5, 4)
            .build();
        let p = Partitioning::from_vertex_owners(&g, 3, vec![0, 0, 1, 1, 2, 2]);
        PartitionedStore::new(g, &p)
    }

    #[test]
    fn one_hop_reads_neighbors_at_owners() {
        let s = store();
        let t = execute(&s, Query::OneHop { start: 5 });
        assert_eq!(t.coordinator, 2);
        assert_eq!(t.result, QueryResult::Vertices(vec![0, 1, 2, 3, 4]));
        // Round 2 reads: 0,1 on m0; 2,3 on m1; 4 on m2.
        assert_eq!(t.rounds[1].reads, vec![2, 2, 1]);
        // Remote reads = reads off machine 2 = 4.
        assert_eq!(t.remote_reads(), 4);
    }

    #[test]
    fn one_hop_local_when_all_colocated() {
        let g = GraphBuilder::new().add_edge(0, 1).add_edge(0, 2).build();
        let p = Partitioning::from_vertex_owners(&g, 2, vec![0, 0, 0]);
        let s = PartitionedStore::new(g, &p);
        let t = execute(&s, Query::OneHop { start: 0 });
        assert_eq!(t.remote_reads(), 0);
        assert_eq!(t.network_bytes(), 0);
        assert_eq!(t.network_messages(), 0);
    }

    #[test]
    fn two_hop_excludes_start_and_first_hop() {
        let s = store();
        let t = execute(&s, Query::TwoHop { start: 0 });
        // 1-hop of 0: {1, 5}; 2-hop: neighbors of 1 and 5 minus {0,1,5}.
        assert_eq!(t.result, QueryResult::Vertices(vec![2, 3, 4]));
        assert_eq!(t.rounds.len(), 3);
    }

    #[test]
    fn shortest_path_on_path_graph() {
        let g = GraphBuilder::new().add_edge(0, 1).add_edge(1, 2).add_edge(2, 3).build();
        let p = Partitioning::from_vertex_owners(&g, 2, vec![0, 1, 0, 1]);
        let s = PartitionedStore::new(g, &p);
        let t = execute(&s, Query::ShortestPath { src: 0, dst: 3 });
        assert_eq!(t.result, QueryResult::PathLength(Some(3)));
        assert!(!t.rounds.is_empty());
    }

    #[test]
    fn shortest_path_through_hub_is_two() {
        let s = store();
        let t = execute(&s, Query::ShortestPath { src: 0, dst: 4 });
        assert_eq!(t.result, QueryResult::PathLength(Some(2))); // via hub 5
    }

    #[test]
    fn shortest_path_unreachable() {
        let g = GraphBuilder::new().add_edge(0, 1).ensure_vertices(4).build();
        let p = Partitioning::from_vertex_owners(&g, 2, vec![0, 0, 1, 1]);
        let s = PartitionedStore::new(g, &p);
        let t = execute(&s, Query::ShortestPath { src: 0, dst: 3 });
        assert_eq!(t.result, QueryResult::PathLength(None));
    }

    #[test]
    fn shortest_path_same_vertex() {
        let s = store();
        let t = execute(&s, Query::ShortestPath { src: 2, dst: 2 });
        assert_eq!(t.result, QueryResult::PathLength(Some(0)));
        assert!(t.rounds.is_empty());
    }

    #[test]
    fn trace_accounting_consistency() {
        let s = store();
        let t = execute(&s, Query::TwoHop { start: 5 });
        let per_machine = t.reads_per_machine(3);
        let total: u64 = per_machine.iter().sum();
        let per_round: u64 = t.rounds.iter().map(|r| r.total_reads()).sum();
        assert_eq!(total, per_round);
        assert!(t.network_bytes() >= t.network_messages() * RPC_HEADER_BYTES);
    }

    #[test]
    fn better_partitioning_means_fewer_remote_reads() {
        // Same graph, two stores: one colocating the path, one splitting
        // every adjacent pair.
        let g = GraphBuilder::new().add_edge(0, 1).add_edge(0, 2).add_edge(0, 3).build();
        let good = PartitionedStore::new(
            g.clone(),
            &Partitioning::from_vertex_owners(&g, 2, vec![0, 0, 0, 0]),
        );
        let bad = PartitionedStore::new(
            g.clone(),
            &Partitioning::from_vertex_owners(&g, 2, vec![0, 1, 1, 1]),
        );
        let tg = execute(&good, Query::OneHop { start: 0 });
        let tb = execute(&bad, Query::OneHop { start: 0 });
        assert!(tg.remote_reads() < tb.remote_reads());
        assert!(tg.network_bytes() < tb.network_bytes());
    }
}
