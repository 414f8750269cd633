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
#![expect(
    clippy::indexing_slicing,
    reason = "traversal frontiers index the adjacency shard by VertexId; every id was produced by the store's own neighbor lists, which only contain loaded vertices"
)]

use crate::store::PartitionedStore;
use sgp_graph::VertexId;

/// Approximate serialized size of one vertex record on the wire
/// (JanusGraph vertices carry properties; 100 B is a conservative stand-in).
pub(crate) const VERTEX_RECORD_BYTES: u64 = 100;

/// Fixed RPC envelope size per inter-machine request.
pub(crate) const RPC_HEADER_BYTES: u64 = 64;

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
    pub(crate) fn start_vertex(&self) -> VertexId {
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

/// Per-round read counts: `reads[machine]` vertices were read on that
/// machine in this round.
#[derive(Debug, Clone)]
pub struct RoundTrace {
    /// Vertices read per machine this round.
    pub reads: Vec<u32>,
}

/// Execution trace of one query: what the discrete-event simulator
/// replays. The query's result is not part of it; [`execute`] returns
/// the result next to the trace.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// The coordinator machine the router picked.
    pub coordinator: u32,
    /// One entry per communication round.
    pub rounds: Vec<RoundTrace>,
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
}

/// Vertex marks that outlive one query: a two-hop query marks the
/// vertices it has seen. A vertex is marked when its stamp equals
/// `generation`, so starting a query unmarks every vertex in O(1).
#[derive(Debug, Default)]
pub(crate) struct Marks {
    stamps: Vec<u32>,
    generation: u32,
}

impl Marks {
    /// Unmarks every vertex of an `n`-vertex graph.
    fn unmark_all(&mut self, n: usize) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 || self.stamps.len() != n {
            self.stamps.clear();
            self.stamps.resize(n, 0);
            self.generation = 1;
        }
    }

    /// Marks `v`; `true` when it was not marked yet.
    #[inline]
    fn mark(&mut self, v: VertexId) -> bool {
        let stamp = &mut self.stamps[v as usize];
        let fresh = *stamp != self.generation;
        *stamp = self.generation;
        fresh
    }
}

/// Executes `query` against `store`: its trace, and its result.
pub fn execute(store: &PartitionedStore, query: Query) -> (QueryTrace, QueryResult) {
    execute_with(store, query, &mut Marks::default())
}

/// [`execute`] with vertex marks that the caller reuses across queries.
pub(crate) fn execute_with(
    store: &PartitionedStore,
    query: Query,
    marks: &mut Marks,
) -> (QueryTrace, QueryResult) {
    match query {
        Query::OneHop { start } => one_hop(store, start),
        Query::TwoHop { start } => two_hop(store, start, marks),
        Query::ShortestPath { src, dst } => shortest_path(store, src, dst),
    }
}

fn one_hop(store: &PartitionedStore, start: VertexId) -> (QueryTrace, QueryResult) {
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
    let rounds = vec![RoundTrace { reads: r1 }, RoundTrace { reads: r2 }];
    (QueryTrace { coordinator, rounds }, QueryResult::Vertices(neighbors))
}

fn two_hop(
    store: &PartitionedStore,
    start: VertexId,
    marks: &mut Marks,
) -> (QueryTrace, QueryResult) {
    let k = store.machines();
    let coordinator = store.route(start);
    let mut r1 = vec![0u32; k];
    r1[coordinator as usize] = 1;
    let frontier = store.neighbors(start);
    // Round 2: read adjacency of every 1-hop neighbour at its owner.
    // The start and the first hop are marked up front, so each row
    // contributes only the second-hop vertices not seen yet, and only
    // that distinct set is sorted.
    marks.unmark_all(store.graph().num_vertices());
    marks.mark(start);
    for &w in &frontier {
        marks.mark(w);
    }
    let mut r2 = vec![0u32; k];
    let mut second_hop: Vec<VertexId> = Vec::new();
    for &w in &frontier {
        r2[store.route(w) as usize] += 1;
        second_hop.extend(store.graph().undirected_neighbors(w).filter(|&v| marks.mark(v)));
    }
    second_hop.sort_unstable();
    second_hop.shrink_to_fit();
    // Round 3: fetch the distinct second-hop records.
    let mut r3 = vec![0u32; k];
    for &w in &second_hop {
        r3[store.route(w) as usize] += 1;
    }
    let rounds = vec![RoundTrace { reads: r1 }, RoundTrace { reads: r2 }, RoundTrace { reads: r3 }];
    (QueryTrace { coordinator, rounds }, QueryResult::Vertices(second_hop))
}

fn shortest_path(
    store: &PartitionedStore,
    src: VertexId,
    dst: VertexId,
) -> (QueryTrace, QueryResult) {
    let k = store.machines();
    let coordinator = store.route(src);
    let mut rounds: Vec<RoundTrace> = Vec::new();
    if src == dst {
        return (QueryTrace { coordinator, rounds }, QueryResult::PathLength(Some(0)));
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
    (QueryTrace { coordinator, rounds }, QueryResult::PathLength(best))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgp_graph::sampling::check_cases;
    use sgp_graph::GraphBuilder;
    use sgp_partition::{PartitionId, Partitioning};
    use std::collections::BTreeSet;

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

    /// Vertices read on machines other than the coordinator — the remote
    /// read amplification that the edge-cut ratio controls.
    fn remote_reads(t: &QueryTrace) -> u64 {
        t.rounds
            .iter()
            .flat_map(|r| r.reads.iter().enumerate())
            .filter(|&(m, _)| m as u32 != t.coordinator)
            .map(|(_, &c)| c as u64)
            .sum()
    }

    /// Number of inter-machine request messages.
    fn network_messages(t: &QueryTrace) -> u64 {
        t.rounds
            .iter()
            .flat_map(|r| r.reads.iter().enumerate())
            .filter(|&(m, &c)| m as u32 != t.coordinator && c > 0)
            .count() as u64
    }

    #[test]
    fn one_hop_reads_neighbors_at_owners() {
        let s = store();
        let (t, result) = execute(&s, Query::OneHop { start: 5 });
        assert_eq!(t.coordinator, 2);
        assert_eq!(result, QueryResult::Vertices(vec![0, 1, 2, 3, 4]));
        // Round 2 reads: 0,1 on m0; 2,3 on m1; 4 on m2.
        assert_eq!(t.rounds[1].reads, vec![2, 2, 1]);
        // Remote reads = reads off machine 2 = 4.
        assert_eq!(remote_reads(&t), 4);
    }

    #[test]
    fn one_hop_local_when_all_colocated() {
        let g = GraphBuilder::new().add_edge(0, 1).add_edge(0, 2).build();
        let p = Partitioning::from_vertex_owners(&g, 2, vec![0, 0, 0]);
        let s = PartitionedStore::new(g, &p);
        let (t, _) = execute(&s, Query::OneHop { start: 0 });
        assert_eq!(remote_reads(&t), 0);
        assert_eq!(t.network_bytes(), 0);
        assert_eq!(network_messages(&t), 0);
    }

    #[test]
    fn two_hop_excludes_start_and_first_hop() {
        let s = store();
        let (t, result) = execute(&s, Query::TwoHop { start: 0 });
        // 1-hop of 0: {1, 5}; 2-hop: neighbors of 1 and 5 minus {0,1,5}.
        assert_eq!(result, QueryResult::Vertices(vec![2, 3, 4]));
        assert_eq!(t.rounds.len(), 3);
    }

    #[test]
    fn two_hop_matches_a_set_oracle() {
        // Directed graphs with some reciprocal edges and self-loops, so
        // out-rows and in-rows differ and overlap: the 2-hop set is the
        // union of the 1-hop vertices' neighbourhoods minus the start
        // and the 1-hop set, and it is stored without spare capacity.
        // Every vertex is a start in turn, through one set of marks:
        // marks left by one query must not leak into the next.
        check_cases(256, |rng| {
            let n = rng.range(1..16);
            let k = rng.range(1..4);
            let mut b = GraphBuilder::new().keep_self_loops(true).ensure_vertices(n);
            for _ in 0..rng.range(0..3 * n + 1) {
                let (u, v) = (rng.index(n) as VertexId, rng.index(n) as VertexId);
                b.push_edge(u, v);
                if rng.below(3) == 0 {
                    b.push_edge(v, u);
                }
            }
            let owners = (0..n).map(|_| rng.index(k) as PartitionId).collect();
            let s = PartitionedStore::from_owner(b.build(), k, owners);
            let both = |v| s.graph().undirected_neighbors(v).collect::<BTreeSet<VertexId>>();
            let mut marks = Marks::default();
            for start in 0..n as VertexId {
                let first = both(start);
                let mut second: BTreeSet<VertexId> = first.iter().flat_map(|&w| both(w)).collect();
                second.remove(&start);
                second.retain(|v| !first.contains(v));
                let (t, result) = execute_with(&s, Query::TwoHop { start }, &mut marks);
                let QueryResult::Vertices(got) = &result else {
                    panic!("a 2-hop query returns vertices");
                };
                assert_eq!(*got, second.iter().copied().collect::<Vec<_>>(), "start {start}");
                assert_eq!(got.capacity(), got.len());
                let mut r3 = vec![0u32; k];
                for &v in &second {
                    r3[s.route(v) as usize] += 1;
                }
                assert_eq!(t.rounds[2].reads, r3);
            }
        });
    }

    #[test]
    fn shortest_path_on_path_graph() {
        let g = GraphBuilder::new().add_edge(0, 1).add_edge(1, 2).add_edge(2, 3).build();
        let p = Partitioning::from_vertex_owners(&g, 2, vec![0, 1, 0, 1]);
        let s = PartitionedStore::new(g, &p);
        let (t, result) = execute(&s, Query::ShortestPath { src: 0, dst: 3 });
        assert_eq!(result, QueryResult::PathLength(Some(3)));
        assert!(!t.rounds.is_empty());
    }

    #[test]
    fn shortest_path_through_hub_is_two() {
        let s = store();
        let (_, result) = execute(&s, Query::ShortestPath { src: 0, dst: 4 });
        assert_eq!(result, QueryResult::PathLength(Some(2))); // via hub 5
    }

    #[test]
    fn shortest_path_unreachable() {
        let g = GraphBuilder::new().add_edge(0, 1).ensure_vertices(4).build();
        let p = Partitioning::from_vertex_owners(&g, 2, vec![0, 0, 1, 1]);
        let s = PartitionedStore::new(g, &p);
        let (_, result) = execute(&s, Query::ShortestPath { src: 0, dst: 3 });
        assert_eq!(result, QueryResult::PathLength(None));
    }

    #[test]
    fn shortest_path_same_vertex() {
        let s = store();
        let (t, result) = execute(&s, Query::ShortestPath { src: 2, dst: 2 });
        assert_eq!(result, QueryResult::PathLength(Some(0)));
        assert!(t.rounds.is_empty());
    }

    #[test]
    fn trace_accounting_consistency() {
        let s = store();
        let (t, _) = execute(&s, Query::TwoHop { start: 5 });
        let per_machine = t.reads_per_machine(3);
        let total: u64 = per_machine.iter().sum();
        let per_round: u64 = t.rounds.iter().flat_map(|r| &r.reads).map(|&c| c as u64).sum();
        assert_eq!(total, per_round);
        assert!(t.network_bytes() >= network_messages(&t) * RPC_HEADER_BYTES);
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
        let (tg, _) = execute(&good, Query::OneHop { start: 0 });
        let (tb, _) = execute(&bad, Query::OneHop { start: 0 });
        assert!(remote_reads(&tg) < remote_reads(&tb));
        assert!(tg.network_bytes() < tb.network_bytes());
    }
}
