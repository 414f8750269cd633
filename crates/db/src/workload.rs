//! Online-query workload generation and access recording.
//!
//! The paper generates "1000 bindings for each type of query" (§5.2.3)
//! and finds that *workload skew* — hot start vertices — is what breaks
//! structural-metric-based SGP for online queries (§6.3.3). The
//! [`Workload`] generator supports uniform bindings (the paper's
//! random-vertex protocol) and Zipf-skewed bindings (modelling the
//! LDBC-driven hotspots); the [`AccessRecorder`] captures per-vertex
//! access counts during execution, producing the weighted graph behind
//! the paper's Fig. 8 workload-aware repartitioning experiment.
#![expect(
    clippy::indexing_slicing,
    reason = "workload mixes index the query-template table by a bounded discrete sample; start vertices are drawn modulo num_vertices"
)]

use crate::query::{execute_with, Marks, Query, QueryResult, QueryTrace};
use crate::store::PartitionedStore;
use sgp_graph::sampling::{seeded_rng, Rng, Zipf};
use sgp_graph::{Graph, VertexId};

/// Which query class a workload issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// 1-hop neighbourhood retrievals.
    OneHop,
    /// 2-hop neighbourhood retrievals.
    TwoHop,
    /// Single-pair shortest paths.
    ShortestPath,
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(match self {
            WorkloadKind::OneHop => "1-hop",
            WorkloadKind::TwoHop => "2-hop",
            WorkloadKind::ShortestPath => "SPSP",
        })
    }
}

/// Start-vertex selection policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Skew {
    /// Uniformly random start vertices (paper's real-world-graph protocol).
    Uniform,
    /// Zipf(θ) over a random popularity permutation — the workload skew
    /// of §6.3.3.
    Zipf {
        /// Skew exponent (≈1 for social query logs).
        theta: f64,
    },
}

/// A bound workload: a query class plus its parameter bindings.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Query class.
    pub kind: WorkloadKind,
    /// The generated queries, cycled by the simulator.
    pub queries: Vec<Query>,
}

impl Workload {
    /// Generates `count` bindings for `kind` over `g`.
    pub fn generate(g: &Graph, kind: WorkloadKind, count: usize, skew: Skew, seed: u64) -> Self {
        assert!(g.num_vertices() > 0, "cannot bind queries on an empty graph");
        let mut rng = seeded_rng(seed);
        let n = g.num_vertices();
        // Popularity permutation: which vertex is "rank r popular".
        let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
        sgp_graph::sampling::shuffle(&mut perm, &mut rng);
        let zipf = match skew {
            Skew::Uniform => None,
            Skew::Zipf { theta } => Some(Zipf::new(n, theta)),
        };
        let pick = |rng: &mut Rng| -> VertexId {
            match &zipf {
                Some(z) => perm[z.sample(rng)],
                None => rng.index(n) as VertexId,
            }
        };
        let queries = (0..count)
            .map(|_| match kind {
                WorkloadKind::OneHop => Query::OneHop { start: pick(&mut rng) },
                WorkloadKind::TwoHop => Query::TwoHop { start: pick(&mut rng) },
                WorkloadKind::ShortestPath => {
                    let src = pick(&mut rng);
                    let mut dst = pick(&mut rng);
                    if dst == src {
                        dst = (dst + 1) % n as VertexId;
                    }
                    Query::ShortestPath { src, dst }
                }
            })
            .collect();
        Workload { kind, queries }
    }
}

/// Per-vertex access counter, filled by the one-threaded trace pass
/// ([`run_workload`]).
#[derive(Debug, Default)]
pub struct AccessRecorder {
    counts: Vec<u64>,
}

impl AccessRecorder {
    /// A recorder for `n` vertices.
    pub fn new(n: usize) -> Self {
        AccessRecorder { counts: vec![0; n] }
    }

    /// Records one access to `v`.
    fn record(&mut self, v: VertexId) {
        self.counts[v as usize] += 1;
    }

    /// Records every vertex read in a query's execution: the start
    /// vertex plus all result-set vertices (what the store actually
    /// touched).
    fn record_query(&mut self, q: &Query, result: &QueryResult) {
        self.record(q.start_vertex());
        if let QueryResult::Vertices(vs) = result {
            for &v in vs {
                self.record(v);
            }
        }
    }

    /// Converts the counts into the vertex-weight vector of the paper's
    /// Fig. 8: `1 + accesses` (the +1 keeps never-touched vertices
    /// placeable and the weighted total finite).
    pub fn vertex_weights(&self) -> Vec<u64> {
        self.counts.iter().map(|c| 1 + c).collect()
    }
}

/// Executes a full workload once against `store`, returning all traces
/// and (optionally) recording accesses. This is the trace-collection
/// pass the discrete-event simulator replays: each query's result goes
/// to `recorder` and is dropped, so the traces hold only rounds. One
/// set of two-hop vertex marks serves every query of the pass.
pub fn run_workload(
    store: &PartitionedStore,
    workload: &Workload,
    mut recorder: Option<&mut AccessRecorder>,
) -> Vec<QueryTrace> {
    let mut marks = Marks::default();
    workload
        .queries
        .iter()
        .map(|&q| {
            let (trace, result) = execute_with(store, q, &mut marks);
            if let Some(rec) = recorder.as_deref_mut() {
                rec.record_query(&q, &result);
            }
            trace
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgp_graph::generators::{snb_social, SnbConfig};
    use sgp_graph::GraphBuilder;
    use sgp_graph::StreamOrder;
    use sgp_partition::{partition, Algorithm, PartitionerConfig};

    fn small_store() -> PartitionedStore {
        let g = snb_social(SnbConfig {
            persons: 500,
            communities: 10,
            avg_friends: 6.0,
            ..SnbConfig::default()
        });
        let cfg = PartitionerConfig::new(4);
        let p = partition(&g, Algorithm::EcrHash, &cfg, StreamOrder::Natural);
        PartitionedStore::new(g, &p)
    }

    #[test]
    fn workload_generates_requested_count() {
        let s = small_store();
        let w = Workload::generate(s.graph(), WorkloadKind::OneHop, 100, Skew::Uniform, 1);
        assert_eq!(w.queries.len(), 100);
    }

    #[test]
    fn zipf_workload_is_skewed() {
        let s = small_store();
        let w =
            Workload::generate(s.graph(), WorkloadKind::OneHop, 2000, Skew::Zipf { theta: 1.0 }, 2);
        let mut counts = std::collections::BTreeMap::new();
        for q in &w.queries {
            *counts.entry(q.start_vertex()).or_insert(0usize) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        assert!(max > 2000 / 500 * 10, "hot vertex should dominate: max {max}");
    }

    #[test]
    fn uniform_workload_covers_many_vertices() {
        let s = small_store();
        let w = Workload::generate(s.graph(), WorkloadKind::OneHop, 2000, Skew::Uniform, 3);
        let distinct: std::collections::BTreeSet<_> =
            w.queries.iter().map(|q| q.start_vertex()).collect();
        assert!(distinct.len() > 300, "uniform should spread: {}", distinct.len());
    }

    #[test]
    fn spsp_bindings_have_distinct_endpoints() {
        let s = small_store();
        let w = Workload::generate(s.graph(), WorkloadKind::ShortestPath, 500, Skew::Uniform, 4);
        for q in &w.queries {
            if let Query::ShortestPath { src, dst } = q {
                assert_ne!(src, dst);
            } else {
                panic!("wrong query kind");
            }
        }
    }

    #[test]
    fn recorder_counts_start_and_results() {
        let g = GraphBuilder::new().add_edge(0, 1).add_edge(0, 2).build();
        let p = sgp_partition::Partitioning::from_vertex_owners(&g, 2, vec![0, 1, 1]);
        let store = PartitionedStore::new(g, &p);
        let mut rec = AccessRecorder::new(3);
        let w = Workload { kind: WorkloadKind::OneHop, queries: vec![Query::OneHop { start: 0 }] };
        run_workload(&store, &w, Some(&mut rec));
        assert_eq!(rec.vertex_weights(), vec![2, 2, 2]);
    }

    #[test]
    fn the_recorder_counts_what_execute_returns() {
        // The trace pass hands each result to the recorder and drops it;
        // counting the results of one-off `execute` calls by hand must
        // give the same weights, for every query class.
        let s = small_store();
        let n = s.graph().num_vertices();
        for (kind, seed) in
            [(WorkloadKind::OneHop, 8), (WorkloadKind::TwoHop, 9), (WorkloadKind::ShortestPath, 10)]
        {
            let w = Workload::generate(s.graph(), kind, 200, Skew::Zipf { theta: 0.9 }, seed);
            let mut rec = AccessRecorder::new(n);
            let traces = run_workload(&s, &w, Some(&mut rec));
            let mut weights = vec![1u64; n];
            for (q, trace) in w.queries.iter().zip(&traces) {
                let (t, result) = crate::query::execute(&s, *q);
                assert_eq!(
                    (t.coordinator, t.reads_per_machine(4)),
                    (trace.coordinator, trace.reads_per_machine(4))
                );
                weights[q.start_vertex() as usize] += 1;
                if let QueryResult::Vertices(vs) = result {
                    for v in vs {
                        weights[v as usize] += 1;
                    }
                }
            }
            assert_eq!(rec.vertex_weights(), weights, "{kind}");
        }
    }

    #[test]
    fn workload_generation_is_deterministic() {
        let s = small_store();
        let a =
            Workload::generate(s.graph(), WorkloadKind::TwoHop, 50, Skew::Zipf { theta: 0.8 }, 7);
        let b =
            Workload::generate(s.graph(), WorkloadKind::TwoHop, 50, Skew::Zipf { theta: 0.8 }, 7);
        assert_eq!(a.queries, b.queries);
    }
}
