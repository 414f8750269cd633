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

use crate::query::{execute, Query, QueryTrace};
use crate::store::PartitionedStore;
use sgp_graph::sampling::{seeded_rng, Rng, Zipf};
use sgp_graph::{Graph, VertexId};
use std::sync::atomic::{AtomicU64, Ordering};

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

    /// Generates a LinkBench-style *mixed* workload: the paper cites
    /// LinkBench, where 1-hop retrievals are "more than 50%" of the
    /// production mix. `mix` gives the relative weight of each query
    /// class (1-hop, 2-hop, shortest-path); queries are interleaved
    /// deterministically by weight.
    ///
    /// # Panics
    /// Panics if all weights are zero.
    pub fn generate_mixed(g: &Graph, mix: [u32; 3], count: usize, skew: Skew, seed: u64) -> Self {
        let total: u32 = mix.iter().sum();
        assert!(total > 0, "at least one query class must have weight");
        let kinds = [WorkloadKind::OneHop, WorkloadKind::TwoHop, WorkloadKind::ShortestPath];
        // Generate per-class pools, then interleave by weight so the mix
        // holds over any prefix (closed-loop clients cycle the list).
        let pools: Vec<Workload> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                let share = ((count as u64 * mix[i] as u64).div_ceil(total as u64)) as usize;
                Workload::generate(g, kind, share.max(1), skew, seed ^ (i as u64 + 1))
            })
            .collect();
        let mut queries = Vec::with_capacity(count);
        let mut cursors = [0usize; 3];
        let mut credit = [0i64; 3];
        while queries.len() < count {
            for i in 0..3 {
                credit[i] += mix[i] as i64;
            }
            // Emit from the class with the most accumulated credit.
            // sgp-lint: allow(no-panic-in-lib): max_by_key over the literal non-empty range 0..3
            let i = (0..3).max_by_key(|&i| credit[i]).expect("three classes");
            credit[i] -= total as i64;
            let pool = &pools[i];
            queries.push(pool.queries[cursors[i] % pool.queries.len()]);
            cursors[i] += 1;
        }
        Workload { kind: WorkloadKind::OneHop, queries }
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True if no bindings were generated.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

/// Thread-safe per-vertex access counter. JanusGraph instances serve
/// queries concurrently, so the recorder is shared; each vertex gets
/// its own atomic cell bumped with `Relaxed` ordering. The cells are
/// independent statistical counters — no cross-cell ordering is ever
/// observed — so the hot recording path is a single uncontended
/// fetch-add with no lock to convoy behind.
#[derive(Debug, Default)]
pub struct AccessRecorder {
    counts: Vec<AtomicU64>,
}

impl AccessRecorder {
    /// A recorder for `n` vertices.
    pub fn new(n: usize) -> Self {
        AccessRecorder { counts: (0..n).map(|_| AtomicU64::new(0)).collect() }
    }

    /// Records one access to `v`.
    pub fn record(&self, v: VertexId) {
        self.counts[v as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Records every vertex read in a query's execution: the start
    /// vertex plus all result-set vertices (what the store actually
    /// touched).
    pub fn record_query(&self, q: &Query, trace: &QueryTrace) {
        self.record(q.start_vertex());
        if let crate::query::QueryResult::Vertices(vs) = &trace.result {
            for &v in vs {
                self.record(v);
            }
        }
    }

    /// Snapshot of the raw counts.
    pub fn counts(&self) -> Vec<u64> {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Converts the counts into the vertex-weight vector of the paper's
    /// Fig. 8: `1 + accesses` (the +1 keeps never-touched vertices
    /// placeable and the weighted total finite).
    pub fn vertex_weights(&self) -> Vec<u64> {
        self.counts.iter().map(|c| 1 + c.load(Ordering::Relaxed)).collect()
    }
}

/// Executes a full workload once against `store`, returning all traces
/// and (optionally) recording accesses. This is the trace-collection
/// pass the discrete-event simulator replays.
pub fn run_workload(
    store: &PartitionedStore,
    workload: &Workload,
    recorder: Option<&AccessRecorder>,
) -> Vec<QueryTrace> {
    workload
        .queries
        .iter()
        .map(|&q| {
            let t = execute(store, q);
            if let Some(rec) = recorder {
                rec.record_query(&q, &t);
            }
            t
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
        assert_eq!(w.len(), 100);
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
        let rec = AccessRecorder::new(3);
        let w = Workload { kind: WorkloadKind::OneHop, queries: vec![Query::OneHop { start: 0 }] };
        run_workload(&store, &w, Some(&rec));
        assert_eq!(rec.counts(), vec![1, 1, 1]);
        assert_eq!(rec.vertex_weights(), vec![2, 2, 2]);
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = std::sync::Arc::new(AccessRecorder::new(4));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let r = rec.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    r.record(2);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.counts()[2], 4000);
    }

    #[test]
    fn mixed_workload_matches_requested_ratios() {
        let s = small_store();
        // LinkBench-ish: 60% 1-hop, 30% 2-hop, 10% shortest path.
        let w = Workload::generate_mixed(s.graph(), [6, 3, 1], 1000, Skew::Uniform, 9);
        assert_eq!(w.len(), 1000);
        let count = |f: fn(&Query) -> bool| w.queries.iter().filter(|q| f(q)).count();
        let one = count(|q| matches!(q, Query::OneHop { .. }));
        let two = count(|q| matches!(q, Query::TwoHop { .. }));
        let sp = count(|q| matches!(q, Query::ShortestPath { .. }));
        assert!((one as i64 - 600).abs() <= 10, "1-hop {one}");
        assert!((two as i64 - 300).abs() <= 10, "2-hop {two}");
        assert!((sp as i64 - 100).abs() <= 10, "spsp {sp}");
        // The mix must hold over prefixes too (closed-loop fairness).
        let prefix_one =
            w.queries[..100].iter().filter(|q| matches!(q, Query::OneHop { .. })).count();
        assert!((prefix_one as i64 - 60).abs() <= 5, "prefix 1-hop {prefix_one}");
    }

    #[test]
    fn mixed_workload_runs_through_simulator() {
        let s = small_store();
        let w = Workload::generate_mixed(s.graph(), [5, 4, 1], 120, Skew::Zipf { theta: 0.8 }, 4);
        let sim = crate::sim::ClusterSim::prepare(&s, &w);
        let r = sim.run(&crate::sim::SimConfig {
            clients_per_machine: 4,
            queries_per_client: 10,
            ..Default::default()
        });
        assert!(r.throughput_qps > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one query class")]
    fn mixed_workload_rejects_zero_mix() {
        let s = small_store();
        Workload::generate_mixed(s.graph(), [0, 0, 0], 10, Skew::Uniform, 1);
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
