//! Edge-cut SGP on vertex streams (§4.1.1 of the paper): hash, LDG,
//! FENNEL, and the re-streaming variants of Nishimura & Ugander.
//!
//! All algorithms here consume a vertex stream — each element is a
//! vertex with its complete neighbourhood — and emit a vertex-disjoint
//! partitioning. The shared streaming state (previous assignments +
//! partition sizes) that the paper notes each worker must "continuously
//! communicate and synchronize" lives in [`VertexStreamState`], owned by
//! the incremental core in [`crate::streaming`], whose
//! [`run_vertex_stream`](crate::streaming::run_vertex_stream) drives any
//! partitioner defined here.

use crate::assignment::{hash_to_partition, PartitionId};
use crate::config::PartitionerConfig;
use crate::decisions::DecisionStats;
use crate::kernels;
use sgp_graph::stream::VertexRecord;
use sgp_graph::VertexId;

/// Shared state visible to a vertex-stream partitioner at placement time:
/// the history of previous assignments and current partition sizes.
#[derive(Debug, Clone)]
pub struct VertexStreamState {
    /// `assignment[v]` is the partition of `v`, or `UNASSIGNED`.
    pub assignment: Vec<PartitionId>,
    /// Number of vertices currently owned by each partition.
    pub sizes: Vec<usize>,
}

/// Sentinel for "not yet placed".
pub const UNASSIGNED: PartitionId = PartitionId::MAX;

impl VertexStreamState {
    /// Fresh state for `n` vertices and `k` partitions.
    pub fn new(n: usize, k: usize) -> Self {
        VertexStreamState { assignment: vec![UNASSIGNED; n], sizes: vec![0; k] }
    }

    /// Counts, for each partition, how many of `neighbors` are already
    /// placed there — the `|P_i ∩ N(u)|` term of LDG and FENNEL. Returns
    /// a dense `k`-length histogram. Unplaced neighbours contribute
    /// nothing; repeated neighbours (and self-loops of an already-placed
    /// vertex) count once per occurrence.
    pub fn neighbor_histogram(&self, neighbors: &[u32], k: usize) -> Vec<usize> {
        let mut hist = Vec::new();
        self.neighbor_histogram_into(neighbors, k, &mut hist);
        hist
    }

    /// [`neighbor_histogram`](Self::neighbor_histogram) into a caller
    /// scratch buffer — the zero-alloc form the hot placement loops use
    /// (DESIGN.md §13). Clears and resizes `hist` to `k`.
    pub fn neighbor_histogram_into(&self, neighbors: &[u32], k: usize, hist: &mut Vec<usize>) {
        hist.clear();
        hist.resize(k, 0);
        for &w in neighbors {
            let p = self.assignment[w as usize];
            if p != UNASSIGNED {
                hist[p as usize] += 1;
            }
        }
    }

    /// Records the placement of `v`, maintaining size counters. If `v`
    /// was already placed (re-streaming), the old counter is decremented.
    pub fn assign(&mut self, v: u32, p: PartitionId) {
        let old = self.assignment[v as usize];
        if old != UNASSIGNED {
            self.sizes[old as usize] -= 1;
        }
        self.assignment[v as usize] = p;
        self.sizes[p as usize] += 1;
    }
}

/// A streaming partitioner over vertex streams.
///
/// `Send` is a supertrait: the multi-loader layer ships boxed machines
/// to worker threads in [`crate::exec`], and every implementor is plain
/// owned data (counters and vectors), so the bound costs nothing.
pub trait VertexStreamPartitioner: Send {
    /// Chooses a partition for the arriving vertex given the shared state.
    fn place(&mut self, rec: &VertexRecord, state: &VertexStreamState) -> PartitionId;

    /// Short display name (Table 2 abbreviation).
    fn name(&self) -> &'static str;

    /// Number of stream passes this algorithm makes (1 for single-pass
    /// streaming, >1 for the re-streaming variants).
    fn passes(&self) -> usize {
        1
    }

    /// Decision counters accumulated so far (all-zero for algorithms
    /// without greedy decisions, e.g. hash placement).
    fn decision_stats(&self) -> DecisionStats {
        DecisionStats::default()
    }

    /// Algorithm-specific run-varying tables as canonical `(key, value)`
    /// records for the snapshot layer ([`crate::snapshot`], DESIGN.md
    /// §11). Config-pure algorithms (hash placement) have none.
    fn snapshot_records(&self) -> Vec<(&'static str, String)> {
        Vec::new()
    }

    /// Restores one record produced by
    /// [`snapshot_records`](VertexStreamPartitioner::snapshot_records);
    /// returns `false` for an unknown key or unparsable value (the
    /// snapshot layer surfaces that as a typed error).
    fn restore_record(&mut self, key: &str, value: &str) -> bool {
        let _ = (key, value);
        false
    }
}

/// Hash-based random vertex placement (`ECR` in the paper's Table 2).
///
/// "It achieves a well-balanced distribution; however it completely
/// ignores the graph topology" — expected edge-cut ratio `1 − 1/k`.
#[derive(Debug, Clone)]
pub struct HashVertex {
    k: usize,
    seed: u64,
}

impl HashVertex {
    /// Creates the hash partitioner from the shared config.
    pub fn new(cfg: &PartitionerConfig) -> Self {
        HashVertex { k: cfg.k, seed: cfg.seed }
    }

    /// The partition vertex `v` hashes to — all `place` ever computes.
    pub(crate) fn owner(&self, v: VertexId) -> PartitionId {
        hash_to_partition(v, self.k, self.seed)
    }
}

impl VertexStreamPartitioner for HashVertex {
    fn place(&mut self, rec: &VertexRecord, _state: &VertexStreamState) -> PartitionId {
        self.owner(rec.vertex)
    }

    fn name(&self) -> &'static str {
        "ECR"
    }
}

/// Linear Deterministic Greedy (Stanton & Kliot), Eq. (4) of the paper:
///
/// `argmax_i |P_i ∩ N(u)| · (1 − |P_i| / C)` with `C = β·|V|/k`.
///
/// The multiplicative penalty "strictly enforces exact balance"; we
/// additionally refuse to place into a partition at capacity, and fall
/// back to the least-loaded partition when no neighbour information is
/// available (the standard LDG tie-break).
#[derive(Debug, Clone)]
pub struct Ldg {
    k: usize,
    capacity: f64,
    stats: DecisionStats,
    /// Scratch neighbour histogram reused across vertices (DESIGN.md §13).
    hist: Vec<usize>,
    /// Scratch score column handed to the shared argmax kernel.
    scores: Vec<f64>,
}

impl Ldg {
    /// Creates LDG for a graph with `n` vertices.
    pub fn new(cfg: &PartitionerConfig, n: usize) -> Self {
        Ldg {
            k: cfg.k,
            capacity: cfg.vertex_capacity(n).max(1.0),
            stats: DecisionStats::default(),
            hist: Vec::new(),
            scores: vec![0.0; cfg.k],
        }
    }
}

impl VertexStreamPartitioner for Ldg {
    fn place(&mut self, rec: &VertexRecord, state: &VertexStreamState) -> PartitionId {
        state.neighbor_histogram_into(&rec.neighbors, self.k, &mut self.hist);
        // Capacity-saturated partitions become SKIP entries — LDG never
        // overfills; otherwise the exact Eq. (4) score. Partition sizes
        // do not change inside the scan, so the kernel's load tie-break
        // is the historical "prefer the smaller partition" comparison.
        for (i, &h) in self.hist.iter().enumerate() {
            let size = state.sizes[i];
            self.scores[i] = if (size as f64) >= self.capacity {
                kernels::SKIP
            } else {
                h as f64 * (1.0 - size as f64 / self.capacity)
            };
        }
        match kernels::epsilon_argmax(&self.scores, &state.sizes, &mut self.stats.balance_tiebreaks)
        {
            Some(i) => i as PartitionId,
            None => {
                // All partitions at capacity (only possible with β = 1 and
                // n divisible rounding); place in the globally smallest.
                self.stats.capacity_fallbacks += 1;
                argmin_size(&state.sizes)
            }
        }
    }

    fn name(&self) -> &'static str {
        "LDG"
    }

    fn decision_stats(&self) -> DecisionStats {
        self.stats
    }

    fn snapshot_records(&self) -> Vec<(&'static str, String)> {
        self.stats.snapshot_records()
    }

    fn restore_record(&mut self, key: &str, value: &str) -> bool {
        self.stats.restore_record(key, value)
    }
}

/// FENNEL (Tsourakakis et al.), Eq. (5) of the paper:
///
/// `argmax_i |P_i ∩ N(u)| − α·γ·|P_i|^(γ−1)`
///
/// with γ = 1.5 and α = √k·m/n^1.5 by default. The additive load term
/// relaxes LDG's hard constraint; like the original implementation we
/// still respect the (k, β) capacity so the produced partitioning
/// satisfies Eq. (1).
#[derive(Debug, Clone)]
pub struct Fennel {
    k: usize,
    alpha: f64,
    gamma: f64,
    capacity: f64,
    stats: DecisionStats,
    /// Scratch neighbour histogram reused across vertices (DESIGN.md §13).
    hist: Vec<usize>,
    /// Scratch score column handed to the shared argmax kernel.
    scores: Vec<f64>,
}

impl Fennel {
    /// Creates FENNEL for a graph with `n` vertices and `m` edges.
    pub fn new(cfg: &PartitionerConfig, n: usize, m: usize) -> Self {
        Fennel {
            k: cfg.k,
            alpha: cfg.resolved_fennel_alpha(n, m),
            gamma: cfg.fennel_gamma,
            capacity: cfg.vertex_capacity(n).max(1.0),
            stats: DecisionStats::default(),
            hist: Vec::new(),
            scores: vec![0.0; cfg.k],
        }
    }
}

impl VertexStreamPartitioner for Fennel {
    fn place(&mut self, rec: &VertexRecord, state: &VertexStreamState) -> PartitionId {
        state.neighbor_histogram_into(&rec.neighbors, self.k, &mut self.hist);
        for (i, &h) in self.hist.iter().enumerate() {
            let size = state.sizes[i];
            self.scores[i] = if (size as f64) >= self.capacity {
                kernels::SKIP
            } else {
                let load_penalty = self.alpha * self.gamma * (size as f64).powf(self.gamma - 1.0);
                h as f64 - load_penalty
            };
        }
        match kernels::epsilon_argmax(&self.scores, &state.sizes, &mut self.stats.balance_tiebreaks)
        {
            Some(i) => i as PartitionId,
            None => {
                self.stats.capacity_fallbacks += 1;
                argmin_size(&state.sizes)
            }
        }
    }

    fn name(&self) -> &'static str {
        "FNL"
    }

    fn decision_stats(&self) -> DecisionStats {
        self.stats
    }

    fn snapshot_records(&self) -> Vec<(&'static str, String)> {
        self.stats.snapshot_records()
    }

    fn restore_record(&mut self, key: &str, value: &str) -> bool {
        self.stats.restore_record(key, value)
    }
}

/// Re-streaming wrapper (Nishimura & Ugander, Table 1's "Restreaming
/// LDG" / "Re-FENNEL"): runs the inner heuristic for `passes` passes over
/// the same stream; passes ≥ 2 see the *full* previous assignment, which
/// "utilize\[s\] partitioning results of previous iterations to improve
/// partitioning quality".
#[derive(Debug, Clone)]
pub struct Restream<P> {
    inner: P,
    passes: usize,
    name: &'static str,
}

impl<P: VertexStreamPartitioner> Restream<P> {
    /// Wraps `inner`, running `passes` total stream passes.
    pub fn new(inner: P, passes: usize) -> Self {
        assert!(passes >= 1, "need at least one pass");
        let name = match inner.name() {
            "LDG" => "reLDG",
            "FNL" => "reFNL",
            _ => "re*",
        };
        Restream { inner, passes, name }
    }
}

impl<P: VertexStreamPartitioner> VertexStreamPartitioner for Restream<P> {
    fn place(&mut self, rec: &VertexRecord, state: &VertexStreamState) -> PartitionId {
        self.inner.place(rec, state)
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn passes(&self) -> usize {
        self.passes
    }

    fn decision_stats(&self) -> DecisionStats {
        self.inner.decision_stats()
    }

    fn snapshot_records(&self) -> Vec<(&'static str, String)> {
        self.inner.snapshot_records()
    }

    fn restore_record(&mut self, key: &str, value: &str) -> bool {
        self.inner.restore_record(key, value)
    }
}

fn argmin_size(sizes: &[usize]) -> PartitionId {
    kernels::argmin_load(sizes)
        .map(|i| i as PartitionId)
        // sgp-lint: allow(no-panic-in-lib): sizes has length k and PartitionerConfig::new asserts k >= 1
        .expect("at least one partition")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use crate::streaming::run_vertex_stream;
    use sgp_graph::generators::{erdos_renyi, snb_social, ErdosRenyiConfig, SnbConfig};
    use sgp_graph::{Graph, GraphBuilder, StreamOrder};
    use sgp_trace::NullSink;

    fn cfg(k: usize) -> PartitionerConfig {
        PartitionerConfig::new(k)
    }

    fn two_cliques() -> Graph {
        // Two 5-cliques joined by a single bridge: an obvious 2-way cut.
        let mut b = GraphBuilder::new();
        for base in [0u32, 5u32] {
            for i in 0..5 {
                for j in 0..5 {
                    if i != j {
                        b.push_edge(base + i, base + j);
                    }
                }
            }
        }
        b.push_edge(0, 5);
        b.build()
    }

    #[test]
    fn neighbor_histogram_semantics_are_pinned() {
        // The `|P_i ∩ N(u)|` term every vertex-stream heuristic scores
        // with. Pinned exactly: unplaced neighbours contribute nothing,
        // repeated neighbours count once per occurrence (multi-edges
        // weight the score), and a self-loop counts only once the vertex
        // itself is placed — at first-placement time it is unassigned
        // and contributes zero.
        let mut state = VertexStreamState::new(6, 3);
        state.assign(0, 0);
        state.assign(1, 2);
        state.assign(2, 2);
        // Vertex 5 arrives: neighbours 0 (placed on 0), 1 and 2 (placed
        // on 2), 1 repeated, unplaced 3 and 4, and itself (unplaced).
        assert_eq!(state.neighbor_histogram(&[0, 1, 2, 1, 3, 4, 5], 3), vec![1, 0, 3]);
        // Once 5 is placed, its self-loop occurrences count like any
        // other placed neighbour — the re-streaming case.
        state.assign(5, 1);
        assert_eq!(state.neighbor_histogram(&[5, 5, 3], 3), vec![0, 2, 0]);
        // No neighbours → all-zero histogram, still dense length k.
        assert_eq!(state.neighbor_histogram(&[], 3), vec![0, 0, 0]);
        // The zero-alloc form clears and resizes a dirty scratch buffer
        // to exactly k before counting.
        let mut scratch = vec![99usize; 7];
        state.neighbor_histogram_into(&[0, 5], 3, &mut scratch);
        assert_eq!(scratch, vec![1, 1, 0]);
    }

    #[test]
    fn hash_vertex_is_deterministic_and_balanced() {
        let g = erdos_renyi(ErdosRenyiConfig { vertices: 4000, edges: 12_000, seed: 1 });
        let c = cfg(8);
        let p1 =
            run_vertex_stream(&g, &mut HashVertex::new(&c), 8, StreamOrder::Natural, &mut NullSink);
        let p2 = run_vertex_stream(
            &g,
            &mut HashVertex::new(&c),
            8,
            StreamOrder::Random { seed: 3 },
            &mut NullSink,
        );
        // Hash placement ignores stream order entirely.
        assert_eq!(p1.vertex_owner, p2.vertex_owner);
        let sizes = p1.vertices_per_partition().unwrap();
        let imb = metrics::load_imbalance(&sizes);
        assert!(imb < 1.15, "hash imbalance {imb}");
    }

    #[test]
    fn ldg_finds_clique_structure() {
        let g = two_cliques();
        let c = cfg(2).with_slack(1.2);
        let p = run_vertex_stream(
            &g,
            &mut Ldg::new(&c, g.num_vertices()),
            2,
            StreamOrder::Natural,
            &mut NullSink,
        );
        let ecr = metrics::edge_cut_ratio(&g, &p).unwrap();
        // Only the bridge (and perhaps one early misplacement) should cross.
        assert!(ecr < 0.2, "LDG edge-cut ratio {ecr}");
    }

    #[test]
    fn ldg_respects_capacity() {
        let g = erdos_renyi(ErdosRenyiConfig { vertices: 1000, edges: 5000, seed: 2 });
        let c = cfg(4).with_slack(1.05);
        let p = run_vertex_stream(
            &g,
            &mut Ldg::new(&c, 1000),
            4,
            StreamOrder::Random { seed: 7 },
            &mut NullSink,
        );
        let cap = (1.05f64 * 1000.0 / 4.0).ceil() as usize;
        for &s in &p.vertices_per_partition().unwrap() {
            assert!(s <= cap, "partition size {s} exceeds capacity {cap}");
        }
    }

    #[test]
    fn fennel_beats_hash_on_community_graph() {
        let g = snb_social(SnbConfig {
            persons: 3000,
            communities: 30,
            avg_friends: 12.0,
            ..SnbConfig::default()
        });
        let c = cfg(4);
        let hash = run_vertex_stream(
            &g,
            &mut HashVertex::new(&c),
            4,
            StreamOrder::Random { seed: 1 },
            &mut NullSink,
        );
        let fnl = run_vertex_stream(
            &g,
            &mut Fennel::new(&c, g.num_vertices(), g.num_edges()),
            4,
            StreamOrder::Random { seed: 1 },
            &mut NullSink,
        );
        let ecr_hash = metrics::edge_cut_ratio(&g, &hash).unwrap();
        let ecr_fnl = metrics::edge_cut_ratio(&g, &fnl).unwrap();
        assert!(
            ecr_fnl < 0.85 * ecr_hash,
            "FENNEL ({ecr_fnl}) should significantly beat hash ({ecr_hash})"
        );
    }

    #[test]
    fn fennel_respects_capacity() {
        let g = erdos_renyi(ErdosRenyiConfig { vertices: 2000, edges: 10_000, seed: 5 });
        let c = cfg(8);
        let p = run_vertex_stream(
            &g,
            &mut Fennel::new(&c, 2000, g.num_edges()),
            8,
            StreamOrder::Random { seed: 9 },
            &mut NullSink,
        );
        let cap = (c.balance_slack * 2000.0 / 8.0).ceil() as usize;
        for &s in &p.vertices_per_partition().unwrap() {
            assert!(s <= cap, "partition size {s} exceeds {cap}");
        }
    }

    #[test]
    fn restreaming_improves_or_matches_single_pass() {
        let g = snb_social(SnbConfig {
            persons: 2000,
            communities: 25,
            avg_friends: 10.0,
            ..SnbConfig::default()
        });
        let c = cfg(4);
        let single = run_vertex_stream(
            &g,
            &mut Ldg::new(&c, g.num_vertices()),
            4,
            StreamOrder::Random { seed: 2 },
            &mut NullSink,
        );
        let multi = run_vertex_stream(
            &g,
            &mut Restream::new(Ldg::new(&c, g.num_vertices()), 5),
            4,
            StreamOrder::Random { seed: 2 },
            &mut NullSink,
        );
        let e1 = metrics::edge_cut_ratio(&g, &single).unwrap();
        let e5 = metrics::edge_cut_ratio(&g, &multi).unwrap();
        assert!(e5 <= e1 + 0.02, "restreaming should not regress: {e5} vs {e1}");
    }

    #[test]
    fn every_vertex_assigned_in_range() {
        let g = erdos_renyi(ErdosRenyiConfig { vertices: 500, edges: 2000, seed: 4 });
        let c = cfg(5);
        for p in [
            run_vertex_stream(&g, &mut HashVertex::new(&c), 5, StreamOrder::Bfs, &mut NullSink),
            run_vertex_stream(&g, &mut Ldg::new(&c, 500), 5, StreamOrder::Bfs, &mut NullSink),
            run_vertex_stream(
                &g,
                &mut Fennel::new(&c, 500, g.num_edges()),
                5,
                StreamOrder::Dfs,
                &mut NullSink,
            ),
        ] {
            let owner = p.vertex_owner.as_ref().unwrap();
            assert_eq!(owner.len(), 500);
            assert!(owner.iter().all(|&x| x < 5));
        }
    }

    #[test]
    fn k_equals_one_puts_everything_in_partition_zero() {
        let g = two_cliques();
        let c = cfg(1);
        let p = run_vertex_stream(
            &g,
            &mut Ldg::new(&c, g.num_vertices()),
            1,
            StreamOrder::Natural,
            &mut NullSink,
        );
        assert!(p.vertex_owner.unwrap().iter().all(|&x| x == 0));
        assert_eq!(metrics::edge_cut_ratio_from_owner(&g, &vec![0; g.num_vertices()]), 0.0);
    }

    #[test]
    fn isolated_vertices_are_placed() {
        let g = GraphBuilder::new().add_edge(0, 1).ensure_vertices(10).build();
        let c = cfg(3);
        let p =
            run_vertex_stream(&g, &mut Ldg::new(&c, 10), 3, StreamOrder::Natural, &mut NullSink);
        assert!(p.vertex_owner.unwrap().iter().all(|&x| x < 3));
    }
}
