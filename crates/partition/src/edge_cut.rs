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
    /// placed there — the `|P_i ∩ N(u)|` term of LDG and FENNEL — into
    /// the caller's scratch buffer, cleared and resized to a dense
    /// `k`-length histogram (the zero-alloc form every `place` body uses,
    /// DESIGN.md §13). Unplaced neighbours contribute nothing; repeated
    /// neighbours (and self-loops of an already-placed vertex) count once
    /// per occurrence.
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
/// satisfies Eq. (1). The load term depends on `|P_i|` alone, so it is
/// evaluated once per size change, not once per record and partition
/// (DESIGN.md §13); γ ≥ 1 is required (see [`RunError`]).
///
/// [`RunError`]: crate::registry::RunError
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
    /// `α·γ·|P_i|^(γ−1)` per partition, recomputed when `|P_i|` moves.
    load_penalty: kernels::LoadTermMemo,
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
            load_penalty: kernels::LoadTermMemo::new(cfg.k),
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
                let load_penalty = self.load_penalty.get(i, size as u64, |size| {
                    self.alpha * self.gamma * (size as f64).powf(self.gamma - 1.0)
                });
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
pub(crate) mod tests {
    use super::*;
    use crate::loaders::{partition_multi_loader, run_modelled, LoaderConfig};
    use crate::metrics;
    use crate::registry::{Algorithm, Boxed};
    use crate::snapshot::restore_into;
    use crate::streaming::{run_vertex_stream, StreamingPartitioner, VertexSeal};
    use sgp_graph::generators::{
        erdos_renyi, road_grid, snb_social, ErdosRenyiConfig, RoadConfig, SnbConfig,
    };
    use sgp_graph::sampling::{check_cases, Rng};
    use sgp_graph::{Graph, GraphBuilder, StreamOrder, VertexStreamSource};
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
        let hist = |state: &VertexStreamState, neighbors: &[u32]| {
            // A dirty scratch buffer: cleared and resized to exactly k
            // before counting.
            let mut scratch = vec![99usize; 7];
            state.neighbor_histogram_into(neighbors, 3, &mut scratch);
            scratch
        };
        state.assign(0, 0);
        state.assign(1, 2);
        state.assign(2, 2);
        // Vertex 5 arrives: neighbours 0 (placed on 0), 1 and 2 (placed
        // on 2), 1 repeated, unplaced 3 and 4, and itself (unplaced).
        assert_eq!(hist(&state, &[0, 1, 2, 1, 3, 4, 5]), vec![1, 0, 3]);
        // Once 5 is placed, its self-loop occurrences count like any
        // other placed neighbour — the re-streaming case.
        state.assign(5, 1);
        assert_eq!(hist(&state, &[5, 5, 3]), vec![0, 2, 0]);
        // No neighbours → all-zero histogram, still dense length k.
        assert_eq!(hist(&state, &[]), vec![0, 0, 0]);
        assert_eq!(hist(&state, &[0, 5]), vec![1, 1, 0]);
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

    /// Textbook FENNEL, Eq. (5) written once more and kept apart from the
    /// production machine: its own histogram per record, the `powf` load
    /// term recomputed per partition per record, its own ε-fold (ties to
    /// the smaller partition, then the lower index), no shared scratch.
    #[derive(Debug, Clone)]
    struct ReferenceFennel {
        alpha: f64,
        gamma: f64,
        capacity: f64,
        stats: DecisionStats,
    }

    impl ReferenceFennel {
        fn new(cfg: &PartitionerConfig, n: usize, m: usize) -> Self {
            ReferenceFennel {
                alpha: cfg.resolved_fennel_alpha(n, m),
                gamma: cfg.fennel_gamma,
                capacity: cfg.vertex_capacity(n).max(1.0),
                stats: DecisionStats::default(),
            }
        }
    }

    impl VertexStreamPartitioner for ReferenceFennel {
        fn place(&mut self, rec: &VertexRecord, state: &VertexStreamState) -> PartitionId {
            let k = state.sizes.len();
            let mut hist = vec![0usize; k];
            for &w in &rec.neighbors {
                let p = state.assignment[w as usize];
                if p != UNASSIGNED {
                    hist[p as usize] += 1;
                }
            }
            // (score, size, index) of the best partition below capacity.
            let mut best: Option<(f64, usize, usize)> = None;
            for (i, &size) in state.sizes.iter().enumerate() {
                if size as f64 >= self.capacity {
                    continue;
                }
                let penalty = self.alpha * self.gamma * (size as f64).powf(self.gamma - 1.0);
                let score = hist[i] as f64 - penalty;
                best = match best {
                    None => Some((score, size, i)),
                    Some((b, _, _)) if score > b + 1e-12 => Some((score, size, i)),
                    Some((b, b_size, _)) if (score - b).abs() <= 1e-12 && size < b_size => {
                        self.stats.balance_tiebreaks += 1;
                        Some((score, size, i))
                    }
                    kept => kept,
                };
            }
            let i = best.map(|(_, _, i)| i).unwrap_or_else(|| {
                self.stats.capacity_fallbacks += 1;
                (0..k).min_by_key(|&i| (state.sizes[i], i)).unwrap()
            });
            i as PartitionId
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

    /// A graph for the twin grid: a random multigraph with self-loops
    /// and isolated vertices, a perturbed lattice, or an SNB-like
    /// community graph.
    fn twin_graph(rng: &mut Rng) -> Graph {
        match rng.index(3) {
            0 => {
                let n = rng.range(2..300);
                let mut b = GraphBuilder::new().ensure_vertices(n);
                for _ in 0..rng.range(0..4 * n) {
                    b.push_edge(rng.index(n) as u32, rng.index(n) as u32);
                }
                b.build()
            }
            1 => road_grid(RoadConfig {
                width: rng.range(2..18),
                height: rng.range(2..18),
                seed: rng.next_u64(),
                ..RoadConfig::default()
            }),
            _ => snb_social(SnbConfig {
                persons: rng.range(50..300),
                communities: rng.range(1..12),
                avg_friends: 6.0,
                seed: rng.next_u64(),
                ..SnbConfig::default()
            }),
        }
    }

    /// Drives a facade over every pass of `g` in `chunk`-sized chunks,
    /// replacing the machine by `restore` of its own snapshot after chunk
    /// `cut`; returns the sealed owners, that snapshot, and the snapshot
    /// taken just before the seal.
    fn facade_with_restore<'g>(
        g: &'g Graph,
        mut sp: StreamingPartitioner<'g>,
        order: StreamOrder,
        (chunk, cut): (usize, usize),
        restore: impl Fn(&str) -> StreamingPartitioner<'g>,
    ) -> (Option<Vec<PartitionId>>, String, String) {
        let mut source = VertexStreamSource::new(g, order);
        let (mut buf, mut fed, mut mid) = (Vec::new(), 0, String::new());
        for _ in 0..sp.passes() {
            source.restart();
            while source.next_chunk(chunk, &mut buf) > 0 {
                sp.ingest_vertices(&buf).unwrap();
                fed += 1;
                if fed == cut {
                    mid = sp.snapshot();
                    sp = restore(&mid);
                }
            }
            sp.flush_window();
        }
        let end = sp.snapshot();
        (sp.seal().vertex_owner, mid, end)
    }

    /// What a twin grid compared and where production and twin differed.
    #[derive(Default)]
    pub(crate) struct Tally {
        pub(crate) configurations: usize,
        comparisons: usize,
        mismatches: Vec<String>,
    }

    impl Tally {
        pub(crate) fn expect_eq<T: PartialEq>(
            &mut self,
            what: &str,
            at: &str,
            production: T,
            reference: T,
        ) {
            self.comparisons += 1;
            if production != reference {
                self.mismatches.push(format!("{what} at {at}"));
            }
        }
    }

    const TWIN_KS: [usize; 6] = [1, 2, 16, 64, 65, 130];
    const TWIN_GAMMAS: [f64; 4] = [1.0, 1.1, 1.5, 2.0];
    const TWIN_ALPHAS: [Option<f64>; 3] = [None, Some(0.0), Some(7.5)];

    /// The FENNEL twin differential (ROADMAP item 3(b), FENNEL only):
    /// production `Fennel` — its load-term memo included — against
    /// [`ReferenceFennel`] on `cases` graphs × every `StreamOrder` × `ks`
    /// × `gammas` × every α × {1 pass, 5-pass restream}. Each
    /// configuration compares the sequential owners and `DecisionStats`,
    /// the facade run through a mid-stream snapshot and restore (the
    /// production memo is rebuilt, never restored: owners, and the
    /// snapshot text at the cut and before the seal, byte for byte), and
    /// the modelled loaders at L ∈ {2, 4}.
    fn twin_grid(cases: u64, ks: &[usize], gammas: &[f64]) -> Tally {
        let mut tally = Tally::default();
        check_cases(cases, |rng| {
            let g = twin_graph(rng);
            let (n, m) = (g.num_vertices(), g.num_edges());
            let orders = [
                StreamOrder::Natural,
                StreamOrder::Random { seed: rng.next_u64() },
                StreamOrder::Bfs,
                StreamOrder::Dfs,
                StreamOrder::BfsFrom { start: rng.index(n) as VertexId },
                StreamOrder::DfsFrom { start: rng.index(n) as VertexId },
            ];
            for order in orders {
                for &k in ks {
                    for &fennel_gamma in gammas {
                        for fennel_alpha in TWIN_ALPHAS {
                            let cfg = PartitionerConfig {
                                fennel_gamma,
                                fennel_alpha,
                                ..PartitionerConfig::new(k)
                            };
                            for (algorithm, passes) in
                                [(Algorithm::Fennel, 1), (Algorithm::RestreamFennel, 5)]
                            {
                                let chunk = rng.range(1..48);
                                let cut = rng.range(1..passes * n.div_ceil(chunk) + 1);
                                let at = format!(
                                    "n={n} m={m} {order:?} k={k} γ={fennel_gamma} \
                                     α={fennel_alpha:?} passes={passes} chunk={chunk} cut={cut}"
                                );
                                tally.configurations += 1;
                                twin_configuration(
                                    &mut tally,
                                    &at,
                                    &g,
                                    &cfg,
                                    order,
                                    (algorithm, passes),
                                    (chunk, cut),
                                );
                            }
                        }
                    }
                }
            }
        });
        tally
    }

    fn twin_configuration(
        tally: &mut Tally,
        at: &str,
        g: &Graph,
        cfg: &PartitionerConfig,
        order: StreamOrder,
        (algorithm, passes): (Algorithm, usize),
        cut: (usize, usize),
    ) {
        let (n, m, k) = (g.num_vertices(), g.num_edges(), cfg.k);
        let reference = Restream::new(ReferenceFennel::new(cfg, n, m), passes);
        let reference_machines = || {
            let reference = reference.clone();
            Boxed::Vertex(Box::new(move || Box::new(reference.clone())), VertexSeal::EdgeCut)
        };

        let mut production = Restream::new(Fennel::new(cfg, n, m), passes);
        let mut twin = reference.clone();
        let seq = run_vertex_stream(g, &mut production, k, order, &mut NullSink).vertex_owner;
        let twin_seq = run_vertex_stream(g, &mut twin, k, order, &mut NullSink).vertex_owner;
        tally.expect_eq("sequential owners", at, &seq, &twin_seq);
        tally.expect_eq("DecisionStats", at, production.decision_stats(), twin.decision_stats());

        let (owners, mid, end) = facade_with_restore(
            g,
            StreamingPartitioner::init(g, algorithm, cfg),
            order,
            cut,
            |text| StreamingPartitioner::restore(g, algorithm, cfg, text).unwrap(),
        );
        let (twin_owners, twin_mid, twin_end) = facade_with_restore(
            g,
            StreamingPartitioner::with_machines(g, algorithm, cfg, reference_machines()),
            order,
            cut,
            |text| {
                let fresh =
                    StreamingPartitioner::with_machines(g, algorithm, cfg, reference_machines());
                restore_into(fresh, text).unwrap()
            },
        );
        tally.expect_eq("restored owners", at, &owners, &twin_owners);
        tally.expect_eq("restored owners vs one-shot", at, &owners, &seq);
        tally.expect_eq("snapshot text at the cut", at, mid, twin_mid);
        tally.expect_eq("snapshot text before the seal", at, end, twin_end);

        for loaders in [2, 4] {
            let lc = LoaderConfig::new(loaders).with_sync_interval(8);
            let par = partition_multi_loader(g, algorithm, cfg, order, &lc).vertex_owner;
            let twin_par = run_modelled(g, k, reference_machines(), order, &lc).vertex_owner;
            tally.expect_eq("loader owners", at, par, twin_par);
        }
    }

    pub(crate) fn assert_no_twin_mismatch(twin: &str, tally: &Tally) {
        println!(
            "{twin} twin: {} configurations, {} comparisons, {} mismatches",
            tally.configurations,
            tally.comparisons,
            tally.mismatches.len()
        );
        assert!(
            tally.mismatches.is_empty(),
            "{} mismatches, first: {:?}",
            tally.mismatches.len(),
            &tally.mismatches[..tally.mismatches.len().min(5)]
        );
    }

    /// The slice of the twin grid that runs under `cargo test`.
    #[test]
    fn fennel_matches_its_textbook_twin() {
        assert_no_twin_mismatch("FENNEL", &twin_grid(2, &[1, 16, 65], &[1.0, 1.5]));
    }

    /// The full twin grid: `cargo test --release -p sgp-partition --lib
    /// -- --ignored` (CI runs it on every push).
    #[test]
    #[ignore = "full grid; run in release"]
    fn fennel_matches_its_textbook_twin_full_grid() {
        assert_no_twin_mismatch("FENNEL", &twin_grid(8, &TWIN_KS, &TWIN_GAMMAS));
    }
}
