//! Edge-cut SGP on vertex streams (§4.1.1 of the paper): hash, LDG,
//! FENNEL, and the re-streaming variants of Nishimura & Ugander. LDG and
//! FENNEL are one machine, `Greedy<R>`, whose rule `R` is Eq. (4)'s or
//! Eq. (5)'s balance term; `Ldg` and `Fennel` name its two instances.
//!
//! All algorithms here consume a vertex stream — each element is a
//! vertex with its complete neighbourhood — and emit a vertex-disjoint
//! partitioning. The shared streaming state (previous assignments +
//! partition sizes) that the paper notes each worker must "continuously
//! communicate and synchronize" lives in [`VertexStreamState`], owned by
//! the incremental core in [`crate::streaming`], whose
//! [`run_vertex_stream`](crate::streaming::run_vertex_stream) drives any
//! partitioner defined here.
#![expect(
    clippy::indexing_slicing,
    reason = "LDG/Fennel score tables are sized k and indexed by candidate partition; degree arrays are sized num_vertices"
)]

use crate::assignment::{hash_to_partition, PartitionId};
use crate::config::PartitionerConfig;
use crate::decisions::{DecisionStats, WorkStats};
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
pub(crate) const UNASSIGNED: PartitionId = PartitionId::MAX;

impl VertexStreamState {
    /// Fresh state for `n` vertices and `k` partitions.
    pub(crate) fn new(n: usize, k: usize) -> Self {
        VertexStreamState { assignment: vec![UNASSIGNED; n], sizes: vec![0; k] }
    }

    /// Counts, for each partition, how many of `neighbors` are already
    /// placed there — the `|P_i ∩ N(u)|` term of LDG and FENNEL — into
    /// the caller's scratch buffer, cleared and resized to a dense
    /// `k`-length histogram (the zero-alloc form the attribute-aware,
    /// heterogeneous and Ginger `place` bodies use; LDG and FENNEL count
    /// into their candidate fold instead, DESIGN.md §13). Unplaced
    /// neighbours contribute nothing; repeated neighbours (and self-loops
    /// of an already-placed vertex) count once per occurrence.
    pub(crate) fn neighbor_histogram_into(
        &self,
        neighbors: &[u32],
        k: usize,
        hist: &mut Vec<usize>,
    ) {
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
    pub(crate) fn assign(&mut self, v: u32, p: PartitionId) {
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
/// `Send` is a supertrait: under [`crate::exec`] each loader's boxed
/// machine runs its round on a scoped thread of its own, and every
/// implementor is plain owned data (counters and vectors), so the bound
/// costs nothing.
pub trait VertexStreamPartitioner: Send {
    /// Chooses a partition for the arriving vertex given the shared state.
    fn place(&mut self, rec: &VertexRecord<'_>, state: &VertexStreamState) -> PartitionId;

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

    /// Exact work counters accumulated so far (all-zero for algorithms
    /// that do not count their work).
    fn work_stats(&self) -> WorkStats {
        WorkStats::default()
    }

    /// The private state that decides later placements, as named integer
    /// records for the snapshot layer ([`crate::snapshot`], DESIGN.md
    /// §11), which alone formats them. Counters never enter it; machines
    /// whose placements read only the shared state and the config have
    /// none.
    fn snapshot_state(&self) -> Vec<(&'static str, Vec<u64>)> {
        Vec::new()
    }

    /// Restores one record of
    /// [`snapshot_state`](VertexStreamPartitioner::snapshot_state);
    /// returns `false` for an unknown key or values the machine could not
    /// have written (the snapshot layer surfaces that as a typed error).
    fn restore_state(&mut self, key: &str, values: &[u64]) -> bool {
        let _ = (key, values);
        false
    }
}

/// Hash-based random vertex placement (`ECR` in the paper's Table 2).
///
/// "It achieves a well-balanced distribution; however it completely
/// ignores the graph topology" — expected edge-cut ratio `1 − 1/k`.
#[derive(Debug, Clone)]
pub(crate) struct HashVertex {
    k: usize,
    seed: u64,
}

impl HashVertex {
    /// Creates the hash partitioner from the shared config.
    pub(crate) fn new(cfg: &PartitionerConfig) -> Self {
        HashVertex { k: cfg.k, seed: cfg.seed }
    }

    /// The partition vertex `v` hashes to — all `place` ever computes.
    pub(crate) fn owner(&self, v: VertexId) -> PartitionId {
        hash_to_partition(v, self.k, self.seed)
    }
}

impl VertexStreamPartitioner for HashVertex {
    fn place(&mut self, rec: &VertexRecord<'_>, _state: &VertexStreamState) -> PartitionId {
        self.owner(rec.vertex)
    }
}

/// The one greedy vertex-stream machine: LDG (Eq. 4) and FENNEL
/// (Eq. 5) are the same argmax over the partitions, each with its own
/// balance term `rule` (Stanton & Kliot's family of weighted greedy
/// heuristics). Capacity-saturated partitions are skipped — the greedy
/// never overfills; the rest score the rule exactly, and ties break to
/// the smaller partition (sizes do not change inside the fold). When
/// every partition is at capacity the vertex goes to the globally
/// smallest one.
#[derive(Debug, Clone)]
pub(crate) struct Greedy<R> {
    stats: DecisionStats,
    /// Scores only the partitions a neighbour sits in (DESIGN.md §13).
    fold: kernels::CandidateFold,
    rule: R,
}

/// Linear Deterministic Greedy (Stanton & Kliot), Eq. (4) of the paper:
///
/// `argmax_i |P_i ∩ N(u)| · (1 − |P_i| / C)` with `C = β·|V|/k`.
///
/// The multiplicative penalty "strictly enforces exact balance"; we
/// additionally refuse to place into a partition at capacity, and fall
/// back to the least-loaded partition when no neighbour information is
/// available (the standard LDG tie-break).
pub(crate) type Ldg = Greedy<LdgScore>;

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
pub(crate) type Fennel = Greedy<FennelScore>;

impl<R> Greedy<R> {
    fn with_rule(k: usize, capacity: f64, rule: R) -> Self {
        Greedy {
            stats: DecisionStats::default(),
            fold: kernels::CandidateFold::new(k, capacity),
            rule,
        }
    }
}

impl Ldg {
    /// Creates LDG for a graph with `n` vertices.
    pub(crate) fn new(cfg: &PartitionerConfig, n: usize) -> Self {
        let capacity = cfg.vertex_capacity(n).max(1.0);
        Greedy::with_rule(cfg.k, capacity, LdgScore { capacity })
    }
}

impl Fennel {
    /// Creates FENNEL for a graph with `n` vertices and `m` edges.
    pub(crate) fn new(cfg: &PartitionerConfig, n: usize, m: usize) -> Self {
        let capacity = cfg.vertex_capacity(n).max(1.0);
        let (alpha, gamma) = (cfg.resolved_fennel_alpha(n, m), cfg.fennel_gamma);
        // γ = 1 makes the load term α·γ·|P_i|^0 = α·γ at every load; α = 0
        // makes it 0 at every load below capacity unless `powf` overflows
        // there (0 · ∞ is NaN).
        let constant = gamma == 1.0
            || (alpha == 0.0 && fennel_penalty(alpha, gamma, capacity.ceil()).is_finite());
        let rule = FennelScore {
            alpha,
            gamma,
            constant_band: constant.then(|| 0.0 - fennel_penalty(alpha, gamma, 0.0)),
            load_penalty: kernels::LoadTermMemo::new(cfg.k),
            separated: kernels::SeparatedLoads::new(),
        };
        Greedy::with_rule(cfg.k, capacity, rule)
    }
}

impl<R: kernels::NeighbourScore + Send> VertexStreamPartitioner for Greedy<R> {
    fn place(&mut self, rec: &VertexRecord<'_>, state: &VertexStreamState) -> PartitionId {
        match self.fold.place(
            &rec.neighbors,
            state,
            &mut self.rule,
            &mut self.stats.balance_tiebreaks,
        ) {
            Some(i) => i as PartitionId,
            None => {
                self.stats.capacity_fallbacks += 1;
                argmin_size(&state.sizes)
            }
        }
    }

    fn decision_stats(&self) -> DecisionStats {
        self.stats
    }

    fn work_stats(&self) -> WorkStats {
        self.fold.work
    }
}

/// Eq. (4)'s score for the candidate fold. A partition holding no
/// neighbour scores `0 · (1 − |P_i|/C) = +0.0` at every load below
/// capacity: a constant band.
#[derive(Debug, Clone)]
pub(crate) struct LdgScore {
    capacity: f64,
}

impl kernels::NeighbourScore for LdgScore {
    fn score(&mut self, _i: usize, neighbours: usize, load: usize) -> f64 {
        neighbours as f64 * (1.0 - load as f64 / self.capacity)
    }

    fn band(&mut self, _loads: &[usize], _below: usize) -> Option<kernels::Band> {
        Some(kernels::Band::Constant(0.0))
    }
}

/// Eq. (5)'s score for the candidate fold. A partition holding no
/// neighbour scores `0 − α·γ·|P_i|^(γ−1)`: constant when γ = 1 or α = 0,
/// otherwise separated wherever adjacent loads' penalties differ by more
/// than ε.
#[derive(Debug, Clone)]
pub(crate) struct FennelScore {
    alpha: f64,
    gamma: f64,
    /// The band's score when it does not depend on load.
    constant_band: Option<f64>,
    /// `α·γ·|P_i|^(γ−1)` per partition, recomputed when `|P_i|` moves.
    load_penalty: kernels::LoadTermMemo,
    /// Loads over which the band is known to be separated.
    separated: kernels::SeparatedLoads,
}

/// FENNEL's load term `α·γ·load^(γ−1)`: one expression for the memo and
/// the band, so both read the same bits.
fn fennel_penalty(alpha: f64, gamma: f64, load: f64) -> f64 {
    alpha * gamma * load.powf(gamma - 1.0)
}

impl kernels::NeighbourScore for FennelScore {
    fn score(&mut self, i: usize, neighbours: usize, load: usize) -> f64 {
        let (alpha, gamma) = (self.alpha, self.gamma);
        let penalty =
            self.load_penalty.get(i, load as u64, |size| fennel_penalty(alpha, gamma, size as f64));
        neighbours as f64 - penalty
    }

    fn band(&mut self, loads: &[usize], below: usize) -> Option<kernels::Band> {
        if let Some(score) = self.constant_band {
            return Some(kernels::Band::Constant(score));
        }
        let (lightest, min, max) = kernels::below_capacity_range(loads, below)?;
        let (alpha, gamma) = (self.alpha, self.gamma);
        if !self.separated.covers(min, max, |load| 0.0 - fennel_penalty(alpha, gamma, load as f64))
        {
            return None;
        }
        Some(kernels::Band::Separated(self.score(lightest, 0, min)))
    }
}

/// Re-streaming wrapper (Nishimura & Ugander, Table 1's "Restreaming
/// LDG" / "Re-FENNEL"): runs the inner heuristic for `passes` passes over
/// the same stream; passes ≥ 2 see the *full* previous assignment, which
/// "utilize\[s\] partitioning results of previous iterations to improve
/// partitioning quality".
#[derive(Debug, Clone)]
pub(crate) struct Restream<P> {
    inner: P,
    passes: usize,
}

impl<P: VertexStreamPartitioner> Restream<P> {
    /// Wraps `inner`, running `passes` total stream passes.
    pub(crate) fn new(inner: P, passes: usize) -> Self {
        assert!(passes >= 1, "need at least one pass");
        Restream { inner, passes }
    }
}

impl<P: VertexStreamPartitioner> VertexStreamPartitioner for Restream<P> {
    fn place(&mut self, rec: &VertexRecord<'_>, state: &VertexStreamState) -> PartitionId {
        self.inner.place(rec, state)
    }

    fn passes(&self) -> usize {
        self.passes
    }

    fn decision_stats(&self) -> DecisionStats {
        self.inner.decision_stats()
    }

    fn work_stats(&self) -> WorkStats {
        self.inner.work_stats()
    }
}

#[expect(
    clippy::expect_used,
    reason = "sizes has length k and PartitionerConfig::new asserts k >= 1"
)]
fn argmin_size(sizes: &[usize]) -> PartitionId {
    kernels::argmin_load(sizes).map(|i| i as PartitionId).expect("at least one partition")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::loaders::{partition_multi_loader, run_loaders, LoaderConfig};
    use crate::metrics;
    use crate::registry::{Algorithm, Boxed};
    use crate::snapshot::restore_into;
    use crate::streaming::{run_vertex_stream, Machine, StreamingPartitioner, VertexSeal};
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

    /// Drives `machine` over every pass of `g` in BFS order, checking per
    /// record that a candidate-fold placement scored exactly the distinct
    /// below-capacity partitions holding a placed neighbour; returns the
    /// machine's work counters.
    fn work_per_record(
        g: &Graph,
        cfg: &PartitionerConfig,
        machine: &mut dyn VertexStreamPartitioner,
    ) -> WorkStats {
        let (n, k) = (g.num_vertices(), cfg.k);
        let below = cfg.vertex_capacity(n).max(1.0).ceil() as usize;
        let mut state = VertexStreamState::new(n, k);
        let mut source = VertexStreamSource::new(g, StreamOrder::Bfs);
        for _ in 0..machine.passes() {
            source.restart();
            while let Some(rec) = source.next_record() {
                let mut candidates: Vec<PartitionId> = rec
                    .neighbors
                    .iter()
                    .map(|&w| state.assignment[w as usize])
                    .filter(|&p| p != UNASSIGNED && state.sizes[p as usize] < below)
                    .collect();
                candidates.sort_unstable();
                candidates.dedup();
                let before = machine.work_stats();
                let p = machine.place(&rec, &state);
                state.assign(rec.vertex, p);
                let after = machine.work_stats();
                if after.full_folds == before.full_folds {
                    assert_eq!(
                        after.score_evals - before.score_evals,
                        candidates.len() as u64,
                        "a partition without a neighbour was scored at {}",
                        rec.vertex
                    );
                }
            }
        }
        machine.work_stats()
    }

    #[test]
    fn work_counters_are_exact_on_a_lattice() {
        let g = road_grid(RoadConfig { width: 64, height: 64, ..RoadConfig::default() });
        let (n, m) = (g.num_vertices(), g.num_edges());
        let c = cfg(64);
        // (machine, its exact work, the most records in 100 that may take
        // the full fold). FENNEL's one pass is the exception: while the
        // partitions fill, an empty one's −pen(0) outscores a neighbour's
        // 1 − pen(|P_i|), and the candidate fold leaves every record a
        // non-candidate may win to the full fold.
        let cells: [(&str, Box<dyn VertexStreamPartitioner>, WorkStats, u64); 4] = [
            (
                "LDG",
                Box::new(Ldg::new(&c, n)),
                WorkStats { score_evals: 11_444, full_folds: 147 },
                5,
            ),
            (
                "FNL",
                Box::new(Fennel::new(&c, n, m)),
                WorkStats { score_evals: 51_488, full_folds: 730 },
                20,
            ),
            (
                "reLDG",
                Box::new(Restream::new(Ldg::new(&c, n), 5)),
                WorkStats { score_evals: 37_261, full_folds: 151 },
                5,
            ),
            (
                "reFNL",
                Box::new(Restream::new(Fennel::new(&c, n, m), 5)),
                WorkStats { score_evals: 81_255, full_folds: 738 },
                5,
            ),
        ];
        for (name, mut machine, pinned, percent) in cells {
            let records = (n * machine.passes()) as u64;
            let work = work_per_record(&g, &c, machine.as_mut());
            assert_eq!(work, pinned, "{name}");
            assert!(work.full_folds * 100 < records * percent, "{name}: {work:?}");
        }
        // `run_vertex_stream` counts the same work as the hand-driven loop.
        let mut ldg = Ldg::new(&c, n);
        run_vertex_stream(&g, &mut ldg, 64, StreamOrder::Bfs, &mut NullSink);
        let mut reference = Ldg::new(&c, n);
        assert_eq!(ldg.work_stats(), work_per_record(&g, &c, &mut reference));
    }

    /// HDRF and 2PS (whose assignment pass is HDRF with affinity
    /// targets) on a small R-MAT at k ∈ {2, 32}, random order: the family
    /// fold scores at most six entries per placement, and the dense k-way
    /// fold it replaced (on every placement) runs on almost none.
    #[test]
    fn hdrf_work_counters_are_exact_on_a_small_rmat() {
        use crate::streaming::{drive_edge_stream, EdgeIngest};
        use crate::two_phase::TwoPhase;
        use crate::vertex_cut::{EdgeStreamPartitioner, Hdrf};
        use sgp_graph::generators::{rmat, RmatConfig};
        let g = rmat(RmatConfig { scale: 10, edge_factor: 12, ..RmatConfig::default() });
        let (n, m) = (g.num_vertices(), g.num_edges());
        let order = StreamOrder::Random { seed: 42 };
        // (machine, k, its exact work).
        let cells: [(&str, usize, WorkStats); 4] = [
            ("HDRF", 2, WorkStats { score_evals: 13_643, full_folds: 8 }),
            ("2PS", 2, WorkStats { score_evals: 18_850, full_folds: 4 }),
            ("HDRF", 32, WorkStats { score_evals: 31_125, full_folds: 0 }),
            ("2PS", 32, WorkStats { score_evals: 40_989, full_folds: 0 }),
        ];
        for (name, k, pinned) in cells {
            let c = cfg(k);
            let machine: Box<dyn EdgeStreamPartitioner> = match name {
                "HDRF" => Box::new(Hdrf::new(&c, m)),
                _ => Box::new(TwoPhase::new(&c, n, m)),
            };
            let mut core = EdgeIngest::init(&g, machine, k);
            drive_edge_stream(&g, &mut core, order, 1, &mut NullSink);
            let work = core.partitioner.work_stats();
            println!("{name} k={k}: {work:?} over {m} placements");
            assert_eq!(work, pinned, "{name} k={k}");
            let (m, k) = (m as u64, k as u64);
            assert!(work.score_evals <= 6 * (m - work.full_folds) + k * work.full_folds);
            assert!(work.full_folds * 1000 < m, "{name} k={k}: {work:?}");
        }
    }

    #[test]
    fn ldg_falls_back_when_a_candidate_score_rounds_into_the_band() {
        // C = 5e12: one below capacity, a single neighbour scores
        // 1 · (1 − (C − 1)/C) ≈ 2e-13, within ε of the empty partition's
        // +0.0, so the dense fold breaks the tie to the lighter partition.
        let n = 10_000_000_000_000;
        let c = cfg(2).with_slack(1.0);
        let cap = 5_000_000_000_000;
        let state =
            VertexStreamState { assignment: vec![0, UNASSIGNED], sizes: vec![cap - 1, cap - 3] };
        let rec = VertexRecord { vertex: 1, neighbors: vec![0].into() };
        let (mut ldg, mut reference) = (Ldg::new(&c, n), ReferenceLdg::new(&c, n));
        assert_eq!(ldg.place(&rec, &state), 1);
        assert_eq!(reference.place(&rec, &state), 1);
        assert_eq!(ldg.decision_stats(), reference.decision_stats());
        assert_eq!(ldg.decision_stats().balance_tiebreaks, 1);
        assert_eq!(ldg.work_stats(), WorkStats { score_evals: 3, full_folds: 1 });
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
        fn place(&mut self, rec: &VertexRecord<'_>, state: &VertexStreamState) -> PartitionId {
            let k = state.sizes.len();
            let mut hist = vec![0usize; k];
            for &w in rec.neighbors.iter() {
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

        fn decision_stats(&self) -> DecisionStats {
            self.stats
        }
    }

    /// Textbook LDG, Eq. (4) written once more and kept apart from the
    /// production machine: its own histogram per record, the score
    /// `|P_i ∩ N(u)| · (1 − |P_i|/C)` computed for every partition below
    /// capacity, its own ε-fold (ties to the smaller partition, then the
    /// lower index), no candidate set, no shared scratch.
    #[derive(Debug, Clone)]
    struct ReferenceLdg {
        capacity: f64,
        stats: DecisionStats,
    }

    impl ReferenceLdg {
        fn new(cfg: &PartitionerConfig, n: usize) -> Self {
            ReferenceLdg {
                capacity: cfg.vertex_capacity(n).max(1.0),
                stats: DecisionStats::default(),
            }
        }
    }

    impl VertexStreamPartitioner for ReferenceLdg {
        fn place(&mut self, rec: &VertexRecord<'_>, state: &VertexStreamState) -> PartitionId {
            let k = state.sizes.len();
            let mut hist = vec![0usize; k];
            for &w in rec.neighbors.iter() {
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
                let score = hist[i] as f64 * (1.0 - size as f64 / self.capacity);
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

        fn decision_stats(&self) -> DecisionStats {
            self.stats
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

    /// The decision counters of a facade's machine (all-zero offline).
    pub(crate) fn facade_stats(sp: &StreamingPartitioner<'_>) -> DecisionStats {
        match &sp.machine {
            Machine::Vertex { core, .. } => core.partitioner.decision_stats(),
            Machine::Edge { core } => core.partitioner.decision_stats(),
            Machine::Offline => DecisionStats::default(),
        }
    }

    /// Drives a facade over every pass of `g` in `chunk`-sized chunks,
    /// replacing the machine by `restore` of its own snapshot after chunk
    /// `cut`; returns the sealed owners, that snapshot with the decision
    /// counters at the cut, and the snapshot taken just before the seal.
    fn facade_with_restore<'g>(
        g: &'g Graph,
        mut sp: StreamingPartitioner<'g>,
        order: StreamOrder,
        (chunk, cut): (usize, usize),
        restore: impl Fn(&str) -> StreamingPartitioner<'g>,
    ) -> (Option<Vec<PartitionId>>, (String, DecisionStats), String) {
        let mut source = VertexStreamSource::new(g, order);
        let (mut buf, mut fed, mut mid) = (Vec::new(), 0, Default::default());
        for _ in 0..sp.passes() {
            source.restart();
            while source.next_chunk(chunk, &mut buf) > 0 {
                sp.ingest_vertices(&buf).unwrap();
                fed += 1;
                if fed == cut {
                    mid = (sp.snapshot(), facade_stats(&sp));
                    sp = restore(&mid.0);
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
    /// α = 1e-12 puts adjacent loads' penalties within ε of each other,
    /// so ε-ties inside the load band actually occur.
    const TWIN_ALPHAS: [Option<f64>; 4] = [None, Some(0.0), Some(7.5), Some(1e-12)];
    const TWIN_SLACKS: [f64; 3] = [1.0, 1.05, 1.3];

    /// Runs `configure` on `cases` graphs × every `StreamOrder` × `ks`,
    /// handing it the graph, the order, k and the case's generator.
    fn twin_grid(
        cases: u64,
        ks: &[usize],
        mut configure: impl FnMut(&mut Tally, &Graph, StreamOrder, usize, &mut Rng),
    ) -> Tally {
        let mut tally = Tally::default();
        check_cases(cases, |rng| {
            let g = twin_graph(rng);
            let n = g.num_vertices();
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
                    configure(&mut tally, &g, order, k, rng);
                }
            }
        });
        tally
    }

    /// The FENNEL twin differential: production `Fennel` — its load-term
    /// memo and candidate fold included — against [`ReferenceFennel`] on
    /// the [`twin_grid`] × `gammas` × every α × {1 pass, 5-pass
    /// restream}, each compared by [`twin_configuration`].
    fn fennel_twin_grid(cases: u64, ks: &[usize], gammas: &[f64]) -> Tally {
        twin_grid(cases, ks, |tally, g, order, k, rng| {
            let (n, m) = (g.num_vertices(), g.num_edges());
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
                        let machines = (
                            algorithm,
                            Restream::new(Fennel::new(&cfg, n, m), passes),
                            Restream::new(ReferenceFennel::new(&cfg, n, m), passes),
                        );
                        let cut = twin_cut(rng, n, passes);
                        let at = format!(
                            "n={n} m={m} {order:?} k={k} γ={fennel_gamma} α={fennel_alpha:?} \
                             passes={passes} chunk={} cut={}",
                            cut.0, cut.1
                        );
                        twin_configuration(tally, &at, g, &cfg, order, machines, cut);
                    }
                }
            }
        })
    }

    /// The LDG twin differential: production `Ldg` — its candidate fold
    /// included — against [`ReferenceLdg`] on the [`twin_grid`] × `slacks`
    /// × {1 pass, 5-pass restream}, each compared by
    /// [`twin_configuration`].
    fn ldg_twin_grid(cases: u64, ks: &[usize], slacks: &[f64]) -> Tally {
        twin_grid(cases, ks, |tally, g, order, k, rng| {
            let (n, m) = (g.num_vertices(), g.num_edges());
            for &beta in slacks {
                let cfg = PartitionerConfig::new(k).with_slack(beta);
                for (algorithm, passes) in [(Algorithm::Ldg, 1), (Algorithm::RestreamLdg, 5)] {
                    let machines = (
                        algorithm,
                        Restream::new(Ldg::new(&cfg, n), passes),
                        Restream::new(ReferenceLdg::new(&cfg, n), passes),
                    );
                    let cut = twin_cut(rng, n, passes);
                    let at = format!(
                        "n={n} m={m} {order:?} k={k} β={beta} passes={passes} chunk={} cut={}",
                        cut.0, cut.1
                    );
                    twin_configuration(tally, &at, g, &cfg, order, machines, cut);
                }
            }
        })
    }

    /// A random facade chunk size and the chunk after which the facade
    /// is snapshotted and restored.
    fn twin_cut(rng: &mut Rng, n: usize, passes: usize) -> (usize, usize) {
        let chunk = rng.range(1..48);
        (chunk, rng.range(1..passes * n.div_ceil(chunk) + 1))
    }

    /// One twin configuration: `production` (the machine `algorithm`
    /// builds) against `reference`. Compares the sequential owners and
    /// `DecisionStats`, the facade run through a mid-stream snapshot and
    /// restore (production's derived state is rebuilt, never restored:
    /// owners, the snapshot text at the cut and before the seal, byte for
    /// byte, and the decision counters at the cut), and the modelled
    /// loaders at L ∈ {2, 4}.
    fn twin_configuration<P, R>(
        tally: &mut Tally,
        at: &str,
        g: &Graph,
        cfg: &PartitionerConfig,
        order: StreamOrder,
        (algorithm, mut production, reference): (Algorithm, P, R),
        cut: (usize, usize),
    ) where
        P: VertexStreamPartitioner,
        R: VertexStreamPartitioner + Clone + 'static,
    {
        tally.configurations += 1;
        let k = cfg.k;
        let reference_machines = || {
            let reference = reference.clone();
            Boxed::Vertex(Box::new(move || Box::new(reference.clone())), VertexSeal::EdgeCut)
        };

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
        tally.expect_eq("snapshot text at the cut", at, mid.0, twin_mid.0);
        tally.expect_eq("DecisionStats at the cut", at, mid.1, twin_mid.1);
        tally.expect_eq("snapshot text before the seal", at, end, twin_end);

        for loaders in [2, 4] {
            let lc = LoaderConfig::new(loaders).with_sync_interval(8);
            let par = partition_multi_loader(g, algorithm, cfg, order, &lc).vertex_owner;
            let twin_par =
                run_loaders(g, k, reference_machines(), order, &lc, false).0.vertex_owner;
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
        assert_no_twin_mismatch("FENNEL", &fennel_twin_grid(2, &[1, 16, 65], &[1.0, 1.5]));
    }

    /// The full twin grid: `cargo test --release -p sgp-partition --lib
    /// -- --ignored` (CI runs it on every push).
    #[test]
    #[ignore = "full grid; run in release"]
    fn fennel_matches_its_textbook_twin_full_grid() {
        assert_no_twin_mismatch("FENNEL", &fennel_twin_grid(8, &TWIN_KS, &TWIN_GAMMAS));
    }

    /// The slice of the LDG twin grid that runs under `cargo test`.
    #[test]
    fn ldg_matches_its_textbook_twin() {
        assert_no_twin_mismatch("LDG", &ldg_twin_grid(2, &[1, 16, 65], &TWIN_SLACKS));
    }

    /// The full LDG twin grid, run in release with the FENNEL one.
    #[test]
    #[ignore = "full grid; run in release"]
    fn ldg_matches_its_textbook_twin_full_grid() {
        assert_no_twin_mismatch("LDG", &ldg_twin_grid(8, &TWIN_KS, &TWIN_SLACKS));
    }
}
