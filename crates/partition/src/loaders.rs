//! Deterministic multi-loader parallel streaming.
//!
//! Table 1's "Parallelization" column classifies which algorithms
//! tolerate splitting one input stream across parallel loaders: hash
//! methods need no communication, greedy methods need "inter-stream
//! communication" — each loader places against a view of the shared
//! state that is stale between synchronization points. This module
//! turns that column into measurable behaviour.
//!
//! Model: one logical stream is split across `L` loaders by round-robin
//! striding (element `i` belongs to loader `i mod L`). Loaders run the
//! same incremental state machine as the sequential core, but each
//! places against a *local* state snapshot: the global state as of the
//! last synchronization barrier plus the loader's own in-round
//! decisions. Every `sync_interval` elements per loader, a barrier
//! merges all decision logs into the global state and brings every
//! local view up to date by replaying the *other* loaders' logs into it
//! — a compact delta rather than an `O(n)` snapshot clone, sound
//! because replay is order-commutative (below).
//!
//! The merge is seeded and deterministic: logs are replayed in a
//! rotation of the loader order chosen by hashing the barrier index
//! with [`LoaderConfig::seed`] — never wallclock arrival order, never
//! hash-map iteration order. (Replaying placement decisions is
//! order-commutative — assignments touch disjoint vertices within a
//! pass, replica sets are sets, and degree/load counters are sums — so
//! the rotation pins down the procedure rather than the outcome; the
//! same seed always produces byte-identical results.)
//!
//! With `L = 1` the local state *is* the global state at every step, so
//! the result is byte-identical to the sequential core — the
//! differential tests pin this for every algorithm. With `L > 1`,
//! greedy algorithms degrade with staleness (PowerGraph's greedy
//! visibly collapses on BFS orders) while hash-based ones are exactly
//! loader-count-invariant; the opt-in `experiments loaders` ablation
//! measures this.
//!
//! The hybrid algorithms run their phase-1 vertex placement behind the
//! loaders (hash for HCR — loader-invariant; the Ginger greedy shares
//! vertex counts through the synchronized state) and seal with the
//! shared hybrid edge routing. Only the offline METIS baseline ignores
//! `L` entirely and runs sequentially.
#![expect(
    clippy::indexing_slicing,
    reason = "loader batches slice the element array by offsets computed from its length; replica bitsets are sized during setup"
)]

use crate::assignment::{fxhash64, PartitionId, Partitioning};
use crate::config::PartitionerConfig;
use crate::edge_cut::{VertexStreamPartitioner, VertexStreamState};
use crate::registry::{offline_baseline, Algorithm, Boxed, Exec, Run};
use crate::streaming::{owner_from_assignment, VertexSeal};
use crate::vertex_cut::{EdgeStreamPartitioner, EdgeStreamState};
use sgp_graph::{Edge, EdgeStreamSource, Graph, StreamOrder, VertexStreamSource};
use sgp_trace::NullSink;

/// Configuration of the multi-loader split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoaderConfig {
    /// Number of logical parallel loaders `L` (clamped to ≥ 1).
    pub loaders: usize,
    /// Elements each loader places between synchronization barriers
    /// (clamped to ≥ 1). Larger values mean staler shared state.
    pub sync_interval: usize,
    /// Seed of the deterministic merge rotation at barriers.
    pub seed: u64,
}

impl Default for LoaderConfig {
    fn default() -> Self {
        LoaderConfig { loaders: 1, sync_interval: 1024, seed: 0x10AD_CAFE }
    }
}

impl LoaderConfig {
    /// `loaders` parallel loaders with the default interval and seed.
    pub fn new(loaders: usize) -> Self {
        LoaderConfig { loaders, ..LoaderConfig::default() }
    }

    /// Sets the synchronization interval.
    pub fn with_sync_interval(mut self, sync_interval: usize) -> Self {
        self.sync_interval = sync_interval;
        self
    }

    pub(crate) fn clamped(&self) -> (usize, usize) {
        (self.loaders.max(1), self.sync_interval.max(1))
    }
}

/// Runs `algorithm` over `g` with the stream split across
/// [`LoaderConfig::loaders`] parallel loaders. Deterministic for a
/// fixed `(cfg, order, lc)`; byte-identical to
/// [`partition`](crate::registry::partition) when `lc.loaders == 1`.
///
/// `cfg.window` is ignored here, as it always was (loaders place on
/// arrival); [`Run::execute`] refuses a window above 1 under
/// [`Exec::Loaders`] with a typed error instead.
/// Likewise a FENNEL γ below 1 runs unchecked here (empty partitions
/// score as saturated); `Run::execute` refuses it.
pub fn partition_multi_loader(
    g: &Graph,
    algorithm: Algorithm,
    cfg: &PartitionerConfig,
    order: StreamOrder,
    lc: &LoaderConfig,
) -> Partitioning {
    Run { algorithm, cfg, order, exec: Exec::Loaders(lc) }.run(g, 1, &mut NullSink)
}

/// The modelled loader run, one fresh machine per loader.
pub(crate) fn run_modelled(
    g: &Graph,
    k: usize,
    machines: Boxed,
    order: StreamOrder,
    lc: &LoaderConfig,
) -> Partitioning {
    let l = lc.clamped().0;
    match machines {
        Boxed::Vertex(make, seal) => {
            multi_loader_vertices(g, k, (0..l).map(|_| make()).collect(), order, lc, seal)
        }
        Boxed::Edge(make) => multi_loader_edges(g, k, (0..l).map(|_| make()).collect(), order, lc),
        Boxed::Offline => offline_baseline(g, k),
    }
}

/// The merge rotation start for barrier `round`: pure in (seed, round).
pub(crate) fn merge_start(seed: u64, round: u64, l: usize) -> usize {
    (fxhash64(seed ^ round) % l as u64) as usize
}

/// Replays one barrier's decision logs into `state` in the seeded
/// rotation beginning at `start`. With `skip = Some(j)` loader `j`'s
/// log is omitted — that is the **delta merge**: a local state that
/// already applied its own decisions at placement time only needs the
/// *other* loaders' logs to land exactly equal to the refreshed global
/// (replay is order-commutative, see the module doc), without cloning
/// an `O(n)` snapshot per barrier. Shared by the modelled loaders here
/// and the threaded backend in [`crate::exec`].
pub(crate) fn apply_vertex_decisions(
    state: &mut VertexStreamState,
    decisions: &[Vec<(u32, PartitionId)>],
    start: usize,
    skip: Option<usize>,
) {
    let l = decisions.len();
    for step in 0..l {
        let j = (start + step) % l;
        if skip == Some(j) {
            continue;
        }
        for &(v, p) in &decisions[j] {
            state.assign(v, p);
        }
    }
}

/// Edge-stream twin of [`apply_vertex_decisions`]: replays replica /
/// degree / load updates, with the same optional skip-own-log delta
/// form.
pub(crate) fn apply_edge_decisions(
    state: &mut EdgeStreamState,
    decisions: &[Vec<(Edge, PartitionId)>],
    start: usize,
    skip: Option<usize>,
) {
    let l = decisions.len();
    for step in 0..l {
        let j = (start + step) % l;
        if skip == Some(j) {
            continue;
        }
        for &(e, p) in &decisions[j] {
            state.record(e, p);
        }
    }
}

fn multi_loader_vertices(
    g: &Graph,
    k: usize,
    mut machines: Vec<Box<dyn VertexStreamPartitioner>>,
    order: StreamOrder,
    lc: &LoaderConfig,
    seal: VertexSeal,
) -> Partitioning {
    let (l, t) = lc.clamped();
    let passes = machines.first().map(|m| m.passes()).unwrap_or(1);
    let mut global = VertexStreamState::new(g.num_vertices(), k);
    let mut locals: Vec<VertexStreamState> = vec![global.clone(); l];
    let mut decisions: Vec<Vec<(u32, PartitionId)>> = vec![Vec::new(); l];
    let mut source = VertexStreamSource::new(g, order);
    let mut block = Vec::new();
    let mut round: u64 = 0;
    for _pass in 0..passes {
        source.restart();
        while source.next_chunk(l.saturating_mul(t), &mut block) > 0 {
            for d in &mut decisions {
                d.clear();
            }
            // Each loader places its stride against its stale local view.
            for (i, rec) in block.iter().enumerate() {
                let j = i % l;
                let p = machines[j].place(rec, &locals[j]);
                debug_assert!((p as usize) < k, "partitioner returned out-of-range id");
                locals[j].assign(rec.vertex, p);
                decisions[j].push((rec.vertex, p));
            }
            // Barrier: replay all decision logs into the global state
            // in a seeded rotation of the loader order, and the *other*
            // loaders' logs into each local — a compact delta that
            // leaves every local equal to the refreshed global without
            // an O(n) clone per barrier.
            let start = merge_start(lc.seed, round, l);
            apply_vertex_decisions(&mut global, &decisions, start, None);
            for (j, local) in locals.iter_mut().enumerate() {
                apply_vertex_decisions(local, &decisions, start, Some(j));
            }
            round += 1;
        }
    }
    seal.apply(g, k, owner_from_assignment(global.assignment)).0
}

fn multi_loader_edges(
    g: &Graph,
    k: usize,
    mut machines: Vec<Box<dyn EdgeStreamPartitioner>>,
    order: StreamOrder,
    lc: &LoaderConfig,
) -> Partitioning {
    let (l, t) = lc.clamped();
    let mut global = EdgeStreamState::new(g.num_vertices(), k);
    let mut locals: Vec<EdgeStreamState> = vec![global.clone(); l];
    let mut decisions: Vec<Vec<(Edge, PartitionId)>> = vec![Vec::new(); l];
    let mut edge_parts = vec![0 as PartitionId; g.num_edges()];
    let mut source = EdgeStreamSource::new(g, order);
    let mut block: Vec<Edge> = Vec::new();
    let mut round: u64 = 0;
    while source.next_chunk(l.saturating_mul(t), &mut block) > 0 {
        for d in &mut decisions {
            d.clear();
        }
        for (i, &e) in block.iter().enumerate() {
            let j = i % l;
            let p = machines[j].place(e, &locals[j]);
            debug_assert!((p as usize) < k, "partitioner returned out-of-range id");
            locals[j].record(e, p);
            #[expect(
                clippy::expect_used,
                reason = "block edges come from a stream over g, so the CSR lookup cannot miss"
            )]
            let idx = g.edge_index(e.src, e.dst).expect("stream edge exists in graph");
            edge_parts[idx] = p;
            decisions[j].push((e, p));
        }
        let start = merge_start(lc.seed, round, l);
        apply_edge_decisions(&mut global, &decisions, start, None);
        for (j, local) in locals.iter_mut().enumerate() {
            apply_edge_decisions(local, &decisions, start, Some(j));
        }
        round += 1;
    }
    Partitioning::from_edge_parts(g, k, edge_parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use crate::registry::partition;
    use sgp_graph::generators::{erdos_renyi, rmat, ErdosRenyiConfig, RmatConfig};

    fn graph() -> Graph {
        erdos_renyi(ErdosRenyiConfig { vertices: 400, edges: 2400, seed: 31 })
    }

    #[test]
    fn single_loader_is_bit_identical_to_sequential_for_every_algorithm() {
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        let order = StreamOrder::Random { seed: 13 };
        for interval in [1usize, 7, 1024] {
            let lc = LoaderConfig::new(1).with_sync_interval(interval);
            for &alg in Algorithm::all() {
                let seq = partition(&g, alg, &cfg, order);
                let par = partition_multi_loader(&g, alg, &cfg, order, &lc);
                assert_eq!(seq.edge_parts, par.edge_parts, "{alg} interval {interval}");
                assert_eq!(seq.vertex_owner, par.vertex_owner, "{alg} interval {interval}");
            }
        }
    }

    #[test]
    fn multi_loader_is_seed_deterministic() {
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        let order = StreamOrder::Bfs;
        let lc = LoaderConfig::new(4).with_sync_interval(16);
        for &alg in &[Algorithm::Ldg, Algorithm::Hdrf, Algorithm::PowerGraphGreedy] {
            let a = partition_multi_loader(&g, alg, &cfg, order, &lc);
            let b = partition_multi_loader(&g, alg, &cfg, order, &lc);
            assert_eq!(a.edge_parts, b.edge_parts, "{alg}");
            assert_eq!(a.vertex_owner, b.vertex_owner, "{alg}");
        }
    }

    #[test]
    fn hash_algorithms_are_loader_count_invariant() {
        let g = graph();
        let cfg = PartitionerConfig::new(8);
        let order = StreamOrder::Random { seed: 5 };
        for &alg in &[Algorithm::EcrHash, Algorithm::VcrHash, Algorithm::HybridRandom] {
            let one = partition_multi_loader(&g, alg, &cfg, order, &LoaderConfig::new(1));
            let eight = partition_multi_loader(
                &g,
                alg,
                &cfg,
                order,
                &LoaderConfig::new(8).with_sync_interval(32),
            );
            assert_eq!(one.edge_parts, eight.edge_parts, "{alg} must not depend on L");
            assert_eq!(one.vertex_owner, eight.vertex_owner, "{alg}");
        }
    }

    #[test]
    fn stale_state_degrades_greedy_vertex_cut_on_bfs() {
        // §4.2.2: PowerGraph's greedy is sensitive to stream order; with
        // loaders adding staleness its replication should not improve.
        let g = rmat(RmatConfig { scale: 10, edge_factor: 8, ..RmatConfig::default() });
        let cfg = PartitionerConfig::new(8);
        let seq = partition_multi_loader(
            &g,
            Algorithm::PowerGraphGreedy,
            &cfg,
            StreamOrder::Bfs,
            &LoaderConfig::new(1),
        );
        let par = partition_multi_loader(
            &g,
            Algorithm::PowerGraphGreedy,
            &cfg,
            StreamOrder::Bfs,
            &LoaderConfig::new(8).with_sync_interval(256),
        );
        let rf_seq = metrics::replication_factor(&g, &seq);
        let rf_par = metrics::replication_factor(&g, &par);
        assert!(
            rf_par >= rf_seq * 0.98,
            "stale greedy should not beat fresh: {rf_par} vs {rf_seq}"
        );
    }

    #[test]
    fn every_algorithm_stays_valid_under_many_loaders() {
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        let lc = LoaderConfig::new(3).with_sync_interval(5);
        for &alg in Algorithm::all() {
            let p = partition_multi_loader(&g, alg, &cfg, StreamOrder::Natural, &lc);
            assert_eq!(p.edge_parts.len(), g.num_edges(), "{alg}");
            assert!(p.edge_parts.iter().all(|&x| (x as usize) < 4), "{alg}");
            if let Some(owner) = &p.vertex_owner {
                assert!(owner.iter().all(|&x| (x as usize) < 4), "{alg}");
            }
        }
    }
}
