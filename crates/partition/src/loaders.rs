//! Deterministic multi-loader parallel streaming.
//!
//! Table 1's "Parallelization" column classifies which algorithms
//! tolerate splitting one input stream across parallel loaders: hash
//! methods need no communication, greedy methods need "inter-stream
//! communication" — each loader places against a view of the shared
//! state that is stale between synchronization points. This module
//! turns that column into measurable behaviour.
//!
//! Model: one logical stream is split across `L` loaders in blocks of
//! `L · sync_interval` elements, striding each block round-robin
//! (element `i` belongs to loader `i mod L`). A loader is a machine of
//! the sequential core plus its *local view*: the state as of the last
//! synchronization barrier plus its own in-round decisions. One round
//! per block, every loader first replays the previous barrier's
//! decision logs, all but its own (it applied those as it placed
//! them), into its view — a compact delta rather than an `O(n)`
//! snapshot clone — then places its stride and returns its log. At the
//! barrier the logs are written into the result slots (`owner[v]`, or
//! `edge_parts[slot]` with the CSR slot the edge stream carried); no
//! global state exists.
//!
//! The replay is seeded and deterministic: logs are replayed in a
//! rotation of the loader order chosen by hashing the barrier index
//! with [`LoaderConfig::seed`] — never wallclock arrival order, never
//! hash-map iteration order. (Replaying placement decisions is
//! order-commutative — assignments touch disjoint vertices within a
//! pass, replica sets are sets, and degree/load counters are sums — so
//! every view lands on the same post-barrier state, and the rotation
//! pins down the procedure rather than the outcome.)
//!
//! A round touches nothing but its own loader, so the loaders of a
//! round run in turn on one thread under [`Exec::Loaders`], or each on
//! its own thread under [`Exec::Threads`] ([`crate::exec`]), with
//! byte-identical results.
//!
//! With `L = 1` the local view *is* the sequential state at every step,
//! so the result is byte-identical to the sequential core — the
//! differential tests pin this for every algorithm. With `L > 1`,
//! greedy algorithms degrade with staleness (PowerGraph's greedy
//! visibly collapses on BFS orders) while hash-based ones are exactly
//! loader-count-invariant; the opt-in `experiments loaders` ablation
//! measures this.
//!
//! The hybrid algorithms run their phase-1 vertex placement behind the
//! loaders (hash for HCR — loader-invariant; the Ginger greedy shares
//! vertex counts through the synchronized views) and seal with the
//! shared hybrid edge routing. Only the offline METIS baseline ignores
//! `L` entirely and runs sequentially.
#![expect(
    clippy::indexing_slicing,
    reason = "barrier writes index owner (sized num_vertices) by streamed vertex ids and edge_parts by the CSR slots the edge stream carries; a block's element i sits at position i / L of log i mod L"
)]

use crate::assignment::{fxhash64, PartitionId, Partitioning};
use crate::config::PartitionerConfig;
use crate::edge_cut::{VertexStreamPartitioner, VertexStreamState};
use crate::exec::each_loader;
use crate::registry::{offline_baseline, Algorithm, Boxed, Exec, Run};
use crate::streaming::VertexSeal;
use crate::vertex_cut::{EdgeStreamPartitioner, EdgeStreamState};
use sgp_graph::{Edge, EdgeStreamSource, Graph, StreamOrder, VertexId, VertexStreamSource};
use sgp_trace::NullSink;
use std::ops::DerefMut;

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

/// The loader run, one fresh machine and view per loader; a round's
/// loaders run in turn, or with `threads` each on its own thread.
/// Also returns the number of barrier rounds.
pub(crate) fn run_loaders(
    g: &Graph,
    k: usize,
    machines: Boxed,
    order: StreamOrder,
    lc: &LoaderConfig,
    threads: bool,
) -> (Partitioning, u64) {
    let (l, n) = (lc.clamped().0, g.num_vertices());
    match machines {
        Boxed::Vertex(make, seal) => {
            let loaders = (0..l).map(|_| (make(), VertexStreamState::new(n, k))).collect();
            vertex_loaders(g, k, loaders, order, lc, threads, seal)
        }
        Boxed::Edge(make) => {
            let mut loaders: Vec<_> =
                (0..l).map(|_| (make(), EdgeStreamState::new(n, k))).collect();
            edge_loaders(g, k, &mut loaders, order, lc, threads)
        }
        Boxed::Offline => (offline_baseline(g, k), 0),
    }
}

/// The merge rotation start for barrier `round`: pure in (seed, round).
fn merge_start(seed: u64, round: u64, l: usize) -> usize {
    (fxhash64(seed ^ round) % l as u64) as usize
}

/// Replays one barrier's decision `logs` into a loader's view in the
/// seeded rotation beginning at `start`, skipping loader `own`'s log:
/// that delta lands the view exactly on the post-barrier state (replay
/// is order-commutative, see the module doc).
fn replay<D>(logs: &[Vec<D>], start: usize, own: usize, apply: impl FnMut(&D)) {
    let l = logs.len();
    let others = (start..start + l).map(|j| j % l).filter(|&j| j != own);
    others.flat_map(|j| &logs[j]).for_each(apply);
}

/// The vertex-stream rounds, every pass of a re-streaming machine
/// included; the barrier writes each log into `owner`.
fn vertex_loaders(
    g: &Graph,
    k: usize,
    mut loaders: Vec<(Box<dyn VertexStreamPartitioner>, VertexStreamState)>,
    order: StreamOrder,
    lc: &LoaderConfig,
    threads: bool,
    seal: VertexSeal,
) -> (Partitioning, u64) {
    let (l, t) = lc.clamped();
    let passes = loaders.first().map(|(m, _)| m.passes()).unwrap_or(1);
    // Vertices never streamed stay on partition 0, as in the sequential seal.
    let mut owner = vec![0 as PartitionId; g.num_vertices()];
    let mut logs: Vec<Vec<(VertexId, PartitionId)>> = vec![Vec::new(); l];
    let mut source = VertexStreamSource::new(g, order);
    let (mut block, mut start, mut round) = (Vec::new(), 0, 0);
    for _pass in 0..passes {
        source.restart();
        while source.next_chunk(l.saturating_mul(t), &mut block) > 0 {
            logs = each_loader(&mut loaders, threads, |j, (machine, view)| {
                replay(&logs, start, j, |&(v, p)| view.assign(v, p));
                let stride = block.iter().skip(j).step_by(l);
                let place = |rec: &_| {
                    let p = machine.place(rec, view);
                    debug_assert!((p as usize) < k, "partitioner returned out-of-range id");
                    view.assign(rec.vertex, p);
                    (rec.vertex, p)
                };
                stride.map(place).collect()
            });
            for &(v, p) in logs.iter().flatten() {
                owner[v as usize] = p;
            }
            start = merge_start(lc.seed, round, l);
            round += 1;
        }
    }
    (seal.apply(g, k, owner).0, round)
}

/// The edge-stream rounds over `loaders` (one machine and view each,
/// `L` of them); the barrier writes each log into `edge_parts` at the
/// slots the block carried.
fn edge_loaders<P: DerefMut<Target: EdgeStreamPartitioner> + Send>(
    g: &Graph,
    k: usize,
    loaders: &mut [(P, EdgeStreamState)],
    order: StreamOrder,
    lc: &LoaderConfig,
    threads: bool,
) -> (Partitioning, u64) {
    let (l, t) = lc.clamped();
    let mut edge_parts = vec![0 as PartitionId; g.num_edges()];
    let mut logs: Vec<Vec<(Edge, PartitionId)>> = vec![Vec::new(); l];
    let mut source = EdgeStreamSource::new(g, order);
    let (mut block, mut start, mut round) = (Vec::new(), 0, 0);
    while source.next_slotted_chunk(l.saturating_mul(t), &mut block) > 0 {
        logs = each_loader(loaders, threads, |j, (machine, view)| {
            replay(&logs, start, j, |&(e, p)| view.record(e, p));
            let stride = block.iter().skip(j).step_by(l);
            let place = |&(_, e): &(u32, Edge)| {
                let p = machine.place(e, view);
                debug_assert!((p as usize) < k, "partitioner returned out-of-range id");
                view.record(e, p);
                (e, p)
            };
            stride.map(place).collect()
        });
        for (i, &(slot, _)) in block.iter().enumerate() {
            edge_parts[slot as usize] = logs[i % l][i / l].1;
        }
        start = merge_start(lc.seed, round, l);
        round += 1;
    }
    (Partitioning::from_edge_parts(g, k, edge_parts), round)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::partition_threaded;
    use crate::metrics;
    use crate::registry::partition;
    use sgp_graph::generators::{erdos_renyi, rmat, ErdosRenyiConfig, RmatConfig};
    use sgp_graph::GraphBuilder;

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

    /// Every rotation of one barrier's disjoint-vertex logs lands a view
    /// on the same state, whichever loader's log it skips: the rotation
    /// pins down the procedure, not the outcome.
    #[test]
    fn replay_is_invariant_to_the_rotation() {
        let logs: Vec<Vec<(u32, PartitionId)>> =
            vec![vec![(0, 1), (3, 2)], vec![(1, 0), (4, 1)], vec![(2, 2), (5, 0)]];
        let view = |start, own| {
            let mut view = VertexStreamState::new(6, 3);
            replay(&logs, start, own, |&(v, p)| view.assign(v, p));
            view
        };
        // `own = 3` names no loader, so nothing is skipped.
        for own in 0..4 {
            let base = view(0, own);
            for seed in 0..32u64 {
                let rotated = view(merge_start(seed, seed / 4, logs.len()), own);
                assert_eq!(base.assignment, rotated.assignment, "own {own} seed {seed}");
                assert_eq!(base.sizes, rotated.sizes, "own {own} seed {seed}");
            }
        }
    }

    /// An edge machine that logs every decision it makes.
    struct Logged {
        inner: Box<dyn EdgeStreamPartitioner>,
        log: Vec<(Edge, PartitionId)>,
    }

    impl Logged {
        fn new(machines: &Boxed) -> Self {
            let Boxed::Edge(make) = machines else { panic!("an edge-stream rule") };
            Logged { inner: make(), log: Vec::new() }
        }
    }

    impl EdgeStreamPartitioner for Logged {
        fn place(&mut self, e: Edge, state: &EdgeStreamState) -> PartitionId {
            let p = self.inner.place(e, state);
            self.log.push((e, p));
            p
        }

        fn passes(&self) -> usize {
            self.inner.passes()
        }

        fn observing(&self) -> bool {
            self.inner.observing()
        }

        fn observe(&mut self, e: Edge) {
            self.inner.observe(e);
        }
    }

    /// A multigraph on up to 24 vertices: random directed edges, or every
    /// edge in both directions, a third of them in two or three copies,
    /// plus self-loops (some repeated).
    fn multigraph(rng: &mut sgp_graph::sampling::Rng, symmetric: bool) -> Graph {
        let n = rng.range(2..24);
        let mut b = GraphBuilder::new().keep_duplicates(true).keep_self_loops(true);
        for _ in 0..rng.range(n..4 * n) {
            let (u, v) = (rng.index(n) as VertexId, rng.index(n) as VertexId);
            let v = if rng.index(8) == 0 { u } else { v };
            for _ in 0..[1, 1, 1, 1, 2, 3][rng.index(6)] {
                b.push_edge(u, v);
                if symmetric && u != v {
                    b.push_edge(v, u);
                }
            }
        }
        b.ensure_vertices(n + 1).build()
    }

    /// The edge placement a run's decision `logs` make when the loaders
    /// take the stream in blocks of `L · t` (`L = logs.len()`), element `i`
    /// of a block to loader `i mod L`, in the slots the stream carries:
    /// asserts that every slot is written exactly once and that each
    /// logged edge is the streamed one.
    fn placement_from_logs(
        g: &Graph,
        order: StreamOrder,
        t: usize,
        logs: &[Vec<(Edge, PartitionId)>],
    ) -> Vec<PartitionId> {
        let l = logs.len();
        let mut expected = vec![None; g.num_edges()];
        let mut next = vec![0; l];
        let mut source = EdgeStreamSource::new(g, order);
        let mut block = Vec::new();
        while source.next_slotted_chunk(l * t, &mut block) > 0 {
            for (i, &(slot, e)) in block.iter().enumerate() {
                let (logged, p) = logs[i % l][next[i % l]];
                next[i % l] += 1;
                assert_eq!(logged, e, "loader {} placed another edge", i % l);
                assert!(expected[slot as usize].replace(p).is_none(), "slot {slot} written twice");
            }
        }
        assert!(next.iter().zip(logs).all(|(&used, log)| used == log.len()), "unused decisions");
        expected.into_iter().map(|p| p.expect("every slot is written")).collect()
    }

    /// `p` against the `decisions` that made it: each copy of an edge
    /// holds one decision for that edge, and the replica table and the
    /// loads the decisions build are `metrics.rs`'s view of `p`.
    fn assert_placement_is_the_decisions(
        g: &Graph,
        p: &Partitioning,
        decisions: &[(Edge, PartitionId)],
        at: &str,
    ) {
        let mut placed: Vec<(Edge, PartitionId)> =
            g.edges().zip(p.edge_parts.iter().copied()).collect();
        let mut logged = decisions.to_vec();
        placed.sort_unstable();
        logged.sort_unstable();
        assert_eq!(placed, logged, "{at}: edge_parts are not the decisions");
        let mut table = EdgeStreamState::new(g.num_vertices(), p.k);
        for &(e, part) in decisions {
            table.record(e, part);
        }
        assert_eq!(p.edges_per_partition(), table.edge_counts, "{at}: loads");
        let replicas = p.replica_sets(g);
        for v in g.vertices().filter(|&v| g.degree(v) > 0) {
            let want: Vec<PartitionId> = table.replicas(v).collect();
            assert_eq!(replicas[v as usize], want, "{at}: A({v})");
        }
        let covered = g.vertices().filter(|&v| g.degree(v) > 0).count() as u64;
        let isolated = g.num_vertices() as u64 - covered;
        assert_eq!(p.total_replicas(g) as u64, table.replicas_created + isolated, "{at}");
    }

    /// Parallel edges keep their own slot: on directed and symmetric
    /// multigraphs with self-loops, every edge-stream rule in every order —
    /// sequential (on arrival and behind a window), modelled loaders and
    /// threads at L ∈ {2, 4} — writes each slot exactly once, its
    /// `edge_parts` are the logged decisions, and the replica counts of
    /// `metrics.rs` are the table those decisions build. (The barrier and
    /// the sequential core used to look the slot up by endpoints, so
    /// every copy but one kept partition 0.)
    #[test]
    fn parallel_edges_keep_their_own_slot() {
        use crate::streaming::{drive_edge_stream, EdgeIngest};
        let rules = [
            Algorithm::VcrHash,
            Algorithm::Grid,
            Algorithm::Dbh,
            Algorithm::PowerGraphGreedy,
            Algorithm::Hdrf,
            Algorithm::TwoPhaseHdrf,
        ];
        sgp_graph::sampling::check_cases(6, |rng| {
            let symmetric = rng.index(2) == 0;
            let g = multigraph(rng, symmetric);
            let n = g.num_vertices() as VertexId;
            assert!(g.num_edges() > g.edges().collect::<std::collections::BTreeSet<_>>().len());
            let orders = [
                StreamOrder::Natural,
                StreamOrder::Random { seed: rng.next_u64() },
                StreamOrder::Bfs,
                StreamOrder::Dfs,
                StreamOrder::BfsFrom { start: rng.index(n as usize) as VertexId },
                StreamOrder::DfsFrom { start: rng.index(n as usize) as VertexId },
            ];
            let cfg = PartitionerConfig::new(rng.range(2..6));
            let k = cfg.k;
            for alg in rules {
                for order in orders {
                    let at = format!("{alg} {order:?} k={k} m={}", g.num_edges());
                    let sequential = partition(&g, alg, &cfg, order);
                    for window in [1, 3] {
                        let mut machine = Logged::new(&alg.boxed(&g, &cfg));
                        let mut core = EdgeIngest::init(&g, &mut machine, k);
                        drive_edge_stream(&g, &mut core, order, window, &mut NullSink);
                        let table = core.state.clone();
                        let p = core.seal();
                        let at = format!("{at} W={window}");
                        if window == 1 {
                            let logs = [std::mem::take(&mut machine.log)];
                            assert_eq!(p.edge_parts, placement_from_logs(&g, order, 1, &logs));
                            assert_eq!(p.edge_parts, sequential.edge_parts, "{at}");
                            machine.log = logs.into_iter().flatten().collect();
                        }
                        assert_placement_is_the_decisions(&g, &p, &machine.log, &at);
                        assert_eq!(p.edges_per_partition(), table.edge_counts, "{at}");
                    }
                    for l in [2, 4] {
                        let lc = LoaderConfig::new(l).with_sync_interval(3);
                        let modelled = partition_multi_loader(&g, alg, &cfg, order, &lc);
                        let threaded = partition_threaded(&g, alg, &cfg, order, &lc);
                        assert_eq!(modelled.edge_parts, threaded.edge_parts, "{at} L={l}");
                        if !alg.supports_parallel_loaders() {
                            assert_eq!(modelled.edge_parts, sequential.edge_parts, "{at} L={l}");
                            continue;
                        }
                        for threads in [false, true] {
                            let at = format!("{at} L={l} threads={threads}");
                            let boxed = alg.boxed(&g, &cfg);
                            let mut machines: Vec<Logged> =
                                (0..l).map(|_| Logged::new(&boxed)).collect();
                            let mut loaders: Vec<_> = machines
                                .iter_mut()
                                .map(|m| (m, EdgeStreamState::new(g.num_vertices(), k)))
                                .collect();
                            let (p, _) = edge_loaders(&g, k, &mut loaders, order, &lc, threads);
                            drop(loaders);
                            assert_eq!(p.edge_parts, modelled.edge_parts, "{at}");
                            let logs: Vec<_> = machines.into_iter().map(|m| m.log).collect();
                            assert_eq!(p.edge_parts, placement_from_logs(&g, order, 3, &logs));
                            let decisions: Vec<_> = logs.into_iter().flatten().collect();
                            assert_placement_is_the_decisions(&g, &p, &decisions, &at);
                        }
                    }
                }
            }
        });
    }

    /// The loader counts the pinned digests are kept per.
    const DIGEST_LOADERS: [usize; 4] = [2, 3, 4, 8];

    /// The digest grid's orders.
    const DIGEST_ORDERS: [StreamOrder; 4] = [
        StreamOrder::Natural,
        StreamOrder::Bfs,
        StreamOrder::Dfs,
        StreamOrder::Random { seed: 13 },
    ];

    /// One digest per algorithm (in [`Algorithm::all`] order) and loader
    /// count (in [`DIGEST_LOADERS`] order) over the full grid, captured
    /// from the modelled loaders before the threads backend became
    /// their thread-scoped twin. The edge-stream rows (VCR, Grid, DBH,
    /// PGG, HDRF, 2PS) were captured again when the edge stream began to
    /// carry CSR slots: on the multigraph every parallel copy now keeps
    /// its own decision, and the digests of the two simple graphs alone
    /// did not move.
    const PINNED_FULL: [[u64; 4]; 14] = [
        [0xb5e46ab9b4bfcc61, 0xb5e46ab9b4bfcc61, 0xb5e46ab9b4bfcc61, 0xb5e46ab9b4bfcc61],
        [0x6a15e53a89b86352, 0xe0da2aa81de37e4c, 0x8494f4c7545f637d, 0x3db8ae4e7e5f6436],
        [0x015d5d39b2bb6f3d, 0x015d5d39b2bb6f3d, 0x015d5d39b2bb6f3d, 0x015d5d39b2bb6f3d],
        [0xf1230eabc5829eb3, 0x0a99fcf3b9f1f12f, 0x17900b628493be49, 0x328c4f436563a72a],
        [0xb9800bc62c3b333e, 0x45df665548c68ed8, 0x974ee167db93f795, 0x9480ca5f6762f374],
        [0xef402f07bdcfd0ed, 0xef402f07bdcfd0ed, 0xef402f07bdcfd0ed, 0xef402f07bdcfd0ed],
        [0x5ca983a7864935ea, 0x7298b574466d192c, 0xc1b86f03c1a37f4c, 0xe3b624b9846bbe79],
        [0x2c42d9cc17089b7d, 0x2c42d9cc17089b7d, 0x2c42d9cc17089b7d, 0x2c42d9cc17089b7d],
        [0x456c0a57764328ab, 0x5c093b878a794432, 0x02157eca27328786, 0x83ab52fac7011a3a],
        [0xae2b7208cac4cf15, 0x8c43d7cdfefa1738, 0x6f1115af1d028d31, 0xce9c057cc015b88d],
        [0x369b6741a59364c9, 0x11ff7ede4d5f2496, 0xf7c4bcf490b7df79, 0x84e6374008827e21],
        [0xd2f661150e0bfd83, 0x0e57a4c08152d570, 0xf801cb97df8a6c02, 0x1d70c7b2e9f703a8],
        [0x856d9379a973bcbd, 0x856d9379a973bcbd, 0x856d9379a973bcbd, 0x856d9379a973bcbd],
        [0x437bc32a340a3b64, 0x437bc32a340a3b64, 0x437bc32a340a3b64, 0x437bc32a340a3b64],
    ];

    /// The same for the slice that runs under `cargo test`.
    const PINNED_SLICE: [[u64; 4]; 14] = [
        [0xada7108dd1b8fd1d, 0xada7108dd1b8fd1d, 0xada7108dd1b8fd1d, 0xada7108dd1b8fd1d],
        [0x31728971ed5e103d, 0xa6752d03813a1cf7, 0x0aebc03ff31f5067, 0x5a35da94b4953637],
        [0x0fa297672275d0a5, 0x0fa297672275d0a5, 0x0fa297672275d0a5, 0x0fa297672275d0a5],
        [0x7b70dd00f3ba1214, 0x608d6562d406f5ea, 0x13756514a2bcd039, 0x88b62c6099fd4da4],
        [0x10d52fae3f6b96a5, 0xe3fff50e88b6d4bf, 0xe3340a71a54a654a, 0xbde8a8b84ffbe0ee],
        [0xa00ad229748706cd, 0xa00ad229748706cd, 0xa00ad229748706cd, 0xa00ad229748706cd],
        [0x6eb8b079aff5560d, 0x341ab3e7c39cb59b, 0x6fd892cd65777d8d, 0x9efc8310c7c541cd],
        [0x179c394ff1e6eb3d, 0x179c394ff1e6eb3d, 0x179c394ff1e6eb3d, 0x179c394ff1e6eb3d],
        [0x4bf134cfdbcff509, 0x9461e0e68568ad10, 0x1087a6bceafd54ae, 0x1ca574ff97d89c91],
        [0x37335c8a767934b0, 0xd7e0aa53639d4806, 0x70ce75e5811b56af, 0x48d9fd4d095eb88b],
        [0xd27addaacb603181, 0x2febef05b4fc9eb8, 0xf113c9e01e54b861, 0x359c62968ff2dd7d],
        [0xa8ec43438557f209, 0x399fcf7e581d270e, 0x750ec16b228f1032, 0xe6d240efb507cc58],
        [0x847b873f37daa56d, 0x847b873f37daa56d, 0x847b873f37daa56d, 0x847b873f37daa56d],
        [0x0d16e73f461e30b5, 0x0d16e73f461e30b5, 0x0d16e73f461e30b5, 0x0d16e73f461e30b5],
    ];

    /// Sparse random, skewed R-MAT, and a multigraph with self-loops
    /// (its parallel copies are distinct stream edges with distinct slots).
    fn digest_graphs() -> [Graph; 3] {
        let base = erdos_renyi(ErdosRenyiConfig { vertices: 120, edges: 500, seed: 5 });
        let multi = GraphBuilder::new()
            .keep_duplicates(true)
            .keep_self_loops(true)
            .extend_edges(base.edges())
            .extend_edges(base.edges().step_by(3))
            .extend_edges((0..120).step_by(7).map(|v| Edge::new(v, v)))
            .build();
        [
            erdos_renyi(ErdosRenyiConfig { vertices: 200, edges: 1200, seed: 47 }),
            rmat(RmatConfig { scale: 8, edge_factor: 6, ..RmatConfig::default() }),
            multi,
        ]
    }

    /// FNV-1a over 64-bit words.
    fn fnv(h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(h, |h, w| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3))
    }

    type LoaderRun =
        fn(&Graph, Algorithm, &PartitionerConfig, StreamOrder, &LoaderConfig) -> Partitioning;

    /// The digest table of `run` over graphs × `ks` × [`DIGEST_ORDERS`]
    /// × `intervals`, one entry per (algorithm, loader count).
    fn loader_digests(
        graphs: &[Graph],
        ks: &[usize],
        intervals: &[usize],
        run: LoaderRun,
    ) -> [[u64; 4]; 14] {
        let mut table = [[0; 4]; 14];
        for (a, &alg) in Algorithm::all().iter().enumerate() {
            for (i, &l) in DIGEST_LOADERS.iter().enumerate() {
                let mut h = 0xcbf2_9ce4_8422_2325;
                for g in graphs {
                    for &k in ks {
                        let cfg = PartitionerConfig::new(k);
                        for order in DIGEST_ORDERS {
                            for &t in intervals {
                                let lc = LoaderConfig::new(l).with_sync_interval(t);
                                let p = run(g, alg, &cfg, order, &lc);
                                h = fnv(h, [p.k as u64, p.model as u64]);
                                h = fnv(h, p.edge_parts.iter().map(|&x| u64::from(x)));
                                let owner = p.vertex_owner.as_deref().unwrap_or(&[]);
                                h = fnv(h, [p.vertex_owner.is_some() as u64]);
                                h = fnv(h, owner.iter().map(|&x| u64::from(x)));
                            }
                        }
                    }
                }
                table[a][i] = h;
            }
        }
        table
    }

    /// Names every (algorithm, L) whose digest moved; on a mismatch
    /// also prints the table in the form of the pinned constants.
    fn assert_pinned(what: &str, got: &[[u64; 4]; 14], pinned: &[[u64; 4]; 14]) {
        let mut mismatches = Vec::new();
        for (a, &alg) in Algorithm::all().iter().enumerate() {
            for (i, &l) in DIGEST_LOADERS.iter().enumerate() {
                if got[a][i] != pinned[a][i] {
                    mismatches.push(format!("{alg} L={l}"));
                }
            }
        }
        println!("{what}: {} digests, {} mismatches", 14 * DIGEST_LOADERS.len(), mismatches.len());
        if !mismatches.is_empty() {
            for row in got {
                println!(
                    "        [{:#018x}, {:#018x}, {:#018x}, {:#018x}],",
                    row[0], row[1], row[2], row[3]
                );
            }
        }
        assert!(mismatches.is_empty(), "{what} moved: {mismatches:?}");
    }

    /// A slice of the pinned grid, modelled and on threads (the
    /// multigraph alone: its parallel edges pin the barrier's write to
    /// each copy's own slot).
    #[test]
    fn loader_outputs_match_the_pinned_slice() {
        let [_, _, multi] = digest_graphs();
        let graphs = [multi];
        let modelled = loader_digests(&graphs, &[7], &[5], partition_multi_loader);
        assert_pinned("modelled loader slice", &modelled, &PINNED_SLICE);
        let threaded = loader_digests(&graphs, &[7], &[5], partition_threaded);
        assert_pinned("threaded loader slice", &threaded, &PINNED_SLICE);
    }

    /// The full pinned grid (8064 runs): `cargo test --release -p
    /// sgp-partition --lib -- --ignored`.
    #[test]
    #[ignore = "full grid; run in release"]
    fn loader_outputs_match_the_pinned_grid() {
        let full =
            loader_digests(&digest_graphs(), &[2, 7, 64, 130], &[1, 5, 64], partition_multi_loader);
        assert_pinned("modelled loader grid", &full, &PINNED_FULL);
    }
}
