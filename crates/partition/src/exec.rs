//! Real-threads execution backend for the multi-loader layer.
//!
//! [`loaders`](crate::loaders) *models* Table 1's parallel ingestion:
//! `L` state machines take turns on one OS thread, so the merge
//! discipline is exercised but no wall-clock parallelism exists. This
//! module is the first real execution tier — the same `L` machines run
//! on `L` OS threads inside a [`std::thread::scope`], and the
//! result is **byte-identical** to the modelled path (and therefore to
//! the sequential core when `L = 1`), because the protocol moves every
//! nondeterministic degree of freedom off the threads:
//!
//! * **Work distribution is positional, not racy.** The coordinator
//!   reads each synchronization block from the stream source itself and
//!   stride-splits it (element `i` → worker `i mod L`) before any
//!   thread sees it — identical to the modelled split.
//! * **Workers only compute.** Each worker owns its partitioner state
//!   machine *and its local state replica* for the whole run (all
//!   passes of a re-streaming algorithm included). Per round it
//!   receives the previous barrier's decision **delta** plus its
//!   stride, replays the other workers' logs into its replica (its own
//!   decisions were applied at placement time), places exactly like a
//!   modelled loader, and returns a decision log. No `O(n)` state
//!   snapshot ever crosses a channel, and no worker touches shared
//!   state.
//! * **The merge is single-threaded and seeded.** The coordinator
//!   collects logs in worker-index order — never completion order — and
//!   replays them in the same seeded rotation as the modelled barrier
//!   ([`merge_start`] on [`LoaderConfig::seed`]), so thread scheduling
//!   cannot leak into the placement.
//!
//! Cross-thread traffic flows through exactly two rendezvous channels
//! per worker (depth-1 bounded: work down, log up), and every payload
//! type is listed in `tests/goldens/SEND_REGISTRY` — the
//! `send-bound-registry` lint keeps that list honest, and the
//! `thread-discipline` lint confines every thread/channel/lock
//! primitive in the workspace to this module.

use crate::assignment::{PartitionId, Partitioning};
use crate::config::PartitionerConfig;
use crate::edge_cut::{VertexStreamPartitioner, VertexStreamState};
use crate::loaders::{apply_edge_decisions, apply_vertex_decisions, merge_start, LoaderConfig};
use crate::registry::{offline_baseline, Algorithm, Boxed, Exec, Run};
use crate::streaming::{owner_from_assignment, VertexSeal};
use crate::vertex_cut::{EdgeStreamPartitioner, EdgeStreamState};
use sgp_graph::stream::VertexRecord;
use sgp_graph::{Edge, EdgeStreamSource, Graph, StreamOrder, VertexStreamSource};
use sgp_trace::{keys, NullSink, TraceSink};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

/// Schema version of `tests/goldens/SEND_REGISTRY`, the pinned list of
/// types allowed to cross the loader-channel boundary. Bump on any
/// change to the registry's entry format (not on adding entries), and
/// keep `tests/goldens/SCHEMA_VERSIONS` in sync — the
/// `schema-version-sync` lint enforces the pairing.
pub const SEND_REGISTRY_SCHEMA_VERSION: u32 = 1;

/// The previous barrier's merged decision logs plus the rotation start
/// they were merged at. One `Arc` is shared by all workers of a round;
/// each worker replays every log but its own into its retained local
/// state, which lands it exactly on the post-barrier global (replay is
/// order-commutative, see [`crate::loaders`]). Round 0 ships an empty
/// delta: every replica starts equal to the fresh global.
struct VertexDelta {
    start: usize,
    decisions: Vec<Vec<(u32, PartitionId)>>,
}

/// One round of work for a vertex-stream worker: the previous barrier's
/// delta plus the worker's stride of the block.
struct VertexWork {
    delta: Arc<VertexDelta>,
    records: Vec<VertexRecord>,
}

/// A vertex worker's decision log for one round, replayed at the
/// barrier in seeded rotation order.
struct VertexLog {
    decisions: Vec<(u32, PartitionId)>,
}

/// Edge-stream twin of [`VertexDelta`].
struct EdgeDelta {
    start: usize,
    decisions: Vec<Vec<(Edge, PartitionId)>>,
}

/// One round of work for an edge-stream worker.
struct EdgeWork {
    delta: Arc<EdgeDelta>,
    edges: Vec<Edge>,
}

/// An edge worker's decision log for one round.
struct EdgeLog {
    decisions: Vec<(Edge, PartitionId)>,
}

/// Runs `algorithm` over `g` with the stream split across
/// [`LoaderConfig::loaders`] **OS threads**. Byte-identical to
/// [`partition_multi_loader`](crate::loaders::partition_multi_loader)
/// for every `(cfg, order, lc)`, and therefore to
/// [`partition`](crate::registry::partition) when `lc.loaders == 1`.
/// The offline METIS baseline ignores `lc` and runs sequentially, like
/// the modelled path.
///
/// `cfg.window` is ignored here, as it always was (loaders place on
/// arrival); [`Run::execute`] refuses a window above 1 under
/// [`Exec::Threads`] with a typed error instead.
/// Likewise a FENNEL γ below 1 runs unchecked here (empty partitions
/// score as saturated); `Run::execute` refuses it.
pub fn partition_threaded(
    g: &Graph,
    algorithm: Algorithm,
    cfg: &PartitionerConfig,
    order: StreamOrder,
    lc: &LoaderConfig,
) -> Partitioning {
    Run { algorithm, cfg, order, exec: Exec::Threads(lc) }.run(g, 1, &mut NullSink)
}

/// The threaded loader run over one machine per worker; counts the
/// worker threads ([`keys::PARTITION_EXEC_THREADS`]) and
/// synchronization rounds ([`keys::PARTITION_EXEC_BARRIER_ROUNDS`]).
pub(crate) fn run_threaded<S: TraceSink>(
    g: &Graph,
    k: usize,
    machines: Boxed,
    order: StreamOrder,
    lc: &LoaderConfig,
    sink: &mut S,
) -> Partitioning {
    let l = lc.clamped().0;
    let (result, rounds) = match machines {
        Boxed::Vertex(make, seal) => {
            threaded_vertices(g, k, (0..l).map(|_| make()).collect(), order, lc, seal)
        }
        Boxed::Edge(make) => threaded_edges(g, k, (0..l).map(|_| make()).collect(), order, lc),
        Boxed::Offline => return offline_baseline(g, k),
    };
    if sink.enabled() {
        sink.counter_add(keys::PARTITION_EXEC_THREADS, 0, l as u64);
        sink.counter_add(keys::PARTITION_EXEC_BARRIER_ROUNDS, 0, rounds);
    }
    result
}

fn threaded_vertices(
    g: &Graph,
    k: usize,
    machines: Vec<Box<dyn VertexStreamPartitioner>>,
    order: StreamOrder,
    lc: &LoaderConfig,
    seal: VertexSeal,
) -> (Partitioning, u64) {
    let (l, t) = lc.clamped();
    let passes = machines.first().map(|m| m.passes()).unwrap_or(1);
    let (global, rounds) = std::thread::scope(|scope| {
        // Workers persist across rounds *and* passes: worker `j` owns
        // machine `j` for the whole run, so a re-streaming machine sees
        // the same call sequence as its modelled counterpart.
        let mut work_txs: Vec<SyncSender<VertexWork>> = Vec::with_capacity(l);
        let mut log_rxs: Vec<Receiver<VertexLog>> = Vec::with_capacity(l);
        let n = g.num_vertices();
        for (index, machine) in machines.into_iter().enumerate() {
            let (work_tx, work_rx) = sync_channel::<VertexWork>(1);
            let (log_tx, log_rx) = sync_channel::<VertexLog>(1);
            scope.spawn(move || vertex_worker(index, n, k, machine, work_rx, log_tx));
            work_txs.push(work_tx);
            log_rxs.push(log_rx);
        }
        let mut global = VertexStreamState::new(n, k);
        let mut delta = Arc::new(VertexDelta { start: 0, decisions: Vec::new() });
        let mut source = VertexStreamSource::new(g, order);
        let mut block: Vec<VertexRecord> = Vec::new();
        let mut round: u64 = 0;
        for _pass in 0..passes {
            source.restart();
            while source.next_chunk(l.saturating_mul(t), &mut block) > 0 {
                let mut strides: Vec<Vec<VertexRecord>> = vec![Vec::new(); l];
                for (i, rec) in block.drain(..).enumerate() {
                    strides[i % l].push(rec);
                }
                for (tx, records) in work_txs.iter().zip(strides) {
                    let work = VertexWork { delta: Arc::clone(&delta), records };
                    // sgp-lint: allow(no-panic-in-lib): a dead receiver means the worker panicked; re-raising on the coordinator is intended
                    tx.send(work).expect("vertex worker hung up");
                }
                // Collect logs in worker-index order — never completion
                // order — then replay in the seeded barrier rotation, so
                // the merged state is schedule-independent. The merged
                // logs become the next round's delta.
                let decisions: Vec<Vec<(u32, PartitionId)>> = log_rxs
                    .iter()
                    // sgp-lint: allow(no-panic-in-lib): a dead sender means the worker panicked; re-raising on the coordinator is intended
                    .map(|rx| rx.recv().expect("vertex worker hung up").decisions)
                    .collect();
                let start = merge_start(lc.seed, round, l);
                apply_vertex_decisions(&mut global, &decisions, start, None);
                delta = Arc::new(VertexDelta { start, decisions });
                round += 1;
            }
        }
        // Disconnect the work channels: every worker's `recv` fails and
        // it exits, letting the scope join them all (a worker panic
        // resurfaces from the scope as a panic here).
        drop(work_txs);
        (global, round)
    });
    (seal.apply(g, k, owner_from_assignment(global.assignment)).0, rounds)
}

fn vertex_worker(
    index: usize,
    n: usize,
    k: usize,
    mut machine: Box<dyn VertexStreamPartitioner>,
    work: Receiver<VertexWork>,
    log: SyncSender<VertexLog>,
) {
    // The worker's retained local replica: fresh-global at round 0,
    // then post-barrier global at every round after the delta replay.
    let mut local = VertexStreamState::new(n, k);
    while let Ok(VertexWork { delta, records }) = work.recv() {
        apply_vertex_decisions(&mut local, &delta.decisions, delta.start, Some(index));
        let mut decisions = Vec::with_capacity(records.len());
        for rec in &records {
            let p = machine.place(rec, &local);
            debug_assert!((p as usize) < local.sizes.len(), "out-of-range partition id");
            local.assign(rec.vertex, p);
            decisions.push((rec.vertex, p));
        }
        if log.send(VertexLog { decisions }).is_err() {
            return; // coordinator gone: unwind quietly, the scope reports
        }
    }
}

fn threaded_edges(
    g: &Graph,
    k: usize,
    machines: Vec<Box<dyn EdgeStreamPartitioner>>,
    order: StreamOrder,
    lc: &LoaderConfig,
) -> (Partitioning, u64) {
    let (l, t) = lc.clamped();
    let (edge_parts, rounds) = std::thread::scope(|scope| {
        let mut work_txs: Vec<SyncSender<EdgeWork>> = Vec::with_capacity(l);
        let mut log_rxs: Vec<Receiver<EdgeLog>> = Vec::with_capacity(l);
        let n = g.num_vertices();
        for (index, machine) in machines.into_iter().enumerate() {
            let (work_tx, work_rx) = sync_channel::<EdgeWork>(1);
            let (log_tx, log_rx) = sync_channel::<EdgeLog>(1);
            scope.spawn(move || edge_worker(index, n, k, machine, work_rx, log_tx));
            work_txs.push(work_tx);
            log_rxs.push(log_rx);
        }
        // No coordinator-side replica state: the workers' retained
        // replicas carry it, and the result needs only the edge → part
        // map assembled from the logs.
        let mut delta = Arc::new(EdgeDelta { start: 0, decisions: Vec::new() });
        let mut edge_parts = vec![0 as PartitionId; g.num_edges()];
        let mut source = EdgeStreamSource::new(g, order);
        let mut block: Vec<Edge> = Vec::new();
        let mut round: u64 = 0;
        while source.next_chunk(l.saturating_mul(t), &mut block) > 0 {
            let mut strides: Vec<Vec<Edge>> = vec![Vec::new(); l];
            for (i, &e) in block.iter().enumerate() {
                strides[i % l].push(e);
            }
            for (tx, edges) in work_txs.iter().zip(strides) {
                let work = EdgeWork { delta: Arc::clone(&delta), edges };
                // sgp-lint: allow(no-panic-in-lib): a dead receiver means the worker panicked; re-raising on the coordinator is intended
                tx.send(work).expect("edge worker hung up");
            }
            let decisions: Vec<Vec<(Edge, PartitionId)>> = log_rxs
                .iter()
                // sgp-lint: allow(no-panic-in-lib): a dead sender means the worker panicked; re-raising on the coordinator is intended
                .map(|rx| rx.recv().expect("edge worker hung up").decisions)
                .collect();
            // Each edge is placed exactly once, so writing its partition
            // at merge time equals the modelled path's write at local
            // placement time.
            for log in &decisions {
                for &(e, p) in log {
                    // sgp-lint: allow(no-panic-in-lib): logged edges come from a stream over g, so the CSR lookup cannot miss
                    let idx = g.edge_index(e.src, e.dst).expect("stream edge exists in graph");
                    edge_parts[idx] = p;
                }
            }
            delta = Arc::new(EdgeDelta { start: merge_start(lc.seed, round, l), decisions });
            round += 1;
        }
        drop(work_txs);
        (edge_parts, round)
    });
    (Partitioning::from_edge_parts(g, k, edge_parts), rounds)
}

fn edge_worker(
    index: usize,
    n: usize,
    k: usize,
    mut machine: Box<dyn EdgeStreamPartitioner>,
    work: Receiver<EdgeWork>,
    log: SyncSender<EdgeLog>,
) {
    let mut local = EdgeStreamState::new(n, k);
    while let Ok(EdgeWork { delta, edges }) = work.recv() {
        apply_edge_decisions(&mut local, &delta.decisions, delta.start, Some(index));
        let mut decisions = Vec::with_capacity(edges.len());
        for &e in &edges {
            let p = machine.place(e, &local);
            debug_assert!((p as usize) < local.edge_counts.len(), "out-of-range partition id");
            local.record(e, p);
            decisions.push((e, p));
        }
        if log.send(EdgeLog { decisions }).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loaders::partition_multi_loader;
    use crate::registry::partition;
    use sgp_graph::generators::{erdos_renyi, ErdosRenyiConfig};

    fn graph() -> Graph {
        erdos_renyi(ErdosRenyiConfig { vertices: 200, edges: 1200, seed: 47 })
    }

    /// The tentpole acceptance bar: real threads are byte-identical to
    /// the modelled loaders for every algorithm × L ∈ {1, 2, 4, 8}.
    #[test]
    fn threads_are_bit_identical_to_modelled_loaders() {
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        let order = StreamOrder::Random { seed: 13 };
        for &threads in &[1usize, 2, 4, 8] {
            let lc = LoaderConfig::new(threads).with_sync_interval(16);
            for &alg in Algorithm::all() {
                let modelled = partition_multi_loader(&g, alg, &cfg, order, &lc);
                let real = partition_threaded(&g, alg, &cfg, order, &lc);
                assert_eq!(modelled.edge_parts, real.edge_parts, "{alg} × {threads} threads");
                assert_eq!(modelled.vertex_owner, real.vertex_owner, "{alg} × {threads}");
                assert_eq!(modelled.model, real.model, "{alg} × {threads}");
            }
        }
    }

    /// Thread scheduling varies between runs; the output must not.
    #[test]
    fn repeated_threaded_runs_are_identical() {
        let g = graph();
        let cfg = PartitionerConfig::new(8);
        let lc = LoaderConfig::new(4).with_sync_interval(8);
        for &alg in &[Algorithm::Ldg, Algorithm::Hdrf, Algorithm::Ginger] {
            let first = partition_threaded(&g, alg, &cfg, StreamOrder::Bfs, &lc);
            for _ in 0..5 {
                let again = partition_threaded(&g, alg, &cfg, StreamOrder::Bfs, &lc);
                assert_eq!(first.edge_parts, again.edge_parts, "{alg}");
                assert_eq!(first.vertex_owner, again.vertex_owner, "{alg}");
            }
        }
    }

    /// A tiny run over both stream kinds, sized so `cargo miri test
    /// exec::tests::tiny` finishes in minutes — the CI Miri job's entry
    /// point into the threaded path.
    #[test]
    fn tiny_threaded_runs_for_miri() {
        let g = erdos_renyi(ErdosRenyiConfig { vertices: 24, edges: 60, seed: 3 });
        let cfg = PartitionerConfig::new(3);
        let lc = LoaderConfig::new(2).with_sync_interval(4);
        for &alg in &[Algorithm::Ldg, Algorithm::Hdrf] {
            let modelled = partition_multi_loader(&g, alg, &cfg, StreamOrder::Natural, &lc);
            let real = partition_threaded(&g, alg, &cfg, StreamOrder::Natural, &lc);
            assert_eq!(modelled.edge_parts, real.edge_parts, "{alg}");
            assert_eq!(modelled.vertex_owner, real.vertex_owner, "{alg}");
        }
    }

    /// In-tree model check of the merge barrier (loom explores the
    /// interleavings in CI; this pins the algebra the protocol relies
    /// on): the merged global state depends only on the per-worker
    /// logs and the seeded rotation — never on the order in which
    /// workers *finished*, because collection is by worker index.
    #[test]
    fn merge_is_invariant_to_worker_completion_order() {
        let k = 3;
        let logs: Vec<Vec<(u32, PartitionId)>> =
            vec![vec![(0, 1), (3, 2)], vec![(1, 0), (4, 1)], vec![(2, 2), (5, 0)]];
        let merge = |seed: u64, round: u64| {
            let mut state = VertexStreamState::new(6, k);
            let start = merge_start(seed, round, logs.len());
            for step in 0..logs.len() {
                for &(v, p) in &logs[(start + step) % logs.len()] {
                    state.assign(v, p);
                }
            }
            state
        };
        // Completion order cannot be expressed at all — `logs` is
        // indexed by worker — so replays of the same (seed, round) are
        // equal, and within a round the rotation is pure in the seed.
        for seed in 0..16u64 {
            for round in 0..8u64 {
                let a = merge(seed, round);
                let b = merge(seed, round);
                assert_eq!(a.assignment, b.assignment);
                assert_eq!(a.sizes, b.sizes);
            }
        }
        // Disjoint-vertex logs commute: every rotation yields the same
        // merged assignment (the modelled and threaded paths rely on
        // exactly this within a pass).
        let baseline = merge(0, 0);
        for seed in 1..32u64 {
            let rotated = merge(seed, 0);
            assert_eq!(baseline.assignment, rotated.assignment);
            assert_eq!(baseline.sizes, rotated.sizes);
        }
    }

    #[test]
    fn traced_run_matches_untraced_and_counts_rounds() {
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        let lc = LoaderConfig::new(2).with_sync_interval(32);
        let plain = partition_threaded(&g, Algorithm::Fennel, &cfg, StreamOrder::Natural, &lc);
        let mut sink = sgp_trace::CollectingSink::new();
        let run = Run {
            algorithm: Algorithm::Fennel,
            cfg: &cfg,
            order: StreamOrder::Natural,
            exec: Exec::Threads(&lc),
        };
        let traced = run.execute(&g, &mut sink).expect("no window, no refusal");
        assert_eq!(plain.edge_parts, traced.edge_parts);
        assert_eq!(plain.vertex_owner, traced.vertex_owner);
        let threads: u64 = sink.counter_total(keys::PARTITION_EXEC_THREADS);
        let rounds: u64 = sink.counter_total(keys::PARTITION_EXEC_BARRIER_ROUNDS);
        assert_eq!(threads, 2);
        assert!(rounds > 0, "a non-empty stream crosses at least one barrier");
    }

    #[test]
    fn metis_falls_back_to_the_sequential_offline_path() {
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        let lc = LoaderConfig::new(4);
        let seq = partition(&g, Algorithm::Metis, &cfg, StreamOrder::Natural);
        let thr = partition_threaded(&g, Algorithm::Metis, &cfg, StreamOrder::Natural, &lc);
        assert_eq!(seq.edge_parts, thr.edge_parts);
        assert_eq!(seq.vertex_owner, thr.vertex_owner);
    }
}
