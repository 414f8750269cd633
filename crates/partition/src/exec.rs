//! Real-threads execution backend for the multi-loader layer.
//!
//! [`loaders`](crate::loaders) runs Table 1's parallel ingestion as
//! rounds of `L` loaders, each a machine plus its local view. This
//! module runs the same rounds with every loader on its own OS thread
//! (loader 0 on the calling one) inside one [`std::thread::scope`] per
//! round, and the result is **byte-identical** to the modelled path
//! (and therefore to the sequential core when `L = 1`):
//!
//! * **Work distribution is positional, not racy.** A loader's round
//!   reads its stride of the block and the previous barrier's logs,
//!   which nothing writes during the round, and mutates only its own
//!   machine and view.
//! * **The barrier is the scope's join.** Results are collected by
//!   loader index — never completion order — and written into the
//!   result slots on the calling thread, exactly as the modelled path
//!   writes them.
//!
//! [`each_loader`] is the workspace's only thread site: `clippy.toml`
//! disallows every thread, channel and lock primitive, and its one
//! `#[expect]` is the exception.

use crate::assignment::Partitioning;
use crate::config::PartitionerConfig;
use crate::loaders::{run_loaders, LoaderConfig};
use crate::registry::{Algorithm, Boxed, Exec, Run};
use sgp_graph::{Graph, StreamOrder};
use sgp_trace::{keys, NullSink, TraceSink};

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

/// The threaded loader run over one machine per loader; counts the
/// loader threads ([`keys::PARTITION_EXEC_THREADS`]) and
/// synchronization rounds ([`keys::PARTITION_EXEC_BARRIER_ROUNDS`]).
pub(crate) fn run_threaded<S: TraceSink>(
    g: &Graph,
    k: usize,
    machines: Boxed,
    order: StreamOrder,
    lc: &LoaderConfig,
    sink: &mut S,
) -> Partitioning {
    let (result, rounds) = run_loaders(g, k, machines, order, lc, true);
    if sink.enabled() {
        sink.counter_add(keys::PARTITION_EXEC_THREADS, 0, lc.clamped().0 as u64);
        sink.counter_add(keys::PARTITION_EXEC_BARRIER_ROUNDS, 0, rounds);
    }
    result
}

/// Runs `f(j, &mut loaders[j])` for every loader `j` — in turn on this
/// thread, or with `threads` each on a thread of its own (loader 0 on
/// this one, the others on scoped threads) — and returns the results by
/// loader index. A loader's panic resurfaces here with its own payload.
#[expect(
    clippy::disallowed_methods,
    reason = "the workspace's one thread site: a scope per loader round, joined before it returns"
)]
pub(crate) fn each_loader<T: Send, R: Send>(
    loaders: &mut [T],
    threads: bool,
    f: impl Fn(usize, &mut T) -> R + Sync,
) -> Vec<R> {
    let Some((first, rest)) = loaders.split_first_mut().filter(|_| threads) else {
        return loaders.iter_mut().enumerate().map(|(j, loader)| f(j, loader)).collect();
    };
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            (1..).zip(rest).map(|(j, loader)| scope.spawn(move || f(j, loader))).collect();
        // Loader 0 runs here, while the others run on their threads.
        let mut results = vec![f(0, first)];
        let join = |h: std::thread::ScopedJoinHandle<'_, R>| {
            h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        };
        results.extend(handles.into_iter().map(join));
        results
    })
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

    /// Real threads are byte-identical to the modelled loaders for
    /// every algorithm × L ∈ {1, 2, 4, 8}.
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
        let threads: u64 = sink.counter_total(keys::PARTITION_EXEC_THREADS.name());
        let rounds: u64 = sink.counter_total(keys::PARTITION_EXEC_BARRIER_ROUNDS.name());
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
