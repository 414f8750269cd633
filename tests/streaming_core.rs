//! Differential tests of the incremental streaming-partitioner core:
//! for every algorithm, chunked ingestion (any chunk size), the traced
//! drivers, and the single-loader multi-loader path must be
//! byte-identical to the one-shot batch entry points — and the stream
//! orders with configurable start vertices must collapse to the legacy
//! unit variants at start 0, including through serde.

use proptest::prelude::*;
use streaming_graph_partitioning::prelude::*;

#[path = "../crates/partition/tests/support/mod.rs"]
mod support;
use support::{drive_facade, facade_run};

/// Strategy: a random simple directed graph with 2..=50 vertices.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..50).prop_flat_map(|n| {
        let max_edges = (n * (n - 1)).min(240);
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_edges).prop_map(
            move |pairs| {
                let mut b = GraphBuilder::new().ensure_vertices(n);
                for (s, d) in pairs {
                    b.push_edge(s, d);
                }
                b.build()
            },
        )
    })
}

fn arb_algorithm() -> impl Strategy<Value = Algorithm> {
    proptest::sample::select(Algorithm::all().to_vec())
}

fn arb_order() -> impl Strategy<Value = StreamOrder> {
    prop_oneof![
        Just(StreamOrder::Natural),
        any::<u64>().prop_map(|seed| StreamOrder::Random { seed }),
        Just(StreamOrder::Bfs),
        Just(StreamOrder::Dfs),
        (0u32..50).prop_map(|start| StreamOrder::BfsFrom { start }),
        (0u32..50).prop_map(|start| StreamOrder::DfsFrom { start }),
    ]
}

fn arb_chunk() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(7), Just(64), Just(usize::MAX)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The tentpole determinism contract: for every algorithm and every
    /// chunk size, driving the incremental core chunk by chunk yields a
    /// placement byte-identical to the one-shot entry point.
    #[test]
    fn chunked_ingestion_is_byte_identical_to_one_shot(
        g in arb_graph(),
        alg in arb_algorithm(),
        order in arb_order(),
        chunk in arb_chunk(),
        k in 1usize..=6,
    ) {
        let cfg = PartitionerConfig::new(k);
        let whole = partition(&g, alg, &cfg, order);
        let chunked = facade_run(&g, alg, &cfg, order, chunk);
        prop_assert_eq!(&whole.edge_parts, &chunked.edge_parts);
        prop_assert_eq!(&whole.vertex_owner, &chunked.vertex_owner);
        prop_assert_eq!(whole.model, chunked.model);
    }

    /// A single loader is the sequential machine: `L = 1` through the
    /// multi-loader layer must match the registry bit for bit, at any
    /// synchronization interval.
    #[test]
    fn single_loader_matches_sequential(
        g in arb_graph(),
        alg in arb_algorithm(),
        order in arb_order(),
        sync_interval in prop_oneof![Just(1usize), Just(13), Just(4096)],
        k in 1usize..=6,
    ) {
        let cfg = PartitionerConfig::new(k);
        let lc = LoaderConfig::new(1).with_sync_interval(sync_interval);
        let seq = partition(&g, alg, &cfg, order);
        let par = partition_multi_loader(&g, alg, &cfg, order, &lc);
        prop_assert_eq!(&seq.edge_parts, &par.edge_parts);
        prop_assert_eq!(&seq.vertex_owner, &par.vertex_owner);
    }

    /// The real-threads execution backend is an implementation detail:
    /// for every algorithm and thread count in {1, 2, 4, 8}, running
    /// the loaders on OS threads is byte-identical to the modelled
    /// (sequential round-robin) multi-loader path.
    #[test]
    fn threaded_backend_matches_modelled_loaders(
        g in arb_graph(),
        alg in arb_algorithm(),
        order in arb_order(),
        sync_interval in prop_oneof![Just(1usize), Just(8), Just(4096)],
        k in 1usize..=6,
    ) {
        let cfg = PartitionerConfig::new(k);
        for threads in [1usize, 2, 4, 8] {
            let lc = LoaderConfig::new(threads).with_sync_interval(sync_interval);
            let modelled = partition_multi_loader(&g, alg, &cfg, order, &lc);
            let threaded = partition_threaded(&g, alg, &cfg, order, &lc);
            prop_assert_eq!(&modelled.edge_parts, &threaded.edge_parts);
            prop_assert_eq!(&modelled.vertex_owner, &threaded.vertex_owner);
            prop_assert_eq!(modelled.model, threaded.model);
        }
    }

    /// Multi-loader runs are a pure function of (graph, algorithm,
    /// config, order, loader config) — no wallclock, no hash-iteration
    /// order anywhere in the merge.
    #[test]
    fn multi_loader_is_deterministic(
        g in arb_graph(),
        alg in arb_algorithm(),
        order in arb_order(),
        loaders in 2usize..=5,
        k in 1usize..=6,
    ) {
        let cfg = PartitionerConfig::new(k);
        let lc = LoaderConfig::new(loaders).with_sync_interval(8);
        let a = partition_multi_loader(&g, alg, &cfg, order, &lc);
        let b = partition_multi_loader(&g, alg, &cfg, order, &lc);
        prop_assert_eq!(&a.edge_parts, &b.edge_parts);
        prop_assert_eq!(&a.vertex_owner, &b.vertex_owner);
    }

    /// Snapshotting mid-stream is invisible: for every edge-stream
    /// algorithm and k ∈ {3, 16, 64, 100}, pausing at an arbitrary
    /// chunk boundary, serializing, restoring into a fresh machine, and
    /// continuing the stream yields a placement byte-identical to the
    /// uninterrupted run — and the restored machine re-serializes to
    /// the exact snapshot bytes (`snapshot(restore(s)) == s`).
    #[test]
    fn snapshot_restore_mid_stream_is_byte_invisible(
        g in arb_graph(),
        order in arb_order(),
        cut_seed in any::<u32>(),
    ) {
        const CHUNK: usize = 7;
        for &alg in Algorithm::all() {
            let probe = StreamingPartitioner::init(&g, alg, &PartitionerConfig::new(2));
            if probe.input() != StreamInput::Edges {
                continue;
            }
            for k in [3usize, 16, 64, 100] {
                let cfg = PartitionerConfig::new(k);
                let whole = facade_run(&g, alg, &cfg, order, CHUNK);

                let total_chunks = probe.passes() * g.num_edges().div_ceil(CHUNK);
                let cut = cut_seed as usize % total_chunks.max(1);
                let mut reserialized = None;
                let resumed = drive_facade(&g, alg, &cfg, order, CHUNK, |sp, done| {
                    if done == cut + 1 {
                        let bytes = sp.snapshot();
                        *sp = StreamingPartitioner::restore(&g, alg, &cfg, &bytes)
                            .expect("mid-stream snapshot restores");
                        reserialized = Some((sp.snapshot(), bytes));
                    }
                });
                if let Some((again, bytes)) = reserialized {
                    prop_assert_eq!(&again, &bytes, "{} k={}", alg, k);
                }
                prop_assert_eq!(&whole.edge_parts, &resumed.edge_parts, "{} k={}", alg, k);
                prop_assert_eq!(&whole.vertex_owner, &resumed.vertex_owner, "{} k={}", alg, k);
            }
        }
    }

    /// `BfsFrom`/`DfsFrom` at start 0 are exactly the legacy unit
    /// variants, all the way through a partitioning.
    #[test]
    fn start_zero_traversals_match_unit_variants(
        g in arb_graph(),
        alg in arb_algorithm(),
        k in 1usize..=6,
    ) {
        let cfg = PartitionerConfig::new(k);
        let bfs = partition(&g, alg, &cfg, StreamOrder::Bfs);
        let bfs0 = partition(&g, alg, &cfg, StreamOrder::BfsFrom { start: 0 });
        prop_assert_eq!(&bfs.edge_parts, &bfs0.edge_parts);
        prop_assert_eq!(&bfs.vertex_owner, &bfs0.vertex_owner);
        let dfs = partition(&g, alg, &cfg, StreamOrder::Dfs);
        let dfs0 = partition(&g, alg, &cfg, StreamOrder::DfsFrom { start: 0 });
        prop_assert_eq!(&dfs.edge_parts, &dfs0.edge_parts);
        prop_assert_eq!(&dfs.vertex_owner, &dfs0.vertex_owner);
    }
}

#[test]
fn facade_covers_every_algorithm_with_the_right_stream() {
    let g = Dataset::Twitter.generate(Scale::Tiny);
    let cfg = PartitionerConfig::new(4);
    for &alg in Algorithm::all() {
        let sp = StreamingPartitioner::init(&g, alg, &cfg);
        match sp.input() {
            StreamInput::Offline => assert_eq!(alg, Algorithm::Metis, "{alg}"),
            StreamInput::Vertices | StreamInput::Edges => {
                // Every one-pass streaming algorithm parallelizes across
                // loaders; 2PS does not (its clustering pass must see the
                // whole stream before any placement).
                assert!(alg.supports_parallel_loaders() || alg == Algorithm::TwoPhaseHdrf, "{alg}")
            }
        }
    }
    assert!(!Algorithm::Metis.supports_parallel_loaders());
    assert!(!Algorithm::TwoPhaseHdrf.supports_parallel_loaders());
}

#[test]
fn stream_order_serde_is_backward_compatible() {
    // Orders serialized before the configurable-start variants existed
    // must still deserialize: the unit variants survive as-is.
    let bfs: StreamOrder = serde_json::from_str("\"Bfs\"").expect("legacy Bfs payload");
    assert_eq!(bfs, StreamOrder::Bfs);
    let dfs: StreamOrder = serde_json::from_str("\"Dfs\"").expect("legacy Dfs payload");
    assert_eq!(dfs, StreamOrder::Dfs);
    let random: StreamOrder =
        serde_json::from_str("{\"Random\":{\"seed\":7}}").expect("legacy Random payload");
    assert_eq!(random, StreamOrder::Random { seed: 7 });
    // And the unit variants still serialize to the legacy form.
    assert_eq!(serde_json::to_string(&StreamOrder::Bfs).expect("serialize"), "\"Bfs\"");
    // The new variants round-trip.
    for order in [StreamOrder::BfsFrom { start: 3 }, StreamOrder::DfsFrom { start: 9 }] {
        let json = serde_json::to_string(&order).expect("serialize");
        let back: StreamOrder = serde_json::from_str(&json).expect("round-trip");
        assert_eq!(back, order);
    }
}

#[test]
fn loader_config_serde_round_trips() {
    let lc = LoaderConfig::new(4).with_sync_interval(64);
    let json = serde_json::to_string(&lc).expect("serialize");
    let back: LoaderConfig = serde_json::from_str(&json).expect("round-trip");
    assert_eq!(back, lc);
}
