//! Differential tests of the incremental streaming-partitioner core:
//! for every algorithm, chunked ingestion (any chunk size), the traced
//! drivers, and the single-loader multi-loader path must be
//! byte-identical to the one-shot batch entry points — and the stream
//! orders with configurable start vertices must collapse to the legacy
//! unit variants at start 0.

use sgp_graph::sampling::{check_cases, Rng};
use streaming_graph_partitioning::prelude::*;

#[path = "../crates/partition/tests/support/mod.rs"]
mod support;
use support::{drive_facade, facade_run};

/// A random simple directed graph with 2..50 vertices.
fn arb_graph(rng: &mut Rng) -> Graph {
    let n = rng.range(2..50);
    let max_edges = (n * (n - 1)).min(240);
    let mut b = GraphBuilder::new().ensure_vertices(n);
    for _ in 0..rng.range(0..max_edges + 1) {
        b.push_edge(rng.index(n) as u32, rng.index(n) as u32);
    }
    b.build()
}

fn arb_algorithm(rng: &mut Rng) -> Algorithm {
    Algorithm::all()[rng.index(Algorithm::all().len())]
}

fn arb_order(rng: &mut Rng) -> StreamOrder {
    match rng.index(6) {
        0 => StreamOrder::Natural,
        1 => StreamOrder::Random { seed: rng.next_u64() },
        2 => StreamOrder::Bfs,
        3 => StreamOrder::Dfs,
        4 => StreamOrder::BfsFrom { start: rng.index(50) as u32 },
        _ => StreamOrder::DfsFrom { start: rng.index(50) as u32 },
    }
}

fn arb_chunk(rng: &mut Rng) -> usize {
    [1, 7, 64, usize::MAX][rng.index(4)]
}

/// The tentpole determinism contract: for every algorithm and every
/// chunk size, driving the incremental core chunk by chunk yields a
/// placement byte-identical to the one-shot entry point.
#[test]
fn chunked_ingestion_is_byte_identical_to_one_shot() {
    check_cases(48, |rng| {
        let g = arb_graph(rng);
        let alg = arb_algorithm(rng);
        let order = arb_order(rng);
        let chunk = arb_chunk(rng);
        let k = rng.range(1..7);
        let cfg = PartitionerConfig::new(k);
        let whole = partition(&g, alg, &cfg, order);
        let chunked = facade_run(&g, alg, &cfg, order, chunk);
        assert_eq!(&whole.edge_parts, &chunked.edge_parts);
        assert_eq!(&whole.vertex_owner, &chunked.vertex_owner);
        assert_eq!(whole.model, chunked.model);
    });
}

/// A single loader is the sequential machine: `L = 1` through the
/// multi-loader layer must match the registry bit for bit, at any
/// synchronization interval.
#[test]
fn single_loader_matches_sequential() {
    check_cases(48, |rng| {
        let g = arb_graph(rng);
        let alg = arb_algorithm(rng);
        let order = arb_order(rng);
        let sync_interval = [1usize, 13, 4096][rng.index(3)];
        let k = rng.range(1..7);
        let cfg = PartitionerConfig::new(k);
        let lc = LoaderConfig::new(1).with_sync_interval(sync_interval);
        let seq = partition(&g, alg, &cfg, order);
        let par = partition_multi_loader(&g, alg, &cfg, order, &lc);
        assert_eq!(&seq.edge_parts, &par.edge_parts);
        assert_eq!(&seq.vertex_owner, &par.vertex_owner);
    });
}

/// The real-threads execution backend is an implementation detail:
/// for every algorithm and thread count in {1, 2, 4, 8}, running
/// the loaders on OS threads is byte-identical to the modelled
/// (sequential round-robin) multi-loader path.
#[test]
fn threaded_backend_matches_modelled_loaders() {
    check_cases(48, |rng| {
        let g = arb_graph(rng);
        let alg = arb_algorithm(rng);
        let order = arb_order(rng);
        let sync_interval = [1usize, 8, 4096][rng.index(3)];
        let k = rng.range(1..7);
        let cfg = PartitionerConfig::new(k);
        for threads in [1usize, 2, 4, 8] {
            let lc = LoaderConfig::new(threads).with_sync_interval(sync_interval);
            let modelled = partition_multi_loader(&g, alg, &cfg, order, &lc);
            let threaded = partition_threaded(&g, alg, &cfg, order, &lc);
            assert_eq!(&modelled.edge_parts, &threaded.edge_parts);
            assert_eq!(&modelled.vertex_owner, &threaded.vertex_owner);
            assert_eq!(modelled.model, threaded.model);
        }
    });
}

/// Multi-loader runs are a pure function of (graph, algorithm,
/// config, order, loader config) — no wallclock, no hash-iteration
/// order anywhere in the merge.
#[test]
fn multi_loader_is_deterministic() {
    check_cases(48, |rng| {
        let g = arb_graph(rng);
        let alg = arb_algorithm(rng);
        let order = arb_order(rng);
        let loaders = rng.range(2..6);
        let k = rng.range(1..7);
        let cfg = PartitionerConfig::new(k);
        let lc = LoaderConfig::new(loaders).with_sync_interval(8);
        let a = partition_multi_loader(&g, alg, &cfg, order, &lc);
        let b = partition_multi_loader(&g, alg, &cfg, order, &lc);
        assert_eq!(&a.edge_parts, &b.edge_parts);
        assert_eq!(&a.vertex_owner, &b.vertex_owner);
    });
}

/// Snapshotting mid-stream is invisible: for every edge-stream
/// algorithm and k ∈ {3, 16, 64, 100}, pausing at an arbitrary
/// chunk boundary, serializing, restoring into a fresh machine, and
/// continuing the stream yields a placement byte-identical to the
/// uninterrupted run — and the restored machine re-serializes to
/// the exact snapshot bytes (`snapshot(restore(s)) == s`).
#[test]
fn snapshot_restore_mid_stream_is_byte_invisible() {
    check_cases(48, |rng| {
        let g = arb_graph(rng);
        let order = arb_order(rng);
        let cut_seed = rng.next_u64() as u32;
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
                    assert_eq!(&again, &bytes, "{} k={}", alg, k);
                }
                assert_eq!(&whole.edge_parts, &resumed.edge_parts, "{} k={}", alg, k);
                assert_eq!(&whole.vertex_owner, &resumed.vertex_owner, "{} k={}", alg, k);
            }
        }
    });
}

/// `BfsFrom`/`DfsFrom` at start 0 are exactly the legacy unit
/// variants, all the way through a partitioning.
#[test]
fn start_zero_traversals_match_unit_variants() {
    check_cases(48, |rng| {
        let g = arb_graph(rng);
        let alg = arb_algorithm(rng);
        let k = rng.range(1..7);
        let cfg = PartitionerConfig::new(k);
        let bfs = partition(&g, alg, &cfg, StreamOrder::Bfs);
        let bfs0 = partition(&g, alg, &cfg, StreamOrder::BfsFrom { start: 0 });
        assert_eq!(&bfs.edge_parts, &bfs0.edge_parts);
        assert_eq!(&bfs.vertex_owner, &bfs0.vertex_owner);
        let dfs = partition(&g, alg, &cfg, StreamOrder::Dfs);
        let dfs0 = partition(&g, alg, &cfg, StreamOrder::DfsFrom { start: 0 });
        assert_eq!(&dfs.edge_parts, &dfs0.edge_parts);
        assert_eq!(&dfs.vertex_owner, &dfs0.vertex_owner);
    });
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

/// Three copies of 5 → 6 plus 1 → 2 and 0 → 6: slots 0 and 1 hold
/// 0 → 6 and 1 → 2, slots 2..5 the copies.
fn multigraph() -> Graph {
    let b = GraphBuilder::new().keep_duplicates(true);
    b.add_edge(5, 6).add_edge(5, 6).add_edge(5, 6).add_edge(1, 2).add_edge(0, 6).build()
}

/// Every copy of a parallel edge keeps its own decision through the
/// facade: fed slotted chunks, it places a multigraph exactly as the
/// one-shot entry point does — every edge rule at W ∈ {1, 3}, straight
/// through and across a snapshot and restore after any chunk.
#[test]
fn the_facade_keeps_every_copy_of_a_parallel_edge() {
    let g = multigraph();
    let order = StreamOrder::Natural;
    for &alg in Algorithm::all() {
        for window in [1, 3] {
            let cfg = PartitionerConfig::new(4).with_window(window);
            if StreamingPartitioner::init(&g, alg, &cfg).input() != StreamInput::Edges {
                continue;
            }
            let whole = partition(&g, alg, &cfg, order);
            assert_eq!(whole.edge_parts, facade_run(&g, alg, &cfg, order, 2).edge_parts, "{alg}");
            for cut in 1..=6 {
                let resumed = drive_facade(&g, alg, &cfg, order, 2, |sp, fed| {
                    if fed == cut {
                        let bytes = sp.snapshot();
                        *sp = StreamingPartitioner::restore(&g, alg, &cfg, &bytes)
                            .expect("own snapshot restores");
                    }
                });
                assert_eq!(whole.edge_parts, resumed.edge_parts, "{alg} W={window} cut {cut}");
            }
        }
    }
}

/// A slotted chunk whose slot does not hold its edge — another copy's
/// neighbour, or a slot past the last edge — is refused whole, and the
/// machine does not move.
#[test]
fn a_slotted_chunk_with_a_wrong_slot_is_refused_whole() {
    use streaming_graph_partitioning::partition::IngestError;
    let g = multigraph();
    let copy = Edge::new(5, 6);
    let mut sp = StreamingPartitioner::init(&g, Algorithm::Hdrf, &PartitionerConfig::new(4));
    sp.ingest_slotted_edges(&[(0, Edge::new(0, 6)), (2, copy)]).expect("slots hold their edges");
    let before = sp.snapshot();
    for slot in [1, 5, u32::MAX] {
        let refused = IngestError::NotAnEdge { position: 1, src: 5, dst: 6 };
        assert_eq!(sp.ingest_slotted_edges(&[(3, copy), (slot, copy)]), Err(refused), "{slot}");
        assert_eq!(sp.snapshot(), before, "slot {slot}: the machine moved");
    }
    sp.ingest_slotted_edges(&[(3, copy), (4, copy), (1, Edge::new(1, 2))]).expect("valid chunk");
    assert_eq!(sp.elements_ingested(), 5);
}
