//! End-to-end integration tests spanning all workspace crates: generate
//! a dataset, partition it, run analytics and online queries, and check
//! the pieces compose.

use streaming_graph_partitioning::prelude::*;

#[test]
fn full_offline_pipeline_on_every_dataset() {
    for &dataset in Dataset::all() {
        let graph = dataset.generate(Scale::Tiny);
        let config = PartitionerConfig::new(4);
        for alg in [Algorithm::EcrHash, Algorithm::Hdrf, Algorithm::Ginger] {
            let p = partition(&graph, alg, &config, StreamOrder::default());
            let placement = Placement::build(&graph, &p);
            let (ranks, report) =
                run_program(&graph, &placement, &PageRank::new(3), &EngineOptions::default());
            assert_eq!(ranks.len(), graph.num_vertices(), "{dataset}/{alg}");
            assert_eq!(report.num_iterations(), 3, "{dataset}/{alg}");
            assert!(report.total_wall_ns > 0.0, "{dataset}/{alg}");
        }
    }
}

#[test]
fn full_online_pipeline_on_snb() {
    let graph = Dataset::LdbcSnb.generate(Scale::Tiny);
    for alg in [Algorithm::EcrHash, Algorithm::Fennel, Algorithm::Metis] {
        let store = sgp_core::runners::build_store(&graph, alg, 4);
        for kind in [WorkloadKind::OneHop, WorkloadKind::TwoHop, WorkloadKind::ShortestPath] {
            let w = Workload::generate(&graph, kind, 50, Skew::Uniform, 3);
            let sim = ClusterSim::prepare(&store, &w);
            let r = sim.run(&SimConfig {
                clients_per_machine: 4,
                queries_per_client: 10,
                ..Default::default()
            });
            assert!(r.throughput_qps > 0.0, "{alg}/{kind}");
            assert!(r.p99_latency_ms >= r.p50_latency_ms, "{alg}/{kind}");
        }
    }
}

#[test]
fn graph_io_roundtrip_preserves_partitionable_structure() {
    let graph = Dataset::Twitter.generate(Scale::Tiny);
    let mut buf = Vec::new();
    sgp_graph::io::write_edge_list(&graph, &mut buf).expect("write");
    let back = sgp_graph::io::read_edge_list(&buf[..]).expect("read");
    assert_eq!(graph.num_edges(), back.num_edges());
    // Partitioning the reloaded graph gives identical quality.
    let config = PartitionerConfig::new(4);
    let p1 = partition(&graph, Algorithm::Hdrf, &config, StreamOrder::Natural);
    let p2 = partition(&back, Algorithm::Hdrf, &config, StreamOrder::Natural);
    assert_eq!(p1.edge_parts, p2.edge_parts);
}

#[test]
fn engine_results_invariant_under_partitioner_choice() {
    // The whole point of the substrate: computation results must not
    // depend on placement, only performance does.
    let graph = Dataset::UkWeb.generate(Scale::Tiny);
    let config = PartitionerConfig::new(6);
    let mut wcc_results = Vec::new();
    for &alg in Algorithm::offline_suite() {
        let p = partition(&graph, alg, &config, StreamOrder::default());
        let placement = Placement::build(&graph, &p);
        let (labels, _) = run_program(&graph, &placement, &Wcc::new(), &EngineOptions::default());
        wcc_results.push((alg, labels));
    }
    let (first_alg, first) = &wcc_results[0];
    for (alg, labels) in &wcc_results[1..] {
        assert_eq!(labels, first, "WCC differs between {first_alg} and {alg}");
    }
}

#[test]
fn decision_tree_recommends_runnable_algorithms() {
    for &dataset in Dataset::all() {
        let graph = dataset.generate(Scale::Tiny);
        let rec = sgp_core::decision::recommend_for_graph(&graph, WorkloadClass::OfflineAnalytics);
        // Whatever the tree says must actually run on that graph.
        let config = PartitionerConfig::new(4);
        let p = partition(&graph, rec.algorithm, &config, StreamOrder::default());
        assert_eq!(p.edge_parts.len(), graph.num_edges());
    }
}

#[test]
fn workspace_reexports_are_wired() {
    // The facade must expose the sub-crates coherently.
    let g: streaming_graph_partitioning::graph::Graph = GraphBuilder::new().add_edge(0, 1).build();
    let cfg = streaming_graph_partitioning::partition::PartitionerConfig::new(2);
    let p = streaming_graph_partitioning::partition::registry::partition(
        &g,
        Algorithm::EcrHash,
        &cfg,
        StreamOrder::Natural,
    );
    let _ = streaming_graph_partitioning::engine::Placement::build(&g, &p);
}
