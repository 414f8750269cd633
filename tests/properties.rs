//! Property-based tests (proptest) over the core invariants of the
//! partitioners, metrics, and engine, on arbitrary random graphs.

use proptest::prelude::*;
use sgp_engine::reference;
use sgp_partition::metrics;
use streaming_graph_partitioning::prelude::*;
use streaming_graph_partitioning::trace::hist::bucket_index;
use streaming_graph_partitioning::trace::Log2Histogram;

/// Strategy: a random simple directed graph with 2..=60 vertices.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..60).prop_flat_map(|n| {
        let max_edges = (n * (n - 1)).min(300);
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

fn arb_k() -> impl Strategy<Value = usize> {
    1usize..=8
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
    ]
}

/// Strategy: a random graph with a random placement of it — vertex
/// owners (edge-cut) or per-edge machines (vertex-cut), not the output of
/// any partitioner — and a vertex to start SSSP from.
fn arb_placed_graph() -> impl Strategy<Value = (Graph, Partitioning, VertexId)> {
    (arb_graph(), 1usize..=6).prop_flat_map(|(g, k)| {
        let parts = proptest::collection::vec(0..k as u32, g.num_vertices().max(g.num_edges()));
        (parts, any::<bool>(), 0..g.num_vertices() as u32).prop_map(
            move |(parts, by_vertex, source)| {
                let p = if by_vertex {
                    Partitioning::from_vertex_owners(&g, k, parts[..g.num_vertices()].to_vec())
                } else {
                    Partitioning::from_edge_parts(&g, k, parts[..g.num_edges()].to_vec())
                };
                (g.clone(), p, source)
            },
        )
    })
}

/// `g` plus an unreachable directed path on fresh vertices, long enough
/// that every frontier inside `g` stays under the engine's sparse/dense
/// threshold (a fraction of m), with `p` extended over it. Vertex ids,
/// edge indices and masters of `g`'s part are unchanged.
fn padded(g: &Graph, p: &Partitioning) -> (Graph, Partitioning) {
    let n = g.num_vertices() as u32;
    let pad = 64 * (2 * g.num_edges() as u32 + 2);
    let mut b = GraphBuilder::new().ensure_vertices((n + pad) as usize);
    for e in g.edges() {
        b.push_edge(e.src, e.dst);
    }
    for v in n..n + pad - 1 {
        b.push_edge(v, v + 1);
    }
    let padded = b.build();
    let p = match &p.vertex_owner {
        Some(owner) => {
            let mut owner = owner.clone();
            owner.resize(padded.num_vertices(), 0);
            Partitioning::from_vertex_owners(&padded, p.k, owner)
        }
        None => {
            let mut parts = p.edge_parts.clone();
            parts.resize(padded.num_edges(), 0);
            Partitioning::from_edge_parts(&padded, p.k, parts)
        }
    };
    (padded, p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every algorithm must produce a complete, in-range placement, with
    /// RF between 1 and min(k, max degree+1), on any graph, any k, any
    /// stream order.
    #[test]
    fn any_partitioning_is_well_formed(
        g in arb_graph(),
        k in arb_k(),
        alg in arb_algorithm(),
        order in arb_order(),
    ) {
        let cfg = PartitionerConfig::new(k);
        let p = partition(&g, alg, &cfg, order);
        prop_assert_eq!(p.k, k);
        prop_assert_eq!(p.edge_parts.len(), g.num_edges());
        prop_assert!(p.edge_parts.iter().all(|&x| (x as usize) < k));
        if let Some(owner) = &p.vertex_owner {
            prop_assert_eq!(owner.len(), g.num_vertices());
            prop_assert!(owner.iter().all(|&x| (x as usize) < k));
        }
        let rf = metrics::replication_factor(&g, &p);
        prop_assert!(rf >= 1.0 - 1e-9, "rf {} < 1", rf);
        prop_assert!(rf <= k as f64 + 1e-9, "rf {} > k {}", rf, k);
    }

    /// Replica sets must contain the master and every partition holding
    /// an incident edge.
    #[test]
    fn replica_sets_cover_edges_and_master(
        g in arb_graph(),
        k in 1usize..=6,
        alg in arb_algorithm(),
    ) {
        let cfg = PartitionerConfig::new(k);
        let p = partition(&g, alg, &cfg, StreamOrder::Natural);
        let sets = p.replica_sets(&g);
        let masters = p.masters(&g);
        for (v, set) in sets.iter().enumerate() {
            prop_assert!(set.contains(&masters[v]), "master missing at vertex {}", v);
        }
        for (i, e) in g.edges().enumerate() {
            let part = p.edge_parts[i];
            prop_assert!(sets[e.src as usize].contains(&part));
            prop_assert!(sets[e.dst as usize].contains(&part));
        }
    }

    /// Edge-cut ratio of any vertex-disjoint placement lies in [0, 1],
    /// and k = 1 always yields 0.
    #[test]
    fn edge_cut_ratio_bounds(g in arb_graph(), alg in proptest::sample::select(
        Algorithm::online_suite().to_vec())) {
        let cfg = PartitionerConfig::new(4);
        let p = partition(&g, alg, &cfg, StreamOrder::Natural);
        let ecr = metrics::edge_cut_ratio(&g, &p).expect("edge-cut algorithm");
        prop_assert!((0.0..=1.0).contains(&ecr));
        let cfg1 = PartitionerConfig::new(1);
        let p1 = partition(&g, alg, &cfg1, StreamOrder::Natural);
        prop_assert_eq!(metrics::edge_cut_ratio(&g, &p1), Some(0.0));
    }

    /// The engine computes WCC and SSSP exactly, for any graph, any
    /// algorithm, any order (determinism + correctness of the whole
    /// distributed pipeline).
    #[test]
    fn engine_exact_for_discrete_programs(
        g in arb_graph(),
        k in 1usize..=5,
        alg in arb_algorithm(),
    ) {
        let cfg = PartitionerConfig::new(k);
        let p = partition(&g, alg, &cfg, StreamOrder::Natural);
        let placement = Placement::build(&g, &p);
        let opts = EngineOptions::default();
        let (wcc, _) = run_program(&g, &placement, &Wcc::new(), &opts);
        prop_assert_eq!(wcc, reference::wcc(&g));
        let (dist, _) = run_program(&g, &placement, &Sssp::new(0), &opts);
        prop_assert_eq!(dist, reference::sssp(&g, 0));
    }

    /// PageRank mass conservation: when every vertex has an out-edge,
    /// total rank stays ≈ n under the engine, for any placement.
    #[test]
    fn engine_pagerank_conserves_mass(seed in any::<u64>(), k in 1usize..=5) {
        // Build a graph where every vertex has out-degree >= 1: a ring
        // plus random chords.
        let n = 30usize;
        let mut b = GraphBuilder::new();
        for v in 0..n as u32 {
            b.push_edge(v, (v + 1) % n as u32);
        }
        let mut s = seed;
        for _ in 0..40 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = (s >> 33) as u32 % n as u32;
            let c = (s >> 13) as u32 % n as u32;
            if a != c {
                b.push_edge(a, c);
            }
        }
        let g = b.build();
        let cfg = PartitionerConfig::new(k);
        let p = partition(&g, Algorithm::Hdrf, &cfg, StreamOrder::Natural);
        let placement = Placement::build(&g, &p);
        let (ranks, _) =
            run_program(&g, &placement, &PageRank::new(10), &EngineOptions::default());
        let total: f64 = ranks.iter().sum();
        prop_assert!((total - n as f64).abs() < 1e-6, "mass {} != {}", total, n);
    }

    /// Partitioning the same input twice is bit-identical (everything in
    /// the workspace is seeded).
    #[test]
    fn partitioning_is_deterministic(
        g in arb_graph(),
        alg in arb_algorithm(),
        seed in any::<u64>(),
    ) {
        let cfg = PartitionerConfig::new(4);
        let order = StreamOrder::Random { seed };
        let p1 = partition(&g, alg, &cfg, order);
        let p2 = partition(&g, alg, &cfg, order);
        prop_assert_eq!(p1.edge_parts, p2.edge_parts);
        prop_assert_eq!(p1.vertex_owner, p2.vertex_owner);
    }

    /// Hash-based algorithms are stream-order independent ("can be
    /// parallelized without communication", Table 1).
    #[test]
    fn hash_algorithms_order_independent(
        g in arb_graph(),
        o1 in arb_order(),
        o2 in arb_order(),
    ) {
        let cfg = PartitionerConfig::new(4);
        for alg in [Algorithm::EcrHash, Algorithm::VcrHash, Algorithm::HybridRandom] {
            let p1 = partition(&g, alg, &cfg, o1);
            let p2 = partition(&g, alg, &cfg, o2);
            prop_assert_eq!(p1.edge_parts, p2.edge_parts, "{:?}", alg);
        }
    }

    /// Load-imbalance metric is scale-invariant and >= 1 on non-empty
    /// loads.
    #[test]
    fn imbalance_properties(counts in proptest::collection::vec(1usize..1000, 1..20)) {
        let imb = metrics::load_imbalance(&counts);
        prop_assert!(imb >= 1.0 - 1e-12);
        let doubled: Vec<usize> = counts.iter().map(|&c| c * 2).collect();
        prop_assert!((metrics::load_imbalance(&doubled) - imb).abs() < 1e-9);
    }

    /// Span enter/exit events are well-formed (strict LIFO nesting,
    /// non-decreasing stamps, everything closed) for a traced
    /// partition-plus-engine run over any graph, k, algorithm, order.
    #[test]
    fn trace_spans_are_well_nested_for_random_workloads(
        g in arb_graph(),
        k in arb_k(),
        alg in arb_algorithm(),
        order in arb_order(),
    ) {
        let cfg = PartitionerConfig::new(k);
        let mut sink = CollectingSink::new();
        let run = Run { algorithm: alg, cfg: &cfg, order, exec: Exec::Sequential };
        let p = run.execute(&g, &mut sink).expect("sequential runs are never refused");
        let placement = Placement::build(&g, &p);
        let opts = EngineOptions::default();
        run_program_with(&g, &placement, &PageRank::new(3), &opts, None, &mut sink).expect("no plan");
        prop_assert!(!sink.is_empty());
        if let Err(e) = sink.check_nesting() {
            return Err(TestCaseError::fail(format!("{alg:?}: {e}")));
        }
    }

    /// The log₂ histogram's quantile estimate lands in the same bucket
    /// as the exact rank-based quantile of the raw samples.
    #[test]
    fn histogram_quantile_within_one_bucket_of_exact(
        mut samples in proptest::collection::vec(any::<u64>(), 1..200),
        q in 0.0f64..=1.0,
    ) {
        let mut h = Log2Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        let rank = ((samples.len() - 1) as f64 * q).round() as usize;
        let exact = samples[rank.min(samples.len() - 1)];
        let estimate = h.quantile(q);
        prop_assert_eq!(
            bucket_index(estimate),
            bucket_index(exact),
            "estimate {} vs exact {} at q={}",
            estimate,
            exact,
            q
        );
    }

    /// Same seed + same config ⇒ byte-identical trace JSON, across the
    /// partitioner and engine layers on arbitrary workloads.
    #[test]
    fn same_seed_yields_identical_trace_bytes(
        g in arb_graph(),
        k in arb_k(),
        alg in arb_algorithm(),
        seed in any::<u64>(),
    ) {
        let cfg = PartitionerConfig::new(k);
        let order = StreamOrder::Random { seed };
        let trace_of = |sink: &mut CollectingSink| {
            let run = Run { algorithm: alg, cfg: &cfg, order, exec: Exec::Sequential };
            let p = run.execute(&g, sink).expect("sequential runs are never refused");
            let placement = Placement::build(&g, &p);
            let opts = EngineOptions::default();
            run_program_with(&g, &placement, &PageRank::new(3), &opts, None, sink).expect("no plan");
        };
        let mut a = CollectingSink::new();
        trace_of(&mut a);
        let mut b = CollectingSink::new();
        trace_of(&mut b);
        prop_assert_eq!(a.to_json(), b.to_json(), "{:?}", alg);
    }

    /// SSSP and WCC are exact on placements no partitioner would
    /// produce, from any source — small frontiers take the engine's
    /// per-vertex body, large ones its edge scan, usually both in one
    /// run.
    #[test]
    fn engine_exact_on_arbitrary_placements((g, p, source) in arb_placed_graph()) {
        let placement = Placement::build(&g, &p);
        for aggregate in [true, false] {
            let opts = EngineOptions { sender_side_aggregation: aggregate, ..Default::default() };
            let (dist, _) = run_program(&g, &placement, &Sssp::new(source), &opts);
            prop_assert_eq!(dist, reference::sssp(&g, source));
            let (labels, _) = run_program(&g, &placement, &Wcc::new(), &opts);
            prop_assert_eq!(labels, reference::wcc(&g));
        }
    }

    /// The engine picks a superstep's body from the frontier's edge
    /// volume against m. Padding the graph with an unreachable component
    /// raises m until every SSSP superstep takes the per-vertex body;
    /// the run must not notice: same distances, same per-superstep
    /// report, same trace bytes as on the bare graph, where large
    /// frontiers take the edge scan.
    #[test]
    fn engine_body_switch_is_invisible((g, p, source) in arb_placed_graph()) {
        let (big, big_p) = padded(&g, &p);
        let opts = EngineOptions::default();
        let prog = Sssp::new(source);
        let mut trace = CollectingSink::new();
        let (dist, report) =
            run_program_with(&g, &Placement::build(&g, &p), &prog, &opts, None, &mut trace)
                .expect("no plan");
        let mut big_trace = CollectingSink::new();
        let (big_dist, big_report) =
            run_program_with(&big, &Placement::build(&big, &big_p), &prog, &opts, None, &mut big_trace)
                .expect("no plan");

        prop_assert_eq!(&big_dist[..g.num_vertices()], &dist[..]);
        prop_assert_eq!(report.num_iterations(), big_report.num_iterations());
        for (a, b) in report.iterations.iter().zip(&big_report.iterations) {
            prop_assert_eq!(a.active_vertices, b.active_vertices);
            prop_assert_eq!(a.gather_messages, b.gather_messages);
            prop_assert_eq!(a.update_messages, b.update_messages);
            prop_assert_eq!(&a.machine_bytes, &b.machine_bytes);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&a.machine_compute_ns), bits(&b.machine_compute_ns));
            prop_assert_eq!(a.wall_ns.to_bits(), b.wall_ns.to_bits());
        }
        prop_assert_eq!(report.total_wall_ns.to_bits(), big_report.total_wall_ns.to_bits());
        prop_assert_eq!(trace.to_json(), big_trace.to_json());
    }

    /// Pause-and-recover under a crash and a straggler: the computed
    /// result is the healthy one, the healthy part of every superstep's
    /// accounting is untouched, and the fault accounting repeats exactly.
    #[test]
    fn engine_fault_accounting_is_deterministic_on_arbitrary_placements(
        (g, p, source) in arb_placed_graph(),
        crash_at in 0u64..200_000,
    ) {
        let placement = Placement::build(&g, &p);
        let opts = EngineOptions::default();
        let prog = Sssp::new(source);
        let plan = FaultPlan::healthy(p.k, 11)
            .with_crash(p.k as u32 - 1, crash_at)
            .with_straggler(0, 0, u64::MAX, 2.5);
        let (healthy_dist, healthy) = run_program(&g, &placement, &prog, &opts);
        let faulted = || {
            run_program_with(&g, &placement, &prog, &opts, Some(&plan), &mut NullSink)
                .expect("the plan fits the placement")
        };
        let (dist, a) = faulted();
        let (_, b) = faulted();
        prop_assert_eq!(dist, healthy_dist);
        prop_assert_eq!(&a.fault, &b.fault);
        prop_assert_eq!(a.total_wall_ns.to_bits(), b.total_wall_ns.to_bits());
        prop_assert!(a.total_wall_ns >= healthy.total_wall_ns);
        prop_assert_eq!(a.num_iterations(), healthy.num_iterations());
        for (x, y) in a.iterations.iter().zip(&healthy.iterations) {
            prop_assert_eq!(x.active_vertices, y.active_vertices);
            prop_assert_eq!(x.messages(), y.messages());
            prop_assert_eq!(&x.machine_bytes, &y.machine_bytes);
        }
    }
}
