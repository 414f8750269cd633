//! Property-based tests over the core invariants of the
//! partitioners, metrics, and engine, on arbitrary random graphs.

use sgp_engine::reference;
use sgp_graph::sampling::{check_cases, Rng};
use sgp_partition::metrics;
use streaming_graph_partitioning::prelude::*;
use streaming_graph_partitioning::trace::hist::bucket_index;
use streaming_graph_partitioning::trace::Log2Histogram;

/// A random simple directed graph with 2..60 vertices.
fn arb_graph(rng: &mut Rng) -> Graph {
    let n = rng.range(2..60);
    let max_edges = (n * (n - 1)).min(300);
    let mut b = GraphBuilder::new().ensure_vertices(n);
    for _ in 0..rng.range(0..max_edges + 1) {
        b.push_edge(rng.index(n) as u32, rng.index(n) as u32);
    }
    b.build()
}

fn arb_k(rng: &mut Rng) -> usize {
    rng.range(1..9)
}

fn arb_algorithm(rng: &mut Rng) -> Algorithm {
    Algorithm::all()[rng.index(Algorithm::all().len())]
}

fn arb_order(rng: &mut Rng) -> StreamOrder {
    match rng.index(4) {
        0 => StreamOrder::Natural,
        1 => StreamOrder::Random { seed: rng.next_u64() },
        2 => StreamOrder::Bfs,
        _ => StreamOrder::Dfs,
    }
}

/// A random graph with a random placement of it — vertex owners
/// (edge-cut) or per-edge machines (vertex-cut), not the output of any
/// partitioner — and a vertex to start SSSP from.
fn arb_placed_graph(rng: &mut Rng) -> (Graph, Partitioning, VertexId) {
    let g = arb_graph(rng);
    let k = rng.range(1..7);
    let by_vertex = rng.index(2) == 0;
    let len = if by_vertex { g.num_vertices() } else { g.num_edges() };
    let parts = (0..len).map(|_| rng.index(k) as u32).collect();
    let p = if by_vertex {
        Partitioning::from_vertex_owners(&g, k, parts)
    } else {
        Partitioning::from_edge_parts(&g, k, parts)
    };
    let source = rng.index(g.num_vertices()) as VertexId;
    (g, p, source)
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

/// Every algorithm must produce a complete, in-range placement, with
/// RF between 1 and min(k, max degree+1), on any graph, any k, any
/// stream order.
#[test]
fn any_partitioning_is_well_formed() {
    check_cases(64, |rng| {
        let g = arb_graph(rng);
        let k = arb_k(rng);
        let alg = arb_algorithm(rng);
        let order = arb_order(rng);
        let cfg = PartitionerConfig::new(k);
        let p = partition(&g, alg, &cfg, order);
        assert_eq!(p.k, k);
        assert_eq!(p.edge_parts.len(), g.num_edges());
        assert!(p.edge_parts.iter().all(|&x| (x as usize) < k));
        if let Some(owner) = &p.vertex_owner {
            assert_eq!(owner.len(), g.num_vertices());
            assert!(owner.iter().all(|&x| (x as usize) < k));
        }
        let rf = metrics::replication_factor(&g, &p);
        assert!(rf >= 1.0 - 1e-9, "rf {} < 1", rf);
        assert!(rf <= k as f64 + 1e-9, "rf {} > k {}", rf, k);
    });
}

/// Replica sets must contain the master and every partition holding
/// an incident edge.
#[test]
fn replica_sets_cover_edges_and_master() {
    check_cases(64, |rng| {
        let g = arb_graph(rng);
        let k = rng.range(1..7);
        let alg = arb_algorithm(rng);
        let cfg = PartitionerConfig::new(k);
        let p = partition(&g, alg, &cfg, StreamOrder::Natural);
        let sets = p.replica_sets(&g);
        let masters = p.masters(&g);
        for (v, set) in sets.iter().enumerate() {
            assert!(set.contains(&masters[v]), "master missing at vertex {}", v);
        }
        for (i, e) in g.edges().enumerate() {
            let part = p.edge_parts[i];
            assert!(sets[e.src as usize].contains(&part));
            assert!(sets[e.dst as usize].contains(&part));
        }
    });
}

/// Edge-cut ratio of any vertex-disjoint placement lies in [0, 1],
/// and k = 1 always yields 0.
#[test]
fn edge_cut_ratio_bounds() {
    check_cases(64, |rng| {
        let g = arb_graph(rng);
        let suite = Algorithm::online_suite();
        let alg = suite[rng.index(suite.len())];
        let cfg = PartitionerConfig::new(4);
        let p = partition(&g, alg, &cfg, StreamOrder::Natural);
        let ecr = metrics::edge_cut_ratio(&g, &p).expect("edge-cut algorithm");
        assert!((0.0..=1.0).contains(&ecr));
        let cfg1 = PartitionerConfig::new(1);
        let p1 = partition(&g, alg, &cfg1, StreamOrder::Natural);
        assert_eq!(metrics::edge_cut_ratio(&g, &p1), Some(0.0));
    });
}

/// The engine computes WCC and SSSP exactly, for any graph, any
/// algorithm, any order (determinism + correctness of the whole
/// distributed pipeline).
#[test]
fn engine_exact_for_discrete_programs() {
    check_cases(64, |rng| {
        let g = arb_graph(rng);
        let k = rng.range(1..6);
        let alg = arb_algorithm(rng);
        let cfg = PartitionerConfig::new(k);
        let p = partition(&g, alg, &cfg, StreamOrder::Natural);
        let placement = Placement::build(&g, &p);
        let opts = EngineOptions::default();
        let (wcc, _) = run_program(&g, &placement, &Wcc::new(), &opts);
        assert_eq!(wcc, reference::wcc(&g));
        let (dist, _) = run_program(&g, &placement, &Sssp::new(0), &opts);
        assert_eq!(dist, reference::sssp(&g, 0));
    });
}

/// PageRank mass conservation: when every vertex has an out-edge,
/// total rank stays ≈ n under the engine, for any placement.
#[test]
fn engine_pagerank_conserves_mass() {
    check_cases(64, |rng| {
        let seed = rng.next_u64();
        let k = rng.range(1..6);
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
        let (ranks, _) = run_program(&g, &placement, &PageRank::new(10), &EngineOptions::default());
        let total: f64 = ranks.iter().sum();
        assert!((total - n as f64).abs() < 1e-6, "mass {} != {}", total, n);
    });
}

/// Partitioning the same input twice is bit-identical (everything in
/// the workspace is seeded).
#[test]
fn partitioning_is_deterministic() {
    check_cases(64, |rng| {
        let g = arb_graph(rng);
        let alg = arb_algorithm(rng);
        let seed = rng.next_u64();
        let cfg = PartitionerConfig::new(4);
        let order = StreamOrder::Random { seed };
        let p1 = partition(&g, alg, &cfg, order);
        let p2 = partition(&g, alg, &cfg, order);
        assert_eq!(p1.edge_parts, p2.edge_parts);
        assert_eq!(p1.vertex_owner, p2.vertex_owner);
    });
}

/// Hash-based algorithms are stream-order independent ("can be
/// parallelized without communication", Table 1).
#[test]
fn hash_algorithms_order_independent() {
    check_cases(64, |rng| {
        let g = arb_graph(rng);
        let o1 = arb_order(rng);
        let o2 = arb_order(rng);
        let cfg = PartitionerConfig::new(4);
        for alg in [Algorithm::EcrHash, Algorithm::VcrHash, Algorithm::HybridRandom] {
            let p1 = partition(&g, alg, &cfg, o1);
            let p2 = partition(&g, alg, &cfg, o2);
            assert_eq!(p1.edge_parts, p2.edge_parts, "{:?}", alg);
        }
    });
}

/// Load-imbalance metric is scale-invariant and >= 1 on non-empty
/// loads.
#[test]
fn imbalance_properties() {
    check_cases(64, |rng| {
        let counts: Vec<usize> = (0..rng.range(1..20)).map(|_| rng.range(1..1000)).collect();
        let imb = metrics::load_imbalance(&counts);
        assert!(imb >= 1.0 - 1e-12);
        let doubled: Vec<usize> = counts.iter().map(|&c| c * 2).collect();
        assert!((metrics::load_imbalance(&doubled) - imb).abs() < 1e-9);
    });
}

/// Span enter/exit events are well-formed (strict LIFO nesting,
/// non-decreasing stamps, everything closed) for a traced
/// partition-plus-engine run over any graph, k, algorithm, order.
#[test]
fn trace_spans_are_well_nested_for_random_workloads() {
    check_cases(64, |rng| {
        let g = arb_graph(rng);
        let k = arb_k(rng);
        let alg = arb_algorithm(rng);
        let order = arb_order(rng);
        let cfg = PartitionerConfig::new(k);
        let mut sink = CollectingSink::new();
        let run = Run { algorithm: alg, cfg: &cfg, order, exec: Exec::Sequential };
        let p = run.execute(&g, &mut sink).expect("sequential runs are never refused");
        let placement = Placement::build(&g, &p);
        let opts = EngineOptions::default();
        run_program_with(&g, &placement, &PageRank::new(3), &opts, None, &mut sink)
            .expect("no plan");
        assert!(!sink.is_empty());
        if let Err(e) = sink.check_nesting() {
            panic!("{alg:?}: {e}");
        }
    });
}

/// The log₂ histogram's quantile estimate lands in the same bucket
/// as the exact rank-based quantile of the raw samples.
#[test]
fn histogram_quantile_within_one_bucket_of_exact() {
    check_cases(64, |rng| {
        // Random bit widths, so every bucket is exercised, not just the top few.
        let mut samples: Vec<u64> =
            (0..rng.range(1..200)).map(|_| rng.next_u64() >> rng.index(64)).collect();
        let q = rng.unit();
        let mut h = Log2Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        let rank = ((samples.len() - 1) as f64 * q).round() as usize;
        let exact = samples[rank.min(samples.len() - 1)];
        let estimate = h.quantile(q);
        assert_eq!(
            bucket_index(estimate),
            bucket_index(exact),
            "estimate {} vs exact {} at q={}",
            estimate,
            exact,
            q
        );
    });
}

/// Same seed + same config ⇒ byte-identical trace JSON, across the
/// partitioner and engine layers on arbitrary workloads.
#[test]
fn same_seed_yields_identical_trace_bytes() {
    check_cases(64, |rng| {
        let g = arb_graph(rng);
        let k = arb_k(rng);
        let alg = arb_algorithm(rng);
        let seed = rng.next_u64();
        let cfg = PartitionerConfig::new(k);
        let order = StreamOrder::Random { seed };
        let trace_of = |sink: &mut CollectingSink| {
            let run = Run { algorithm: alg, cfg: &cfg, order, exec: Exec::Sequential };
            let p = run.execute(&g, sink).expect("sequential runs are never refused");
            let placement = Placement::build(&g, &p);
            let opts = EngineOptions::default();
            run_program_with(&g, &placement, &PageRank::new(3), &opts, None, sink)
                .expect("no plan");
        };
        let mut a = CollectingSink::new();
        trace_of(&mut a);
        let mut b = CollectingSink::new();
        trace_of(&mut b);
        assert_eq!(a.to_json(), b.to_json(), "{:?}", alg);
    });
}

/// SSSP and WCC are exact on placements no partitioner would
/// produce, from any source — small frontiers take the engine's
/// per-vertex body, large ones its edge scan, usually both in one
/// run.
#[test]
fn engine_exact_on_arbitrary_placements() {
    check_cases(64, |rng| {
        let (g, p, source) = arb_placed_graph(rng);
        let placement = Placement::build(&g, &p);
        for aggregate in [true, false] {
            let opts = EngineOptions { sender_side_aggregation: aggregate, ..Default::default() };
            let (dist, _) = run_program(&g, &placement, &Sssp::new(source), &opts);
            assert_eq!(dist, reference::sssp(&g, source));
            let (labels, _) = run_program(&g, &placement, &Wcc::new(), &opts);
            assert_eq!(labels, reference::wcc(&g));
        }
    });
}

/// The engine picks a superstep's body from the frontier's edge
/// volume against m. Padding the graph with an unreachable component
/// raises m until every SSSP superstep takes the per-vertex body;
/// the run must not notice: same distances, same per-superstep
/// report, same trace bytes as on the bare graph, where large
/// frontiers take the edge scan.
#[test]
fn engine_body_switch_is_invisible() {
    check_cases(64, |rng| {
        let (g, p, source) = arb_placed_graph(rng);
        let (big, big_p) = padded(&g, &p);
        let opts = EngineOptions::default();
        let prog = Sssp::new(source);
        let mut trace = CollectingSink::new();
        let (dist, report) =
            run_program_with(&g, &Placement::build(&g, &p), &prog, &opts, None, &mut trace)
                .expect("no plan");
        let mut big_trace = CollectingSink::new();
        let (big_dist, big_report) = run_program_with(
            &big,
            &Placement::build(&big, &big_p),
            &prog,
            &opts,
            None,
            &mut big_trace,
        )
        .expect("no plan");

        assert_eq!(&big_dist[..g.num_vertices()], &dist[..]);
        assert_eq!(report.num_iterations(), big_report.num_iterations());
        for (a, b) in report.iterations.iter().zip(&big_report.iterations) {
            assert_eq!(a.active_vertices, b.active_vertices);
            assert_eq!(a.gather_messages, b.gather_messages);
            assert_eq!(a.update_messages, b.update_messages);
            assert_eq!(&a.machine_bytes, &b.machine_bytes);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.machine_compute_ns), bits(&b.machine_compute_ns));
            assert_eq!(a.wall_ns.to_bits(), b.wall_ns.to_bits());
        }
        assert_eq!(report.total_wall_ns.to_bits(), big_report.total_wall_ns.to_bits());
        assert_eq!(trace.to_json(), big_trace.to_json());
    });
}

/// Pause-and-recover under a crash and a straggler: the computed
/// result is the healthy one, the healthy part of every superstep's
/// accounting is untouched, and the fault accounting repeats exactly.
#[test]
fn engine_fault_accounting_is_deterministic_on_arbitrary_placements() {
    check_cases(64, |rng| {
        let (g, p, source) = arb_placed_graph(rng);
        let crash_at = rng.below(200_000);
        let placement = Placement::build(&g, &p);
        let opts = EngineOptions::default();
        let prog = Sssp::new(source);
        let plan = FaultPlan::healthy(p.k, 11).with_crash(p.k as u32 - 1, crash_at).with_straggler(
            0,
            0,
            u64::MAX,
            2.5,
        );
        let (healthy_dist, healthy) = run_program(&g, &placement, &prog, &opts);
        let faulted = || {
            run_program_with(&g, &placement, &prog, &opts, Some(&plan), &mut NullSink)
                .expect("the plan fits the placement")
        };
        let (dist, a) = faulted();
        let (_, b) = faulted();
        assert_eq!(dist, healthy_dist);
        assert_eq!(&a.fault, &b.fault);
        assert_eq!(a.total_wall_ns.to_bits(), b.total_wall_ns.to_bits());
        assert!(a.total_wall_ns >= healthy.total_wall_ns);
        assert_eq!(a.num_iterations(), healthy.num_iterations());
        for (x, y) in a.iterations.iter().zip(&healthy.iterations) {
            assert_eq!(x.active_vertices, y.active_vertices);
            assert_eq!(x.messages(), y.messages());
            assert_eq!(&x.machine_bytes, &y.machine_bytes);
        }
    });
}
