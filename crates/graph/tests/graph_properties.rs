//! Property-based tests of the graph substrate: CSR invariants, stream
//! completeness, generator statistics, and I/O round-trips.

use sgp_graph::generators::{erdos_renyi, ErdosRenyiConfig};
use sgp_graph::sampling::{check_cases, Rng};
use sgp_graph::{
    Edge, EdgeStreamSource, Graph, GraphBuilder, GraphStats, StreamOrder, VertexStreamSource,
};

const CASES: u64 = 128;

fn arb_edges(rng: &mut Rng) -> (usize, Vec<(u32, u32)>) {
    let n = rng.range(2..50);
    let pairs = (0..rng.range(0..200)).map(|_| (rng.index(n) as u32, rng.index(n) as u32));
    (n, pairs.collect())
}

fn build(n: usize, pairs: &[(u32, u32)]) -> Graph {
    let mut b = GraphBuilder::new().ensure_vertices(n);
    for &(s, d) in pairs {
        b.push_edge(s, d);
    }
    b.build()
}

/// In-adjacency is exactly the transpose of out-adjacency.
#[test]
fn csr_in_is_transpose_of_out() {
    check_cases(CASES, |rng| {
        let (n, pairs) = arb_edges(rng);
        let g = build(n, &pairs);
        for e in g.edges() {
            assert!(g.in_neighbors(e.dst).contains(&e.src));
        }
        let m_in: usize = g.vertices().map(|v| g.in_degree(v)).sum();
        assert_eq!(m_in, g.num_edges());
    });
}

/// Degree sums are consistent: Σ out-degree = Σ in-degree = m.
#[test]
fn degree_sums_match() {
    check_cases(CASES, |rng| {
        let (n, pairs) = arb_edges(rng);
        let g = build(n, &pairs);
        let out: usize = g.vertices().map(|v| g.out_degree(v)).sum();
        let inn: usize = g.vertices().map(|v| g.in_degree(v)).sum();
        assert_eq!(out, g.num_edges());
        assert_eq!(inn, g.num_edges());
    });
}

/// Builder is idempotent: rebuilding from the built edge list yields
/// the same graph.
#[test]
fn builder_idempotent() {
    check_cases(CASES, |rng| {
        let (n, pairs) = arb_edges(rng);
        let g = build(n, &pairs);
        let g2 = GraphBuilder::new().extend_edges(g.edges()).ensure_vertices(n).build();
        assert_eq!(&g, &g2);
    });
}

/// Every stream order delivers every vertex exactly once with its
/// full neighbourhood.
#[test]
fn vertex_stream_complete() {
    check_cases(CASES, |rng| {
        let (n, pairs) = arb_edges(rng);
        let seed = rng.next_u64();
        let g = build(n, &pairs);
        for order in
            [StreamOrder::Natural, StreamOrder::Random { seed }, StreamOrder::Bfs, StreamOrder::Dfs]
        {
            let mut seen = vec![0usize; n];
            let mut source = VertexStreamSource::new(&g, order);
            while let Some(rec) = source.next_record() {
                seen[rec.vertex as usize] += 1;
                // Neighbourhood must be the undirected adjacency, deduped.
                let mut expected: Vec<u32> = g.undirected_neighbors(rec.vertex).collect();
                expected.sort_unstable();
                expected.dedup();
                assert_eq!(&rec.neighbors, &expected);
            }
            assert!(seen.iter().all(|&c| c == 1), "{:?}", order);
        }
    });
}

/// Text I/O round-trips every graph bit-for-bit.
#[test]
fn io_roundtrip() {
    check_cases(CASES, |rng| {
        let (n, pairs) = arb_edges(rng);
        let g = build(n, &pairs);
        let mut buf = Vec::new();
        sgp_graph::io::write_edge_list(&g, &mut buf).unwrap();
        let back = sgp_graph::io::read_edge_list(&buf[..]).unwrap();
        // Isolated tail vertices are not representable in an edge list;
        // compare edges and active prefix.
        assert_eq!(g.edges().collect::<Vec<Edge>>(), back.edges().collect::<Vec<Edge>>());
    });
}

/// `to_undirected` is an involution on already-symmetric graphs.
#[test]
fn undirected_involution() {
    check_cases(CASES, |rng| {
        let (n, pairs) = arb_edges(rng);
        let g = build(n, &pairs).to_undirected();
        let g2 = g.to_undirected();
        assert_eq!(&g, &g2);
    });
}

/// Stats are internally consistent on arbitrary graphs.
#[test]
fn stats_consistent() {
    check_cases(CASES, |rng| {
        let (n, pairs) = arb_edges(rng);
        let g = build(n, &pairs);
        let s = GraphStats::of(&g);
        assert_eq!(s.vertices, g.num_vertices());
        assert_eq!(s.edges, g.num_edges());
        assert!((0.0..=1.0).contains(&s.degree_gini));
        assert!((0.0..=1.0 + 1e-9).contains(&s.powerlaw_fit_r2));
    });
}

#[test]
fn erdos_renyi_edge_count_concentrates() {
    // Statistical check: requested m minus dedup losses.
    let g = erdos_renyi(ErdosRenyiConfig { vertices: 500, edges: 4000, seed: 77 });
    assert!(g.num_edges() > 3800);
}

#[test]
fn edge_stream_respects_bfs_grouping() {
    // Under BFS order, all out-edges of an earlier-visited source appear
    // before those of a later-visited source.
    let g = GraphBuilder::new()
        .add_edge(0, 1)
        .add_edge(0, 2)
        .add_edge(1, 3)
        .add_edge(2, 4)
        .add_edge(3, 5)
        .build();
    let mut source = EdgeStreamSource::new(&g, StreamOrder::Bfs);
    let edges: Vec<Edge> = std::iter::from_fn(|| source.next_edge()).collect();
    let first_pos = |src: u32| edges.iter().position(|e| e.src == src).unwrap();
    assert!(first_pos(0) < first_pos(1));
    assert!(first_pos(1) < first_pos(3));
}
