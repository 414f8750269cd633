//! Single-machine reference implementations used to validate the
//! distributed engine: the engine must produce identical results (up to
//! floating-point associativity for PageRank) for *every* partitioning.
#![expect(
    clippy::indexing_slicing,
    reason = "the reference (unpartitioned) executor indexes adjacency by ids from the same loaded graph it scans"
)]

use sgp_graph::{Graph, VertexId};

/// Reference PageRank: synchronous iterations over in-edges, matching
/// [`crate::apps::PageRank`].
pub fn pagerank(g: &Graph, iterations: usize) -> Vec<f64> {
    let n = g.num_vertices();
    let mut ranks = vec![1.0f64; n];
    for _ in 0..iterations {
        let mut next = vec![0.0f64; n];
        for v in g.vertices() {
            let sum: f64 =
                g.in_neighbors(v).iter().map(|&u| ranks[u as usize] / g.out_degree(u) as f64).sum();
            next[v as usize] = (1.0 - crate::apps::DAMPING) + crate::apps::DAMPING * sum;
        }
        ranks = next;
    }
    ranks
}

/// Reference WCC: BFS labelling over the undirected structure.
pub fn wcc(g: &Graph) -> Vec<u32> {
    let n = g.num_vertices();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut queue = std::collections::VecDeque::new();
    let mut visited = vec![false; n];
    for root in 0..n as u32 {
        if visited[root as usize] {
            continue;
        }
        // The minimum vertex id in a component becomes its label only if
        // we traverse from the smallest root first — iterating roots in
        // ascending order guarantees that.
        visited[root as usize] = true;
        labels[root as usize] = root;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            for w in g.undirected_neighbors(v) {
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    labels[w as usize] = root;
                    queue.push_back(w);
                }
            }
        }
    }
    labels
}

/// Reference SSSP: BFS (unit weights) over out-edges from `source`.
pub fn sssp(g: &Graph, source: VertexId) -> Vec<u64> {
    let n = g.num_vertices();
    let mut dist = vec![crate::apps::UNREACHABLE; n];
    dist[source as usize] = 0;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        for &w in g.out_neighbors(v) {
            if dist[w as usize] == crate::apps::UNREACHABLE {
                dist[w as usize] = dist[v as usize] + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgp_graph::GraphBuilder;

    fn chain() -> Graph {
        GraphBuilder::new().add_edge(0, 1).add_edge(1, 2).add_edge(2, 3).build()
    }

    #[test]
    fn reference_sssp_on_chain() {
        let g = chain();
        assert_eq!(sssp(&g, 0), vec![0, 1, 2, 3]);
        assert_eq!(sssp(&g, 2), vec![u64::MAX, u64::MAX, 0, 1]);
    }

    #[test]
    fn reference_wcc_on_two_components() {
        let g = GraphBuilder::new().add_edge(0, 1).add_edge(2, 3).build();
        assert_eq!(wcc(&g), vec![0, 0, 2, 2]);
    }

    #[test]
    fn reference_wcc_ignores_direction() {
        let g = GraphBuilder::new().add_edge(1, 0).add_edge(1, 2).build();
        assert_eq!(wcc(&g), vec![0, 0, 0]);
    }

    #[test]
    fn reference_pagerank_sums_to_n() {
        let g = chain().to_undirected();
        let pr = pagerank(&g, 30);
        let total: f64 = pr.iter().sum();
        // With no dangling vertices PageRank mass is conserved at n.
        assert!((total - g.num_vertices() as f64).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn reference_pagerank_ranks_hub_highest() {
        let g =
            GraphBuilder::new().add_edge(1, 0).add_edge(2, 0).add_edge(3, 0).add_edge(0, 1).build();
        let pr = pagerank(&g, 30);
        assert!(pr[0] > pr[1] && pr[0] > pr[2] && pr[0] > pr[3]);
    }
}
