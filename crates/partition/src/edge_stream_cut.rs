//! Edge-cut SGP on **edge streams** (§4.1.2 of the paper).
//!
//! "Edge streams do not necessarily have locality and algorithms in this
//! class cannot maintain complete adjacency information N(u) until all
//! incident edges of vertex u arrive. Therefore, they produce
//! partitionings of lower quality than their vertex stream counterparts
//! and need to revisit their initial assignments (e.g., Condensed
//! Spanning Tree (CST) and IOGP). Therefore, they are not generally
//! deployed in real systems."
//!
//! The paper excludes this class from its evaluation; we implement an
//! IOGP-style representative anyway so the claim is *testable*: over
//! ten graph seeds and three stream orders it beats hash by a wide
//! margin every time, while the gap to the vertex-stream LDG that
//! §4.1.2 asserts does not show at this scale (the two tie on average).
#![expect(
    clippy::indexing_slicing,
    reason = "HDRF/greedy kernels index partial-degree and replica tables sized num_vertices and k at partitioner construction; endpoints come from the edge stream over the same graph"
)]

use crate::assignment::{PartitionId, Partitioning};
use crate::config::PartitionerConfig;
use sgp_graph::{Edge, EdgeStreamSource, Graph, StreamOrder};

/// IOGP-style incremental edge-cut partitioner over an edge stream.
///
/// Placement rules on edge `(u, v)`:
/// 1. both unassigned → both to the least-loaded partition;
/// 2. one assigned → the other joins it if within capacity, else goes to
///    the least-loaded partition;
/// 3. both assigned → nothing to do (the edge follows `owner[src]`).
///
/// Every `reassess_interval` processed edges, vertices whose observed
/// degree crossed a threshold are *revisited* (IOGP's "vertex
/// reassignment"): a vertex moves to the partition holding the plurality
/// of its observed neighbours when that improves locality within the
/// balance constraint.
#[derive(Debug, Clone)]
pub struct IogpStyle {
    k: usize,
    capacity: f64,
    reassess_interval: usize,
}

impl IogpStyle {
    /// Creates the partitioner for a graph with `n` vertices.
    pub fn new(cfg: &PartitionerConfig, n: usize) -> Self {
        IogpStyle {
            k: cfg.k,
            capacity: cfg.vertex_capacity(n).max(1.0),
            reassess_interval: (n / 4).max(64),
        }
    }

    /// Runs the partitioner over `g`'s edge stream and returns the
    /// resulting edge-cut [`Partitioning`].
    pub fn run(&self, g: &Graph, order: StreamOrder) -> Partitioning {
        let n = g.num_vertices();
        const UNASSIGNED: PartitionId = PartitionId::MAX;
        let mut owner = vec![UNASSIGNED; n];
        let mut sizes = vec![0usize; self.k];
        // Observed (partial) adjacency, capped per vertex to bound memory
        // like real edge-stream partitioners do.
        const NEIGHBOR_CAP: usize = 32;
        let mut observed: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut dirty: Vec<u32> = Vec::new();

        #[expect(
            clippy::expect_used,
            reason = "sizes has length self.k and PartitionerConfig::new asserts k >= 1"
        )]
        let least_loaded = |sizes: &[usize]| -> usize {
            (0..sizes.len()).min_by_key(|&i| sizes[i]).expect("k >= 1")
        };

        let mut processed = 0usize;
        let mut source = EdgeStreamSource::new(g, order);
        while let Some(Edge { src, dst }) = source.next_edge() {
            for (a, b) in [(src, dst), (dst, src)] {
                let list = &mut observed[a as usize];
                if list.len() < NEIGHBOR_CAP {
                    list.push(b);
                }
            }
            match (owner[src as usize], owner[dst as usize]) {
                (UNASSIGNED, UNASSIGNED) => {
                    let p = least_loaded(&sizes);
                    owner[src as usize] = p as PartitionId;
                    owner[dst as usize] = p as PartitionId;
                    sizes[p] += 2;
                }
                (p, UNASSIGNED) => {
                    let target = if (sizes[p as usize] as f64) < self.capacity {
                        p as usize
                    } else {
                        least_loaded(&sizes)
                    };
                    owner[dst as usize] = target as PartitionId;
                    sizes[target] += 1;
                }
                (UNASSIGNED, p) => {
                    let target = if (sizes[p as usize] as f64) < self.capacity {
                        p as usize
                    } else {
                        least_loaded(&sizes)
                    };
                    owner[src as usize] = target as PartitionId;
                    sizes[target] += 1;
                }
                (_, _) => {}
            }
            dirty.push(src);
            processed += 1;
            if processed.is_multiple_of(self.reassess_interval) {
                self.reassess(&mut owner, &mut sizes, &observed, &mut dirty);
            }
        }
        // Park any isolated stragglers.
        for slot in owner.iter_mut() {
            if *slot == UNASSIGNED {
                let p = least_loaded(&sizes);
                *slot = p as PartitionId;
                sizes[p] += 1;
            }
        }
        Partitioning::from_vertex_owners(g, self.k, owner)
    }

    /// Moves each candidate vertex to its observed-plurality partition
    /// when that improves locality and keeps balance.
    fn reassess(
        &self,
        owner: &mut [PartitionId],
        sizes: &mut [usize],
        observed: &[Vec<u32>],
        candidates: &mut Vec<u32>,
    ) {
        // IOGP reassesses a vertex only once its observed degree crosses
        // a threshold — low-degree vertices keep their initial placement.
        const REASSESS_DEGREE: usize = 8;
        for &v in candidates.iter() {
            let cur = owner[v as usize];
            if cur == PartitionId::MAX || observed[v as usize].len() < REASSESS_DEGREE {
                continue;
            }
            let mut conn = vec![0usize; self.k];
            for &w in &observed[v as usize] {
                let p = owner[w as usize];
                if p != PartitionId::MAX {
                    conn[p as usize] += 1;
                }
            }
            #[expect(
                clippy::expect_used,
                reason = "0..self.k is non-empty because PartitionerConfig::new asserts k >= 1"
            )]
            let best =
                (0..self.k).max_by_key(|&i| (conn[i], usize::MAX - sizes[i])).expect("k >= 1");
            if best != cur as usize
                && conn[best] > conn[cur as usize]
                && (sizes[best] as f64) < self.capacity
            {
                sizes[cur as usize] -= 1;
                sizes[best] += 1;
                owner[v as usize] = best as PartitionId;
            }
        }
        candidates.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_cut::{HashVertex, Ldg};
    use crate::metrics;
    use crate::streaming::run_vertex_stream;
    use sgp_graph::generators::{snb_social, SnbConfig};
    use sgp_trace::NullSink;

    fn graph() -> Graph {
        graph_with_seed(SnbConfig::default().seed)
    }

    fn graph_with_seed(seed: u64) -> Graph {
        snb_social(SnbConfig {
            persons: 2000,
            communities: 25,
            avg_friends: 10.0,
            seed,
            ..SnbConfig::default()
        })
    }

    #[test]
    fn iogp_assigns_every_vertex_in_range() {
        let g = graph();
        let cfg = PartitionerConfig::new(8);
        let p = IogpStyle::new(&cfg, g.num_vertices()).run(&g, StreamOrder::Random { seed: 1 });
        let owner = p.vertex_owner.as_ref().unwrap();
        assert_eq!(owner.len(), g.num_vertices());
        assert!(owner.iter().all(|&x| x < 8));
    }

    /// §4.1.2 says edge-cut on edge streams beats hash but loses to its
    /// vertex-stream counterpart. Over 10 graph seeds × 3 stream-order
    /// seeds the first half holds on every run by more than 0.3; the
    /// second does not show at this scale — LDG is ahead on 11 of the 30
    /// runs, single runs differ by up to 0.14 either way, and the mean
    /// cuts are 0.438 (LDG) vs 0.421 (IOGP-style) — so what is pinned is
    /// that the means stay within 0.03 of each other.
    #[test]
    fn iogp_beats_hash_and_ties_with_ldg() {
        let base = SnbConfig::default();
        let cfg = PartitionerConfig::new(8);
        let (mut iogp_sum, mut ldg_sum, mut runs) = (0.0, 0.0, 0.0);
        for graph_seed in base.seed..base.seed + 10 {
            let g = graph_with_seed(graph_seed);
            let n = g.num_vertices();
            let ecr = |p: &Partitioning| metrics::edge_cut_ratio(&g, p).unwrap();
            for order_seed in [4, 5, 6] {
                let order = StreamOrder::Random { seed: order_seed };
                let iogp = ecr(&IogpStyle::new(&cfg, n).run(&g, order));
                let mut hash = HashVertex::new(&cfg);
                let hash = ecr(&run_vertex_stream(&g, &mut hash, 8, order, &mut NullSink));
                let mut ldg = Ldg::new(&cfg, n);
                let ldg = ecr(&run_vertex_stream(&g, &mut ldg, 8, order, &mut NullSink));
                let at = format!("graph seed {graph_seed:#x}, order seed {order_seed}");
                assert!(iogp + 0.3 < hash, "{at}: IOGP-style {iogp:.3} vs hash {hash:.3}");
                assert!(ldg + 0.3 < hash, "{at}: LDG {ldg:.3} vs hash {hash:.3}");
                iogp_sum += iogp;
                ldg_sum += ldg;
                runs += 1.0;
            }
        }
        let (iogp, ldg) = (iogp_sum / runs, ldg_sum / runs);
        assert!((ldg - iogp).abs() < 0.03, "mean cut: LDG {ldg:.3} vs IOGP-style {iogp:.3}");
    }

    #[test]
    fn iogp_respects_balance_roughly() {
        let g = graph();
        let cfg = PartitionerConfig::new(8);
        let p = IogpStyle::new(&cfg, g.num_vertices()).run(&g, StreamOrder::Random { seed: 2 });
        let counts = p.vertices_per_partition().unwrap();
        let imb = metrics::load_imbalance(&counts);
        assert!(imb < 1.3, "vertex imbalance {imb:.2}");
    }

    #[test]
    fn iogp_deterministic() {
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        let a = IogpStyle::new(&cfg, g.num_vertices()).run(&g, StreamOrder::Bfs);
        let b = IogpStyle::new(&cfg, g.num_vertices()).run(&g, StreamOrder::Bfs);
        assert_eq!(a.vertex_owner, b.vertex_owner);
    }

    #[test]
    fn iogp_handles_isolated_vertices() {
        let g = sgp_graph::GraphBuilder::new().add_edge(0, 1).ensure_vertices(10).build();
        let cfg = PartitionerConfig::new(3);
        let p = IogpStyle::new(&cfg, 10).run(&g, StreamOrder::Natural);
        assert!(p.vertex_owner.unwrap().iter().all(|&x| x < 3));
    }
}
