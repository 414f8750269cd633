//! Seeded edge insert/delete stream generators — the dynamic-graph
//! workload of the churn scenario (DESIGN.md §12).
//!
//! The paper evaluates one-pass partitioners on *static* edge streams;
//! the restreaming line of work (Nishimura & Ugander; Le Merrer et al.)
//! asks what happens when the graph keeps changing underneath the
//! partitioning. [`ChurnStream`] turns an immutable seed [`Graph`] into
//! a deterministic sequence of batches: each batch deletes a seeded
//! sample of existing edges, inserts a seeded sample of fresh ones, and
//! yields the rebuilt graph, so a consumer can measure partition-quality
//! drift and decide when to repartition.
//!
//! Determinism contract: all randomness derives from
//! [`ChurnConfig::seed`] through the workspace RNG, membership is kept
//! in insertion-ordered vectors plus a [`BTreeSet`] (never a hash map),
//! and the rebuilt graphs go through [`GraphBuilder`]'s canonical
//! dedup/sort pipeline — the same `(graph, config)` always produces
//! byte-identical batches.

use crate::builder::GraphBuilder;
use crate::csr::Graph;
use crate::sampling::{seeded_rng, Rng};
use crate::types::{Edge, VertexId};
use std::collections::BTreeSet;

/// Shape of the churn workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnConfig {
    /// Number of batches the stream yields.
    pub batches: usize,
    /// Fresh edges inserted per batch (rejection-sampled against the
    /// current membership; a batch may fall short on dense graphs).
    pub inserts_per_batch: usize,
    /// Existing edges deleted per batch (capped by the edges present).
    pub deletes_per_batch: usize,
    /// Seed for every sampling decision.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig { batches: 8, inserts_per_batch: 64, deletes_per_batch: 64, seed: 0xC4C4_0001 }
    }
}

/// One mutation of the dynamic edge stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    /// A fresh edge arrives.
    Insert(Edge),
    /// An existing edge is retracted.
    Delete(Edge),
}

/// One batch of churn: the ops applied plus the graph rebuilt after
/// applying them (same vertex universe as the seed graph).
#[derive(Debug, Clone)]
pub struct ChurnBatch {
    /// 0-based batch index.
    pub index: usize,
    /// Deletions first, then insertions, each in sampling order.
    pub ops: Vec<ChurnOp>,
    /// The graph after this batch (CSR, canonical builder pipeline).
    pub graph: Graph,
}

/// Deterministic generator of [`ChurnBatch`]es over a seed graph.
#[derive(Debug, Clone)]
pub struct ChurnStream {
    edges: Vec<Edge>,
    present: BTreeSet<(VertexId, VertexId)>,
    n: usize,
    rng: Rng,
    cfg: ChurnConfig,
    emitted: usize,
}

impl ChurnStream {
    /// Creates the stream over `g`'s edge set; the vertex universe stays
    /// fixed at `g.num_vertices()` while edges churn.
    pub fn new(g: &Graph, cfg: ChurnConfig) -> Self {
        let edges: Vec<Edge> = g.edges().collect();
        let present = edges.iter().map(|e| (e.src, e.dst)).collect();
        ChurnStream {
            edges,
            present,
            n: g.num_vertices(),
            rng: seeded_rng(cfg.seed),
            cfg,
            emitted: 0,
        }
    }

    /// Produces the next batch, or `None` once
    /// [`ChurnConfig::batches`] have been emitted.
    pub fn next_batch(&mut self) -> Option<ChurnBatch> {
        if self.emitted >= self.cfg.batches {
            return None;
        }
        let index = self.emitted;
        self.emitted += 1;
        let mut ops = Vec::with_capacity(self.cfg.deletes_per_batch + self.cfg.inserts_per_batch);
        for _ in 0..self.cfg.deletes_per_batch {
            if self.edges.is_empty() {
                break;
            }
            let idx = self.rng.index(self.edges.len());
            // Ordered removal keeps the membership vector a pure function
            // of the op sequence (swap_remove would depend on length
            // history in a more fragile way and reorder survivors).
            let e = self.edges.remove(idx);
            self.present.remove(&(e.src, e.dst));
            ops.push(ChurnOp::Delete(e));
        }
        for _ in 0..self.cfg.inserts_per_batch {
            if self.n < 2 {
                break;
            }
            // Bounded rejection sampling: a dense graph may reject every
            // draw, in which case the batch simply inserts fewer edges —
            // deterministically, since the draw count is bounded.
            for _attempt in 0..32 {
                let src = self.rng.index(self.n) as VertexId;
                let dst = self.rng.index(self.n) as VertexId;
                if src == dst || self.present.contains(&(src, dst)) {
                    continue;
                }
                let e = Edge::new(src, dst);
                self.present.insert((src, dst));
                self.edges.push(e);
                ops.push(ChurnOp::Insert(e));
                break;
            }
        }
        let mut b = GraphBuilder::with_capacity(self.edges.len()).ensure_vertices(self.n);
        for e in &self.edges {
            b.push_edge(e.src, e.dst);
        }
        Some(ChurnBatch { index, ops, graph: b.build() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{erdos_renyi, ErdosRenyiConfig};

    fn seed_graph() -> Graph {
        erdos_renyi(ErdosRenyiConfig { vertices: 120, edges: 600, seed: 5 })
    }

    fn collect(cfg: ChurnConfig) -> Vec<ChurnBatch> {
        let g = seed_graph();
        let mut s = ChurnStream::new(&g, cfg);
        std::iter::from_fn(|| s.next_batch()).collect()
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let cfg = ChurnConfig::default();
        let a = collect(cfg);
        let b = collect(cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.ops, y.ops, "batch {}", x.index);
            assert_eq!(
                x.graph.edges().collect::<Vec<_>>(),
                y.graph.edges().collect::<Vec<_>>(),
                "batch {}",
                x.index
            );
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = collect(ChurnConfig::default());
        let b = collect(ChurnConfig { seed: 99, ..ChurnConfig::default() });
        assert_ne!(a[0].ops, b[0].ops);
    }

    #[test]
    fn batch_count_and_vertex_universe_hold() {
        let cfg = ChurnConfig { batches: 5, ..ChurnConfig::default() };
        let batches = collect(cfg);
        assert_eq!(batches.len(), 5);
        for b in &batches {
            assert_eq!(b.graph.num_vertices(), seed_graph().num_vertices());
        }
    }

    #[test]
    fn ops_match_membership_delta() {
        let g = seed_graph();
        let mut s = ChurnStream::new(&g, ChurnConfig::default());
        let before = s.edges.len();
        let b = s.next_batch().unwrap();
        let deletes = b.ops.iter().filter(|o| matches!(o, ChurnOp::Delete(_))).count();
        let inserts = b.ops.iter().filter(|o| matches!(o, ChurnOp::Insert(_))).count();
        assert_eq!(s.edges.len(), before - deletes + inserts);
        assert_eq!(b.graph.num_edges(), s.edges.len());
    }

    #[test]
    fn deletes_only_existing_inserts_only_fresh() {
        let g = seed_graph();
        let mut membership: BTreeSet<(VertexId, VertexId)> =
            g.edges().map(|e| (e.src, e.dst)).collect();
        let mut s = ChurnStream::new(&g, ChurnConfig::default());
        while let Some(b) = s.next_batch() {
            for op in &b.ops {
                match *op {
                    ChurnOp::Delete(e) => {
                        assert!(membership.remove(&(e.src, e.dst)), "deleted a missing edge")
                    }
                    ChurnOp::Insert(e) => {
                        assert_ne!(e.src, e.dst, "inserted a self-loop");
                        assert!(membership.insert((e.src, e.dst)), "inserted a duplicate")
                    }
                }
            }
            assert_eq!(b.graph.num_edges(), membership.len());
        }
    }

    #[test]
    fn empty_graph_inserts_without_panicking() {
        let g = GraphBuilder::new().ensure_vertices(10).build();
        let mut s = ChurnStream::new(&g, ChurnConfig { batches: 2, ..ChurnConfig::default() });
        let b = s.next_batch().unwrap();
        assert!(b.ops.iter().all(|o| matches!(o, ChurnOp::Insert(_))));
        assert!(b.graph.num_edges() > 0);
    }
}
