//! From-scratch multilevel graph partitioner — the offline `MTS`
//! baseline.
//!
//! The paper uses METIS as "the de facto standard for large-scale graph
//! partitioning", run as a pre-processing step. This module implements
//! the same multilevel scheme (Karypis & Kumar):
//!
//! 1. **Coarsening** by heavy-edge matching until the graph is small;
//! 2. **Initial partitioning** of the coarsest graph with a greedy
//!    LDG-style growing heuristic;
//! 3. **Uncoarsening + refinement** with Fiduccia–Mattheyses-style
//!    boundary passes at every level.
//!
//! Vertex weights are supported so the workload-aware experiment
//! (Fig. 8) can partition the access-weighted graph with the same code.

use crate::assignment::{PartitionId, Partitioning};
use sgp_graph::sampling::{seeded_rng, shuffle, Rng};
use sgp_graph::Graph;

/// Tuning knobs of the multilevel partitioner.
#[derive(Debug, Clone, Copy)]
pub struct MultilevelConfig {
    /// Balance slack β (Eq. 1): every part ≤ β·W/k.
    pub balance_slack: f64,
    /// Stop coarsening when at most `coarsest_factor · k` vertices remain.
    pub coarsest_factor: usize,
    /// FM refinement passes per level.
    pub refinement_passes: usize,
    /// Seed for matching/visit orders.
    pub seed: u64,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            balance_slack: 1.05,
            coarsest_factor: 8,
            refinement_passes: 8,
            seed: 0x3417,
        }
    }
}

/// The multilevel partitioner (see module docs).
#[derive(Debug, Clone, Default)]
pub struct MultilevelPartitioner {
    cfg: MultilevelConfig,
}

/// Internal weighted undirected graph in CSR form.
#[derive(Debug, Clone)]
struct WGraph {
    xadj: Vec<usize>,
    adj: Vec<u32>,
    wadj: Vec<u64>,
    vw: Vec<u64>,
}

impl WGraph {
    fn n(&self) -> usize {
        self.vw.len()
    }

    fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, u64)> + '_ {
        let (s, t) = (self.xadj[v as usize], self.xadj[v as usize + 1]);
        self.adj[s..t].iter().copied().zip(self.wadj[s..t].iter().copied())
    }

    fn total_vertex_weight(&self) -> u64 {
        self.vw.iter().sum()
    }

    /// Builds the undirected weighted view of `g`: parallel/bidirectional
    /// edges merge with summed weight, self-loops are dropped.
    fn from_graph(g: &Graph, vertex_weights: Option<&[u64]>) -> Self {
        let n = g.num_vertices();
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(g.num_edges() * 2);
        for e in g.edges() {
            if !e.is_loop() {
                pairs.push((e.src, e.dst));
                pairs.push((e.dst, e.src));
            }
        }
        pairs.sort_unstable();
        let mut xadj = vec![0usize; n + 1];
        let mut adj: Vec<u32> = Vec::with_capacity(pairs.len());
        let mut wadj: Vec<u64> = Vec::with_capacity(pairs.len());
        let mut i = 0;
        while i < pairs.len() {
            let (u, v) = pairs[i];
            let mut w = 0u64;
            while i < pairs.len() && pairs[i] == (u, v) {
                w += 1;
                i += 1;
            }
            adj.push(v);
            wadj.push(w);
            xadj[u as usize + 1] += 1;
        }
        for v in 0..n {
            xadj[v + 1] += xadj[v];
        }
        let vw = match vertex_weights {
            Some(w) => {
                assert_eq!(w.len(), n, "vertex weight vector must cover every vertex");
                w.to_vec()
            }
            None => vec![1u64; n],
        };
        WGraph { xadj, adj, wadj, vw }
    }
}

impl MultilevelPartitioner {
    /// Creates a partitioner with the given configuration.
    pub fn new(cfg: MultilevelConfig) -> Self {
        MultilevelPartitioner { cfg }
    }

    /// Partitions `g` into `k` parts; returns the vertex ownership map.
    pub fn partition(&self, g: &Graph, k: usize) -> Vec<PartitionId> {
        self.partition_weighted(g, k, None)
    }

    /// Partitions `g` into `k` parts balancing the given vertex weights
    /// (e.g. access counts for the Fig. 8 workload-aware experiment).
    pub fn partition_weighted(
        &self,
        g: &Graph,
        k: usize,
        vertex_weights: Option<&[u64]>,
    ) -> Vec<PartitionId> {
        assert!(k >= 1, "need at least one partition");
        let n = g.num_vertices();
        if n == 0 {
            return Vec::new();
        }
        if k == 1 {
            return vec![0; n];
        }
        let wg = WGraph::from_graph(g, vertex_weights);

        self.multilevel(&wg, k)
    }

    /// Convenience: wraps [`Self::partition`] into an edge-cut
    /// [`Partitioning`] (Appendix-B edge placement).
    pub fn partitioning(&self, g: &Graph, k: usize) -> Partitioning {
        Partitioning::from_vertex_owners(g, k, self.partition(g, k))
    }

    fn multilevel(&self, wg: &WGraph, k: usize) -> Vec<PartitionId> {
        let target = (self.cfg.coarsest_factor * k).max(64);
        // Coarsening phase: remember the mapping at each level.
        let mut levels: Vec<(WGraph, Vec<u32>)> = Vec::new(); // (finer graph, fine->coarse map)
        let mut current = wg.clone();
        let mut rng = seeded_rng(self.cfg.seed);
        while current.n() > target {
            let (coarse, map) = coarsen(&current, &mut rng);
            if coarse.n() as f64 > 0.95 * current.n() as f64 {
                break; // matching stalled (e.g. star graphs)
            }
            levels.push((current, map));
            current = coarse;
        }
        // Initial partition of the coarsest graph.
        let cap = capacity(current.total_vertex_weight(), k, self.cfg.balance_slack);
        let mut assign = initial_partition(&current, k, cap, &mut rng);
        refine(&current, k, cap, self.cfg.refinement_passes, &mut assign, &mut rng);
        // Uncoarsen and refine at every level.
        while let Some((finer, map)) = levels.pop() {
            let mut fine_assign = vec![0 as PartitionId; finer.n()];
            for v in 0..finer.n() {
                fine_assign[v] = assign[map[v] as usize];
            }
            let cap = capacity(finer.total_vertex_weight(), k, self.cfg.balance_slack);
            refine(&finer, k, cap, self.cfg.refinement_passes, &mut fine_assign, &mut rng);
            assign = fine_assign;
        }
        assign
    }
}

fn capacity(total: u64, k: usize, slack: f64) -> u64 {
    ((total as f64 * slack / k as f64).ceil() as u64).max(1)
}

/// Heavy-edge matching contraction: returns the coarser graph and the
/// fine→coarse vertex map.
fn coarsen(wg: &WGraph, rng: &mut Rng) -> (WGraph, Vec<u32>) {
    let n = wg.n();
    let mut order: Vec<u32> = (0..n as u32).collect();
    shuffle(&mut order, rng);
    const UNMATCHED: u32 = u32::MAX;
    let mut mate = vec![UNMATCHED; n];
    for &v in &order {
        if mate[v as usize] != UNMATCHED {
            continue;
        }
        let mut best: Option<(u64, u32)> = None;
        for (w, weight) in wg.neighbors(v) {
            if w != v && mate[w as usize] == UNMATCHED && best.is_none_or(|(bw, _)| weight > bw) {
                best = Some((weight, w));
            }
        }
        match best {
            Some((_, w)) => {
                mate[v as usize] = w;
                mate[w as usize] = v;
            }
            None => mate[v as usize] = v,
        }
    }
    // Assign coarse ids.
    let mut map = vec![u32::MAX; n];
    let mut next = 0u32;
    for v in 0..n as u32 {
        if map[v as usize] != u32::MAX {
            continue;
        }
        map[v as usize] = next;
        let m = mate[v as usize];
        if m != v && m != UNMATCHED {
            map[m as usize] = next;
        }
        next += 1;
    }
    let cn = next as usize;
    // Aggregate vertex weights and edges.
    let mut vw = vec![0u64; cn];
    for v in 0..n {
        vw[map[v] as usize] += wg.vw[v];
    }
    let mut pairs: Vec<(u32, u32, u64)> = Vec::with_capacity(wg.adj.len());
    for v in 0..n as u32 {
        let cv = map[v as usize];
        for (w, weight) in wg.neighbors(v) {
            let cw = map[w as usize];
            if cv != cw {
                pairs.push((cv, cw, weight));
            }
        }
    }
    pairs.sort_unstable_by_key(|&(a, b, _)| (a, b));
    let mut xadj = vec![0usize; cn + 1];
    let mut adj = Vec::with_capacity(pairs.len());
    let mut wadj = Vec::with_capacity(pairs.len());
    let mut i = 0;
    while i < pairs.len() {
        let (a, b, _) = pairs[i];
        let mut w = 0u64;
        while i < pairs.len() && pairs[i].0 == a && pairs[i].1 == b {
            w += pairs[i].2;
            i += 1;
        }
        adj.push(b);
        wadj.push(w);
        xadj[a as usize + 1] += 1;
    }
    for v in 0..cn {
        xadj[v + 1] += xadj[v];
    }
    (WGraph { xadj, adj, wadj, vw }, map)
}

/// Greedy LDG-style initial partition of the coarsest graph.
fn initial_partition(wg: &WGraph, k: usize, cap: u64, rng: &mut Rng) -> Vec<PartitionId> {
    let n = wg.n();
    let mut order: Vec<u32> = (0..n as u32).collect();
    shuffle(&mut order, rng);
    let mut assign = vec![PartitionId::MAX; n];
    let mut loads = vec![0u64; k];
    for &v in &order {
        let mut conn = vec![0u64; k];
        for (w, weight) in wg.neighbors(v) {
            let p = assign[w as usize];
            if p != PartitionId::MAX {
                conn[p as usize] += weight;
            }
        }
        let mut best: Option<(f64, u64, usize)> = None;
        for i in 0..k {
            if loads[i] + wg.vw[v as usize] > cap {
                continue;
            }
            let score = conn[i] as f64 * (1.0 - loads[i] as f64 / cap as f64);
            let cand = (score, loads[i], i);
            best = Some(match best {
                None => cand,
                Some(b) if score > b.0 || (score == b.0 && loads[i] < b.1) => cand,
                Some(b) => b,
            });
        }
        let p = best.map(|(_, _, i)| i).unwrap_or_else(|| {
            // All at capacity: least loaded (slack rounding can cause this).
            // sgp-lint: allow(no-panic-in-lib): 0..k is non-empty because PartitionerConfig::new asserts k >= 1
            (0..k).min_by_key(|&i| loads[i]).expect("k >= 1")
        });
        assign[v as usize] = p as PartitionId;
        loads[p] += wg.vw[v as usize];
    }
    assign
}

/// Fiduccia–Mattheyses boundary refinement with hill climbing: each pass
/// greedily applies the globally best move (even when its gain is
/// negative, to escape local minima), locks moved vertices, and finally
/// rolls back to the best prefix of the move sequence — the classic
/// KL/FM scheme METIS uses at every uncoarsening level.
fn refine(
    wg: &WGraph,
    k: usize,
    cap: u64,
    passes: usize,
    assign: &mut [PartitionId],
    rng: &mut Rng,
) {
    let n = wg.n();
    let mut loads = vec![0u64; k];
    for v in 0..n {
        loads[assign[v] as usize] += wg.vw[v];
    }
    // Best admissible move for `v`: (gain, target). Gain may be negative.
    let best_move = |v: u32, assign: &[PartitionId], loads: &[u64]| -> Option<(i64, usize)> {
        let cur = assign[v as usize] as usize;
        let mut conn = vec![0u64; k];
        let mut boundary = false;
        for (w, weight) in wg.neighbors(v) {
            let p = assign[w as usize] as usize;
            conn[p] += weight;
            if p != cur {
                boundary = true;
            }
        }
        if !boundary {
            return None;
        }
        let internal = conn[cur] as i64;
        let mut best: Option<(i64, usize)> = None;
        for (i, &c) in conn.iter().enumerate() {
            if i == cur || c == 0 || loads[i] + wg.vw[v as usize] > cap {
                continue;
            }
            let gain = c as i64 - internal;
            if best.is_none_or(|(bg, bi)| gain > bg || (gain == bg && loads[i] < loads[bi])) {
                best = Some((gain, i));
            }
        }
        best
    };

    let mut order: Vec<u32> = (0..n as u32).collect();
    for pass in 0..passes {
        shuffle(&mut order, rng);
        // Max-heap of candidate moves with lazy revalidation.
        let mut heap: std::collections::BinaryHeap<(i64, u32, u32)> =
            std::collections::BinaryHeap::new();
        for &v in &order {
            if let Some((gain, target)) = best_move(v, assign, &loads) {
                heap.push((gain, v, target as u32));
            }
        }
        let mut locked = vec![false; n];
        let mut applied: Vec<(u32, PartitionId, PartitionId)> = Vec::new(); // (v, from, to)
        let mut cum = 0i64;
        let mut best_cum = 0i64;
        let mut best_len = 0usize;
        let move_budget = n.max(16);
        while let Some((gain, v, target)) = heap.pop() {
            if locked[v as usize] || applied.len() >= move_budget {
                continue;
            }
            // Lazy revalidation: the neighbourhood may have changed since
            // this entry was pushed.
            match best_move(v, assign, &loads) {
                Some((g2, t2)) if g2 == gain && t2 == target as usize => {}
                Some((g2, t2)) => {
                    heap.push((g2, v, t2 as u32));
                    continue;
                }
                None => continue,
            }
            // Stop exploring a hopeless downhill streak.
            if cum + gain < best_cum - (wg.adj.len() as i64 / 10).max(8) {
                break;
            }
            let from = assign[v as usize];
            loads[from as usize] -= wg.vw[v as usize];
            loads[target as usize] += wg.vw[v as usize];
            assign[v as usize] = target as PartitionId;
            locked[v as usize] = true;
            applied.push((v, from, target as PartitionId));
            cum += gain;
            if cum > best_cum {
                best_cum = cum;
                best_len = applied.len();
            }
            // Refresh unlocked neighbours' candidate moves.
            for (w, _) in wg.neighbors(v) {
                if !locked[w as usize] {
                    if let Some((g, t)) = best_move(w, assign, &loads) {
                        heap.push((g, w, t as u32));
                    }
                }
            }
        }
        // Roll back past the best prefix.
        for &(v, from, _to) in applied[best_len..].iter().rev() {
            let cur = assign[v as usize];
            loads[cur as usize] -= wg.vw[v as usize];
            loads[from as usize] += wg.vw[v as usize];
            assign[v as usize] = from;
        }
        if best_cum <= 0 && pass > 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionerConfig;
    use crate::edge_cut::{Fennel, HashVertex};
    use crate::metrics;
    use crate::streaming::run_vertex_stream;
    use sgp_graph::generators::{road_grid, snb_social, RoadConfig, SnbConfig};
    use sgp_graph::{GraphBuilder, StreamOrder};
    use sgp_trace::NullSink;

    #[test]
    fn metis_two_cliques_optimal_cut() {
        let mut b = GraphBuilder::new();
        for base in [0u32, 8u32] {
            for i in 0..8 {
                for j in 0..8 {
                    if i != j {
                        b.push_edge(base + i, base + j);
                    }
                }
            }
        }
        b.push_edge(0, 8);
        let g = b.build();
        let owner = MultilevelPartitioner::default().partition(&g, 2);
        let ecr = metrics::edge_cut_ratio_from_owner(&g, &owner);
        assert!(ecr <= 1.5 / g.num_edges() as f64 + 1e-9, "should cut only the bridge: {ecr}");
    }

    #[test]
    fn metis_beats_streaming_on_community_graph() {
        let g = snb_social(SnbConfig {
            persons: 2000,
            communities: 25,
            avg_friends: 10.0,
            ..SnbConfig::default()
        });
        let cfg = PartitionerConfig::new(8);
        let mts = MultilevelPartitioner::default().partitioning(&g, 8);
        let fnl = run_vertex_stream(
            &g,
            &mut Fennel::new(&cfg, g.num_vertices(), g.num_edges()),
            8,
            StreamOrder::Random { seed: 3 },
            &mut NullSink,
        );
        let hash = run_vertex_stream(
            &g,
            &mut HashVertex::new(&cfg),
            8,
            StreamOrder::Natural,
            &mut NullSink,
        );
        let e_mts = metrics::edge_cut_ratio(&g, &mts).unwrap();
        let e_fnl = metrics::edge_cut_ratio(&g, &fnl).unwrap();
        let e_hash = metrics::edge_cut_ratio(&g, &hash).unwrap();
        // Table 4 ordering: MTS < FNL < ECR.
        assert!(e_mts < e_fnl, "MTS {e_mts} should beat FENNEL {e_fnl}");
        assert!(e_fnl < e_hash, "FENNEL {e_fnl} should beat hash {e_hash}");
    }

    #[test]
    fn metis_respects_balance() {
        let g = road_grid(RoadConfig { width: 40, height: 40, ..RoadConfig::default() });
        let owner = MultilevelPartitioner::default().partition(&g, 4);
        let mut counts = vec![0usize; 4];
        for &p in &owner {
            counts[p as usize] += 1;
        }
        let imb = metrics::load_imbalance(&counts);
        assert!(imb <= 1.06, "imbalance {imb} exceeds slack");
    }

    #[test]
    fn metis_on_road_network_cuts_little() {
        let g = road_grid(RoadConfig { width: 40, height: 40, ..RoadConfig::default() });
        let owner = MultilevelPartitioner::default().partition(&g, 4);
        let ecr = metrics::edge_cut_ratio_from_owner(&g, &owner);
        // A 40x40 lattice 4-way cut needs ~2*40 of ~5600 directed edges.
        assert!(ecr < 0.1, "lattice edge-cut ratio {ecr}");
    }

    #[test]
    fn weighted_partition_balances_weights_not_counts() {
        // Path of 12 vertices; vertex 0 carries almost all the weight.
        let mut b = GraphBuilder::new();
        for i in 0..11u32 {
            b.push_edge(i, i + 1);
            b.push_edge(i + 1, i);
        }
        let g = b.build();
        let mut w = vec![1u64; 12];
        w[0] = 11;
        let owner = MultilevelPartitioner::default().partition_weighted(&g, 2, Some(&w));
        let mut loads = [0u64; 2];
        for (v, &p) in owner.iter().enumerate() {
            loads[p as usize] += w[v];
        }
        let imb = *loads.iter().max().unwrap() as f64 / (loads.iter().sum::<u64>() as f64 / 2.0);
        assert!(imb <= 1.2, "weighted imbalance {imb}");
    }

    #[test]
    fn k_one_is_trivial() {
        let g = road_grid(RoadConfig { width: 10, height: 10, ..RoadConfig::default() });
        let owner = MultilevelPartitioner::default().partition(&g, 1);
        assert!(owner.iter().all(|&p| p == 0));
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = GraphBuilder::new().build();
        assert!(MultilevelPartitioner::default().partition(&g, 4).is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let g = snb_social(SnbConfig {
            persons: 800,
            communities: 10,
            avg_friends: 8.0,
            ..SnbConfig::default()
        });
        let p = MultilevelPartitioner::default();
        assert_eq!(p.partition(&g, 4), p.partition(&g, 4));
    }
}
