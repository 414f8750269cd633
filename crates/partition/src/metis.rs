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
#![expect(
    clippy::indexing_slicing,
    reason = "offline multilevel partitioner: coarsening match/map arrays are sized per level before use, and refinement indexes gains by ids created during the same level"
)]

use crate::assignment::{PartitionId, Partitioning};
use sgp_graph::sampling::{seeded_rng, shuffle, Rng};
use sgp_graph::Graph;
use std::collections::BinaryHeap;

/// Tuning knobs of the multilevel partitioner.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MultilevelConfig {
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

/// Exact work counts of one multilevel run. Host-independent sums; the
/// `partition*` entry points drop them, so they reach no output.
#[derive(Debug, Default)]
struct MultilevelStats {
    /// Graphs refined: the coarsest and every finer level.
    levels: u64,
    /// Best-move evaluations.
    best_move_calls: u64,
    /// Connectivity-row entries those evaluations scanned.
    row_entries_scanned: u64,
    /// Adjacency entries refinement read: row builds, row shifts on every
    /// move and rollback, and the candidate refreshes after a move.
    neighbor_visits: u64,
    /// Candidate moves pushed onto a pass's heap.
    heap_pushes: u64,
    /// Moves a pass applied.
    moves_applied: u64,
    /// Applied moves undone by the rollback to a pass's best prefix.
    moves_rolled_back: u64,
}

/// Internal weighted undirected graph in CSR form.
#[derive(Debug)]
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

    fn degree(&self, v: u32) -> usize {
        self.xadj[v as usize + 1] - self.xadj[v as usize]
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
        // Reserve exactly: a graph that stores both directions of an edge
        // has every pair twice, and the level lives as long as the run.
        let distinct = pairs.len() - pairs.windows(2).filter(|w| w[0] == w[1]).count();
        let mut xadj = vec![0usize; n + 1];
        let mut adj: Vec<u32> = Vec::with_capacity(distinct);
        let mut wadj: Vec<u64> = Vec::with_capacity(distinct);
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
    /// Partitions `g` into `k` parts; returns the vertex ownership map.
    pub(crate) fn partition(&self, g: &Graph, k: usize) -> Vec<PartitionId> {
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
        self.multilevel(WGraph::from_graph(g, vertex_weights), k).0
    }

    /// Convenience: wraps [`Self::partition`] into an edge-cut
    /// [`Partitioning`] (Appendix-B edge placement).
    pub(crate) fn partitioning(&self, g: &Graph, k: usize) -> Partitioning {
        Partitioning::from_vertex_owners(g, k, self.partition(g, k))
    }

    fn multilevel(&self, wg: WGraph, k: usize) -> (Vec<PartitionId>, MultilevelStats) {
        let target = (self.cfg.coarsest_factor * k).max(64);
        let mut stats = MultilevelStats::default();
        // Coarsening phase: remember the mapping at each level.
        let mut levels: Vec<(WGraph, Vec<u32>)> = Vec::new(); // (finer graph, fine->coarse map)
        let mut current = wg;
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
        refine(&current, k, cap, self.cfg.refinement_passes, &mut assign, &mut stats);
        // Uncoarsen and refine at every level.
        while let Some((finer, map)) = levels.pop() {
            let mut fine_assign = vec![0 as PartitionId; finer.n()];
            for v in 0..finer.n() {
                fine_assign[v] = assign[map[v] as usize];
            }
            let cap = capacity(finer.total_vertex_weight(), k, self.cfg.balance_slack);
            refine(&finer, k, cap, self.cfg.refinement_passes, &mut fine_assign, &mut stats);
            assign = fine_assign;
        }
        (assign, stats)
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
    let mut conn = vec![0u64; k];
    for &v in &order {
        conn.fill(0);
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
        #[expect(
            clippy::expect_used,
            reason = "0..k is non-empty because PartitionerConfig::new asserts k >= 1"
        )]
        let p = best.map(|(_, _, i)| i).unwrap_or_else(|| {
            // All at capacity: least loaded (slack rounding can cause this).
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
///
/// Gains are read from [`ConnRows`], kept current across every move and
/// rollback of the level, so evaluating a vertex never revisits its
/// neighbours. The heap's pop order depends only on the multiset of
/// `(gain, vertex, target)` entries, so the order candidates are pushed
/// in is immaterial.
fn refine(
    wg: &WGraph,
    k: usize,
    cap: u64,
    passes: usize,
    assign: &mut [PartitionId],
    stats: &mut MultilevelStats,
) {
    let n = wg.n();
    stats.levels += 1;
    let mut loads = vec![0u64; k];
    for v in 0..n {
        loads[assign[v] as usize] += wg.vw[v];
    }
    let mut rows = ConnRows::build(wg, k, assign, stats);
    // Best admissible move for `v`: (gain, target). Gain may be negative.
    let best_move = |rows: &ConnRows<'_>,
                     v: u32,
                     assign: &[PartitionId],
                     loads: &[u64],
                     stats: &mut MultilevelStats| {
        let v = v as usize;
        rows.best_move(v, assign[v] as usize, wg.vw[v], loads, cap, stats)
    };

    for pass in 0..passes {
        // Max-heap of candidate moves with lazy revalidation.
        let mut heap: BinaryHeap<(i64, u32, u32)> = BinaryHeap::new();
        for v in 0..n as u32 {
            if let Some((gain, target)) = best_move(&rows, v, assign, &loads, stats) {
                heap.push((gain, v, target as u32));
                stats.heap_pushes += 1;
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
            match best_move(&rows, v, assign, &loads, stats) {
                Some((g2, t2)) if g2 == gain && t2 == target as usize => {}
                Some((g2, t2)) => {
                    heap.push((g2, v, t2 as u32));
                    stats.heap_pushes += 1;
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
            stats.moves_applied += 1;
            cum += gain;
            if cum > best_cum {
                best_cum = cum;
                best_len = applied.len();
            }
            // Shift every neighbour's row, then refresh the unlocked
            // ones' candidate moves (a row depends on no other row).
            for (w, weight) in wg.neighbors(v) {
                rows.shift(w as usize, from, target, weight);
                if !locked[w as usize] {
                    if let Some((g, t)) = best_move(&rows, w, assign, &loads, stats) {
                        heap.push((g, w, t as u32));
                        stats.heap_pushes += 1;
                    }
                }
            }
            stats.neighbor_visits += wg.degree(v) as u64;
        }
        // Roll back past the best prefix.
        for &(v, from, to) in applied[best_len..].iter().rev() {
            loads[to as usize] -= wg.vw[v as usize];
            loads[from as usize] += wg.vw[v as usize];
            assign[v as usize] = from;
            for (w, weight) in wg.neighbors(v) {
                rows.shift(w as usize, to, from, weight);
            }
            stats.neighbor_visits += wg.degree(v) as u64;
        }
        stats.moves_rolled_back += (applied.len() - best_len) as u64;
        if best_cum <= 0 && pass > 0 {
            break;
        }
    }
}

/// Every vertex's connectivity row for one level: the summed weight of
/// its edges into each part, kept current across moves instead of being
/// recounted from the adjacency on every evaluation.
///
/// Row `v` lives in `v`'s own adjacency slots, from `xadj[v]`. If
/// `deg(v) ≥ k` it is **dense**: `weight[xadj[v] + p]` is the weight into
/// part `p`. Otherwise it is **sparse**: `len[v]` pairs
/// `(part, weight)`, in any order, one per part with weight > 0. A part
/// has weight > 0 only if a neighbour sits in it (edge weights are ≥ 1),
/// so a sparse row has at most `deg(v)` entries and never leaves its
/// slots.
struct ConnRows<'g> {
    xadj: &'g [usize],
    k: usize,
    part: Vec<PartitionId>,
    weight: Vec<u64>,
    len: Vec<u32>,
}

impl<'g> ConnRows<'g> {
    /// The rows of `wg` under `assign`, in one pass over the adjacency.
    fn build(
        wg: &'g WGraph,
        k: usize,
        assign: &[PartitionId],
        stats: &mut MultilevelStats,
    ) -> Self {
        let mut rows = ConnRows {
            xadj: &wg.xadj,
            k,
            part: vec![0; wg.adj.len()],
            weight: vec![0; wg.adj.len()],
            len: vec![0; wg.n()],
        };
        for v in 0..wg.n() {
            let (s, dense) = (wg.xadj[v], rows.is_dense(v));
            for (w, weight) in wg.neighbors(v as u32) {
                let p = assign[w as usize];
                if dense {
                    rows.weight[s + p as usize] += weight;
                    continue;
                }
                let len = rows.len[v] as usize;
                match rows.part[s..s + len].iter().position(|&q| q == p) {
                    Some(i) => rows.weight[s + i] += weight,
                    None => {
                        rows.part[s + len] = p;
                        rows.weight[s + len] = weight;
                        rows.len[v] += 1;
                    }
                }
            }
        }
        stats.neighbor_visits += wg.adj.len() as u64;
        rows
    }

    fn is_dense(&self, v: usize) -> bool {
        self.xadj[v + 1] - self.xadj[v] >= self.k
    }

    /// Moves weight `w` of `v`'s row from part `from` to part `to`: a
    /// neighbour of `v`, joined to it by an edge of weight `w`, moved.
    fn shift(&mut self, v: usize, from: PartitionId, to: PartitionId, w: u64) {
        let s = self.xadj[v];
        if self.is_dense(v) {
            self.weight[s + from as usize] -= w;
            self.weight[s + to as usize] += w;
            return;
        }
        let len = self.len[v] as usize;
        let (mut at_from, mut at_to) = (len, len);
        for (i, &q) in self.part[s..s + len].iter().enumerate() {
            if q == from {
                at_from = i;
            } else if q == to {
                at_to = i;
            }
        }
        // `from` has an entry: the neighbour that moved sat in it.
        let f = s + at_from;
        self.weight[f] -= w;
        if at_to < len {
            self.weight[s + at_to] += w;
            if self.weight[f] == 0 {
                // Swap-remove the emptied entry.
                let last = s + len - 1;
                self.part[f] = self.part[last];
                self.weight[f] = self.weight[last];
                self.len[v] -= 1;
            }
        } else if self.weight[f] == 0 {
            // `to` takes over the emptied entry.
            self.part[f] = to;
            self.weight[f] = w;
        } else {
            self.part[s + len] = to;
            self.weight[s + len] = w;
            self.len[v] += 1;
        }
    }

    /// Best admissible move for `v` (weight `vw`, in part `cur`):
    /// `(gain, target)`, gain possibly negative, or `None` if no part
    /// with an edge from `v` has room. The target maximises the key
    /// (gain, −load, −part), which does not depend on the order the row
    /// is scanned in. A vertex with no edge into another part (an
    /// interior vertex) has no candidate.
    fn best_move(
        &self,
        v: usize,
        cur: usize,
        vw: u64,
        loads: &[u64],
        cap: u64,
        stats: &mut MultilevelStats,
    ) -> Option<(i64, usize)> {
        let s = self.xadj[v];
        stats.best_move_calls += 1;
        if self.is_dense(v) {
            stats.row_entries_scanned += self.k as u64;
            let row = self.weight[s..s + self.k].iter().copied().enumerate();
            best_target(row, cur, vw, loads, cap)
        } else {
            let len = self.len[v] as usize;
            stats.row_entries_scanned += len as u64;
            let parts = self.part[s..s + len].iter().map(|&p| p as usize);
            best_target(parts.zip(self.weight[s..s + len].iter().copied()), cur, vw, loads, cap)
        }
    }
}

/// [`ConnRows::best_move`] over one row's `(part, weight)` entries.
/// Comparing connectivity is comparing gain: the internal weight
/// subtracted from both is the same.
fn best_target(
    row: impl Iterator<Item = (usize, u64)>,
    cur: usize,
    vw: u64,
    loads: &[u64],
    cap: u64,
) -> Option<(i64, usize)> {
    let mut internal = 0u64;
    let mut best: Option<(u64, usize)> = None;
    for (i, c) in row {
        if i == cur {
            internal = c;
        } else if c > 0
            && loads[i] + vw <= cap
            && best.is_none_or(|(bc, bi)| c > bc || (c == bc && (loads[i], i) < (loads[bi], bi)))
        {
            best = Some((c, i));
        }
    }
    best.map(|(c, i)| (c as i64 - internal as i64, i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionerConfig;
    use crate::edge_cut::tests::{assert_no_twin_mismatch, Tally};
    use crate::edge_cut::{Fennel, HashVertex};
    use crate::metrics;
    use crate::streaming::run_vertex_stream;
    use sgp_graph::generators::{rmat, road_grid, snb_social, RmatConfig, RoadConfig, SnbConfig};
    use sgp_graph::sampling::check_cases;
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

    /// Textbook twin of [`refine`], the formulation the connectivity rows
    /// replaced: every evaluation recounts a fresh k-vector from the
    /// adjacency and checks an explicit `boundary` flag, and every pass
    /// shuffles the order candidates are pushed in. It counts its own
    /// work; a row entry is one of the k counters an evaluation scans.
    fn reference_refine(
        wg: &WGraph,
        k: usize,
        cap: u64,
        passes: usize,
        assign: &mut [PartitionId],
        rng: &mut Rng,
        stats: &mut MultilevelStats,
    ) {
        let n = wg.n();
        stats.levels += 1;
        let mut loads = vec![0u64; k];
        for v in 0..n {
            loads[assign[v] as usize] += wg.vw[v];
        }
        // Best admissible move for `v`: (gain, target). Gain may be negative.
        let best_move = |v: u32,
                         assign: &[PartitionId],
                         loads: &[u64],
                         stats: &mut MultilevelStats|
         -> Option<(i64, usize)> {
            stats.best_move_calls += 1;
            stats.neighbor_visits += wg.degree(v) as u64;
            stats.row_entries_scanned += k as u64;
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
            let mut heap: BinaryHeap<(i64, u32, u32)> = BinaryHeap::new();
            for &v in &order {
                if let Some((gain, target)) = best_move(v, assign, &loads, stats) {
                    heap.push((gain, v, target as u32));
                    stats.heap_pushes += 1;
                }
            }
            let mut locked = vec![false; n];
            let mut applied: Vec<(u32, PartitionId, PartitionId)> = Vec::new();
            let mut cum = 0i64;
            let mut best_cum = 0i64;
            let mut best_len = 0usize;
            let move_budget = n.max(16);
            while let Some((gain, v, target)) = heap.pop() {
                if locked[v as usize] || applied.len() >= move_budget {
                    continue;
                }
                match best_move(v, assign, &loads, stats) {
                    Some((g2, t2)) if g2 == gain && t2 == target as usize => {}
                    Some((g2, t2)) => {
                        heap.push((g2, v, t2 as u32));
                        stats.heap_pushes += 1;
                        continue;
                    }
                    None => continue,
                }
                if cum + gain < best_cum - (wg.adj.len() as i64 / 10).max(8) {
                    break;
                }
                let from = assign[v as usize];
                loads[from as usize] -= wg.vw[v as usize];
                loads[target as usize] += wg.vw[v as usize];
                assign[v as usize] = target as PartitionId;
                locked[v as usize] = true;
                applied.push((v, from, target as PartitionId));
                stats.moves_applied += 1;
                cum += gain;
                if cum > best_cum {
                    best_cum = cum;
                    best_len = applied.len();
                }
                stats.neighbor_visits += wg.degree(v) as u64;
                for (w, _) in wg.neighbors(v) {
                    if !locked[w as usize] {
                        if let Some((g, t)) = best_move(w, assign, &loads, stats) {
                            heap.push((g, w, t as u32));
                            stats.heap_pushes += 1;
                        }
                    }
                }
            }
            for &(v, from, _to) in applied[best_len..].iter().rev() {
                let cur = assign[v as usize];
                loads[cur as usize] -= wg.vw[v as usize];
                loads[from as usize] += wg.vw[v as usize];
                assign[v as usize] = from;
            }
            stats.moves_rolled_back += (applied.len() - best_len) as u64;
            if best_cum <= 0 && pass > 0 {
                break;
            }
        }
    }

    /// [`MultilevelPartitioner::multilevel`] with [`reference_refine`] in
    /// place of [`refine`]. Every level's input — its graph and the
    /// assignment projected onto it — also goes to production `refine`,
    /// whose output must equal the twin's. Returns the twin's final
    /// assignment and its work counts.
    fn twin_multilevel(
        cfg: &MultilevelConfig,
        wg: WGraph,
        k: usize,
        tally: &mut Tally,
        at: &str,
    ) -> (Vec<PartitionId>, MultilevelStats) {
        let mut stats = MultilevelStats::default();
        let target = (cfg.coarsest_factor * k).max(64);
        let mut levels: Vec<(WGraph, Vec<u32>)> = Vec::new();
        let mut current = wg;
        let mut rng = seeded_rng(cfg.seed);
        while current.n() > target {
            let (coarse, map) = coarsen(&current, &mut rng);
            if coarse.n() as f64 > 0.95 * current.n() as f64 {
                break;
            }
            levels.push((current, map));
            current = coarse;
        }
        let mut refine_both = |wg: &WGraph, assign: &mut [PartitionId], rng: &mut Rng| {
            let cap = capacity(wg.total_vertex_weight(), k, cfg.balance_slack);
            let mut production = assign.to_vec();
            refine(wg, k, cap, cfg.refinement_passes, &mut production, &mut Default::default());
            reference_refine(wg, k, cap, cfg.refinement_passes, assign, rng, &mut stats);
            let level = format!("{at} n={}", wg.n());
            tally.expect_eq("refined level", &level, &production[..], assign);
        };
        let cap = capacity(current.total_vertex_weight(), k, cfg.balance_slack);
        let mut assign = initial_partition(&current, k, cap, &mut rng);
        refine_both(&current, &mut assign, &mut rng);
        while let Some((finer, map)) = levels.pop() {
            let mut fine_assign: Vec<PartitionId> =
                (0..finer.n()).map(|v| assign[map[v] as usize]).collect();
            refine_both(&finer, &mut fine_assign, &mut rng);
            assign = fine_assign;
        }
        (assign, stats)
    }

    /// A star: every leaf's only candidate mate is the hub, so heavy-edge
    /// matching stalls after one pair.
    fn star(leaves: u32) -> Graph {
        let mut b = GraphBuilder::new();
        for leaf in 1..=leaves {
            b.push_edge(0, leaf);
        }
        b.build()
    }

    /// Cliques of `a` and `b` vertices joined by one edge: degrees `a − 1`,
    /// `a`, `b − 1` and `b`.
    fn two_cliques(a: u32, b: u32) -> Graph {
        let mut g = GraphBuilder::new();
        for (base, size) in [(0, a), (a, b)] {
            for i in 0..size {
                for j in i + 1..size {
                    g.push_edge(base + i, base + j);
                }
            }
        }
        g.push_edge(0, a);
        g.build()
    }

    const TWIN_KS: [usize; 6] = [2, 3, 16, 64, 65, 130];
    const TWIN_SLACKS: [f64; 3] = [1.0, 1.05, 1.5];

    /// The refinement twin grid: on `cases` draws of an RMAT graph, a
    /// lattice, an SNB-like graph and a star, plus two cliques sized
    /// around each k (so vertices sit at deg = k − 1, k and k + 1, on both
    /// sides of the dense/sparse row switch), × `ks` × vertex weights
    /// {none, random in 0..=5, one heavy vertex} × `slacks`. Each
    /// configuration compares production `refine` with
    /// [`reference_refine`] at every level and `partition_weighted` with
    /// the twin's multilevel run end to end.
    fn twin_grid(cases: u64, ks: &[usize], slacks: &[f64]) -> Tally {
        let mut tally = Tally::default();
        check_cases(cases, |rng| {
            let mut graphs = vec![
                (
                    "rmat",
                    rmat(RmatConfig {
                        scale: rng.range(6..10) as u32,
                        edge_factor: rng.range(2..12),
                        seed: rng.next_u64(),
                        ..RmatConfig::default()
                    }),
                ),
                (
                    "lattice",
                    road_grid(RoadConfig {
                        width: rng.range(4..48),
                        height: rng.range(4..48),
                        seed: rng.next_u64(),
                        ..RoadConfig::default()
                    }),
                ),
                (
                    "snb",
                    snb_social(SnbConfig {
                        persons: rng.range(50..800),
                        communities: rng.range(1..20),
                        seed: rng.next_u64(),
                        ..SnbConfig::default()
                    }),
                ),
                ("star", star(rng.range(2..300) as u32)),
            ];
            for &k in ks {
                let cliques = two_cliques(k as u32, k as u32 + 1 + rng.index(2) as u32);
                graphs.push(("two cliques", cliques));
                for (name, g) in &graphs {
                    let n = g.num_vertices();
                    let heavy = rng.index(n);
                    let weightings = [
                        None,
                        Some((0..n).map(|_| rng.below(6)).collect::<Vec<u64>>()),
                        Some((0..n).map(|v| if v == heavy { n as u64 } else { 1 }).collect()),
                    ];
                    for weights in &weightings {
                        for &balance_slack in slacks {
                            let cfg = MultilevelConfig { balance_slack, ..Default::default() };
                            let at = format!(
                                "{name} n={n} k={k} slack={balance_slack} weighted={}",
                                weights.is_some()
                            );
                            tally.configurations += 1;
                            let wg = WGraph::from_graph(g, weights.as_deref());
                            let (twin, _) = twin_multilevel(&cfg, wg, k, &mut tally, &at);
                            let production = MultilevelPartitioner { cfg }.partition_weighted(
                                g,
                                k,
                                weights.as_deref(),
                            );
                            tally.expect_eq("end-to-end assignment", &at, production, twin);
                        }
                    }
                }
                graphs.pop();
            }
        });
        tally
    }

    /// The slice of the refinement twin grid that runs under `cargo test`.
    #[test]
    fn refinement_matches_its_textbook_twin() {
        assert_no_twin_mismatch("METIS refinement", &twin_grid(1, &[2, 16, 65], &[1.05]));
    }

    /// The full refinement twin grid: `cargo test --release -p
    /// sgp-partition --lib -- --ignored` (CI runs it on every push).
    #[test]
    #[ignore = "full grid; run in release"]
    fn refinement_matches_its_textbook_twin_full_grid() {
        assert_no_twin_mismatch("METIS refinement", &twin_grid(8, &TWIN_KS, &TWIN_SLACKS));
    }

    /// The rows make the same decisions as the twin with a fraction of
    /// its neighbour reads: one seeded scale-11 RMAT graph at k = 16.
    #[test]
    fn refinement_counts_match_the_twin_with_a_twentieth_of_the_neighbour_visits() {
        let g = rmat(RmatConfig { scale: 11, edge_factor: 12, seed: 42, ..RmatConfig::default() });
        let p = MultilevelPartitioner::default();
        let (owner, rows) = p.multilevel(WGraph::from_graph(&g, None), 16);
        let mut tally = Tally::default();
        let (twin_owner, twin) =
            twin_multilevel(&p.cfg, WGraph::from_graph(&g, None), 16, &mut tally, "rmat");
        println!("rows: {rows:?}\ntwin: {twin:?}");
        assert_no_twin_mismatch("METIS refinement", &tally);
        assert_eq!(owner, twin_owner);
        let decisions = |s: &MultilevelStats| {
            (s.levels, s.best_move_calls, s.heap_pushes, s.moves_applied, s.moves_rolled_back)
        };
        assert_eq!(decisions(&rows), decisions(&twin));
        assert!(
            rows.neighbor_visits * 20 <= twin.neighbor_visits,
            "{} neighbour visits against the twin's {}",
            rows.neighbor_visits,
            twin.neighbor_visits
        );
    }
}
