//! Vertex-cut SGP on edge streams (§4.2.2 of the paper): hash, DBH,
//! constrained Grid, PowerGraph's oblivious greedy, and HDRF.
//!
//! These algorithms "distribute edges across the cluster and produce
//! edge-disjoint partitioning", replicating vertices whose incident edges
//! land on multiple partitions. The shared mutable state (replica table
//! `A(u)`, partial degrees, partition edge counts) is the "distributed
//! table" the paper says greedy methods must synchronize; it lives in
//! [`EdgeStreamState`], folded incrementally by the core in
//! [`crate::streaming`], whose
//! [`run_edge_stream`](crate::streaming::run_edge_stream) drives any
//! partitioner defined here.

use crate::assignment::{fxhash64, hash_to_partition, PartitionId};
use crate::config::PartitionerConfig;
use crate::decisions::DecisionStats;
use crate::kernels;
use sgp_graph::{Edge, Graph};

/// Replica-set table `A(u)` plus partial degree counters and per-partition
/// edge counts — the state greedy vertex-cut heuristics consult.
///
/// `A(u)` is a flat fixed-stride bitset (DESIGN.md §13): every vertex
/// owns `ceil(k/64)` consecutive `u64` words of one contiguous vector,
/// and bit `p` of vertex `u`'s block is set iff `u` has a replica on
/// partition `p`. Membership tests are one shift-and-mask, emptiness is
/// a word scan, and set intersection (the PowerGraph greedy's rule 1)
/// is a word-wise AND — no per-edge heap traffic anywhere on the path.
#[derive(Debug, Clone)]
pub struct EdgeStreamState {
    k: usize,
    /// Words per vertex block in the flat bitset: `ceil(k/64)`, ≥ 1.
    stride: usize,
    /// The flat bitset: vertex `u` owns words `[u·stride, (u+1)·stride)`.
    replica_bits: Vec<u64>,
    /// Partial degree d(u): number of stream edges seen incident to `u`.
    partial_degree: Vec<u64>,
    /// Edges placed in each partition.
    pub edge_counts: Vec<usize>,
    /// Total replica insertions (every first placement of a vertex on a
    /// new partition).
    pub replicas_created: u64,
    /// Replica insertions beyond a vertex's first replica — the mirrors
    /// a vertex-cut pays for at gather/scatter time.
    pub mirror_creations: u64,
}

/// Ascending iterator over the set bits of one vertex's replica block,
/// optionally intersected word-wise with a second block. Yields the
/// same sequence the historical sorted `Vec<PartitionId>` sets held.
#[derive(Debug, Clone)]
pub struct ReplicaIter<'a> {
    words: &'a [u64],
    mask: Option<&'a [u64]>,
    next_word: usize,
    current: u64,
    base: PartitionId,
}

impl<'a> ReplicaIter<'a> {
    fn new(words: &'a [u64]) -> Self {
        ReplicaIter { words, mask: None, next_word: 0, current: 0, base: 0 }
    }

    fn intersect(words: &'a [u64], mask: &'a [u64]) -> Self {
        debug_assert_eq!(words.len(), mask.len(), "blocks share the stride");
        ReplicaIter { words, mask: Some(mask), next_word: 0, current: 0, base: 0 }
    }
}

impl Iterator for ReplicaIter<'_> {
    type Item = PartitionId;

    fn next(&mut self) -> Option<PartitionId> {
        while self.current == 0 {
            if self.next_word >= self.words.len() {
                return None;
            }
            let mut word = self.words[self.next_word];
            if let Some(mask) = self.mask {
                word &= mask[self.next_word];
            }
            self.current = word;
            self.base = (self.next_word as PartitionId) << 6;
            self.next_word += 1;
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some(self.base + bit)
    }
}

impl EdgeStreamState {
    /// Fresh state for `n` vertices and `k` partitions.
    pub fn new(n: usize, k: usize) -> Self {
        let stride = k.div_ceil(64).max(1);
        EdgeStreamState {
            k,
            stride,
            replica_bits: vec![0; n * stride],
            partial_degree: vec![0; n],
            edge_counts: vec![0; k],
            replicas_created: 0,
            mirror_creations: 0,
        }
    }

    /// The bitset block of vertex `u`.
    #[inline]
    fn block(&self, u: u32) -> &[u64] {
        let base = u as usize * self.stride;
        &self.replica_bits[base..base + self.stride]
    }

    /// The replica set `A(u)` in ascending partition order.
    #[inline]
    pub fn replicas(&self, u: u32) -> ReplicaIter<'_> {
        ReplicaIter::new(self.block(u))
    }

    /// True if `u` has at least one replica anywhere (one word scan).
    #[inline]
    pub fn has_any_replica(&self, u: u32) -> bool {
        self.block(u).iter().any(|&w| w != 0)
    }

    /// Partial degree of `u` (edges seen so far).
    #[inline]
    pub fn partial_degree(&self, u: u32) -> u64 {
        self.partial_degree[u as usize]
    }

    /// True if `u` already has a replica on partition `p` (shift-and-mask).
    #[inline]
    pub fn has_replica(&self, u: u32, p: PartitionId) -> bool {
        let word = self.replica_bits[u as usize * self.stride + (p as usize >> 6)];
        (word >> (p & 63)) & 1 == 1
    }

    /// Records edge `e` placed on `p`: updates replica sets, partial
    /// degrees and edge counts.
    pub fn record(&mut self, e: Edge, p: PartitionId) {
        for v in [e.src, e.dst] {
            let base = v as usize * self.stride;
            let word = base + (p as usize >> 6);
            let mask = 1u64 << (p & 63);
            if self.replica_bits[word] & mask == 0 {
                if self.replica_bits[base..base + self.stride].iter().any(|&w| w != 0) {
                    self.mirror_creations += 1;
                }
                self.replica_bits[word] |= mask;
                self.replicas_created += 1;
            }
            self.partial_degree[v as usize] += 1;
        }
        self.edge_counts[p as usize] += 1;
    }

    /// Iterates the non-empty replica sets `(u, A(u))` in vertex order
    /// (snapshot support; canonical because the ascending bit scan
    /// reproduces the order the historical sorted sets held).
    pub(crate) fn replica_entries(&self) -> impl Iterator<Item = (u32, ReplicaIter<'_>)> + '_ {
        self.replica_bits
            .chunks_exact(self.stride)
            .enumerate()
            .filter(|(_, block)| block.iter().any(|&w| w != 0))
            .map(|(u, block)| (u as u32, ReplicaIter::new(block)))
    }

    /// Iterates the non-zero partial degrees `(u, d(u))` in vertex order
    /// (snapshot support).
    pub(crate) fn partial_degree_entries(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.partial_degree.iter().enumerate().filter(|&(_, &d)| d > 0).map(|(u, &d)| (u as u32, d))
    }

    /// Overwrites `A(u)` during restore. Returns `false` when `u` is out
    /// of range, `set` is not strictly increasing, or a partition id is
    /// out of range.
    pub(crate) fn restore_replicas(&mut self, u: u32, set: Vec<PartitionId>) -> bool {
        if set.windows(2).any(|w| w[0] >= w[1]) || set.iter().any(|&p| p as usize >= self.k) {
            return false;
        }
        let base = u as usize * self.stride;
        match self.replica_bits.get_mut(base..base + self.stride) {
            Some(block) => {
                block.fill(0);
                for p in set {
                    block[p as usize >> 6] |= 1u64 << (p & 63);
                }
                true
            }
            None => false,
        }
    }

    /// Overwrites `d(u)` during restore. Returns `false` when `u` is out
    /// of range.
    pub(crate) fn restore_partial_degree(&mut self, u: u32, d: u64) -> bool {
        match self.partial_degree.get_mut(u as usize) {
            Some(slot) => {
                *slot = d;
                true
            }
            None => false,
        }
    }

    /// Least-loaded partition among `candidates` (ties → lower id); falls
    /// back to the global least-loaded when `candidates` is empty.
    pub fn least_loaded(&self, candidates: &[PartitionId]) -> PartitionId {
        let pick = if candidates.is_empty() {
            kernels::least_loaded_among(0..self.k as PartitionId, &self.edge_counts)
        } else {
            kernels::least_loaded_among(candidates.iter().copied(), &self.edge_counts)
        };
        // sgp-lint: allow(no-panic-in-lib): the candidate set is 0..k (non-empty, k >= 1 asserted at construction) or a non-empty slice
        pick.expect("k >= 1")
    }

    /// Least-loaded partition hosting a replica of `u` (ties → lower
    /// id); the global least-loaded when `u` has none — the bitset form
    /// of `least_loaded(A(u))`.
    pub fn least_loaded_replica(&self, u: u32) -> PartitionId {
        match kernels::least_loaded_among(self.replicas(u), &self.edge_counts) {
            Some(p) => p,
            None => self.least_loaded(&[]),
        }
    }

    /// Least-loaded partition hosting replicas of *both* endpoints
    /// (`A(u) ∩ A(v)`), or `None` when the intersection is empty. The
    /// intersection is a word-wise AND over the two blocks; no candidate
    /// list is ever materialized.
    pub fn least_loaded_common(&self, u: u32, v: u32) -> Option<PartitionId> {
        let iter = ReplicaIter::intersect(self.block(u), self.block(v));
        kernels::least_loaded_among(iter, &self.edge_counts)
    }
}

/// A streaming partitioner over edge streams.
///
/// `Send` is a supertrait: the multi-loader layer ships boxed machines
/// to worker threads in [`crate::exec`], and every implementor is plain
/// owned data (counters and vectors), so the bound costs nothing.
pub trait EdgeStreamPartitioner: Send {
    /// Chooses a partition for the arriving edge given the shared state.
    fn place(&mut self, e: Edge, state: &EdgeStreamState) -> PartitionId;

    /// Short display name (Table 2 abbreviation).
    fn name(&self) -> &'static str;

    /// Number of full passes over the edge stream this partitioner
    /// needs (DESIGN.md §12). One-pass algorithms keep the default; a
    /// multi-pass algorithm such as 2PS observes the stream on its
    /// early passes and only places edges on the final one.
    fn passes(&self) -> usize {
        1
    }

    /// True while the partitioner is still in an observation pass: the
    /// ingestion core routes each edge to
    /// [`observe`](EdgeStreamPartitioner::observe) instead of
    /// [`place`](EdgeStreamPartitioner::place), and no shared state,
    /// assignment, or sequence number changes.
    fn observing(&self) -> bool {
        false
    }

    /// Consumes one edge of an observation pass. Only called while
    /// [`observing`](EdgeStreamPartitioner::observing) returns true.
    fn observe(&mut self, _e: Edge) {}

    /// Decision counters accumulated so far (all-zero for algorithms
    /// without greedy decisions, e.g. hash placement).
    fn decision_stats(&self) -> DecisionStats {
        DecisionStats::default()
    }

    /// Algorithm-specific run-varying tables as canonical `(key, value)`
    /// records for the snapshot layer ([`crate::snapshot`], DESIGN.md
    /// §11). Config-pure algorithms (hash, DBH, Grid) have none.
    fn snapshot_records(&self) -> Vec<(&'static str, String)> {
        Vec::new()
    }

    /// Restores one record produced by
    /// [`snapshot_records`](EdgeStreamPartitioner::snapshot_records);
    /// returns `false` for an unknown key or unparsable value (the
    /// snapshot layer surfaces that as a typed error).
    fn restore_record(&mut self, key: &str, value: &str) -> bool {
        let _ = (key, value);
        false
    }
}

/// Hash-based random edge placement (`VCR`): hashes the concatenation of
/// the endpoint ids. "Produces perfectly balanced partitions \[but\] is
/// known to have high communication cost."
#[derive(Debug, Clone)]
pub struct HashEdge {
    k: usize,
    seed: u64,
}

impl HashEdge {
    /// Creates the hash edge partitioner.
    pub fn new(cfg: &PartitionerConfig) -> Self {
        HashEdge { k: cfg.k, seed: cfg.seed }
    }
}

impl EdgeStreamPartitioner for HashEdge {
    fn place(&mut self, e: Edge, _state: &EdgeStreamState) -> PartitionId {
        let key = ((e.src as u64) << 32) | e.dst as u64;
        (fxhash64(key ^ self.seed) % self.k as u64) as PartitionId
    }

    fn name(&self) -> &'static str {
        "VCR"
    }
}

/// Degree source for [`Dbh`]: the paper notes DBH "relies on a priori
/// knowledge of degree information"; the reproduction supports both the
/// faithful oracle and a streaming-friendly partial-degree approximation.
#[derive(Debug, Clone)]
pub enum DegreeSource {
    /// Exact degrees precomputed from the full graph (the paper's model).
    Exact(Vec<u64>),
    /// Partial degrees observed so far in the stream.
    Partial,
}

/// Degree-Based Hashing (Xie et al.): "assigns an edge to a partition by
/// hashing the vertex of smaller degree to preserve the locality of
/// vertices of lower degree". Embarrassingly parallel.
#[derive(Debug, Clone)]
pub struct Dbh {
    k: usize,
    seed: u64,
    degrees: DegreeSource,
}

impl Dbh {
    /// DBH with exact degrees computed from `g` (total degree, matching
    /// the undirected treatment in the DBH paper).
    pub fn with_exact_degrees(cfg: &PartitionerConfig, g: &Graph) -> Self {
        let degrees = g.vertices().map(|v| g.degree(v) as u64).collect();
        Dbh { k: cfg.k, seed: cfg.seed, degrees: DegreeSource::Exact(degrees) }
    }

    /// DBH with streaming partial degrees.
    pub fn with_partial_degrees(cfg: &PartitionerConfig) -> Self {
        Dbh { k: cfg.k, seed: cfg.seed, degrees: DegreeSource::Partial }
    }

    fn degree_of(&self, v: u32, state: &EdgeStreamState) -> u64 {
        match &self.degrees {
            DegreeSource::Exact(d) => d[v as usize],
            DegreeSource::Partial => state.partial_degree(v),
        }
    }
}

impl EdgeStreamPartitioner for Dbh {
    fn place(&mut self, e: Edge, state: &EdgeStreamState) -> PartitionId {
        let (du, dv) = (self.degree_of(e.src, state), self.degree_of(e.dst, state));
        // Hash the endpoint of smaller degree (ties → source, which keeps
        // the rule deterministic).
        let anchor = if du <= dv { e.src } else { e.dst };
        hash_to_partition(anchor, self.k, self.seed)
    }

    fn name(&self) -> &'static str {
        "DBH"
    }
}

/// Grid-constrained placement (Jain et al., GraphBuilder): partitions are
/// arranged on an `r × c` grid; each partition's *constrained set* is its
/// row plus its column. An edge may only go to the intersection of its
/// endpoints' constrained sets, upper-bounding the replication factor by
/// `2√k − 1`. Embarrassingly parallel.
///
/// Constrained sets depend only on `k`, so all `k` sets and all `k²`
/// pairwise candidate lists (intersection, or the deduplicated union
/// when grid folding leaves the intersection empty) are precomputed at
/// construction; `place` is two shard hashes and one table lookup.
#[derive(Debug, Clone)]
pub struct GridConstrained {
    k: usize,
    rows: usize,
    cols: usize,
    seed: u64,
    /// `pairs[pu·k + pv]`: the candidate list an edge sharded to
    /// `(pu, pv)` chooses from — never empty.
    pairs: Vec<Vec<PartitionId>>,
}

impl GridConstrained {
    /// Creates the grid partitioner; `k` is factored into the most square
    /// `r × c ≤ k` grid (excess ids fold onto the grid by modulo).
    pub fn new(cfg: &PartitionerConfig) -> Self {
        let k = cfg.k;
        let (rows, cols) = squarest_factorization(k);
        let sets: Vec<Vec<PartitionId>> =
            (0..k as PartitionId).map(|p| constrained_set_of(p, k, rows, cols)).collect();
        let mut pairs = Vec::with_capacity(k * k);
        for su in &sets {
            for sv in &sets {
                let mut common: Vec<PartitionId> =
                    su.iter().copied().filter(|p| sv.binary_search(p).is_ok()).collect();
                if common.is_empty() {
                    // Can only happen when k is not a perfect grid and
                    // folding clipped the sets; fall back to the union.
                    common = su.clone();
                    common.extend(sv);
                    common.sort_unstable();
                    common.dedup();
                }
                pairs.push(common);
            }
        }
        GridConstrained { k, rows, cols, seed: cfg.seed, pairs }
    }

    /// The constrained set (row ∪ column) of partition `p`.
    #[cfg(test)]
    fn constrained_set(&self, p: PartitionId) -> Vec<PartitionId> {
        constrained_set_of(p, self.k, self.rows, self.cols)
    }

    fn shard(&self, v: u32) -> PartitionId {
        hash_to_partition(v, self.rows * self.cols, self.seed) % self.k as PartitionId
    }
}

/// The constrained set (row ∪ column, clipped to `< k`, sorted) of
/// partition `p` on an `rows × cols` grid.
fn constrained_set_of(p: PartitionId, k: usize, rows: usize, cols: usize) -> Vec<PartitionId> {
    let (r, c) = (p as usize / cols, p as usize % cols);
    let mut set = Vec::with_capacity(rows + cols - 1);
    for j in 0..cols {
        set.push((r * cols + j) as PartitionId);
    }
    for i in 0..rows {
        if i != r {
            set.push((i * cols + c) as PartitionId);
        }
    }
    set.retain(|&x| (x as usize) < k);
    set.sort_unstable();
    set
}

impl EdgeStreamPartitioner for GridConstrained {
    fn place(&mut self, e: Edge, state: &EdgeStreamState) -> PartitionId {
        let (pu, pv) = (self.shard(e.src), self.shard(e.dst));
        state.least_loaded(&self.pairs[pu as usize * self.k + pv as usize])
    }

    fn name(&self) -> &'static str {
        "Grid"
    }
}

/// The most square `r × c = k` factorization (r ≤ c). For prime `k` this
/// degenerates to `1 × k`, whose constrained set is the full row — the
/// same behaviour as the GraphBuilder implementation.
fn squarest_factorization(k: usize) -> (usize, usize) {
    let mut r = (k as f64).sqrt() as usize;
    while r > 1 && !k.is_multiple_of(r) {
        r -= 1;
    }
    (r.max(1), k / r.max(1))
}

/// PowerGraph's oblivious greedy heuristic (§4.2.2 discusses its
/// sensitivity to stream order). Placement rules from the PowerGraph
/// paper:
///
/// 1. both endpoints share a partition → least-loaded common one;
/// 2. both have replicas but disjoint → choose from the replica set of
///    the endpoint with more remaining edges (approximated by partial
///    degree, the oblivious variant);
/// 3. one endpoint has replicas → least-loaded among them;
/// 4. neither → globally least-loaded.
#[derive(Debug, Clone)]
pub struct PowerGraphGreedy;

impl PowerGraphGreedy {
    /// Creates the greedy partitioner (stateless besides shared state).
    pub fn new(_cfg: &PartitionerConfig) -> Self {
        PowerGraphGreedy
    }
}

impl EdgeStreamPartitioner for PowerGraphGreedy {
    fn place(&mut self, e: Edge, state: &EdgeStreamState) -> PartitionId {
        match (state.has_any_replica(e.src), state.has_any_replica(e.dst)) {
            (true, true) => match state.least_loaded_common(e.src, e.dst) {
                Some(p) => p,
                None => {
                    // Rule 2: richer endpoint (more unseen edges ≈ higher
                    // partial degree) keeps its locality.
                    let pick = if state.partial_degree(e.src) >= state.partial_degree(e.dst) {
                        e.src
                    } else {
                        e.dst
                    };
                    state.least_loaded_replica(pick)
                }
            },
            (true, false) => state.least_loaded_replica(e.src),
            (false, true) => state.least_loaded_replica(e.dst),
            (false, false) => state.least_loaded(&[]),
        }
    }

    fn name(&self) -> &'static str {
        "PGG"
    }
}

/// HDRF — High-Degree (are) Replicated First (Petroni et al.), Eq. (7):
///
/// `argmax_i g(v,P_i) + g(u,P_i) + λ(1 − |e(P_i)|/C)` with
/// `g(v,P_i) = (1 + (1 − θ(v)))·1_{A(v)∋P_i}` and
/// `θ(u) = d(u)/(d(u)+d(v))` over *partial* degrees —
/// "avoiding a pre-processing step to calculate the exact vertex
/// degrees". λ > 1 escapes the degenerate single-partition behaviour of
/// plain greedy on BFS-ordered streams.
#[derive(Debug, Clone)]
pub struct Hdrf {
    lambda: f64,
    capacity: f64,
    stats: DecisionStats,
    /// Scratch score column reused across edges (DESIGN.md §13).
    scores: Vec<f64>,
}

impl Hdrf {
    /// Creates HDRF for a graph with `m` edges.
    pub fn new(cfg: &PartitionerConfig, m: usize) -> Self {
        Hdrf {
            lambda: cfg.hdrf_lambda,
            capacity: cfg.edge_capacity(m).max(1.0),
            stats: DecisionStats::default(),
            scores: vec![0.0; cfg.k],
        }
    }

    /// HDRF's Eq. (7) scoring with an optional per-endpoint cluster
    /// affinity bonus: each `Some(p)` in `targets` adds `+1.0` to
    /// partition `p`'s score, the way 2PS biases its assignment pass
    /// toward the endpoint's cluster home. With `[None, None]` the column
    /// holds exactly the same floats as plain HDRF, so the two are
    /// bit-identical (pinned by the dynamic-graph differentials).
    pub(crate) fn place_with_affinity(
        &mut self,
        e: Edge,
        state: &EdgeStreamState,
        targets: [Option<PartitionId>; 2],
    ) -> PartitionId {
        let capacity = self.capacity;
        hdrf_score_column(&mut self.scores, e, state, self.lambda, |_| capacity, targets);
        // Same 1e-12 tie discipline as the historical in-line fold (see
        // kernels.rs for the seed-equivalence argument vs the old
        // `(NEG_INFINITY, 0)` start).
        crate::kernels::epsilon_argmax(
            &self.scores,
            &state.edge_counts,
            &mut self.stats.balance_tiebreaks,
        )
        .map(|i| i as PartitionId)
        .unwrap_or(0)
    }
}

/// Fills `scores` (length k) with HDRF's Eq. (7) column for edge `e`
/// (DESIGN.md §13, "Score columns from replica sets"): the balance term
/// `λ·(1 − |e(P_i)|/capacity(i))` over all k, then `1 + (1 − θ)` for each
/// partition in `A(src)` and in `A(dst)` — walked from the set bits, not
/// probed k times — then `+1.0` per affinity target. Every entry gets
/// the float operations of a per-partition probe loop in the same order,
/// so the column is bit-identical to one. Shared by [`Hdrf`] (uniform
/// capacity) and [`crate::hetero::HeteroHdrf`] (per-machine capacity).
pub(crate) fn hdrf_score_column(
    scores: &mut [f64],
    e: Edge,
    state: &EdgeStreamState,
    lambda: f64,
    capacity: impl Fn(usize) -> f64,
    targets: [Option<PartitionId>; 2],
) {
    // Partial degrees +1 so the very first edge of a vertex does not
    // divide by zero (the HDRF reference implementation does the same).
    let du = state.partial_degree(e.src) as f64 + 1.0;
    let dv = state.partial_degree(e.dst) as f64 + 1.0;
    let theta_u = du / (du + dv);
    let theta_v = 1.0 - theta_u;
    for (i, (score, &count)) in scores.iter_mut().zip(&state.edge_counts).enumerate() {
        *score = lambda * (1.0 - count as f64 / capacity(i));
    }
    for p in state.replicas(e.src) {
        scores[p as usize] += 1.0 + (1.0 - theta_u);
    }
    for p in state.replicas(e.dst) {
        scores[p as usize] += 1.0 + (1.0 - theta_v);
    }
    for p in targets.into_iter().flatten() {
        if let Some(score) = scores.get_mut(p as usize) {
            *score += 1.0;
        }
    }
}

impl EdgeStreamPartitioner for Hdrf {
    fn place(&mut self, e: Edge, state: &EdgeStreamState) -> PartitionId {
        self.place_with_affinity(e, state, [None, None])
    }

    fn name(&self) -> &'static str {
        "HDRF"
    }

    fn decision_stats(&self) -> DecisionStats {
        self.stats
    }

    fn snapshot_records(&self) -> Vec<(&'static str, String)> {
        self.stats.snapshot_records()
    }

    fn restore_record(&mut self, key: &str, value: &str) -> bool {
        self.stats.restore_record(key, value)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::edge_cut::tests::{assert_no_twin_mismatch, Tally};
    use crate::loaders::{partition_multi_loader, run_modelled, LoaderConfig};
    use crate::metrics;
    use crate::registry::{Algorithm, Boxed};
    use crate::snapshot::restore_into;
    use crate::streaming::{drive_edge_stream, run_edge_stream, EdgeIngest, StreamingPartitioner};
    use crate::two_phase::tests::ReferenceTwoPhase;
    use crate::two_phase::TwoPhase;
    use sgp_graph::generators::{
        erdos_renyi, rmat, road_grid, snb_social, ErdosRenyiConfig, RmatConfig, RoadConfig,
        SnbConfig,
    };
    use sgp_graph::sampling::{check_cases, Rng};
    use sgp_graph::{EdgeStreamSource, GraphBuilder, StreamOrder, VertexId};
    use sgp_trace::NullSink;

    fn cfg(k: usize) -> PartitionerConfig {
        PartitionerConfig::new(k)
    }

    fn twitter_like() -> Graph {
        rmat(RmatConfig { scale: 11, edge_factor: 12, ..RmatConfig::default() })
    }

    #[test]
    fn hash_edge_balanced_and_order_independent() {
        let g = erdos_renyi(ErdosRenyiConfig { vertices: 2000, edges: 20_000, seed: 3 });
        let c = cfg(8);
        let a = run_edge_stream(&g, &mut HashEdge::new(&c), 8, StreamOrder::Natural, &mut NullSink);
        let b = run_edge_stream(
            &g,
            &mut HashEdge::new(&c),
            8,
            StreamOrder::Random { seed: 1 },
            &mut NullSink,
        );
        assert_eq!(a.edge_parts, b.edge_parts);
        assert!(metrics::load_imbalance(&a.edges_per_partition()) < 1.1);
    }

    #[test]
    fn dbh_beats_hash_on_skewed_graph() {
        let g = twitter_like();
        let c = cfg(16);
        let hash = run_edge_stream(
            &g,
            &mut HashEdge::new(&c),
            16,
            StreamOrder::Random { seed: 2 },
            &mut NullSink,
        );
        let dbh = run_edge_stream(
            &g,
            &mut Dbh::with_exact_degrees(&c, &g),
            16,
            StreamOrder::Random { seed: 2 },
            &mut NullSink,
        );
        let rf_hash = metrics::replication_factor(&g, &hash);
        let rf_dbh = metrics::replication_factor(&g, &dbh);
        assert!(rf_dbh < rf_hash, "DBH RF {rf_dbh} should beat hash RF {rf_hash}");
    }

    #[test]
    fn dbh_partial_close_to_exact() {
        let g = twitter_like();
        let c = cfg(8);
        let exact = run_edge_stream(
            &g,
            &mut Dbh::with_exact_degrees(&c, &g),
            8,
            StreamOrder::Random { seed: 4 },
            &mut NullSink,
        );
        let partial = run_edge_stream(
            &g,
            &mut Dbh::with_partial_degrees(&c),
            8,
            StreamOrder::Random { seed: 4 },
            &mut NullSink,
        );
        let (re, rp) =
            (metrics::replication_factor(&g, &exact), metrics::replication_factor(&g, &partial));
        assert!((re - rp).abs() / re < 0.35, "partial DBH ({rp}) far from exact ({re})");
    }

    #[test]
    fn grid_respects_replication_bound() {
        let g = twitter_like();
        let k = 16; // 4x4 grid: bound = 2*sqrt(16) - 1 = 7
        let c = cfg(k);
        let p = run_edge_stream(
            &g,
            &mut GridConstrained::new(&c),
            k,
            StreamOrder::Random { seed: 5 },
            &mut NullSink,
        );
        let sets = p.replica_sets(&g);
        let bound = 2 * (k as f64).sqrt() as usize - 1;
        for (v, set) in sets.iter().enumerate() {
            assert!(set.len() <= bound, "vertex {v} spans {} > {bound} partitions", set.len());
        }
    }

    #[test]
    fn grid_constrained_sets_intersect() {
        let c = cfg(16);
        let grid = GridConstrained::new(&c);
        for a in 0..16 {
            for b in 0..16 {
                let sa = grid.constrained_set(a);
                let sb = grid.constrained_set(b);
                assert!(
                    sa.iter().any(|p| sb.binary_search(p).is_ok()),
                    "constrained sets of {a} and {b} must intersect"
                );
            }
        }
    }

    #[test]
    fn grid_precomputed_pairs_match_per_edge_recomputation() {
        // The pre-refactor Grid recomputed the candidate list on every
        // placement: intersect the endpoints' constrained sets, fall
        // back to their deduplicated union when grid folding empties the
        // intersection. The refactor moved that to a k² table built at
        // construction; this reference partitioner IS the old per-edge
        // logic, and placements must agree on every stream — including
        // non-perfect-square and prime k, where the folding fallback
        // and the 1 × k degenerate grid actually trigger.
        struct OldGrid {
            k: usize,
            rows: usize,
            cols: usize,
            seed: u64,
        }
        impl EdgeStreamPartitioner for OldGrid {
            fn place(&mut self, e: Edge, state: &EdgeStreamState) -> PartitionId {
                let shard = |v: u32| {
                    hash_to_partition(v, self.rows * self.cols, self.seed) % self.k as PartitionId
                };
                let su = constrained_set_of(shard(e.src), self.k, self.rows, self.cols);
                let sv = constrained_set_of(shard(e.dst), self.k, self.rows, self.cols);
                let mut common: Vec<PartitionId> =
                    su.iter().copied().filter(|p| sv.binary_search(p).is_ok()).collect();
                if common.is_empty() {
                    common = su;
                    common.extend(sv);
                    common.sort_unstable();
                    common.dedup();
                }
                state.least_loaded(&common)
            }
            fn name(&self) -> &'static str {
                "OldGrid"
            }
        }

        let g = erdos_renyi(ErdosRenyiConfig { vertices: 400, edges: 3000, seed: 21 });
        for k in [2usize, 3, 5, 7, 12, 16, 17, 30, 100] {
            let c = cfg(k);
            let (rows, cols) = squarest_factorization(k);
            let mut old = OldGrid { k, rows, cols, seed: c.seed };
            for order in [StreamOrder::Natural, StreamOrder::Random { seed: 9 }, StreamOrder::Bfs] {
                let new_p =
                    run_edge_stream(&g, &mut GridConstrained::new(&c), k, order, &mut NullSink);
                let old_p = run_edge_stream(&g, &mut old, k, order, &mut NullSink);
                assert_eq!(
                    new_p.edge_parts, old_p.edge_parts,
                    "Grid placements diverged from the per-edge reference at k={k} ({order:?})"
                );
            }
        }
    }

    #[test]
    fn squarest_factorization_cases() {
        assert_eq!(squarest_factorization(16), (4, 4));
        assert_eq!(squarest_factorization(8), (2, 4));
        assert_eq!(squarest_factorization(7), (1, 7));
        assert_eq!(squarest_factorization(12), (3, 4));
        assert_eq!(squarest_factorization(1), (1, 1));
    }

    #[test]
    fn hdrf_beats_greedy_on_bfs_order() {
        // §4.2.2: plain greedy degenerates on BFS streams; HDRF's λ > 1
        // keeps balance.
        let g = twitter_like();
        let c = cfg(8);
        let greedy =
            run_edge_stream(&g, &mut PowerGraphGreedy::new(&c), 8, StreamOrder::Bfs, &mut NullSink);
        let hdrf = run_edge_stream(
            &g,
            &mut Hdrf::new(&c, g.num_edges()),
            8,
            StreamOrder::Bfs,
            &mut NullSink,
        );
        let imb_greedy = metrics::load_imbalance(&greedy.edges_per_partition());
        let imb_hdrf = metrics::load_imbalance(&hdrf.edges_per_partition());
        assert!(
            imb_hdrf < imb_greedy || imb_hdrf < 1.2,
            "HDRF balance {imb_hdrf} should beat greedy {imb_greedy} on BFS order"
        );
    }

    #[test]
    fn hdrf_produces_balanced_edges() {
        let g = twitter_like();
        let c = cfg(16);
        let p = run_edge_stream(
            &g,
            &mut Hdrf::new(&c, g.num_edges()),
            16,
            StreamOrder::Random { seed: 6 },
            &mut NullSink,
        );
        let imb = metrics::load_imbalance(&p.edges_per_partition());
        assert!(imb < 1.25, "HDRF edge imbalance {imb}");
    }

    #[test]
    fn hdrf_beats_hash_on_replication() {
        let g = twitter_like();
        let c = cfg(16);
        let hash = run_edge_stream(
            &g,
            &mut HashEdge::new(&c),
            16,
            StreamOrder::Random { seed: 7 },
            &mut NullSink,
        );
        let hdrf = run_edge_stream(
            &g,
            &mut Hdrf::new(&c, g.num_edges()),
            16,
            StreamOrder::Random { seed: 7 },
            &mut NullSink,
        );
        let (rh, rd) =
            (metrics::replication_factor(&g, &hash), metrics::replication_factor(&g, &hdrf));
        assert!(rd < 0.8 * rh, "HDRF RF {rd} should clearly beat hash {rh}");
    }

    #[test]
    fn all_edges_assigned_in_range() {
        let g = erdos_renyi(ErdosRenyiConfig { vertices: 300, edges: 1500, seed: 8 });
        let c = cfg(5);
        for p in [
            run_edge_stream(&g, &mut HashEdge::new(&c), 5, StreamOrder::Bfs, &mut NullSink),
            run_edge_stream(
                &g,
                &mut Dbh::with_partial_degrees(&c),
                5,
                StreamOrder::Dfs,
                &mut NullSink,
            ),
            run_edge_stream(
                &g,
                &mut GridConstrained::new(&c),
                5,
                StreamOrder::Natural,
                &mut NullSink,
            ),
            run_edge_stream(
                &g,
                &mut PowerGraphGreedy::new(&c),
                5,
                StreamOrder::Natural,
                &mut NullSink,
            ),
            run_edge_stream(
                &g,
                &mut Hdrf::new(&c, g.num_edges()),
                5,
                StreamOrder::Natural,
                &mut NullSink,
            ),
        ] {
            assert_eq!(p.edge_parts.len(), g.num_edges());
            assert!(p.edge_parts.iter().all(|&x| x < 5));
        }
    }

    #[test]
    fn greedy_keeps_star_local() {
        // A star's edges all share the hub; greedy should co-locate most
        // of them until balance forces spill.
        let mut b = sgp_graph::GraphBuilder::new();
        for i in 1..=40u32 {
            b.push_edge(0, i);
        }
        let g = b.build();
        let c = cfg(4);
        let p = run_edge_stream(
            &g,
            &mut PowerGraphGreedy::new(&c),
            4,
            StreamOrder::Natural,
            &mut NullSink,
        );
        let rf = metrics::replication_factor(&g, &p);
        // Leaves have one edge each (RF 1); hub replicates on at most k.
        assert!(rf < 1.2, "greedy star RF {rf}");
    }

    /// Textbook HDRF, Eq. (7) with 2PS's affinity targets, kept apart
    /// from the production machine: one probe per partition per endpoint
    /// (`has_replica`) and per target, then the shared ε-fold. This is the
    /// scoring loop the column builder replaced, verbatim.
    #[derive(Debug, Clone)]
    pub(crate) struct ReferenceHdrf {
        k: usize,
        lambda: f64,
        capacity: f64,
        stats: DecisionStats,
        scores: Vec<f64>,
    }

    impl ReferenceHdrf {
        pub(crate) fn new(cfg: &PartitionerConfig, m: usize) -> Self {
            ReferenceHdrf {
                k: cfg.k,
                lambda: cfg.hdrf_lambda,
                capacity: cfg.edge_capacity(m).max(1.0),
                stats: DecisionStats::default(),
                scores: vec![0.0; cfg.k],
            }
        }

        pub(crate) fn place_with_affinity(
            &mut self,
            e: Edge,
            state: &EdgeStreamState,
            targets: [Option<PartitionId>; 2],
        ) -> PartitionId {
            let du = state.partial_degree(e.src) as f64 + 1.0;
            let dv = state.partial_degree(e.dst) as f64 + 1.0;
            let theta_u = du / (du + dv);
            let theta_v = 1.0 - theta_u;
            for i in 0..self.k as PartitionId {
                let mut score =
                    self.lambda * (1.0 - state.edge_counts[i as usize] as f64 / self.capacity);
                if state.has_replica(e.src, i) {
                    score += 1.0 + (1.0 - theta_u);
                }
                if state.has_replica(e.dst, i) {
                    score += 1.0 + (1.0 - theta_v);
                }
                if targets[0] == Some(i) {
                    score += 1.0;
                }
                if targets[1] == Some(i) {
                    score += 1.0;
                }
                self.scores[i as usize] = score;
            }
            crate::kernels::epsilon_argmax(
                &self.scores,
                &state.edge_counts,
                &mut self.stats.balance_tiebreaks,
            )
            .map(|i| i as PartitionId)
            .unwrap_or(0)
        }
    }

    impl EdgeStreamPartitioner for ReferenceHdrf {
        fn place(&mut self, e: Edge, state: &EdgeStreamState) -> PartitionId {
            self.place_with_affinity(e, state, [None, None])
        }

        fn name(&self) -> &'static str {
            "HDRF"
        }

        fn decision_stats(&self) -> DecisionStats {
            self.stats
        }

        fn snapshot_records(&self) -> Vec<(&'static str, String)> {
            self.stats.snapshot_records()
        }

        fn restore_record(&mut self, key: &str, value: &str) -> bool {
            self.stats.restore_record(key, value)
        }
    }

    /// A graph for the HDRF twin grid: a small RMAT, a perturbed lattice,
    /// an SNB-like community graph, or a star whose hub sits at a random
    /// id and whose spokes point either way (some repeated).
    fn twin_graph(rng: &mut Rng) -> Graph {
        match rng.index(4) {
            0 => rmat(RmatConfig {
                scale: rng.range(2..9) as u32,
                edge_factor: rng.range(1..9),
                seed: rng.next_u64(),
                ..RmatConfig::default()
            }),
            1 => road_grid(RoadConfig {
                width: rng.range(2..18),
                height: rng.range(2..18),
                seed: rng.next_u64(),
                ..RoadConfig::default()
            }),
            2 => snb_social(SnbConfig {
                persons: rng.range(50..300),
                communities: rng.range(1..12),
                avg_friends: 6.0,
                seed: rng.next_u64(),
                ..SnbConfig::default()
            }),
            _ => {
                let n = rng.range(2..400);
                let hub = rng.index(n) as u32;
                let mut b = GraphBuilder::new().ensure_vertices(n);
                for _ in 0..rng.range(1..2 * n) {
                    let leaf = rng.index(n) as u32;
                    if rng.index(2) == 0 {
                        b.push_edge(hub, leaf);
                    } else {
                        b.push_edge(leaf, hub);
                    }
                }
                b.build()
            }
        }
    }

    /// The textbook machine for `algorithm` (HDRF or 2PS), boxed like the
    /// registry's.
    fn reference_machines(algorithm: Algorithm, cfg: &PartitionerConfig, m: usize) -> Boxed {
        match algorithm {
            Algorithm::Hdrf => {
                let r = ReferenceHdrf::new(cfg, m);
                Boxed::Edge(Box::new(move || Box::new(r.clone())))
            }
            _ => {
                let r = ReferenceTwoPhase::new(cfg, m);
                Boxed::Edge(Box::new(move || Box::new(r.clone())))
            }
        }
    }

    /// One uninterrupted run of a boxed edge machine: its edge placements
    /// and final `DecisionStats`.
    fn sequential(
        g: &Graph,
        machines: Boxed,
        k: usize,
        order: StreamOrder,
    ) -> (Vec<PartitionId>, DecisionStats) {
        let Boxed::Edge(make) = machines else { panic!("HDRF and 2PS are edge machines") };
        let mut core = EdgeIngest::init(g, make(), k);
        drive_edge_stream(g, &mut core, order, 1, &mut NullSink);
        let stats = core.partitioner().decision_stats();
        (core.seal().edge_parts, stats)
    }

    /// Drives a facade over every pass of `g` in `chunk`-sized chunks,
    /// replacing the machine by `restore` of its own snapshot after chunk
    /// `cut`; returns the sealed placements, that snapshot, and the
    /// snapshot taken just before the seal.
    fn facade_with_restore<'g>(
        g: &'g Graph,
        mut sp: StreamingPartitioner<'g>,
        order: StreamOrder,
        (chunk, cut): (usize, usize),
        restore: impl Fn(&str) -> StreamingPartitioner<'g>,
    ) -> (Vec<PartitionId>, String, String) {
        let mut source = EdgeStreamSource::new(g, order);
        let (mut buf, mut fed, mut mid) = (Vec::new(), 0, String::new());
        for _ in 0..sp.passes() {
            source.restart();
            while source.next_chunk(chunk, &mut buf) > 0 {
                sp.ingest_edges(&buf).expect("HDRF and 2PS consume edges");
                fed += 1;
                if fed == cut {
                    mid = sp.snapshot();
                    sp = restore(&mid);
                }
            }
            sp.flush_window();
        }
        let end = sp.snapshot();
        (sp.seal().edge_parts, mid, end)
    }

    const TWIN_KS: [usize; 6] = [1, 2, 16, 64, 65, 130];

    /// Walks `g`'s stream through production [`Hdrf`] and
    /// [`ReferenceHdrf`] side by side, each edge with random affinity
    /// targets (out-of-range ids included), and returns the first edge
    /// whose pick or score column differs in any bit. Placements alone
    /// miss a last-bit change the ε-fold absorbs; the column does not.
    fn first_column_divergence(
        g: &Graph,
        k: usize,
        order: StreamOrder,
        rng: &mut Rng,
    ) -> Option<usize> {
        let (cfg, m) = (PartitionerConfig::new(k), g.num_edges());
        let (mut production, mut reference) = (Hdrf::new(&cfg, m), ReferenceHdrf::new(&cfg, m));
        let mut state = EdgeStreamState::new(g.num_vertices(), k);
        let mut source = EdgeStreamSource::new(g, order);
        let bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        for (i, e) in std::iter::from_fn(|| source.next_edge()).enumerate() {
            let mut target = || (rng.index(3) > 0).then(|| rng.index(k + 1) as PartitionId);
            let targets = [target(), target()];
            let p = production.place_with_affinity(e, &state, targets);
            let q = reference.place_with_affinity(e, &state, targets);
            if p != q || bits(&production.scores) != bits(&reference.scores) {
                return Some(i);
            }
            state.record(e, p);
        }
        None
    }

    /// The HDRF twin differential (ROADMAP item 1, HDRF row): production
    /// HDRF and 2PS — the replica-set column builder and 2PS's dense
    /// cluster-home table — against [`ReferenceHdrf`] and
    /// [`ReferenceTwoPhase`] on `cases` graphs × every `StreamOrder` ×
    /// `ks` × {HDRF, 2PS clustering on, 2PS clustering off}. Each
    /// (order, k) first compares HDRF's score column bit for bit (see
    /// [`first_column_divergence`]); each configuration then compares the
    /// sequential placements and `DecisionStats`, the facade run through
    /// a snapshot and restore at a random chunk of either pass
    /// (placements, and the snapshot text at the cut and before the
    /// seal, byte for byte), and for HDRF the modelled loaders at
    /// L ∈ {2, 4}.
    fn twin_grid(cases: u64, ks: &[usize]) -> Tally {
        let mut tally = Tally::default();
        check_cases(cases, |rng| {
            let g = twin_graph(rng);
            let (n, m) = (g.num_vertices(), g.num_edges());
            let orders = [
                StreamOrder::Natural,
                StreamOrder::Random { seed: rng.next_u64() },
                StreamOrder::Bfs,
                StreamOrder::Dfs,
                StreamOrder::BfsFrom { start: rng.index(n) as VertexId },
                StreamOrder::DfsFrom { start: rng.index(n) as VertexId },
            ];
            for order in orders {
                for &k in ks {
                    let divergence = first_column_divergence(&g, k, order, rng);
                    tally.expect_eq(
                        "score column bits",
                        &format!("n={n} m={m} {order:?} k={k}"),
                        divergence,
                        None,
                    );
                    for (algorithm, two_phase_clustering) in [
                        (Algorithm::Hdrf, true),
                        (Algorithm::TwoPhaseHdrf, true),
                        (Algorithm::TwoPhaseHdrf, false),
                    ] {
                        let cfg =
                            PartitionerConfig { two_phase_clustering, ..PartitionerConfig::new(k) };
                        let passes = TwoPhase::new(&cfg, m).passes();
                        let chunk = rng.range(1..64);
                        let cut = rng.range(1..passes * m.div_ceil(chunk) + 1);
                        let at = format!(
                            "n={n} m={m} {order:?} k={k} {algorithm} \
                             clustering={two_phase_clustering} chunk={chunk} cut={cut}"
                        );
                        tally.configurations += 1;
                        twin_configuration(
                            &mut tally,
                            &at,
                            &g,
                            &cfg,
                            order,
                            algorithm,
                            (chunk, cut),
                        );
                    }
                }
            }
        });
        tally
    }

    fn twin_configuration(
        tally: &mut Tally,
        at: &str,
        g: &Graph,
        cfg: &PartitionerConfig,
        order: StreamOrder,
        algorithm: Algorithm,
        cut: (usize, usize),
    ) {
        let (m, k) = (g.num_edges(), cfg.k);
        let (seq, stats) = sequential(g, algorithm.boxed(g, cfg), k, order);
        let (twin_seq, twin_stats) = sequential(g, reference_machines(algorithm, cfg, m), k, order);
        tally.expect_eq("sequential placements", at, &seq, &twin_seq);
        tally.expect_eq("DecisionStats", at, stats, twin_stats);

        let (parts, mid, end) = facade_with_restore(
            g,
            StreamingPartitioner::init(g, algorithm, cfg),
            order,
            cut,
            |text| StreamingPartitioner::restore(g, algorithm, cfg, text).unwrap(),
        );
        let twin_facade = || {
            StreamingPartitioner::with_machines(
                g,
                algorithm,
                cfg,
                reference_machines(algorithm, cfg, m),
            )
        };
        let (twin_parts, twin_mid, twin_end) =
            facade_with_restore(g, twin_facade(), order, cut, |text| {
                restore_into(twin_facade(), text).unwrap()
            });
        tally.expect_eq("restored placements", at, &parts, &twin_parts);
        tally.expect_eq("restored placements vs one-shot", at, &parts, &seq);
        tally.expect_eq("snapshot text at the cut", at, mid, twin_mid);
        tally.expect_eq("snapshot text before the seal", at, end, twin_end);

        if algorithm.supports_parallel_loaders() {
            for loaders in [2, 4] {
                let lc = LoaderConfig::new(loaders).with_sync_interval(8);
                let par = partition_multi_loader(g, algorithm, cfg, order, &lc).edge_parts;
                let twin_par =
                    run_modelled(g, k, reference_machines(algorithm, cfg, m), order, &lc)
                        .edge_parts;
                tally.expect_eq("loader placements", at, par, twin_par);
            }
        }
    }

    /// The slice of the HDRF twin grid that runs under `cargo test`.
    #[test]
    fn hdrf_matches_its_textbook_twin() {
        assert_no_twin_mismatch("HDRF", &twin_grid(2, &[1, 16, 65]));
    }

    /// The full HDRF twin grid: `cargo test --release -p sgp-partition
    /// --lib -- --ignored` (CI runs it on every push).
    #[test]
    #[ignore = "full grid; run in release"]
    fn hdrf_matches_its_textbook_twin_full_grid() {
        assert_no_twin_mismatch("HDRF", &twin_grid(8, &TWIN_KS));
    }
}
