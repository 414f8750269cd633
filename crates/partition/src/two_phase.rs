//! 2PS — two-phase streaming edge partitioning (Mayer et al., "2PS:
//! High-Quality Edge Partitioning at Scale", arXiv 2001.07086), the
//! multi-pass member of the dynamic-graph tier (DESIGN.md §12).
//!
//! Phase one streams the edges once without placing anything and builds
//! volume-capped vertex clusters with a union-find (streaming
//! clustering). Phase two streams the same edges again and runs an
//! HDRF-style greedy assignment whose score is biased toward each
//! endpoint's cluster home, so edges inside a cluster gravitate to the
//! same partition and the replication factor drops below what one-pass
//! HDRF achieves on the same stream.
//!
//! The two passes ride on the ordinary [`EdgeStreamPartitioner`]
//! machine lifecycle: [`TwoPhase::passes`] reports 2,
//! [`TwoPhase::observing`] is true until every edge has been observed
//! once, and the ingestion core routes edges to [`TwoPhase::observe`]
//! during that window without touching shared state or the assignment.
//! With [`PartitionerConfig::two_phase_clustering`] disabled the
//! clustering pass disappears and the assignment pass is bit-identical
//! to plain HDRF — the root differential tests pin that degeneracy.
#![expect(
    clippy::indexing_slicing,
    reason = "2PS cluster arrays are sized num_vertices; cluster ids are allocated sequentially and remapped within the recorded count before phase two indexes by them"
)]

use crate::assignment::PartitionId;
use crate::config::PartitionerConfig;
use crate::decisions::{DecisionStats, WorkStats};
use crate::vertex_cut::{EdgeStreamPartitioner, EdgeStreamState, Hdrf};
use sgp_graph::Edge;

/// Sentinel for a vertex the clustering pass has not seen yet.
const UNVISITED: u32 = u32::MAX;

/// Home-table sentinel for a vertex with no cluster home.
const NO_HOME: PartitionId = PartitionId::MAX;

/// Streaming clustering state of pass one: a union-find over vertices
/// with per-cluster volume (edge-endpoint count) capped at `2m/k`, plus
/// the cluster → partition map computed when the pass completes.
#[derive(Debug, Clone)]
struct ClusterPass {
    k: usize,
    /// Vertices of the graph: restored vertex ids stay below it.
    n: usize,
    /// Union-find parent; `UNVISITED` marks vertices not yet seen.
    parent: Vec<u32>,
    /// Cluster volume, meaningful at root indices only.
    volume: Vec<u64>,
    /// Volume cap per cluster: `max(2m/k, 2)`.
    cap: u64,
    /// Edges the pass still expects (`m` total).
    total_edges: u64,
    observed: u64,
    /// Cluster root → partition, filled by [`ClusterPass::finalize`];
    /// sorted by root id.
    cluster_part: Vec<(u32, PartitionId)>,
    finalized: bool,
    /// Dense cluster home per vertex (`NO_HOME` if it has none), built
    /// from `cluster_part` on the first placement after `finalize` or a
    /// restore; derived state that never enters a snapshot.
    home: Option<Vec<PartitionId>>,
}

impl ClusterPass {
    fn new(k: usize, n: usize, m: usize) -> Self {
        ClusterPass {
            k,
            n,
            parent: Vec::new(),
            volume: Vec::new(),
            cap: ((2 * m as u64) / k as u64).max(2),
            total_edges: m as u64,
            observed: 0,
            cluster_part: Vec::new(),
            finalized: false,
            home: None,
        }
    }

    fn ensure(&mut self, v: u32) {
        let idx = v as usize;
        if idx >= self.parent.len() {
            self.parent.resize(idx + 1, UNVISITED);
            self.volume.resize(idx + 1, 0);
        }
        if self.parent[idx] == UNVISITED {
            self.parent[idx] = v;
        }
    }

    fn find(&mut self, v: u32) -> u32 {
        let mut root = v;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression; the snapshot layer serializes fully resolved
        // roots, so the compression state never leaks into the bytes.
        let mut cur = v;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn observe(&mut self, e: Edge) {
        self.ensure(e.src);
        self.ensure(e.dst);
        let ru = self.find(e.src);
        let rv = self.find(e.dst);
        self.volume[ru as usize] += 1;
        self.volume[rv as usize] += 1;
        if ru != rv && self.volume[ru as usize] + self.volume[rv as usize] <= self.cap {
            // Merge the lighter cluster into the heavier (tie → the lower
            // root id wins), keeping merge order deterministic.
            let (winner, loser) = if self.volume[ru as usize] > self.volume[rv as usize]
                || (self.volume[ru as usize] == self.volume[rv as usize] && ru < rv)
            {
                (ru, rv)
            } else {
                (rv, ru)
            };
            self.parent[loser as usize] = winner;
            self.volume[winner as usize] += self.volume[loser as usize];
            self.volume[loser as usize] = 0;
        }
        self.observed += 1;
        if self.observed >= self.total_edges {
            self.finalize();
        }
    }

    /// Maps clusters to partitions: roots in descending-volume order
    /// (ties → lower root id) go to the least volume-loaded partition
    /// (ties → lower partition id). Idempotent.
    fn finalize(&mut self) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        let mut roots: Vec<u32> = (0..self.parent.len() as u32)
            .filter(|&v| self.parent[v as usize] == v && self.parent[v as usize] != UNVISITED)
            .collect();
        roots.sort_by_key(|&r| (std::cmp::Reverse(self.volume[r as usize]), r));
        let mut loads = vec![0u64; self.k];
        let mut assigned: Vec<(u32, PartitionId)> = Vec::with_capacity(roots.len());
        for r in roots {
            let mut best = 0 as PartitionId;
            for p in 1..self.k as PartitionId {
                if loads[p as usize] < loads[best as usize] {
                    best = p;
                }
            }
            loads[best as usize] += self.volume[r as usize];
            assigned.push((r, best));
        }
        assigned.sort_unstable_by_key(|&(r, _)| r);
        self.cluster_part = assigned;
    }

    /// The dense cluster-home table, finalizing the pass and building
    /// the table on first use: entry `v` is the partition of `v`'s root
    /// in `cluster_part`, `NO_HOME` for vertices the clustering never saw.
    fn homes(&mut self) -> &[PartitionId] {
        self.finalize();
        if self.home.is_none() {
            let home = (0..self.parent.len() as u32)
                .map(|v| {
                    if self.parent[v as usize] == UNVISITED {
                        return NO_HOME;
                    }
                    let root = self.resolve(v);
                    match self.cluster_part.binary_search_by_key(&root, |&(r, _)| r) {
                        Ok(i) => self.cluster_part[i].1,
                        Err(_) => NO_HOME,
                    }
                })
                .collect();
            self.home = Some(home);
        }
        self.home.as_deref().unwrap_or_default()
    }

    /// The cluster homes of `e`'s endpoints, once finalized; `None` for
    /// vertices the clustering never saw.
    fn targets(&mut self, e: Edge) -> [Option<PartitionId>; 2] {
        let home = self.homes();
        let of = |v: u32| home.get(v as usize).copied().filter(|&p| p != NO_HOME);
        [of(e.src), of(e.dst)]
    }

    /// Read-only root lookup (no path compression) for snapshotting:
    /// the serialized form is the fully resolved forest, canonical
    /// regardless of how much compression `find` has applied.
    fn resolve(&self, v: u32) -> u32 {
        let mut root = v;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        root
    }

    /// The pass's snapshot records (DESIGN.md §11), each a flat list:
    /// the observed count, then three tables as `(key, value)` pairs in
    /// ascending key order — visited vertex → resolved root, root →
    /// non-zero volume, and (once finalized) cluster root → partition.
    fn snapshot_state(&self) -> Vec<(&'static str, Vec<u64>)> {
        let (mut parents, mut volumes) = (Vec::new(), Vec::new());
        for v in 0..self.parent.len() as u32 {
            if self.parent[v as usize] == UNVISITED {
                continue;
            }
            parents.extend([u64::from(v), u64::from(self.resolve(v))]);
            if self.parent[v as usize] == v && self.volume[v as usize] > 0 {
                volumes.extend([u64::from(v), self.volume[v as usize]]);
            }
        }
        let mut records = Vec::new();
        if self.observed > 0 {
            records.push(("2ps.observed", vec![self.observed]));
        }
        if !parents.is_empty() {
            records.push(("2ps.parent", parents));
        }
        if !volumes.is_empty() {
            records.push(("2ps.vol", volumes));
        }
        if self.finalized {
            let clusters =
                self.cluster_part.iter().flat_map(|&(r, p)| [u64::from(r), u64::from(p)]);
            records.push(("2ps.cpart", clusters.collect()));
        }
        records
    }

    /// Restores one record of
    /// [`snapshot_state`](ClusterPass::snapshot_state), in the writer's
    /// order, accepting only what the writer can emit: vertex ids below
    /// `n` and ascending, every root resolving to itself, volumes at
    /// roots summing to twice the observed count, and a cluster map only
    /// once every edge was observed. Drops the home table, which the next
    /// placement rebuilds from the restored forest and cluster map.
    fn restore_state(&mut self, key: &str, values: &[u64]) -> bool {
        self.home = None;
        if let ("2ps.observed", &[observed]) = (key, values) {
            self.observed = observed;
            return observed <= self.total_edges;
        }
        let Some(pairs) = vertex_pairs(values, self.n) else {
            return false;
        };
        let is_root = |r: u32| self.parent.get(r as usize) == Some(&r);
        match key {
            "2ps.parent" => {
                let root_of = |r: u64| {
                    let i = pairs.binary_search_by_key(&r, |&(v, _)| u64::from(v)).ok()?;
                    Some(pairs[i].1)
                };
                if pairs.iter().any(|&(_, r)| root_of(r) != Some(r)) {
                    return false;
                }
                for (v, root) in pairs {
                    self.ensure(v);
                    self.parent[v as usize] = root as u32;
                }
            }
            "2ps.vol" => {
                let total = pairs.iter().try_fold(0u64, |sum, &(_, vol)| sum.checked_add(vol));
                if total != Some(2 * self.observed) || pairs.iter().any(|&(r, _)| !is_root(r)) {
                    return false;
                }
                for (root, vol) in pairs {
                    self.volume[root as usize] = vol;
                }
            }
            "2ps.cpart" => {
                if self.observed != self.total_edges
                    || pairs.iter().any(|&(r, p)| p >= self.k as u64 || !is_root(r))
                {
                    return false;
                }
                self.cluster_part = pairs.into_iter().map(|(r, p)| (r, p as PartitionId)).collect();
                self.finalized = true;
            }
            _ => return false,
        }
        true
    }
}

/// `values` as `(vertex, value)` pairs, the vertices strictly ascending
/// and below `n`; `None` otherwise.
fn vertex_pairs(values: &[u64], n: usize) -> Option<Vec<(u32, u64)>> {
    if !values.len().is_multiple_of(2) {
        return None;
    }
    let mut pairs: Vec<(u32, u64)> = Vec::with_capacity(values.len() / 2);
    for pair in values.chunks_exact(2) {
        let v = u32::try_from(pair[0]).ok().filter(|&v| (v as usize) < n)?;
        if pairs.last().is_some_and(|&(last, _)| last >= v) {
            return None;
        }
        pairs.push((v, pair[1]));
    }
    Some(pairs)
}

/// The 2PS two-phase edge partitioner: streaming clustering pass, then
/// cluster-affine HDRF assignment pass.
#[derive(Debug, Clone)]
pub(crate) struct TwoPhase {
    inner: Hdrf,
    clustering: Option<ClusterPass>,
}

impl TwoPhase {
    /// Creates 2PS for a graph with `n` vertices and `m` edges. With
    /// [`PartitionerConfig::two_phase_clustering`] disabled the result
    /// is a one-pass machine bit-identical to [`Hdrf`].
    pub(crate) fn new(cfg: &PartitionerConfig, n: usize, m: usize) -> Self {
        TwoPhase {
            inner: Hdrf::new(cfg, m),
            clustering: cfg.two_phase_clustering.then(|| ClusterPass::new(cfg.k, n, m)),
        }
    }
}

impl EdgeStreamPartitioner for TwoPhase {
    fn place(&mut self, e: Edge, state: &EdgeStreamState) -> PartitionId {
        let targets = match &mut self.clustering {
            Some(c) => c.targets(e),
            None => [None, None],
        };
        self.inner.place_with_affinity(e, state, targets)
    }

    fn passes(&self) -> usize {
        if self.clustering.is_some() {
            2
        } else {
            1
        }
    }

    fn observing(&self) -> bool {
        match &self.clustering {
            Some(c) => c.observed < c.total_edges,
            None => false,
        }
    }

    fn observe(&mut self, e: Edge) {
        if let Some(c) = &mut self.clustering {
            c.observe(e);
        }
    }

    fn decision_stats(&self) -> DecisionStats {
        self.inner.decision_stats()
    }

    fn work_stats(&self) -> WorkStats {
        self.inner.work_stats()
    }

    fn snapshot_state(&self) -> Vec<(&'static str, Vec<u64>)> {
        self.clustering.as_ref().map(ClusterPass::snapshot_state).unwrap_or_default()
    }

    fn restore_state(&mut self, key: &str, values: &[u64]) -> bool {
        self.clustering.as_mut().is_some_and(|c| c.restore_state(key, values))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::metrics;
    use crate::streaming::run_edge_stream;
    use crate::vertex_cut::tests::ReferenceHdrf;
    use sgp_graph::generators::{rmat, RmatConfig};
    use sgp_graph::{Graph, StreamOrder};
    use sgp_trace::NullSink;

    fn graph() -> Graph {
        rmat(RmatConfig { scale: 10, edge_factor: 10, ..RmatConfig::default() })
    }

    /// Textbook 2PS for the HDRF twin grid: the same clustering pass and
    /// snapshot records, but each endpoint's cluster home is looked up per
    /// edge — `find` with path compression, then a binary search over
    /// `cluster_part` — and scored by [`ReferenceHdrf`]'s probe loop.
    #[derive(Debug, Clone)]
    pub(crate) struct ReferenceTwoPhase {
        inner: ReferenceHdrf,
        clustering: Option<ClusterPass>,
    }

    impl ReferenceTwoPhase {
        pub(crate) fn new(cfg: &PartitionerConfig, n: usize, m: usize) -> Self {
            ReferenceTwoPhase {
                inner: ReferenceHdrf::new(cfg, m),
                clustering: cfg.two_phase_clustering.then(|| ClusterPass::new(cfg.k, n, m)),
            }
        }
    }

    fn reference_target(c: &mut ClusterPass, v: u32) -> Option<PartitionId> {
        if (v as usize) < c.parent.len() && c.parent[v as usize] != UNVISITED {
            let root = c.find(v);
            return c
                .cluster_part
                .binary_search_by_key(&root, |&(r, _)| r)
                .ok()
                .map(|i| c.cluster_part[i].1);
        }
        None
    }

    impl EdgeStreamPartitioner for ReferenceTwoPhase {
        fn place(&mut self, e: Edge, state: &EdgeStreamState) -> PartitionId {
            let targets = match &mut self.clustering {
                Some(c) => {
                    c.finalize();
                    [reference_target(c, e.src), reference_target(c, e.dst)]
                }
                None => [None, None],
            };
            self.inner.place_with_affinity(e, state, targets)
        }

        fn passes(&self) -> usize {
            if self.clustering.is_some() {
                2
            } else {
                1
            }
        }

        fn observing(&self) -> bool {
            self.clustering.as_ref().is_some_and(|c| c.observed < c.total_edges)
        }

        fn observe(&mut self, e: Edge) {
            if let Some(c) = &mut self.clustering {
                c.observe(e);
            }
        }

        fn decision_stats(&self) -> DecisionStats {
            self.inner.decision_stats()
        }

        fn snapshot_state(&self) -> Vec<(&'static str, Vec<u64>)> {
            self.clustering.as_ref().map(ClusterPass::snapshot_state).unwrap_or_default()
        }

        fn restore_state(&mut self, key: &str, values: &[u64]) -> bool {
            self.clustering.as_mut().is_some_and(|c| c.restore_state(key, values))
        }
    }

    fn observe_all(tp: &mut TwoPhase, g: &Graph) {
        for e in g.edges() {
            assert!(tp.observing());
            tp.observe(e);
        }
        assert!(!tp.observing());
    }

    #[test]
    fn clustering_conserves_volume_and_fragments() {
        // The cap gates *merges* (a cluster's own volume can exceed it
        // through the per-endpoint increments alone, e.g. a hub vertex).
        // Two post-hoc invariants hold regardless: total volume across
        // roots is exactly 2m, and the cap keeps the clustering from
        // collapsing into one giant component.
        let g = graph();
        let cfg = PartitionerConfig::new(8);
        let mut tp = TwoPhase::new(&cfg, g.num_vertices(), g.num_edges());
        observe_all(&mut tp, &g);
        let c = tp.clustering.as_ref().unwrap();
        let total: u64 =
            (0..c.parent.len()).filter(|&v| c.parent[v] == v as u32).map(|v| c.volume[v]).sum();
        assert_eq!(total, 2 * g.num_edges() as u64);
        let roots = (0..c.parent.len()).filter(|&v| c.parent[v] == v as u32).count();
        let visited = (0..c.parent.len()).filter(|&v| c.parent[v] != UNVISITED).count();
        assert!(roots >= cfg.k, "clustering collapsed to {roots} clusters");
        assert!(roots < visited, "no merge ever happened");
    }

    #[test]
    fn finalize_assigns_every_cluster_in_range() {
        let g = graph();
        let cfg = PartitionerConfig::new(6);
        let mut tp = TwoPhase::new(&cfg, g.num_vertices(), g.num_edges());
        observe_all(&mut tp, &g);
        let c = tp.clustering.as_mut().unwrap();
        assert!(c.finalized);
        assert!(!c.cluster_part.is_empty());
        assert!(c.cluster_part.iter().all(|&(_, p)| (p as usize) < 6));
        let home = c.homes();
        for v in g.vertices() {
            if g.degree(v) > 0 {
                assert_ne!(home[v as usize], NO_HOME, "vertex {v} has no cluster home");
            }
        }
    }

    #[test]
    fn clustering_disabled_is_one_pass() {
        let cfg = PartitionerConfig { two_phase_clustering: false, ..PartitionerConfig::new(4) };
        let tp = TwoPhase::new(&cfg, 100, 100);
        assert_eq!(tp.passes(), 1);
        assert!(!tp.observing());
    }

    #[test]
    fn two_pass_run_beats_hdrf_replication() {
        let g = graph();
        let cfg = PartitionerConfig::new(16);
        let hdrf = run_edge_stream(
            &g,
            &mut Hdrf::new(&cfg, g.num_edges()),
            16,
            StreamOrder::Natural,
            &mut NullSink,
        );
        let tps = run_edge_stream(
            &g,
            &mut TwoPhase::new(&cfg, g.num_vertices(), g.num_edges()),
            16,
            StreamOrder::Natural,
            &mut NullSink,
        );
        let (rf_h, rf_t) =
            (metrics::replication_factor(&g, &hdrf), metrics::replication_factor(&g, &tps));
        assert!(
            rf_t <= rf_h * 1.02,
            "2PS RF {rf_t} should not lose to HDRF RF {rf_h} by more than noise"
        );
        assert_eq!(tps.edge_parts.len(), g.num_edges());
    }

    #[test]
    fn snapshot_state_round_trips_mid_pass_one() {
        let g = graph();
        let cfg = PartitionerConfig::new(8);
        let mut tp = TwoPhase::new(&cfg, g.num_vertices(), g.num_edges());
        for e in g.edges().take(g.num_edges() / 2) {
            tp.observe(e);
        }
        let records = tp.snapshot_state();
        let mut restored = TwoPhase::new(&cfg, g.num_vertices(), g.num_edges());
        for (k, v) in &records {
            assert!(restored.restore_state(k, v), "restore failed for {k}");
        }
        assert_eq!(restored.snapshot_state(), records);
        // Both halves continue identically.
        for e in g.edges().skip(g.num_edges() / 2) {
            tp.observe(e);
            restored.observe(e);
        }
        assert_eq!(restored.snapshot_state(), tp.snapshot_state());
    }

    #[test]
    fn snapshot_state_round_trips_mid_pass_two() {
        let g = graph();
        let (k, m) = (8, g.num_edges());
        let cfg = PartitionerConfig::new(k);
        let mut tp = TwoPhase::new(&cfg, g.num_vertices(), m);
        observe_all(&mut tp, &g);
        // Compress every path, so the in-memory forest is flatter than
        // anything the pass built on its own; the snapshot still carries
        // only resolved roots.
        let c = tp.clustering.as_mut().unwrap();
        for v in 0..c.parent.len() as u32 {
            if c.parent[v as usize] != UNVISITED {
                c.find(v);
            }
        }
        let edges: Vec<Edge> = g.edges().collect();
        let (head, tail) = edges.split_at(m / 3);
        let mut state = EdgeStreamState::new(g.num_vertices(), k);
        for &e in head {
            let p = tp.place(e, &state);
            state.record(e, p);
        }
        let records = tp.snapshot_state();
        assert!(records.iter().any(|(key, _)| *key == "2ps.cpart"), "pass one is finalized");

        let mut restored = TwoPhase::new(&cfg, g.num_vertices(), m);
        for (key, values) in &records {
            assert!(restored.restore_state(key, values), "restore failed for {key}");
        }
        assert!(restored.clustering.as_ref().unwrap().home.is_none(), "the home table is derived");
        assert_eq!(restored.snapshot_state(), records);
        let mut restored_state = state.clone();
        for &e in tail {
            let p = tp.place(e, &state);
            state.record(e, p);
            let q = restored.place(e, &restored_state);
            restored_state.record(e, q);
            assert_eq!(q, p, "restored machine diverged at {e:?}");
        }
        let (a, b) = (tp.clustering.as_mut().unwrap(), restored.clustering.as_mut().unwrap());
        assert_eq!(a.homes(), b.homes(), "the rebuilt home table matches the original");
        assert_eq!(restored.snapshot_state(), tp.snapshot_state());
    }

    #[test]
    fn records_the_writer_cannot_emit_are_rejected() {
        let cfg = PartitionerConfig::new(4);
        let mut tp = TwoPhase::new(&cfg, 10, 10);
        assert!(!tp.restore_state("2ps.bogus", &[1]));
        assert!(!tp.restore_state("2ps.observed", &[999]));
        assert!(!tp.restore_state("2ps.observed", &[1, 2]));
        // Odd pair lists, unsorted or out-of-range vertices.
        assert!(!tp.restore_state("2ps.parent", &[0, 0, 1]));
        assert!(!tp.restore_state("2ps.parent", &[1, 1, 0, 0]));
        assert!(!tp.restore_state("2ps.parent", &[10, 10]));
        // A root that does not resolve to itself: 0 → 1 → 0 would loop.
        assert!(!tp.restore_state("2ps.parent", &[0, 1, 1, 0]));
        assert!(tp.restore_state("2ps.observed", &[3]));
        assert!(tp.restore_state("2ps.parent", &[0, 1, 1, 1, 2, 2]));
        // Volumes sit at roots and sum to twice the observed count.
        assert!(!tp.restore_state("2ps.vol", &[0, 6]));
        assert!(!tp.restore_state("2ps.vol", &[1, 5]));
        assert!(tp.restore_state("2ps.vol", &[1, 4, 2, 2]));
        // The cluster map exists only once every edge was observed.
        assert!(!tp.restore_state("2ps.cpart", &[1, 0, 2, 1]));
        assert!(tp.restore_state("2ps.observed", &[10]));
        assert!(!tp.restore_state("2ps.cpart", &[1, 9]));
        assert!(!tp.restore_state("2ps.cpart", &[0, 0]));
        assert!(tp.restore_state("2ps.cpart", &[1, 0, 2, 1]));
    }

    #[test]
    fn empty_graph_never_observes() {
        let cfg = PartitionerConfig::new(4);
        let tp = TwoPhase::new(&cfg, 10, 0);
        assert!(!tp.observing());
        assert_eq!(tp.passes(), 2);
    }
}
