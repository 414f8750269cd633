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
//! The two passes ride on the ordinary
//! [`EdgeStreamPartitioner`](crate::vertex_cut::EdgeStreamPartitioner)
//! machine lifecycle: [`TwoPhase::passes`] reports 2,
//! [`TwoPhase::observing`] is true until every edge has been observed
//! once, and the ingestion core routes edges to [`TwoPhase::observe`]
//! during that window without touching shared state or the assignment.
//! With [`PartitionerConfig::two_phase_clustering`] disabled the
//! clustering pass disappears and the assignment pass is bit-identical
//! to plain HDRF — the root differential tests pin that degeneracy.

use crate::assignment::PartitionId;
use crate::config::PartitionerConfig;
use crate::decisions::DecisionStats;
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
    fn new(k: usize, m: usize) -> Self {
        ClusterPass {
            k,
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

    /// Canonical `v:root` pairs for visited vertices, ascending `v`.
    fn parent_record(&self) -> String {
        (0..self.parent.len() as u32)
            .filter(|&v| self.parent[v as usize] != UNVISITED)
            .map(|v| format!("{v}:{}", self.resolve(v)))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Canonical `root:volume` pairs for non-zero volumes, ascending.
    fn volume_record(&self) -> String {
        (0..self.parent.len() as u32)
            .filter(|&v| self.parent[v as usize] == v && self.volume[v as usize] > 0)
            .map(|v| format!("{v}:{}", self.volume[v as usize]))
            .collect::<Vec<_>>()
            .join(",")
    }

    fn cluster_part_record(&self) -> String {
        self.cluster_part.iter().map(|&(r, p)| format!("{r}:{p}")).collect::<Vec<_>>().join(",")
    }

    /// Appends the pass's canonical snapshot records to `records`.
    fn push_records(&self, records: &mut Vec<(&'static str, String)>) {
        if self.observed > 0 {
            records.push(("2ps.observed", self.observed.to_string()));
        }
        let parents = self.parent_record();
        if !parents.is_empty() {
            records.push(("2ps.parent", parents));
        }
        let volumes = self.volume_record();
        if !volumes.is_empty() {
            records.push(("2ps.vol", volumes));
        }
        if self.finalized {
            records.push(("2ps.cpart", self.cluster_part_record()));
        }
    }

    /// Restores one `2ps.*` record; `false` for an unknown key or an
    /// unparsable value. Drops the home table, which the next placement
    /// rebuilds from the restored forest and cluster map.
    fn restore_record(&mut self, key: &str, value: &str) -> bool {
        self.home = None;
        match key {
            "2ps.observed" => match value.parse() {
                Ok(v) if v <= self.total_edges => {
                    self.observed = v;
                    true
                }
                _ => false,
            },
            "2ps.parent" => match parse_pairs(value) {
                Some(pairs) if pairs.iter().all(|&(_, root)| root < u64::from(UNVISITED)) => {
                    for (v, root) in pairs {
                        self.ensure(v);
                        self.ensure(root as u32);
                        self.parent[v as usize] = root as u32;
                    }
                    true
                }
                _ => false,
            },
            "2ps.vol" => match parse_pairs(value) {
                Some(pairs) => {
                    for (root, vol) in pairs {
                        self.ensure(root);
                        self.volume[root as usize] = vol;
                    }
                    true
                }
                None => false,
            },
            "2ps.cpart" => match parse_pairs(value) {
                Some(pairs) => {
                    if pairs.iter().any(|&(_, p)| p >= self.k as u64) {
                        return false;
                    }
                    self.cluster_part =
                        pairs.into_iter().map(|(r, p)| (r, p as PartitionId)).collect();
                    self.finalized = true;
                    true
                }
                None => false,
            },
            _ => false,
        }
    }
}

/// Parses a `a:b,a:b,...` record into pairs; `None` on malformed input.
fn parse_pairs(value: &str) -> Option<Vec<(u32, u64)>> {
    if value.is_empty() {
        return Some(Vec::new());
    }
    value
        .split(',')
        .map(|item| {
            let (a, b) = item.split_once(':')?;
            Some((a.parse().ok()?, b.parse().ok()?))
        })
        .collect()
}

/// The 2PS two-phase edge partitioner: streaming clustering pass, then
/// cluster-affine HDRF assignment pass.
#[derive(Debug, Clone)]
pub struct TwoPhase {
    inner: Hdrf,
    clustering: Option<ClusterPass>,
}

impl TwoPhase {
    /// Creates 2PS for a graph with `m` edges. With
    /// [`PartitionerConfig::two_phase_clustering`] disabled the result
    /// is a one-pass machine bit-identical to [`Hdrf`].
    pub fn new(cfg: &PartitionerConfig, m: usize) -> Self {
        TwoPhase {
            inner: Hdrf::new(cfg, m),
            clustering: cfg.two_phase_clustering.then(|| ClusterPass::new(cfg.k, m)),
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

    fn name(&self) -> &'static str {
        "2PS"
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

    fn snapshot_records(&self) -> Vec<(&'static str, String)> {
        let mut records = self.inner.snapshot_records();
        if let Some(c) = &self.clustering {
            c.push_records(&mut records);
        }
        records
    }

    fn restore_record(&mut self, key: &str, value: &str) -> bool {
        match &mut self.clustering {
            Some(c) if key.starts_with("2ps.") => c.restore_record(key, value),
            _ => self.inner.restore_record(key, value),
        }
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
        pub(crate) fn new(cfg: &PartitionerConfig, m: usize) -> Self {
            ReferenceTwoPhase {
                inner: ReferenceHdrf::new(cfg, m),
                clustering: cfg.two_phase_clustering.then(|| ClusterPass::new(cfg.k, m)),
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

        fn name(&self) -> &'static str {
            "2PS"
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

        fn snapshot_records(&self) -> Vec<(&'static str, String)> {
            let mut records = self.inner.snapshot_records();
            if let Some(c) = &self.clustering {
                c.push_records(&mut records);
            }
            records
        }

        fn restore_record(&mut self, key: &str, value: &str) -> bool {
            match &mut self.clustering {
                Some(c) if key.starts_with("2ps.") => c.restore_record(key, value),
                _ => self.inner.restore_record(key, value),
            }
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
        let mut tp = TwoPhase::new(&cfg, g.num_edges());
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
        let mut tp = TwoPhase::new(&cfg, g.num_edges());
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
        let tp = TwoPhase::new(&cfg, 100);
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
            &mut TwoPhase::new(&cfg, g.num_edges()),
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
    fn snapshot_records_round_trip_mid_pass_one() {
        let g = graph();
        let cfg = PartitionerConfig::new(8);
        let mut tp = TwoPhase::new(&cfg, g.num_edges());
        for e in g.edges().take(g.num_edges() / 2) {
            tp.observe(e);
        }
        let records = tp.snapshot_records();
        let mut restored = TwoPhase::new(&cfg, g.num_edges());
        for (k, v) in &records {
            assert!(restored.restore_record(k, v), "restore failed for {k}");
        }
        assert_eq!(restored.snapshot_records(), records);
        // Both halves continue identically.
        for e in g.edges().skip(g.num_edges() / 2) {
            tp.observe(e);
            restored.observe(e);
        }
        assert_eq!(restored.snapshot_records(), tp.snapshot_records());
    }

    #[test]
    fn snapshot_records_round_trip_mid_pass_two() {
        let g = graph();
        let (k, m) = (8, g.num_edges());
        let cfg = PartitionerConfig::new(k);
        let mut tp = TwoPhase::new(&cfg, m);
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
        let records = tp.snapshot_records();
        assert!(records.iter().any(|(key, _)| *key == "2ps.cpart"), "pass one is finalized");

        let mut restored = TwoPhase::new(&cfg, m);
        for (key, value) in &records {
            assert!(restored.restore_record(key, value), "restore failed for {key}");
        }
        assert!(restored.clustering.as_ref().unwrap().home.is_none(), "the home table is derived");
        assert_eq!(restored.snapshot_records(), records);
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
        assert_eq!(restored.snapshot_records(), tp.snapshot_records());
    }

    #[test]
    fn unknown_record_rejected() {
        let cfg = PartitionerConfig::new(4);
        let mut tp = TwoPhase::new(&cfg, 10);
        assert!(!tp.restore_record("2ps.bogus", "1"));
        assert!(!tp.restore_record("2ps.observed", "999"));
        assert!(!tp.restore_record("2ps.cpart", "0:9"));
    }

    #[test]
    fn empty_graph_never_observes() {
        let cfg = PartitionerConfig::new(4);
        let tp = TwoPhase::new(&cfg, 0);
        assert!(!tp.observing());
        assert_eq!(tp.passes(), 2);
    }
}
