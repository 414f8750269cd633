//! Algorithm registry: the paper's Table 1/Table 2 taxonomy as code,
//! the one table that constructs each algorithm's machine
//! (`Algorithm::build`), and the one general entry that runs any
//! algorithm by name ([`Run`]).

use crate::assignment::{CutModel, Partitioning};
use crate::config::PartitionerConfig;
use crate::decisions::DecisionStats;
use crate::edge_cut::{Fennel, HashVertex, Ldg, Restream, VertexStreamPartitioner};
use crate::exec::run_threaded;
use crate::hybrid::{high_degree_threshold, GingerVertex};
use crate::loaders::{run_loaders, LoaderConfig};
use crate::metis::MultilevelPartitioner;
use crate::streaming::{
    drive_edge_stream, drive_vertex_stream, EdgeIngest, VertexIngest, VertexSeal,
};
use crate::two_phase::TwoPhase;
use crate::vertex_cut::{
    Dbh, EdgeStreamPartitioner, GridConstrained, HashEdge, Hdrf, PowerGraphGreedy,
};
use sgp_graph::{Graph, StreamOrder};
use sgp_trace::{keys, NullSink, TraceSink};

/// Every partitioning algorithm in the study (Table 2 names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Edge-cut hash-based random vertex placement.
    EcrHash,
    /// Linear Deterministic Greedy (Stanton & Kliot).
    Ldg,
    /// FENNEL (Tsourakakis et al.).
    Fennel,
    /// Re-streaming LDG (Nishimura & Ugander), 5 passes.
    RestreamLdg,
    /// Re-streaming FENNEL, 5 passes.
    RestreamFennel,
    /// Vertex-cut hash-based random edge placement.
    VcrHash,
    /// Degree-Based Hashing (Xie et al.).
    Dbh,
    /// Constrained 2-D grid placement (Jain et al.).
    Grid,
    /// PowerGraph oblivious greedy.
    PowerGraphGreedy,
    /// HDRF (Petroni et al.).
    Hdrf,
    /// PowerLyra hybrid random.
    HybridRandom,
    /// Ginger (PowerLyra hybrid greedy).
    Ginger,
    /// Offline multilevel baseline (METIS-like).
    Metis,
    /// 2PS two-phase edge partitioning (streaming clustering pass +
    /// cluster-affine HDRF assignment pass).
    TwoPhaseHdrf,
}

/// Input stream model of an algorithm (Table 1's "Stream" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// Vertex + full adjacency list.
    Vertex,
    /// Individual edges in arbitrary order.
    Edge,
    /// Ginger processes both (two-phase).
    Hybrid,
    /// Offline: the whole graph at once.
    Offline,
}

/// Static description of an algorithm: the row it occupies in Table 1.
#[derive(Debug, Clone)]
pub struct AlgorithmInfo {
    /// Short Table 2 abbreviation.
    pub short_name: &'static str,
    /// Long human name with citation.
    pub long_name: &'static str,
    /// The cut model the algorithm produces.
    pub model: CutModel,
    /// Input stream model.
    pub stream: StreamKind,
    /// Structural cost metric the algorithm optimizes (Table 1).
    pub cost_metric: &'static str,
    /// Parallelization requirement (Table 1): "yes" means
    /// embarrassingly parallel, otherwise the synchronization needed.
    pub parallelization: &'static str,
    /// Placement method family (Table 1's "Method" column).
    pub method: &'static str,
}

impl Algorithm {
    /// Every algorithm, in the column order used by the paper's Table 2.
    pub fn all() -> &'static [Algorithm] {
        &[
            Algorithm::VcrHash,
            Algorithm::Grid,
            Algorithm::Dbh,
            Algorithm::PowerGraphGreedy,
            Algorithm::Hdrf,
            Algorithm::HybridRandom,
            Algorithm::Ginger,
            Algorithm::EcrHash,
            Algorithm::Ldg,
            Algorithm::Fennel,
            Algorithm::RestreamLdg,
            Algorithm::RestreamFennel,
            Algorithm::Metis,
            Algorithm::TwoPhaseHdrf,
        ]
    }

    /// The algorithm set used in the offline-analytics experiments
    /// (Table 2, "Offline Analytics" row: VCR, Grid, DBH, HDRF, HCR, HG,
    /// ECR, LDG, FNL, MTS).
    pub fn offline_suite() -> &'static [Algorithm] {
        &[
            Algorithm::VcrHash,
            Algorithm::Grid,
            Algorithm::Dbh,
            Algorithm::Hdrf,
            Algorithm::HybridRandom,
            Algorithm::Ginger,
            Algorithm::EcrHash,
            Algorithm::Ldg,
            Algorithm::Fennel,
            Algorithm::Metis,
        ]
    }

    /// The edge-cut-only set used in the online-query experiments
    /// (Table 2, "Online Queries" row: ECR, LDG, FNL, MTS — JanusGraph
    /// "does not provide support for vertex-cut partitioning").
    pub fn online_suite() -> &'static [Algorithm] {
        &[Algorithm::EcrHash, Algorithm::Ldg, Algorithm::Fennel, Algorithm::Metis]
    }

    /// Whether [`partition_multi_loader`](crate::loaders::partition_multi_loader)
    /// can split this algorithm's stream across parallel loaders: true
    /// for every streaming algorithm (hash methods need no communication,
    /// greedy methods place against periodically-synchronized shared
    /// state — Table 1's "parallelization" column), false for the
    /// offline METIS baseline (which reads the whole graph at seal time)
    /// and for the two-pass 2PS partitioner (whose clustering pass must
    /// see the entire stream before any edge is placed).
    pub fn supports_parallel_loaders(&self) -> bool {
        // No wildcard on purpose: rustc rejects a new variant until it
        // is decided here.
        match self {
            Algorithm::EcrHash
            | Algorithm::Ldg
            | Algorithm::Fennel
            | Algorithm::RestreamLdg
            | Algorithm::RestreamFennel
            | Algorithm::VcrHash
            | Algorithm::Dbh
            | Algorithm::Grid
            | Algorithm::PowerGraphGreedy
            | Algorithm::Hdrf
            | Algorithm::HybridRandom
            | Algorithm::Ginger => true,
            // Metis is offline (full-graph); 2PS-HDRF's clustering phase
            // is order-sensitive across the whole stream.
            Algorithm::Metis | Algorithm::TwoPhaseHdrf => false,
        }
    }

    /// Static Table 1 row for this algorithm.
    pub fn info(&self) -> AlgorithmInfo {
        use Algorithm::*;
        use CutModel::*;
        use StreamKind::*;
        match self {
            EcrHash => AlgorithmInfo {
                short_name: "ECR",
                long_name: "Hash-based random vertex placement",
                model: EdgeCut,
                stream: Vertex,
                cost_metric: "Edge-cut Ratio",
                parallelization: "Yes (hash, no communication)",
                method: "Hash",
            },
            Ldg => AlgorithmInfo {
                short_name: "LDG",
                long_name: "Linear Deterministic Greedy [Stanton & Kliot 2012]",
                model: EdgeCut,
                stream: Vertex,
                cost_metric: "Edge-cut Ratio",
                parallelization: "Inter-Stream Comm.",
                method: "Greedy",
            },
            Fennel => AlgorithmInfo {
                short_name: "FNL",
                long_name: "FENNEL [Tsourakakis et al. 2014]",
                model: EdgeCut,
                stream: Vertex,
                cost_metric: "Edge-cut Ratio",
                parallelization: "Inter-Stream Comm.",
                method: "Greedy",
            },
            RestreamLdg => AlgorithmInfo {
                short_name: "reLDG",
                long_name: "Restreaming LDG [Nishimura & Ugander 2013]",
                model: EdgeCut,
                stream: Vertex,
                cost_metric: "Edge-cut Ratio",
                parallelization: "Intra-Stream Comm.",
                method: "Greedy",
            },
            RestreamFennel => AlgorithmInfo {
                short_name: "reFNL",
                long_name: "Re-FENNEL [Nishimura & Ugander 2013]",
                model: EdgeCut,
                stream: Vertex,
                cost_metric: "Edge-cut Ratio",
                parallelization: "Intra-Stream Comm.",
                method: "Greedy",
            },
            VcrHash => AlgorithmInfo {
                short_name: "VCR",
                long_name: "Hash-based random edge placement",
                model: VertexCut,
                stream: Edge,
                cost_metric: "Replication Factor",
                parallelization: "Yes (hash, no communication)",
                method: "Hash",
            },
            Dbh => AlgorithmInfo {
                short_name: "DBH",
                long_name: "Degree-Based Hashing [Xie et al. 2014]",
                model: VertexCut,
                stream: Edge,
                cost_metric: "Replication Factor",
                parallelization: "Yes",
                method: "Hash",
            },
            Grid => AlgorithmInfo {
                short_name: "Grid",
                long_name: "Constrained grid placement [Jain et al. 2013]",
                model: VertexCut,
                stream: Edge,
                cost_metric: "Replication Factor",
                parallelization: "Yes",
                method: "Constrained",
            },
            PowerGraphGreedy => AlgorithmInfo {
                short_name: "PGG",
                long_name: "PowerGraph oblivious greedy [Gonzalez et al. 2012]",
                model: VertexCut,
                stream: Edge,
                cost_metric: "Replication Factor",
                parallelization: "Inter-Stream Comm.",
                method: "Greedy",
            },
            Hdrf => AlgorithmInfo {
                short_name: "HDRF",
                long_name: "High-Degree Replicated First [Petroni et al. 2015]",
                model: VertexCut,
                stream: Edge,
                cost_metric: "Replication Factor",
                parallelization: "Inter-Stream Comm.",
                method: "Greedy",
            },
            HybridRandom => AlgorithmInfo {
                short_name: "HCR",
                long_name: "PowerLyra hybrid random [Chen et al. 2015]",
                model: HybridCut,
                stream: Edge,
                cost_metric: "Replication Factor",
                parallelization: "Yes",
                method: "Hash",
            },
            Ginger => AlgorithmInfo {
                short_name: "HG",
                long_name: "Ginger [Chen et al. 2015]",
                model: HybridCut,
                stream: Hybrid,
                cost_metric: "Replication Factor",
                parallelization: "Inter-Stream Comm.",
                method: "Greedy",
            },
            Metis => AlgorithmInfo {
                short_name: "MTS",
                long_name: "Multilevel offline partitioner (METIS-like)",
                model: EdgeCut,
                stream: Offline,
                cost_metric: "Edge-cut Ratio",
                parallelization: "No (offline pre-processing)",
                method: "Multilevel",
            },
            TwoPhaseHdrf => AlgorithmInfo {
                short_name: "2PS",
                long_name: "Two-phase streaming (clustering + HDRF) [Mayer et al. 2020]",
                model: VertexCut,
                stream: Edge,
                cost_metric: "Replication Factor",
                parallelization: "No (two-pass, clustering state)",
                method: "Clustering + Greedy",
            },
        }
    }

    /// Short Table 2 abbreviation.
    pub fn short_name(&self) -> &'static str {
        self.info().short_name
    }

    /// Parses a Table 2 abbreviation (case-insensitive).
    pub fn from_short_name(name: &str) -> Option<Algorithm> {
        Algorithm::all().iter().copied().find(|a| a.short_name().eq_ignore_ascii_case(name))
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.short_name())
    }
}

/// What [`Algorithm::build`] hands its consumer: the concrete machine
/// of one Table 2 algorithm. The sequential driver consumes it
/// monomorphised; the facade, the modelled loaders and the threads box
/// it (machines are plain data, so a clone of a fresh machine is a fresh
/// machine — that is how `L` loaders get one each).
pub(crate) trait MachineVisitor: Sized {
    /// What the consumer makes of the machine.
    type Out;

    /// A vertex-stream machine and how its owner map seals into edges.
    fn vertex<P: VertexStreamPartitioner + Clone + 'static>(
        self,
        p: P,
        seal: VertexSeal,
    ) -> Self::Out;

    /// An edge-stream machine.
    fn edge<P: EdgeStreamPartitioner + Clone + 'static>(self, p: P) -> Self::Out;

    /// The offline baseline: no machine, the whole graph at once.
    fn offline(self) -> Self::Out;

    /// HCR's vertex phase is a pure hash of the vertex id. By default it
    /// streams like any vertex machine; a consumer that owns the whole
    /// run may compute the owners without a stream instead.
    fn hashed_hybrid(self, p: HashVertex, seal: VertexSeal) -> Self::Out {
        self.vertex(p, seal)
    }
}

impl Algorithm {
    /// The one algorithm table: constructs this algorithm's machine for
    /// `g` and hands it to `v`. The hybrid algorithms appear as vertex
    /// machines because their first phase is a vertex stream (hash
    /// placement for HCR, the Ginger greedy for HG); their edge routing
    /// happens at seal time, under a degree threshold fixed here.
    pub(crate) fn build<V: MachineVisitor>(
        self,
        g: &Graph,
        cfg: &PartitionerConfig,
        v: V,
    ) -> V::Out {
        let (n, m) = (g.num_vertices(), g.num_edges());
        let hybrid = || VertexSeal::Hybrid { threshold: high_degree_threshold(g, cfg) };
        // No wildcard on purpose: rustc rejects a new variant until it
        // has an arm here.
        match self {
            Algorithm::EcrHash => v.vertex(HashVertex::new(cfg), VertexSeal::EdgeCut),
            Algorithm::Ldg => v.vertex(Ldg::new(cfg, n), VertexSeal::EdgeCut),
            Algorithm::Fennel => v.vertex(Fennel::new(cfg, n, m), VertexSeal::EdgeCut),
            Algorithm::RestreamLdg => {
                v.vertex(Restream::new(Ldg::new(cfg, n), 5), VertexSeal::EdgeCut)
            }
            Algorithm::RestreamFennel => {
                v.vertex(Restream::new(Fennel::new(cfg, n, m), 5), VertexSeal::EdgeCut)
            }
            Algorithm::VcrHash => v.edge(HashEdge::new(cfg)),
            Algorithm::Dbh => v.edge(Dbh::with_exact_degrees(cfg, g)),
            Algorithm::Grid => v.edge(GridConstrained::new(cfg)),
            Algorithm::PowerGraphGreedy => v.edge(PowerGraphGreedy::new(cfg)),
            Algorithm::Hdrf => v.edge(Hdrf::new(cfg, m)),
            Algorithm::HybridRandom => v.hashed_hybrid(HashVertex::new(cfg), hybrid()),
            Algorithm::Ginger => v.vertex(GingerVertex::new(cfg, g), hybrid()),
            Algorithm::Metis => v.offline(),
            Algorithm::TwoPhaseHdrf => v.edge(TwoPhase::new(cfg, n, m)),
        }
    }

    /// This algorithm's machine, boxed.
    pub(crate) fn boxed(self, g: &Graph, cfg: &PartitionerConfig) -> Boxed {
        self.build(g, cfg, Boxing)
    }
}

/// Boxed machines on demand: what the facade, the restream loop, the
/// modelled loaders and the threads make of [`Algorithm::build`]. Each
/// call of a maker yields one fresh machine.
pub(crate) enum Boxed {
    Vertex(Box<dyn Fn() -> Box<dyn VertexStreamPartitioner>>, VertexSeal),
    Edge(Box<dyn Fn() -> Box<dyn EdgeStreamPartitioner>>),
    Offline,
}

/// The table consumer that boxes.
struct Boxing;

impl MachineVisitor for Boxing {
    type Out = Boxed;

    fn vertex<P: VertexStreamPartitioner + Clone + 'static>(self, p: P, seal: VertexSeal) -> Boxed {
        Boxed::Vertex(Box::new(move || Box::new(p.clone())), seal)
    }

    fn edge<P: EdgeStreamPartitioner + Clone + 'static>(self, p: P) -> Boxed {
        Boxed::Edge(Box::new(move || Box::new(p.clone())))
    }

    fn offline(self) -> Boxed {
        Boxed::Offline
    }
}

/// The offline multilevel baseline (`MTS`): reads the whole graph.
pub(crate) fn offline_baseline(g: &Graph, k: usize) -> Partitioning {
    MultilevelPartitioner::default().partitioning(g, k)
}

/// How a [`Run`] executes its stream.
#[derive(Debug, Clone, Copy)]
pub enum Exec<'a> {
    /// One machine places every element on arrival, behind the
    /// look-ahead window [`PartitionerConfig::window`].
    Sequential,
    /// The stream split across modelled parallel loaders
    /// (`crate::loaders`).
    Loaders(&'a LoaderConfig),
    /// The same split on real OS threads (`crate::exec`).
    Threads(&'a LoaderConfig),
}

/// Why a [`Run`] was refused.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunError {
    /// A look-ahead window `W > 1` was combined with parallel loaders.
    /// Loaders place every element on arrival against stale shared
    /// state; buffering would need a window per loader and a rule for
    /// draining it at barriers, which nothing defines.
    WindowedLoaders {
        /// The configured [`PartitionerConfig::window`].
        window: usize,
    },
    /// A FENNEL-family run (`FNL`, `reFNL`) with a γ that is non-finite
    /// or below 1. For γ < 1 an empty partition's load term
    /// `α·γ·0^(γ−1)` is `+∞`, so its score is the capacity-saturated
    /// sentinel and the empty partition is treated as full.
    FennelGamma {
        /// The configured [`PartitionerConfig::fennel_gamma`].
        gamma: f64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::WindowedLoaders { window } => {
                write!(
                    f,
                    "a look-ahead window of {window} cannot be combined with parallel loaders"
                )
            }
            RunError::FennelGamma { gamma } => {
                write!(f, "FENNEL needs a finite gamma >= 1, got {gamma}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// One partitioning run: the general entry every other entry point of
/// this crate is a call of.
#[derive(Debug, Clone, Copy)]
pub struct Run<'a> {
    /// The Table 2 algorithm to run.
    pub algorithm: Algorithm,
    /// The shared partitioner configuration.
    pub cfg: &'a PartitionerConfig,
    /// The order the stream arrives in.
    pub order: StreamOrder,
    /// Sequential, modelled loaders, or threads.
    pub exec: Exec<'a>,
}

impl Run<'_> {
    /// Runs the algorithm over `g`, recording trace events into `sink`
    /// (pass [`NullSink`] for none; the produced [`Partitioning`] does
    /// not depend on the sink — the workspace differential tests enforce
    /// this for every algorithm).
    ///
    /// A sequential run is wrapped in a `partition.run` span (keyed by
    /// the algorithm's position in [`Algorithm::all`], stamps are logical
    /// element counts) and flushes the per-algorithm decision counters —
    /// balance tie-breaks, hybrid degree-threshold hits, vertex-cut
    /// mirror creations; it honours [`PartitionerConfig::window`]. A
    /// threaded run counts its loader threads
    /// ([`keys::PARTITION_EXEC_THREADS`]) and synchronization rounds
    /// ([`keys::PARTITION_EXEC_BARRIER_ROUNDS`]). Algorithms without
    /// [loader support](Algorithm::supports_parallel_loaders) run
    /// sequentially under either loader mode.
    ///
    /// Refused, under any `exec`: a window above 1 with loaders
    /// ([`RunError::WindowedLoaders`]), and FENNEL or re-FENNEL with a
    /// `fennel_gamma` that is non-finite or below 1
    /// ([`RunError::FennelGamma`]).
    pub fn execute<S: TraceSink>(&self, g: &Graph, sink: &mut S) -> Result<Partitioning, RunError> {
        let window = self.cfg.window;
        if window > 1 && !matches!(self.exec, Exec::Sequential) {
            return Err(RunError::WindowedLoaders { window });
        }
        let gamma = self.cfg.fennel_gamma;
        let fennel = matches!(self.algorithm, Algorithm::Fennel | Algorithm::RestreamFennel);
        if fennel && !(gamma.is_finite() && gamma >= 1.0) {
            return Err(RunError::FennelGamma { gamma });
        }
        Ok(self.run(g, window, sink))
    }

    /// [`execute`](Run::execute) past its check: a sequential run looks
    /// `window` elements ahead, the loaders not at all.
    pub(crate) fn run<S: TraceSink>(&self, g: &Graph, window: usize, sink: &mut S) -> Partitioning {
        let Run { algorithm, cfg, order, exec } = *self;
        // METIS (offline) and 2PS (its clustering pass must see the
        // whole stream before placement) run single-loader.
        let splits = algorithm.supports_parallel_loaders();
        match exec {
            Exec::Loaders(lc) if splits => {
                run_loaders(g, cfg.k, algorithm.boxed(g, cfg), order, lc, false).0
            }
            Exec::Threads(lc) if splits => {
                run_threaded(g, cfg.k, algorithm.boxed(g, cfg), order, lc, sink)
            }
            _ => {
                let alg_key =
                    Algorithm::all().iter().position(|&a| a == algorithm).unwrap_or(0) as u64;
                let run_span = sink.guard_span(keys::PARTITION_RUN, alg_key, 0);
                let window = window.max(1);
                let visitor = Sequential { g, k: cfg.k, order, window, sink: &mut *sink };
                let p = algorithm.build(g, cfg, visitor);
                run_span.exit(sink, (g.num_vertices() + g.num_edges()) as u64);
                p
            }
        }
    }
}

/// Runs `algorithm` on `g` sequentially with the shared config and
/// stream order, untraced; the entry point the experiment harness uses.
///
/// Unchecked: a FENNEL γ below 1 runs as it always did (empty
/// partitions score as saturated); [`Run::execute`] refuses it with
/// [`RunError::FennelGamma`] instead.
pub fn partition(
    g: &Graph,
    algorithm: Algorithm,
    cfg: &PartitionerConfig,
    order: StreamOrder,
) -> Partitioning {
    Run { algorithm, cfg, order, exec: Exec::Sequential }.run(g, cfg.window, &mut NullSink)
}

/// The sequential consumer of the table: drives the concrete machine,
/// `place` monomorphised, through the one driver of its stream kind.
struct Sequential<'a, S> {
    g: &'a Graph,
    k: usize,
    order: StreamOrder,
    window: usize,
    sink: &'a mut S,
}

impl<S: TraceSink> MachineVisitor for Sequential<'_, S> {
    type Out = Partitioning;

    fn vertex<P: VertexStreamPartitioner + Clone + 'static>(
        self,
        mut p: P,
        seal: VertexSeal,
    ) -> Partitioning {
        let mut core = VertexIngest::init(&mut p, self.g.num_vertices(), self.k);
        drive_vertex_stream(self.g, &mut core, self.order, self.window, self.sink);
        core.seal_as(self.g, seal, self.sink)
    }

    fn edge<P: EdgeStreamPartitioner + Clone + 'static>(self, mut p: P) -> Partitioning {
        let mut core = EdgeIngest::init(self.g, &mut p, self.k);
        drive_edge_stream(self.g, &mut core, self.order, self.window, self.sink);
        core.seal_traced(self.sink)
    }

    fn offline(self) -> Partitioning {
        offline_baseline(self.g, self.k)
    }

    /// No stream: delivering |V| records a hash never reads would be
    /// most of what HCR costs (measured: 120 M → 20 M elements/s).
    fn hashed_hybrid(self, p: HashVertex, seal: VertexSeal) -> Partitioning {
        let owner = self.g.vertices().map(|v| p.owner(v)).collect();
        let (p, degree_threshold_hits) = seal.apply(self.g, self.k, owner);
        if self.sink.enabled() {
            self.sink.counter_add(keys::PARTITION_EDGES_PLACED, 0, self.g.num_edges() as u64);
            DecisionStats { degree_threshold_hits, ..DecisionStats::default() }
                .flush_into(self.sink);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::QualityReport;
    use sgp_graph::generators::{erdos_renyi, ErdosRenyiConfig};

    /// `all()` is the table every suite, snapshot and loader test walks.
    /// The match has no wildcard, so a new variant does not compile until
    /// it gets a position here; the count below and `all()` then have to
    /// grow with it.
    #[test]
    fn all_lists_every_variant_exactly_once() {
        const VARIANTS: usize = 14;
        let position = |a: Algorithm| match a {
            Algorithm::VcrHash => 0,
            Algorithm::Grid => 1,
            Algorithm::Dbh => 2,
            Algorithm::PowerGraphGreedy => 3,
            Algorithm::Hdrf => 4,
            Algorithm::HybridRandom => 5,
            Algorithm::Ginger => 6,
            Algorithm::EcrHash => 7,
            Algorithm::Ldg => 8,
            Algorithm::Fennel => 9,
            Algorithm::RestreamLdg => 10,
            Algorithm::RestreamFennel => 11,
            Algorithm::Metis => 12,
            Algorithm::TwoPhaseHdrf => 13,
        };
        // Entry i sits at position i, so the entries are distinct; with
        // VARIANTS of them every variant is listed.
        assert_eq!(Algorithm::all().len(), VARIANTS);
        for (i, &a) in Algorithm::all().iter().enumerate() {
            assert_eq!(position(a), i, "{a} is out of place in Algorithm::all()");
        }
    }

    #[test]
    fn every_algorithm_runs_end_to_end() {
        let g = erdos_renyi(ErdosRenyiConfig { vertices: 400, edges: 2400, seed: 1 });
        let cfg = PartitionerConfig::new(4);
        for &alg in Algorithm::all() {
            let p = partition(&g, alg, &cfg, StreamOrder::Random { seed: 2 });
            assert_eq!(p.k, 4, "{alg}");
            assert_eq!(p.edge_parts.len(), g.num_edges(), "{alg}");
            let q = QualityReport::measure(&g, &p);
            assert!(q.replication_factor >= 1.0, "{alg}: rf {}", q.replication_factor);
            assert!(q.replication_factor <= 4.0, "{alg}: rf exceeds k");
        }
    }

    /// Window × loaders is decided once: the general entry refuses the
    /// combination, the pinned wrappers keep ignoring the window — for
    /// the split stream and for the single-loader fallback (2PS) alike.
    #[test]
    fn a_window_is_refused_under_loaders_and_ignored_by_the_pinned_wrappers() {
        use crate::exec::partition_threaded;
        use crate::loaders::partition_multi_loader;
        let g = erdos_renyi(ErdosRenyiConfig { vertices: 300, edges: 1800, seed: 5 });
        let order = StreamOrder::Random { seed: 6 };
        let lc = LoaderConfig::new(2).with_sync_interval(16);
        let (plain, windowed) =
            (PartitionerConfig::new(4), PartitionerConfig::new(4).with_window(7));
        let bits = |p: Partitioning| (p.edge_parts, p.vertex_owner);
        for algorithm in [Algorithm::Ldg, Algorithm::Hdrf, Algorithm::TwoPhaseHdrf] {
            for exec in [Exec::Loaders(&lc), Exec::Threads(&lc)] {
                let refused =
                    Run { algorithm, cfg: &windowed, order, exec }.execute(&g, &mut NullSink);
                assert_eq!(
                    refused.err(),
                    Some(RunError::WindowedLoaders { window: 7 }),
                    "{algorithm}"
                );
                let run = Run { algorithm, cfg: &plain, order, exec };
                let accepted = run.execute(&g, &mut NullSink).expect("no window, no refusal");
                let pinned = match exec {
                    Exec::Threads(_) => partition_threaded(&g, algorithm, &windowed, order, &lc),
                    _ => partition_multi_loader(&g, algorithm, &windowed, order, &lc),
                };
                assert_eq!(
                    bits(accepted),
                    bits(pinned),
                    "{algorithm}: the wrappers ignore the window"
                );
            }
            let sequential = Run { algorithm, cfg: &windowed, order, exec: Exec::Sequential };
            let p =
                sequential.execute(&g, &mut NullSink).expect("sequential runs are never refused");
            let p = bits(p);
            assert_eq!(p, bits(partition(&g, algorithm, &windowed, order)), "{algorithm}");
            assert_ne!(p, bits(partition(&g, algorithm, &plain, order)), "{algorithm}: W = 7 vs 1");
        }
    }

    /// γ < 1 made an empty partition's FENNEL score `−∞`, the
    /// capacity-saturated sentinel: on this lattice the parent counted
    /// one capacity fallback per empty partition (8) with none full.
    /// The general entry now refuses such a γ for the FENNEL family
    /// under every exec; γ ≥ 1 runs with no fallback, and the other
    /// algorithms never read γ.
    #[test]
    fn fennel_gamma_below_one_is_refused_not_read_as_saturation() {
        use sgp_graph::generators::{road_grid, RoadConfig};
        use sgp_trace::CollectingSink;
        let g = road_grid(RoadConfig { width: 40, height: 40, ..RoadConfig::default() });
        let lc = LoaderConfig::new(2);
        let with_gamma =
            |gamma| PartitionerConfig { fennel_gamma: gamma, ..PartitionerConfig::new(8) };
        for algorithm in [Algorithm::Fennel, Algorithm::RestreamFennel] {
            for gamma in [0.5, 0.9, 1.0 - f64::EPSILON, f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            {
                let cfg = with_gamma(gamma);
                for exec in [Exec::Sequential, Exec::Loaders(&lc), Exec::Threads(&lc)] {
                    let run = Run { algorithm, cfg: &cfg, order: StreamOrder::Bfs, exec };
                    match run.execute(&g, &mut NullSink) {
                        Err(RunError::FennelGamma { gamma: got }) => {
                            assert_eq!(got.to_bits(), gamma.to_bits(), "{algorithm}")
                        }
                        other => panic!("{algorithm} γ = {gamma}: {:?}", other.map(|p| p.k)),
                    }
                }
            }
            for gamma in [1.0, 1.5] {
                let cfg = with_gamma(gamma);
                let run =
                    Run { algorithm, cfg: &cfg, order: StreamOrder::Bfs, exec: Exec::Sequential };
                let mut sink = CollectingSink::new();
                run.execute(&g, &mut sink).expect("γ ≥ 1 is accepted");
                assert_eq!(
                    sink.counter_total(keys::PARTITION_CAPACITY_FALLBACKS.name()),
                    0,
                    "{algorithm}"
                );
            }
        }
        let ldg = Run {
            algorithm: Algorithm::Ldg,
            cfg: &with_gamma(0.5),
            order: StreamOrder::Bfs,
            exec: Exec::Sequential,
        };
        assert!(ldg.execute(&g, &mut NullSink).is_ok(), "LDG never reads γ");
    }

    #[test]
    fn short_names_are_unique() {
        let mut names: Vec<&str> = Algorithm::all().iter().map(|a| a.short_name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn short_name_roundtrip() {
        for &a in Algorithm::all() {
            assert_eq!(Algorithm::from_short_name(a.short_name()), Some(a));
        }
        assert_eq!(Algorithm::from_short_name("hdrf"), Some(Algorithm::Hdrf));
        assert_eq!(Algorithm::from_short_name("nope"), None);
    }

    #[test]
    fn suites_match_table2() {
        assert_eq!(Algorithm::offline_suite().len(), 10);
        assert_eq!(Algorithm::online_suite().len(), 4);
        assert!(Algorithm::online_suite().iter().all(|a| a.info().model == CutModel::EdgeCut));
    }

    #[test]
    fn cut_models_match_taxonomy() {
        assert_eq!(Algorithm::Hdrf.info().model, CutModel::VertexCut);
        assert_eq!(Algorithm::Ldg.info().model, CutModel::EdgeCut);
        assert_eq!(Algorithm::Ginger.info().model, CutModel::HybridCut);
    }
}
