//! The incremental streaming-partitioner core.
//!
//! The paper defines every streaming algorithm over a one-pass stream
//! (Stanton's model): the partitioner holds mutable state, consumes
//! stream elements one at a time, and emits a placement per element.
//! This module makes that lifecycle explicit as a state machine —
//! `init(k, config) → ingest(chunk) → seal() → Partitioning` — instead
//! of the whole-graph batch functions the reproduction started with:
//!
//! * [`VertexIngest`] / [`EdgeIngest`]: the per-family machines. They
//!   own the shared streaming state ([`VertexStreamState`] /
//!   [`EdgeStreamState`]), accept bounded chunks from the chunked
//!   sources in `sgp_graph::stream`, and seal into a [`Partitioning`].
//!   Ingestion is O(chunk); nothing about the whole stream is assumed.
//! * [`run_vertex_chunked`] / [`run_edge_chunked`]: traced drivers that
//!   pump a source through a machine. The legacy entry points
//!   (`run_vertex_stream_traced`, `run_edge_stream_traced`) are thin
//!   adapters over these, and the trace span/sequence emission is
//!   byte-identical to the pre-refactor drivers: chunking only batches
//!   the *delivery* of elements, never reorders them, and spans are
//!   stamped with logical element counts that don't observe chunk
//!   boundaries.
//! * [`StreamingPartitioner`]: an algorithm-agnostic facade over the
//!   registry — callers that stream their own chunks (e.g. the
//!   multi-loader layer, external ingestion pipelines) get one uniform
//!   lifecycle for all Table 2 algorithms, with METIS staying offline
//!   behind the same interface.
//!
//! Determinism contract: for every algorithm, any chunk size (including
//! 1 and whole-stream) yields a byte-identical [`Partitioning`] to the
//! one-shot run, because placement decisions depend only on the element
//! sequence and the state folded over it.

use crate::assignment::{CutModel, PartitionId, Partitioning};
use crate::config::PartitionerConfig;
use crate::decisions::DecisionStats;
use crate::edge_cut::{
    Fennel, HashVertex, Ldg, Restream, VertexStreamPartitioner, VertexStreamState, UNASSIGNED,
};
use crate::hybrid::{high_degree_threshold, place_hybrid_edges, GingerVertex};
use crate::metis::MultilevelPartitioner;
use crate::registry::Algorithm;
use crate::vertex_cut::{
    Dbh, EdgeStreamPartitioner, EdgeStreamState, GridConstrained, HashEdge, Hdrf, PowerGraphGreedy,
};
use sgp_graph::stream::VertexRecord;
use sgp_graph::{Edge, EdgeStreamSource, Graph, StreamOrder, VertexId, VertexStreamSource};
use sgp_trace::{keys, NullSink, TraceSink};

/// Default ingestion chunk size used by the legacy one-shot entry
/// points. Large enough to amortize per-chunk overhead, small enough to
/// keep the resident buffer trivial next to the graph itself.
pub const DEFAULT_CHUNK: usize = 1024;

// Forwarding impls so machines can hold partitioners by `&mut` or boxed
// trait object interchangeably with owned values.
impl<P: VertexStreamPartitioner + ?Sized> VertexStreamPartitioner for &mut P {
    fn place(&mut self, rec: &VertexRecord, state: &VertexStreamState) -> PartitionId {
        (**self).place(rec, state)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn passes(&self) -> usize {
        (**self).passes()
    }
    fn decision_stats(&self) -> DecisionStats {
        (**self).decision_stats()
    }
    fn snapshot_records(&self) -> Vec<(&'static str, String)> {
        (**self).snapshot_records()
    }
    fn restore_record(&mut self, key: &str, value: &str) -> bool {
        (**self).restore_record(key, value)
    }
}

impl<P: VertexStreamPartitioner + ?Sized> VertexStreamPartitioner for Box<P> {
    fn place(&mut self, rec: &VertexRecord, state: &VertexStreamState) -> PartitionId {
        (**self).place(rec, state)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn passes(&self) -> usize {
        (**self).passes()
    }
    fn decision_stats(&self) -> DecisionStats {
        (**self).decision_stats()
    }
    fn snapshot_records(&self) -> Vec<(&'static str, String)> {
        (**self).snapshot_records()
    }
    fn restore_record(&mut self, key: &str, value: &str) -> bool {
        (**self).restore_record(key, value)
    }
}

impl<P: EdgeStreamPartitioner + ?Sized> EdgeStreamPartitioner for &mut P {
    fn place(&mut self, e: Edge, state: &EdgeStreamState) -> PartitionId {
        (**self).place(e, state)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn passes(&self) -> usize {
        (**self).passes()
    }
    fn observing(&self) -> bool {
        (**self).observing()
    }
    fn observe(&mut self, e: Edge) {
        (**self).observe(e)
    }
    fn decision_stats(&self) -> DecisionStats {
        (**self).decision_stats()
    }
    fn snapshot_records(&self) -> Vec<(&'static str, String)> {
        (**self).snapshot_records()
    }
    fn restore_record(&mut self, key: &str, value: &str) -> bool {
        (**self).restore_record(key, value)
    }
}

impl<P: EdgeStreamPartitioner + ?Sized> EdgeStreamPartitioner for Box<P> {
    fn place(&mut self, e: Edge, state: &EdgeStreamState) -> PartitionId {
        (**self).place(e, state)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn passes(&self) -> usize {
        (**self).passes()
    }
    fn observing(&self) -> bool {
        (**self).observing()
    }
    fn observe(&mut self, e: Edge) {
        (**self).observe(e)
    }
    fn decision_stats(&self) -> DecisionStats {
        (**self).decision_stats()
    }
    fn snapshot_records(&self) -> Vec<(&'static str, String)> {
        (**self).snapshot_records()
    }
    fn restore_record(&mut self, key: &str, value: &str) -> bool {
        (**self).restore_record(key, value)
    }
}

/// Incremental state machine for vertex-stream (edge-cut) partitioners.
///
/// Owns the shared assignment/size state and a logical sequence counter
/// (elements placed so far — the trace stamp domain). Feed it chunks in
/// stream order via [`ingest`](VertexIngest::ingest); [`seal`](VertexIngest::seal)
/// closes the lifecycle.
#[derive(Debug, Clone)]
pub struct VertexIngest<P> {
    partitioner: P,
    state: VertexStreamState,
    k: usize,
    seq: u64,
}

impl<P: VertexStreamPartitioner> VertexIngest<P> {
    /// Initializes the machine for `n` vertices and `k` partitions.
    pub fn init(partitioner: P, n: usize, k: usize) -> Self {
        VertexIngest { partitioner, state: VertexStreamState::new(n, k), k, seq: 0 }
    }

    /// Stream passes the wrapped partitioner wants (≥ 2 for restreaming).
    pub fn passes(&self) -> usize {
        self.partitioner.passes()
    }

    /// Elements placed so far (the logical trace stamp).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Read access to the shared streaming state.
    pub fn state(&self) -> &VertexStreamState {
        &self.state
    }

    /// Ingests one bounded chunk of stream elements, placing each
    /// against the state folded over all previous elements.
    pub fn ingest(&mut self, chunk: &[VertexRecord]) {
        for rec in chunk {
            let p = self.partitioner.place(rec, &self.state);
            debug_assert!((p as usize) < self.k, "partitioner returned out-of-range id");
            self.state.assign(rec.vertex, p);
            self.seq += 1;
        }
    }

    /// Seals into an edge-cut [`Partitioning`] (out-edges grouped with
    /// their source, per Appendix B). Vertices never ingested are placed
    /// on partition 0 deterministically.
    pub fn seal(self, g: &Graph) -> Partitioning {
        self.seal_traced(g, &mut NullSink)
    }

    /// [`seal`](VertexIngest::seal) that also flushes the end-of-stream
    /// counters (placements, decision stats, per-partition loads) into
    /// `sink` — exactly the counter block the legacy traced driver
    /// emitted after its stream span.
    pub fn seal_traced<S: TraceSink>(self, g: &Graph, sink: &mut S) -> Partitioning {
        if sink.enabled() {
            sink.counter_add(keys::PARTITION_VERTICES_PLACED, 0, self.seq);
            self.partitioner.decision_stats().flush_into(sink);
            for (i, &size) in self.state.sizes.iter().enumerate() {
                sink.counter_add(keys::PARTITION_LOAD, i as u64, size as u64);
            }
        }
        Partitioning::from_vertex_owners(g, self.k, owner_from_assignment(self.state.assignment))
    }

    /// Tears the machine down into its final vertex-owner map (used by
    /// the hybrid seal, which routes edges itself).
    pub(crate) fn into_owner(self) -> Vec<PartitionId> {
        owner_from_assignment(self.state.assignment)
    }

    /// Snapshot support: the wrapped partitioner.
    pub(crate) fn partitioner(&self) -> &P {
        &self.partitioner
    }

    /// Snapshot support: mutable access to the wrapped partitioner.
    pub(crate) fn partitioner_mut(&mut self) -> &mut P {
        &mut self.partitioner
    }

    /// Snapshot support: mutable access to the shared state.
    pub(crate) fn state_mut(&mut self) -> &mut VertexStreamState {
        &mut self.state
    }

    /// Snapshot support: overwrites the logical sequence counter.
    pub(crate) fn set_seq(&mut self, seq: u64) {
        self.seq = seq;
    }
}

/// Maps the ingestion sentinel to a concrete partition: a vertex the
/// stream never delivered lands on partition 0 (deterministic, and
/// impossible when a full stream was ingested).
pub(crate) fn owner_from_assignment(assignment: Vec<PartitionId>) -> Vec<PartitionId> {
    assignment.into_iter().map(|p| if p == UNASSIGNED { 0 } else { p }).collect()
}

/// Incremental state machine for edge-stream (vertex-cut) partitioners.
///
/// Holds the replica-table state plus the edge-placement vector; unlike
/// the vertex machine it needs the graph up front to map stream edges to
/// CSR slots. Edges never ingested stay on partition 0 (the same
/// initialization the batch driver used).
#[derive(Debug, Clone)]
pub struct EdgeIngest<'g, P> {
    g: &'g Graph,
    partitioner: P,
    state: EdgeStreamState,
    edge_parts: Vec<PartitionId>,
    k: usize,
    seq: u64,
}

impl<'g, P: EdgeStreamPartitioner> EdgeIngest<'g, P> {
    /// Initializes the machine over `g` with `k` partitions.
    pub fn init(g: &'g Graph, partitioner: P, k: usize) -> Self {
        EdgeIngest {
            g,
            partitioner,
            state: EdgeStreamState::new(g.num_vertices(), k),
            edge_parts: vec![0 as PartitionId; g.num_edges()],
            k,
            seq: 0,
        }
    }

    /// Stream passes the wrapped partitioner wants (2 for 2PS).
    pub fn passes(&self) -> usize {
        self.partitioner.passes()
    }

    /// Elements placed so far (the logical trace stamp).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Read access to the shared streaming state.
    pub fn state(&self) -> &EdgeStreamState {
        &self.state
    }

    /// Ingests one bounded chunk of stream edges. While the wrapped
    /// partitioner reports an observation pass
    /// ([`EdgeStreamPartitioner::observing`]), edges are routed to
    /// [`EdgeStreamPartitioner::observe`] and neither the shared state,
    /// the placement vector, nor the sequence counter changes — the
    /// snapshot invariant `sum(loads) == seq` holds across passes.
    pub fn ingest(&mut self, chunk: &[Edge]) {
        for &e in chunk {
            if self.partitioner.observing() {
                self.partitioner.observe(e);
                continue;
            }
            let p = self.partitioner.place(e, &self.state);
            debug_assert!((p as usize) < self.k, "partitioner returned out-of-range id");
            self.state.record(e, p);
            // sgp-lint: allow(no-panic-in-lib): ingested edges come from a stream over self.g, so the CSR lookup cannot miss
            let idx = self.g.edge_index(e.src, e.dst).expect("stream edge exists in graph");
            self.edge_parts[idx] = p;
            self.seq += 1;
        }
    }

    /// Seals into a vertex-cut [`Partitioning`].
    pub fn seal(self) -> Partitioning {
        self.seal_traced(&mut NullSink)
    }

    /// [`seal`](EdgeIngest::seal) that also flushes the end-of-stream
    /// counters — placements, decision stats enriched with the replica
    /// and mirror counts the shared state accumulated, per-partition
    /// edge loads — exactly as the legacy traced driver did.
    pub fn seal_traced<S: TraceSink>(self, sink: &mut S) -> Partitioning {
        if sink.enabled() {
            sink.counter_add(keys::PARTITION_EDGES_PLACED, 0, self.seq);
            let mut stats = self.partitioner.decision_stats();
            stats.replicas_created = self.state.replicas_created;
            stats.mirror_creations = self.state.mirror_creations;
            stats.flush_into(sink);
            for (i, &count) in self.state.edge_counts.iter().enumerate() {
                sink.counter_add(keys::PARTITION_LOAD, i as u64, count as u64);
            }
        }
        Partitioning::from_edge_parts(self.g, self.k, self.edge_parts)
    }

    /// Snapshot support: the wrapped partitioner.
    pub(crate) fn partitioner(&self) -> &P {
        &self.partitioner
    }

    /// Snapshot support: mutable access to the wrapped partitioner.
    pub(crate) fn partitioner_mut(&mut self) -> &mut P {
        &mut self.partitioner
    }

    /// Snapshot support: mutable access to the shared state.
    pub(crate) fn state_mut(&mut self) -> &mut EdgeStreamState {
        &mut self.state
    }

    /// Snapshot support: the per-edge placement vector (CSR slot order).
    pub(crate) fn edge_parts(&self) -> &[PartitionId] {
        &self.edge_parts
    }

    /// Snapshot support: mutable access to the placement vector.
    pub(crate) fn edge_parts_mut(&mut self) -> &mut [PartitionId] {
        &mut self.edge_parts
    }

    /// Snapshot support: overwrites the logical sequence counter.
    pub(crate) fn set_seq(&mut self, seq: u64) {
        self.seq = seq;
    }
}

/// Drives a vertex-stream partitioner through the incremental core in
/// bounded chunks, emitting the same trace spans as the legacy driver:
/// one `partition.stream` span, one `partition.pass` span per pass,
/// stamps = logical element counts.
pub fn run_vertex_chunked<P: VertexStreamPartitioner, S: TraceSink>(
    g: &Graph,
    partitioner: &mut P,
    k: usize,
    order: StreamOrder,
    chunk_size: usize,
    sink: &mut S,
) -> Partitioning {
    let mut core = VertexIngest::init(partitioner, g.num_vertices(), k);
    let mut source = VertexStreamSource::new(g, order);
    let mut chunk = Vec::new();
    sink.span_enter(keys::PARTITION_STREAM, 0, core.seq());
    for pass in 0..core.passes() {
        sink.span_enter(keys::PARTITION_PASS, pass as u64, core.seq());
        source.restart();
        while source.next_chunk(chunk_size, &mut chunk) > 0 {
            core.ingest(&chunk);
        }
        sink.span_exit(keys::PARTITION_PASS, pass as u64, core.seq());
    }
    sink.span_exit(keys::PARTITION_STREAM, 0, core.seq());
    core.seal_traced(g, sink)
}

/// Drives an edge-stream partitioner through the incremental core in
/// bounded chunks; trace emission matches the legacy edge driver for
/// one-pass algorithms (a single `partition.stream` span, no pass
/// spans). Multi-pass edge partitioners (2PS) additionally get one
/// `partition.pass` span per pass, mirroring the vertex driver.
pub fn run_edge_chunked<P: EdgeStreamPartitioner, S: TraceSink>(
    g: &Graph,
    partitioner: &mut P,
    k: usize,
    order: StreamOrder,
    chunk_size: usize,
    sink: &mut S,
) -> Partitioning {
    let mut core = EdgeIngest::init(g, partitioner, k);
    let mut source = EdgeStreamSource::new(g, order);
    let mut chunk = Vec::new();
    let passes = core.passes().max(1);
    sink.span_enter(keys::PARTITION_STREAM, 0, core.seq());
    for pass in 0..passes {
        if passes > 1 {
            sink.span_enter(keys::PARTITION_PASS, pass as u64, core.seq());
        }
        source.restart();
        while source.next_chunk(chunk_size, &mut chunk) > 0 {
            core.ingest(&chunk);
        }
        if passes > 1 {
            sink.span_exit(keys::PARTITION_PASS, pass as u64, core.seq());
        }
    }
    sink.span_exit(keys::PARTITION_STREAM, 0, core.seq());
    core.seal_traced(sink)
}

/// Builds the boxed vertex-stream machine for `algorithm`, or `None`
/// when the algorithm does not consume a vertex stream. The hybrid
/// algorithms appear here because their first phase is a vertex stream
/// (hash placement for HCR, the Ginger greedy for HG); their edge
/// routing happens at seal time.
pub(crate) fn boxed_vertex_partitioner(
    g: &Graph,
    algorithm: Algorithm,
    cfg: &PartitionerConfig,
) -> Option<Box<dyn VertexStreamPartitioner>> {
    let n = g.num_vertices();
    let m = g.num_edges();
    match algorithm {
        Algorithm::EcrHash => Some(Box::new(HashVertex::new(cfg))),
        Algorithm::Ldg => Some(Box::new(Ldg::new(cfg, n))),
        Algorithm::Fennel => Some(Box::new(Fennel::new(cfg, n, m))),
        Algorithm::RestreamLdg => Some(Box::new(Restream::new(Ldg::new(cfg, n), 5))),
        Algorithm::RestreamFennel => Some(Box::new(Restream::new(Fennel::new(cfg, n, m), 5))),
        Algorithm::HybridRandom => Some(Box::new(HashVertex::new(cfg))),
        Algorithm::Ginger => Some(Box::new(GingerVertex::new(cfg, g))),
        _ => None,
    }
}

/// Builds the boxed edge-stream machine for `algorithm`, or `None` when
/// the algorithm does not consume an edge stream.
pub(crate) fn boxed_edge_partitioner(
    g: &Graph,
    algorithm: Algorithm,
    cfg: &PartitionerConfig,
) -> Option<Box<dyn EdgeStreamPartitioner>> {
    match algorithm {
        Algorithm::VcrHash => Some(Box::new(HashEdge::new(cfg))),
        Algorithm::Dbh => Some(Box::new(Dbh::with_exact_degrees(cfg, g))),
        Algorithm::Grid => Some(Box::new(GridConstrained::new(cfg))),
        Algorithm::PowerGraphGreedy => Some(Box::new(PowerGraphGreedy::new(cfg))),
        Algorithm::Hdrf => Some(Box::new(Hdrf::new(cfg, g.num_edges()))),
        Algorithm::TwoPhaseHdrf => {
            Some(Box::new(crate::two_phase::TwoPhase::new(cfg, g.num_edges())))
        }
        _ => None,
    }
}

/// Which stream a [`StreamingPartitioner`] consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamInput {
    /// Chunks of [`VertexRecord`]s (edge-cut and hybrid algorithms).
    Vertices,
    /// Chunks of [`Edge`]s (vertex-cut algorithms).
    Edges,
    /// No stream at all — the algorithm reads the whole graph at seal
    /// time (the offline METIS baseline).
    Offline,
}

/// Error returned when a chunk of the wrong stream kind is ingested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WrongStreamKind {
    /// What the machine actually consumes.
    pub expected: StreamInput,
}

impl std::fmt::Display for WrongStreamKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "this streaming partitioner consumes {:?} input", self.expected)
    }
}

impl std::error::Error for WrongStreamKind {}

/// How a vertex machine turns its owner map into edges at seal time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum VertexSealMode {
    /// Appendix-B edge-cut grouping (out-edges follow their source).
    EdgeCut,
    /// PowerLyra hybrid routing: low-degree in-edges follow the target's
    /// owner, high-degree in-edges the source's.
    Hybrid { threshold: usize },
}

pub(crate) enum Machine<'g> {
    Vertex { core: VertexIngest<Box<dyn VertexStreamPartitioner>>, seal: VertexSealMode },
    Edge { core: EdgeIngest<'g, Box<dyn EdgeStreamPartitioner>> },
    Offline,
}

/// Algorithm-agnostic incremental lifecycle over the registry:
/// `init(k, config) → ingest(chunk) → seal() → Partitioning`.
///
/// Every Table 2 algorithm runs behind this one interface. The caller
/// checks [`input`](StreamingPartitioner::input) to learn which chunk
/// type to feed (METIS accepts none and partitions at seal), streams
/// chunks in any [`StreamOrder`] it likes, and seals. Chunked ingestion
/// is byte-identical to the one-shot entry points for the same element
/// order.
pub struct StreamingPartitioner<'g> {
    g: &'g Graph,
    k: usize,
    algorithm: Algorithm,
    machine: Machine<'g>,
    /// Look-ahead window size `W ≥ 1` (ADWISE-style buffered model,
    /// DESIGN.md §12). `W = 1` degenerates exactly to one-pass: the
    /// buffer never holds an element across a placement.
    window: usize,
    /// Buffered vertex records awaiting placement (≤ `W − 1` between
    /// ingest calls), in arrival order.
    wbuf_v: Vec<VertexRecord>,
    /// Buffered edges awaiting placement, in arrival order.
    wbuf_e: Vec<Edge>,
}

impl<'g> StreamingPartitioner<'g> {
    /// Initializes the state machine for `algorithm` over `g`.
    pub fn init(g: &'g Graph, algorithm: Algorithm, cfg: &PartitionerConfig) -> Self {
        let machine = if let Some(core) = boxed_edge_partitioner(g, algorithm, cfg) {
            Machine::Edge { core: EdgeIngest::init(g, core, cfg.k) }
        } else if let Some(p) = boxed_vertex_partitioner(g, algorithm, cfg) {
            let seal = match algorithm.info().model {
                CutModel::HybridCut => {
                    VertexSealMode::Hybrid { threshold: high_degree_threshold(g, cfg) }
                }
                _ => VertexSealMode::EdgeCut,
            };
            Machine::Vertex { core: VertexIngest::init(p, g.num_vertices(), cfg.k), seal }
        } else {
            Machine::Offline
        };
        StreamingPartitioner {
            g,
            k: cfg.k,
            algorithm,
            machine,
            window: cfg.window.max(1),
            wbuf_v: Vec::new(),
            wbuf_e: Vec::new(),
        }
    }

    /// The algorithm this machine runs.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Serializes the machine's run-varying state into the canonical
    /// snapshot format (see [`crate::snapshot`]).
    pub fn snapshot(&self) -> String {
        crate::snapshot::write_snapshot(self)
    }

    /// Rebuilds a machine from a snapshot taken at a chunk boundary;
    /// continuing the stream from that boundary is bit-identical to an
    /// uninterrupted run (see [`crate::snapshot`]).
    pub fn restore(
        g: &'g Graph,
        algorithm: Algorithm,
        cfg: &PartitionerConfig,
        text: &str,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        crate::snapshot::read_snapshot(g, algorithm, cfg, text)
    }

    /// Snapshot support: the underlying graph.
    pub(crate) fn graph(&self) -> &'g Graph {
        self.g
    }

    /// Snapshot support: the partition count.
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// Snapshot support: the machine variant.
    pub(crate) fn machine(&self) -> &Machine<'g> {
        &self.machine
    }

    /// Snapshot support: mutable access to the machine variant.
    pub(crate) fn machine_mut(&mut self) -> &mut Machine<'g> {
        &mut self.machine
    }

    /// The stream kind this machine ingests.
    pub fn input(&self) -> StreamInput {
        match &self.machine {
            Machine::Vertex { .. } => StreamInput::Vertices,
            Machine::Edge { .. } => StreamInput::Edges,
            Machine::Offline => StreamInput::Offline,
        }
    }

    /// Number of full stream passes the algorithm wants (1 except for
    /// the restreaming variants and 2PS; 0 for offline).
    pub fn passes(&self) -> usize {
        match &self.machine {
            Machine::Vertex { core, .. } => core.passes(),
            Machine::Edge { core } => core.passes(),
            Machine::Offline => 0,
        }
    }

    /// Elements ingested so far across all passes.
    pub fn elements_ingested(&self) -> u64 {
        match &self.machine {
            Machine::Vertex { core, .. } => core.seq(),
            Machine::Edge { core } => core.seq(),
            Machine::Offline => 0,
        }
    }

    /// Ingests a chunk of vertex records; errors if this machine
    /// consumes edges (or nothing). With a look-ahead window `W > 1`
    /// each record enters the buffer first and the highest-affinity
    /// buffered record is placed whenever the buffer reaches `W`. At
    /// `W = 1` nothing is buffered: the chunk goes to the core as is
    /// (a buffer restored from a wider-window snapshot drains first,
    /// through the buffered path).
    pub fn ingest_vertices(&mut self, chunk: &[VertexRecord]) -> Result<(), WrongStreamKind> {
        let expected = self.input();
        match &mut self.machine {
            Machine::Vertex { core, .. } if self.window == 1 && self.wbuf_v.is_empty() => {
                core.ingest(chunk);
                Ok(())
            }
            Machine::Vertex { core, .. } => {
                for rec in chunk {
                    self.wbuf_v.push(rec.clone());
                    while self.wbuf_v.len() >= self.window {
                        place_best_vertex(core, &mut self.wbuf_v);
                    }
                }
                Ok(())
            }
            _ => Err(WrongStreamKind { expected }),
        }
    }

    /// Ingests a chunk of edges; errors if this machine consumes vertex
    /// records (or nothing). Buffered look-ahead as in
    /// [`ingest_vertices`](StreamingPartitioner::ingest_vertices).
    pub fn ingest_edges(&mut self, chunk: &[Edge]) -> Result<(), WrongStreamKind> {
        let expected = self.input();
        match &mut self.machine {
            Machine::Edge { core } if self.window == 1 && self.wbuf_e.is_empty() => {
                core.ingest(chunk);
                Ok(())
            }
            Machine::Edge { core } => {
                for &e in chunk {
                    self.wbuf_e.push(e);
                    while self.wbuf_e.len() >= self.window {
                        place_best_edge(core, &mut self.wbuf_e);
                    }
                }
                Ok(())
            }
            _ => Err(WrongStreamKind { expected }),
        }
    }

    /// Drains the look-ahead buffer completely, placing the remaining
    /// elements best-first. Callers running multiple passes must flush
    /// at each pass boundary so no element leaks into the next pass;
    /// [`seal`](StreamingPartitioner::seal) flushes implicitly.
    pub fn flush_window(&mut self) {
        match &mut self.machine {
            Machine::Vertex { core, .. } => {
                while !self.wbuf_v.is_empty() {
                    place_best_vertex(core, &mut self.wbuf_v);
                }
            }
            Machine::Edge { core } => {
                while !self.wbuf_e.is_empty() {
                    place_best_edge(core, &mut self.wbuf_e);
                }
            }
            Machine::Offline => {}
        }
    }

    /// Seeds the machine's assignment state from a prior partitioning
    /// before any element streams in — the restreaming model (DESIGN.md
    /// §12): the next pass sees where every vertex *currently* lives and
    /// re-places each arriving vertex against that state. Entries equal
    /// to [`UNASSIGNED`] are skipped. Errors for machines that do not
    /// consume vertex streams.
    pub fn preload_assignment(&mut self, owner: &[PartitionId]) -> Result<(), WrongStreamKind> {
        let expected = self.input();
        match &mut self.machine {
            Machine::Vertex { core, .. } => {
                for (v, &p) in owner.iter().enumerate() {
                    if p != UNASSIGNED {
                        core.state_mut().assign(v as VertexId, p);
                    }
                }
                Ok(())
            }
            _ => Err(WrongStreamKind { expected }),
        }
    }

    /// Snapshot support: the buffered vertex records in arrival order.
    pub(crate) fn window_vertex_buffer(&self) -> &[VertexRecord] {
        &self.wbuf_v
    }

    /// Snapshot support: the buffered edges in arrival order.
    pub(crate) fn window_edge_buffer(&self) -> &[Edge] {
        &self.wbuf_e
    }

    /// Snapshot support: refills the vertex buffer during restore.
    pub(crate) fn push_window_vertex(&mut self, rec: VertexRecord) {
        self.wbuf_v.push(rec);
    }

    /// Snapshot support: refills the edge buffer during restore.
    pub(crate) fn push_window_edge(&mut self, e: Edge) {
        self.wbuf_e.push(e);
    }

    /// Closes the lifecycle and produces the [`Partitioning`].
    pub fn seal(mut self) -> Partitioning {
        self.flush_window();
        match self.machine {
            Machine::Vertex { core, seal } => match seal {
                VertexSealMode::EdgeCut => core.seal(self.g),
                VertexSealMode::Hybrid { threshold } => {
                    let owner = core.into_owner();
                    let (edge_parts, _) = place_hybrid_edges(self.g, self.k, &owner, threshold);
                    Partitioning {
                        k: self.k,
                        model: CutModel::HybridCut,
                        edge_parts,
                        vertex_owner: Some(owner),
                    }
                }
            },
            Machine::Edge { core } => core.seal(),
            Machine::Offline => MultilevelPartitioner::default().partitioning(self.g, self.k),
        }
    }
}

/// Places the buffered vertex record with the most already-assigned
/// neighbours — the look-ahead affinity rule of the buffered streaming
/// model (ADWISE-style). Ties resolve to the earliest arrival, which is
/// what makes `W = 1` degenerate exactly to the one-pass order.
fn place_best_vertex(
    core: &mut VertexIngest<Box<dyn VertexStreamPartitioner>>,
    buf: &mut Vec<VertexRecord>,
) {
    debug_assert!(!buf.is_empty(), "selection from an empty window");
    let mut best = 0usize;
    let mut best_score = 0usize;
    for (i, rec) in buf.iter().enumerate() {
        let score = rec
            .neighbors
            .iter()
            .filter(|&&nb| core.state().assignment[nb as usize] != UNASSIGNED)
            .count();
        if i == 0 || score > best_score {
            best = i;
            best_score = score;
        }
    }
    let rec = buf.remove(best);
    core.ingest(std::slice::from_ref(&rec));
}

/// Places the buffered edge with the most endpoints already replicated
/// somewhere (ties → earliest arrival); the edge-stream analogue of
/// [`place_best_vertex`].
fn place_best_edge(core: &mut EdgeIngest<'_, Box<dyn EdgeStreamPartitioner>>, buf: &mut Vec<Edge>) {
    debug_assert!(!buf.is_empty(), "selection from an empty window");
    let mut best = 0usize;
    let mut best_score = 0usize;
    for (i, e) in buf.iter().enumerate() {
        let score = usize::from(core.state().has_any_replica(e.src))
            + usize::from(core.state().has_any_replica(e.dst));
        if i == 0 || score > best_score {
            best = i;
            best_score = score;
        }
    }
    let e = buf.remove(best);
    core.ingest(&[e]);
}

/// Runs `algorithm` end to end through the incremental core with a
/// caller-chosen chunk size. Byte-identical to
/// [`partition`](crate::registry::partition) for every algorithm and
/// every chunk size ≥ 1 — the differential tests pin this down.
pub fn partition_chunked(
    g: &Graph,
    algorithm: Algorithm,
    cfg: &PartitionerConfig,
    order: StreamOrder,
    chunk_size: usize,
) -> Partitioning {
    let mut sp = StreamingPartitioner::init(g, algorithm, cfg);
    match sp.input() {
        StreamInput::Vertices => {
            let mut source = VertexStreamSource::new(g, order);
            let mut chunk = Vec::new();
            for _ in 0..sp.passes() {
                source.restart();
                while source.next_chunk(chunk_size, &mut chunk) > 0 {
                    // sgp-lint: allow(no-panic-in-lib): the machine was just initialized as a vertex consumer
                    sp.ingest_vertices(&chunk).expect("vertex machine accepts vertex chunks");
                }
                sp.flush_window();
            }
        }
        StreamInput::Edges => {
            let mut source = EdgeStreamSource::new(g, order);
            let mut chunk = Vec::new();
            for _ in 0..sp.passes() {
                source.restart();
                while source.next_chunk(chunk_size, &mut chunk) > 0 {
                    // sgp-lint: allow(no-panic-in-lib): the machine was just initialized as an edge consumer
                    sp.ingest_edges(&chunk).expect("edge machine accepts edge chunks");
                }
                sp.flush_window();
            }
        }
        StreamInput::Offline => {}
    }
    sp.seal()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::partition;
    use sgp_graph::generators::{erdos_renyi, rmat, ErdosRenyiConfig, RmatConfig};

    fn graph() -> Graph {
        erdos_renyi(ErdosRenyiConfig { vertices: 300, edges: 1800, seed: 21 })
    }

    #[test]
    fn chunked_matches_one_shot_for_every_algorithm() {
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        let order = StreamOrder::Random { seed: 9 };
        for &alg in Algorithm::all() {
            let whole = partition(&g, alg, &cfg, order);
            for chunk_size in [1usize, 7, 64, usize::MAX] {
                let chunked = partition_chunked(&g, alg, &cfg, order, chunk_size);
                assert_eq!(whole.edge_parts, chunked.edge_parts, "{alg} chunk {chunk_size}");
                assert_eq!(whole.vertex_owner, chunked.vertex_owner, "{alg} chunk {chunk_size}");
                assert_eq!(whole.model, chunked.model, "{alg}");
            }
        }
    }

    #[test]
    fn facade_reports_stream_inputs_per_taxonomy() {
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        for &alg in Algorithm::all() {
            let sp = StreamingPartitioner::init(&g, alg, &cfg);
            let want = match alg {
                Algorithm::Metis => StreamInput::Offline,
                Algorithm::VcrHash
                | Algorithm::Dbh
                | Algorithm::Grid
                | Algorithm::PowerGraphGreedy
                | Algorithm::Hdrf
                | Algorithm::TwoPhaseHdrf => StreamInput::Edges,
                _ => StreamInput::Vertices,
            };
            assert_eq!(sp.input(), want, "{alg}");
        }
    }

    #[test]
    fn wrong_stream_kind_is_rejected_not_swallowed() {
        let g = graph();
        let cfg = PartitionerConfig::new(2);
        let mut sp = StreamingPartitioner::init(&g, Algorithm::Hdrf, &cfg);
        assert_eq!(sp.ingest_vertices(&[]), Err(WrongStreamKind { expected: StreamInput::Edges }));
        let mut sp = StreamingPartitioner::init(&g, Algorithm::Ldg, &cfg);
        assert_eq!(sp.ingest_edges(&[]), Err(WrongStreamKind { expected: StreamInput::Vertices }));
    }

    #[test]
    fn restream_passes_surface_through_the_facade() {
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        assert_eq!(StreamingPartitioner::init(&g, Algorithm::RestreamLdg, &cfg).passes(), 5);
        assert_eq!(StreamingPartitioner::init(&g, Algorithm::Ldg, &cfg).passes(), 1);
        assert_eq!(StreamingPartitioner::init(&g, Algorithm::Metis, &cfg).passes(), 0);
        assert_eq!(StreamingPartitioner::init(&g, Algorithm::TwoPhaseHdrf, &cfg).passes(), 2);
        let one_pass =
            PartitionerConfig { two_phase_clustering: false, ..PartitionerConfig::new(4) };
        assert_eq!(StreamingPartitioner::init(&g, Algorithm::TwoPhaseHdrf, &one_pass).passes(), 1);
    }

    #[test]
    fn partial_ingestion_seals_deterministically() {
        // Sealing early is allowed: unseen vertices land on partition 0.
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        let mut a = StreamingPartitioner::init(&g, Algorithm::Ldg, &cfg);
        let mut b = StreamingPartitioner::init(&g, Algorithm::Ldg, &cfg);
        let mut source = VertexStreamSource::new(&g, StreamOrder::Natural);
        let mut chunk = Vec::new();
        source.next_chunk(50, &mut chunk);
        a.ingest_vertices(&chunk).unwrap();
        b.ingest_vertices(&chunk).unwrap();
        let (pa, pb) = (a.seal(), b.seal());
        assert_eq!(pa.edge_parts, pb.edge_parts);
        assert_eq!(pa.vertex_owner, pb.vertex_owner);
    }

    #[test]
    fn traced_drivers_survive_chunk_resizing_on_skewed_graph() {
        let g = rmat(RmatConfig { scale: 9, edge_factor: 8, ..RmatConfig::default() });
        let cfg = PartitionerConfig::new(8);
        let a = partition_chunked(&g, Algorithm::Hdrf, &cfg, StreamOrder::Bfs, 3);
        let b = partition_chunked(&g, Algorithm::Hdrf, &cfg, StreamOrder::Bfs, 1usize << 20);
        assert_eq!(a.edge_parts, b.edge_parts);
    }
}
