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
//! * [`run_vertex_stream`] / [`run_edge_stream`]: the one sequential
//!   driver per stream kind. Each pumps a source through a machine in
//!   [`DEFAULT_CHUNK`]-sized chunks and emits the `partition.stream` /
//!   `partition.pass` spans; chunking only batches the *delivery* of
//!   elements, never reorders them, and spans are stamped with logical
//!   element counts that don't observe chunk boundaries. The registry's
//!   [`Run`](crate::registry::Run) drives every Table 2 algorithm
//!   through them (with the look-ahead window of DESIGN.md §12); the
//!   public functions serve partitioners outside the registry.
//! * [`StreamingPartitioner`]: an algorithm-agnostic facade over the
//!   registry — callers that stream their own chunks (external
//!   ingestion pipelines, the snapshot layer) get one uniform lifecycle
//!   for all Table 2 algorithms, with METIS staying offline behind the
//!   same interface.
//!
//! Determinism contract: for every algorithm, any chunk size (including
//! 1 and whole-stream) yields a byte-identical [`Partitioning`] to the
//! one-shot run, because placement decisions depend only on the element
//! sequence and the state folded over it.

use crate::assignment::{CutModel, PartitionId, Partitioning};
use crate::config::PartitionerConfig;
use crate::edge_cut::{VertexStreamPartitioner, VertexStreamState, UNASSIGNED};
use crate::hybrid::place_hybrid_edges;
use crate::registry::{offline_baseline, Algorithm, Boxed};
use crate::vertex_cut::{EdgeStreamPartitioner, EdgeStreamState};
use sgp_graph::stream::VertexRecord;
use sgp_graph::{Edge, EdgeStreamSource, Graph, StreamOrder, VertexId, VertexStreamSource};
use sgp_trace::{keys, NullSink, TraceSink};
use std::ops::DerefMut;

/// Ingestion chunk size of the sequential drivers. Large enough to amortize per-chunk overhead, small enough to
/// keep the resident buffer trivial next to the graph itself.
pub const DEFAULT_CHUNK: usize = 1024;

/// Incremental state machine for vertex-stream (edge-cut) partitioners.
///
/// Owns the shared assignment/size state and a logical sequence counter
/// (elements placed so far — the trace stamp domain). Feed it chunks in
/// stream order via [`ingest`](VertexIngest::ingest); [`seal`](VertexIngest::seal)
/// closes the lifecycle. `P` is any pointer to the partitioner — `&mut`
/// to a concrete one (placement monomorphises) or a boxed trait object.
#[derive(Debug, Clone)]
pub struct VertexIngest<P> {
    partitioner: P,
    state: VertexStreamState,
    k: usize,
    seq: u64,
}

impl<P: DerefMut<Target: VertexStreamPartitioner>> VertexIngest<P> {
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

    /// Seeds the assignment state from a prior owner map before any
    /// element streams in — the restreaming model (DESIGN.md §12).
    /// Entries equal to [`UNASSIGNED`] are skipped.
    pub(crate) fn preload(&mut self, owner: &[PartitionId]) {
        for (v, &p) in owner.iter().enumerate() {
            if p != UNASSIGNED {
                self.state.assign(v as VertexId, p);
            }
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
    /// `sink`, after the driver's stream span.
    pub fn seal_traced<S: TraceSink>(self, g: &Graph, sink: &mut S) -> Partitioning {
        self.seal_as(g, VertexSeal::EdgeCut, sink)
    }

    /// [`seal_traced`](VertexIngest::seal_traced) under either seal
    /// mode. A hybrid seal additionally counts the routed edges and
    /// folds the high-degree hits into the flushed decision stats.
    pub(crate) fn seal_as<S: TraceSink>(
        self,
        g: &Graph,
        seal: VertexSeal,
        sink: &mut S,
    ) -> Partitioning {
        let mut stats = self.partitioner.decision_stats();
        let (p, hits) = seal.apply(g, self.k, owner_from_assignment(self.state.assignment));
        stats.degree_threshold_hits += hits;
        if sink.enabled() {
            sink.counter_add(keys::PARTITION_VERTICES_PLACED, 0, self.seq);
            if matches!(seal, VertexSeal::Hybrid { .. }) {
                sink.counter_add(keys::PARTITION_EDGES_PLACED, 0, g.num_edges() as u64);
            }
            stats.flush_into(sink);
            for (i, &size) in self.state.sizes.iter().enumerate() {
                sink.counter_add(keys::PARTITION_LOAD, i as u64, size as u64);
            }
        }
        p
    }

    /// Tears the machine down into its final vertex-owner map.
    pub(crate) fn into_owner(self) -> Vec<PartitionId> {
        owner_from_assignment(self.state.assignment)
    }

    /// Snapshot support: the wrapped partitioner.
    pub(crate) fn partitioner(&self) -> &P::Target {
        &self.partitioner
    }

    /// Snapshot support: mutable access to the wrapped partitioner.
    pub(crate) fn partitioner_mut(&mut self) -> &mut P::Target {
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

/// How a finished vertex-owner map turns into edges at seal time; fixed
/// by the registry's table *before* ingestion starts.
#[derive(Debug, Clone, Copy)]
pub(crate) enum VertexSeal {
    /// Appendix-B edge-cut grouping (out-edges follow their source).
    EdgeCut,
    /// PowerLyra hybrid routing: low-degree in-edges follow the target's
    /// owner, high-degree in-edges the source's.
    Hybrid { threshold: usize },
}

impl VertexSeal {
    /// Seals `owner` into a [`Partitioning`]; also returns how many
    /// edges took the hybrid high-degree route (0 for edge-cut).
    pub(crate) fn apply(self, g: &Graph, k: usize, owner: Vec<PartitionId>) -> (Partitioning, u64) {
        match self {
            VertexSeal::EdgeCut => (Partitioning::from_vertex_owners(g, k, owner), 0),
            VertexSeal::Hybrid { threshold } => {
                let (edge_parts, hits) = place_hybrid_edges(g, k, &owner, threshold);
                let model = CutModel::HybridCut;
                (Partitioning { k, model, edge_parts, vertex_owner: Some(owner) }, hits)
            }
        }
    }
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

impl<'g, P: DerefMut<Target: EdgeStreamPartitioner>> EdgeIngest<'g, P> {
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
    /// edge loads — after the driver's stream span.
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
    pub(crate) fn partitioner(&self) -> &P::Target {
        &self.partitioner
    }

    /// Snapshot support: mutable access to the wrapped partitioner.
    pub(crate) fn partitioner_mut(&mut self) -> &mut P::Target {
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

/// The look-ahead window of the buffered streaming model (ADWISE-style,
/// DESIGN.md §12), written once over both machines: elements enter a
/// buffer of up to `window − 1` and the one with the highest
/// [`affinity`](Windowed::affinity) to the current state is placed first.
pub(crate) trait Windowed {
    /// The stream element the machine ingests.
    type Elem: Clone;

    /// Places `chunk` in order, on arrival.
    fn ingest(&mut self, chunk: &[Self::Elem]);

    /// How much of `e` the state already knows: assigned neighbours of
    /// a vertex record, replicated endpoints of an edge.
    fn affinity(&self, e: &Self::Elem) -> usize;

    /// [`ingest`](Windowed::ingest) behind a window of `window ≥ 1`
    /// elements: the best buffered element is placed whenever `buf`
    /// reaches `window`. At `window = 1` nothing is buffered: the chunk
    /// goes to the core as is (a buffer restored from a wider-window
    /// snapshot drains first, through the buffered path).
    fn ingest_windowed(&mut self, chunk: &[Self::Elem], window: usize, buf: &mut Vec<Self::Elem>) {
        if window == 1 && buf.is_empty() {
            return self.ingest(chunk);
        }
        for e in chunk {
            buf.push(e.clone());
            while buf.len() >= window {
                self.place_best(buf);
            }
        }
    }

    /// Drains the buffer completely, best-first. Every pass boundary
    /// must flush so no element leaks into the next pass.
    fn flush_window(&mut self, buf: &mut Vec<Self::Elem>) {
        while !buf.is_empty() {
            self.place_best(buf);
        }
    }

    /// Places the buffered element of highest affinity. Ties resolve to
    /// the earliest arrival, which is what makes `W = 1` degenerate
    /// exactly to the one-pass order.
    fn place_best(&mut self, buf: &mut Vec<Self::Elem>) {
        debug_assert!(!buf.is_empty(), "selection from an empty window");
        let mut best = (0usize, 0usize);
        for (i, e) in buf.iter().enumerate() {
            let score = self.affinity(e);
            if i == 0 || score > best.1 {
                best = (i, score);
            }
        }
        let e = buf.remove(best.0);
        self.ingest(std::slice::from_ref(&e));
    }
}

impl<P: DerefMut<Target: VertexStreamPartitioner>> Windowed for VertexIngest<P> {
    type Elem = VertexRecord;

    fn ingest(&mut self, chunk: &[VertexRecord]) {
        VertexIngest::ingest(self, chunk);
    }

    fn affinity(&self, rec: &VertexRecord) -> usize {
        let assigned = |&&nb: &&VertexId| self.state.assignment[nb as usize] != UNASSIGNED;
        rec.neighbors.iter().filter(assigned).count()
    }
}

impl<P: DerefMut<Target: EdgeStreamPartitioner>> Windowed for EdgeIngest<'_, P> {
    type Elem = Edge;

    fn ingest(&mut self, chunk: &[Edge]) {
        EdgeIngest::ingest(self, chunk);
    }

    fn affinity(&self, e: &Edge) -> usize {
        usize::from(self.state.has_any_replica(e.src))
            + usize::from(self.state.has_any_replica(e.dst))
    }
}

/// Pumps the vertex stream of `g` through `core`, every pass of it, in
/// [`DEFAULT_CHUNK`]-sized chunks behind a look-ahead window of `window`
/// elements: one `partition.stream` span, one `partition.pass` span per
/// pass, stamps = logical element counts.
pub(crate) fn drive_vertex_stream<P: DerefMut<Target: VertexStreamPartitioner>, S: TraceSink>(
    g: &Graph,
    core: &mut VertexIngest<P>,
    order: StreamOrder,
    window: usize,
    sink: &mut S,
) {
    let mut source = VertexStreamSource::new(g, order);
    let mut chunk = Vec::new();
    let mut buf = Vec::new();
    sink.span_enter(keys::PARTITION_STREAM, 0, core.seq());
    for pass in 0..core.passes() {
        sink.span_enter(keys::PARTITION_PASS, pass as u64, core.seq());
        source.restart();
        while source.next_chunk(DEFAULT_CHUNK, &mut chunk) > 0 {
            core.ingest_windowed(&chunk, window, &mut buf);
        }
        core.flush_window(&mut buf);
        sink.span_exit(keys::PARTITION_PASS, pass as u64, core.seq());
    }
    sink.span_exit(keys::PARTITION_STREAM, 0, core.seq());
}

/// Edge-stream twin of [`drive_vertex_stream`]. One-pass algorithms get
/// a single `partition.stream` span and no pass spans; multi-pass edge
/// partitioners (2PS) additionally get one `partition.pass` span per
/// pass, mirroring the vertex driver.
pub(crate) fn drive_edge_stream<P: DerefMut<Target: EdgeStreamPartitioner>, S: TraceSink>(
    g: &Graph,
    core: &mut EdgeIngest<'_, P>,
    order: StreamOrder,
    window: usize,
    sink: &mut S,
) {
    let mut source = EdgeStreamSource::new(g, order);
    let mut chunk = Vec::new();
    let mut buf = Vec::new();
    let passes = core.passes().max(1);
    sink.span_enter(keys::PARTITION_STREAM, 0, core.seq());
    for pass in 0..passes {
        if passes > 1 {
            sink.span_enter(keys::PARTITION_PASS, pass as u64, core.seq());
        }
        source.restart();
        while source.next_chunk(DEFAULT_CHUNK, &mut chunk) > 0 {
            core.ingest_windowed(&chunk, window, &mut buf);
        }
        core.flush_window(&mut buf);
        if passes > 1 {
            sink.span_exit(keys::PARTITION_PASS, pass as u64, core.seq());
        }
    }
    sink.span_exit(keys::PARTITION_STREAM, 0, core.seq());
}

/// Runs a vertex-stream partitioner over `g` and returns the resulting
/// edge-cut [`Partitioning`] (out-edges grouped with their source, per
/// Appendix B). Trace emission into `sink` (pass [`NullSink`] for none):
/// a `partition.stream` span around the run, one `partition.pass` span
/// per stream pass (stamps are stream positions — logical sequence
/// numbers, never wallclock), the flushed decision counters, and the
/// final per-partition vertex loads.
pub fn run_vertex_stream<P: VertexStreamPartitioner, S: TraceSink>(
    g: &Graph,
    partitioner: &mut P,
    k: usize,
    order: StreamOrder,
    sink: &mut S,
) -> Partitioning {
    let mut core = VertexIngest::init(partitioner, g.num_vertices(), k);
    drive_vertex_stream(g, &mut core, order, 1, sink);
    core.seal_traced(g, sink)
}

/// Runs an edge-stream partitioner over `g` and returns the resulting
/// vertex-cut [`Partitioning`]. Trace emission into `sink` (pass
/// [`NullSink`] for none): a `partition.stream` span (stamps are stream
/// positions), the flushed decision counters — including the mirror
/// creations counted by [`EdgeStreamState::record`] — and the final
/// per-partition edge loads.
pub fn run_edge_stream<P: EdgeStreamPartitioner, S: TraceSink>(
    g: &Graph,
    partitioner: &mut P,
    k: usize,
    order: StreamOrder,
    sink: &mut S,
) -> Partitioning {
    let mut core = EdgeIngest::init(g, partitioner, k);
    drive_edge_stream(g, &mut core, order, 1, sink);
    core.seal_traced(sink)
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

pub(crate) enum Machine<'g> {
    Vertex { core: VertexIngest<Box<dyn VertexStreamPartitioner>>, seal: VertexSeal },
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
        Self::with_machines(g, algorithm, cfg, algorithm.boxed(g, cfg))
    }

    /// [`init`](StreamingPartitioner::init) around the given machine
    /// maker instead of the table's — the twin tests put a textbook
    /// machine behind the same facade and snapshot format.
    pub(crate) fn with_machines(
        g: &'g Graph,
        algorithm: Algorithm,
        cfg: &PartitionerConfig,
        machines: Boxed,
    ) -> Self {
        let machine = match machines {
            Boxed::Vertex(make, seal) => {
                Machine::Vertex { core: VertexIngest::init(make(), g.num_vertices(), cfg.k), seal }
            }
            Boxed::Edge(make) => Machine::Edge { core: EdgeIngest::init(g, make(), cfg.k) },
            Boxed::Offline => Machine::Offline,
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
    /// buffered record is placed whenever the buffer reaches `W`; at
    /// `W = 1` the chunk goes to the core as is.
    pub fn ingest_vertices(&mut self, chunk: &[VertexRecord]) -> Result<(), WrongStreamKind> {
        let expected = self.input();
        match &mut self.machine {
            Machine::Vertex { core, .. } => {
                core.ingest_windowed(chunk, self.window, &mut self.wbuf_v);
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
            Machine::Edge { core } => {
                core.ingest_windowed(chunk, self.window, &mut self.wbuf_e);
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
            Machine::Vertex { core, .. } => core.flush_window(&mut self.wbuf_v),
            Machine::Edge { core } => core.flush_window(&mut self.wbuf_e),
            Machine::Offline => {}
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
            Machine::Vertex { core, seal } => core.seal_as(self.g, seal, &mut NullSink),
            Machine::Edge { core } => core.seal(),
            Machine::Offline => offline_baseline(self.g, self.k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::partition;
    use crate::support::facade_run;
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
                let chunked = facade_run(&g, alg, &cfg, order, chunk_size);
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
        let a = facade_run(&g, Algorithm::Hdrf, &cfg, StreamOrder::Bfs, 3);
        let b = facade_run(&g, Algorithm::Hdrf, &cfg, StreamOrder::Bfs, 1usize << 20);
        assert_eq!(a.edge_parts, b.edge_parts);
    }
}
