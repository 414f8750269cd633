//! The incremental streaming-partitioner core.
//!
//! The paper defines every streaming algorithm over a one-pass stream
//! (Stanton's model): the partitioner holds mutable state, consumes
//! stream elements one at a time, and emits a placement per element.
//! This module makes that lifecycle explicit as a state machine —
//! `init(k, config) → ingest(chunk) → seal() → Partitioning` — instead
//! of the whole-graph batch functions the reproduction started with:
//!
//! * `VertexIngest` / `EdgeIngest`: the per-family machines. They
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
//!   same interface. Nothing here knows the snapshot text: `snapshot.rs`
//!   reads and restores the machines' crate-visible fields directly.
//!
//! Determinism contract: for every algorithm, any chunk size (including
//! 1 and whole-stream) yields a byte-identical [`Partitioning`] to the
//! one-shot run, because placement decisions depend only on the element
//! sequence and the state folded over it.
#![expect(
    clippy::indexing_slicing,
    reason = "ingested edges carry slots of the partitioner's own graph (a stream source's, or edge_index's at the facade), so edge_parts (sized num_edges) stays in bounds; window scoring indexes assignment sized num_vertices"
)]

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
/// stream order via [`ingest`](VertexIngest::ingest); [`seal_traced`](VertexIngest::seal_traced)
/// closes the lifecycle. `P` is any pointer to the partitioner — `&mut`
/// to a concrete one (placement monomorphises) or a boxed trait object.
#[derive(Debug, Clone)]
pub(crate) struct VertexIngest<P> {
    pub(crate) partitioner: P,
    pub(crate) state: VertexStreamState,
    k: usize,
    /// Elements placed so far (the logical trace stamp).
    pub(crate) seq: u64,
}

impl<P: DerefMut<Target: VertexStreamPartitioner>> VertexIngest<P> {
    /// Initializes the machine for `n` vertices and `k` partitions.
    pub(crate) fn init(partitioner: P, n: usize, k: usize) -> Self {
        VertexIngest { partitioner, state: VertexStreamState::new(n, k), k, seq: 0 }
    }

    /// Stream passes the wrapped partitioner wants (≥ 2 for restreaming).
    pub(crate) fn passes(&self) -> usize {
        self.partitioner.passes()
    }

    /// Ingests one bounded chunk of stream elements, placing each
    /// against the state folded over all previous elements.
    pub(crate) fn ingest(&mut self, chunk: &[VertexRecord<'_>]) {
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
    /// their source, per Appendix B) and flushes the end-of-stream
    /// counters (placements, decision stats, per-partition loads) into
    /// `sink`, after the driver's stream span. Vertices never ingested
    /// are placed on partition 0 deterministically.
    pub(crate) fn seal_traced<S: TraceSink>(self, g: &Graph, sink: &mut S) -> Partitioning {
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
}

/// Maps the ingestion sentinel to a concrete partition: a vertex (or an
/// edge slot) the stream never delivered lands on partition 0
/// (deterministic, and impossible when a full stream was ingested).
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
/// the vertex machine it needs the graph up front, to size that vector
/// and seal it. Every ingested edge carries its CSR slot, so each
/// parallel copy of a multigraph edge keeps its own decision. A slot
/// holds [`UNASSIGNED`] until its edge is placed, so a placement on
/// partition 0 is told apart from none; seal puts the edges never
/// placed on partition 0, as it does unplaced vertices.
#[derive(Debug, Clone)]
pub(crate) struct EdgeIngest<'g, P> {
    g: &'g Graph,
    pub(crate) partitioner: P,
    pub(crate) state: EdgeStreamState,
    /// The per-edge placement vector, in CSR slot order; [`UNASSIGNED`]
    /// for a slot not placed yet.
    pub(crate) edge_parts: Vec<PartitionId>,
    k: usize,
    /// Elements placed so far (the logical trace stamp).
    pub(crate) seq: u64,
}

impl<'g, P: DerefMut<Target: EdgeStreamPartitioner>> EdgeIngest<'g, P> {
    /// Initializes the machine over `g` with `k` partitions.
    pub(crate) fn init(g: &'g Graph, partitioner: P, k: usize) -> Self {
        EdgeIngest {
            g,
            partitioner,
            state: EdgeStreamState::new(g.num_vertices(), k),
            edge_parts: vec![UNASSIGNED; g.num_edges()],
            k,
            seq: 0,
        }
    }

    /// Stream passes the wrapped partitioner wants (2 for 2PS).
    pub(crate) fn passes(&self) -> usize {
        self.partitioner.passes()
    }

    /// Ingests one bounded chunk of stream edges, each with its CSR slot.
    /// While the wrapped partitioner reports an observation pass
    /// ([`EdgeStreamPartitioner::observing`]), edges are routed to
    /// [`EdgeStreamPartitioner::observe`] and neither the shared state,
    /// the placement vector, nor the sequence counter changes: `seq`
    /// counts the placed slots across passes.
    pub(crate) fn ingest(&mut self, chunk: &[(u32, Edge)]) {
        for &(slot, e) in chunk {
            if self.partitioner.observing() {
                self.partitioner.observe(e);
                continue;
            }
            let p = self.partitioner.place(e, &self.state);
            debug_assert!((p as usize) < self.k, "partitioner returned out-of-range id");
            self.state.record(e, p);
            self.edge_parts[slot as usize] = p;
            self.seq += 1;
        }
    }

    /// Seals into a vertex-cut [`Partitioning`].
    pub(crate) fn seal(self) -> Partitioning {
        self.seal_traced(&mut NullSink)
    }

    /// [`seal`](EdgeIngest::seal) that also flushes the end-of-stream
    /// counters — placements, decision stats enriched with the replica
    /// and mirror counts the shared state accumulated, per-partition
    /// edge loads — after the driver's stream span.
    pub(crate) fn seal_traced<S: TraceSink>(self, sink: &mut S) -> Partitioning {
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
        Partitioning::from_edge_parts(self.g, self.k, owner_from_assignment(self.edge_parts))
    }
}

/// The look-ahead window of the buffered streaming model (ADWISE-style,
/// DESIGN.md §12), written once over both machines: elements enter a
/// buffer of up to `window − 1` and the one with the highest
/// [`affinity`](Windowed::affinity) to the current state is placed first.
///
/// The element type `E` is a parameter, not an associated type: a
/// vertex machine ingests records borrowing rows of any graph lifetime.
pub(crate) trait Windowed<E: Clone> {
    /// Places `chunk` in order, on arrival.
    fn ingest(&mut self, chunk: &[E]);

    /// How much of `e` the state already knows: assigned neighbours of
    /// a vertex record, replicated endpoints of an edge.
    fn affinity(&self, e: &E) -> usize;

    /// [`ingest`](Windowed::ingest) behind a window of `window ≥ 1`
    /// elements: the best buffered element is placed whenever `buf`
    /// reaches `window`. At `window = 1` nothing is buffered: the chunk
    /// goes to the core as is (a buffer restored from a wider-window
    /// snapshot drains first, through the buffered path).
    fn ingest_windowed(&mut self, chunk: &[E], window: usize, buf: &mut Vec<E>) {
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
    fn flush_window(&mut self, buf: &mut Vec<E>) {
        while !buf.is_empty() {
            self.place_best(buf);
        }
    }

    /// Places the buffered element of highest affinity. Ties resolve to
    /// the earliest arrival, which is what makes `W = 1` degenerate
    /// exactly to the one-pass order.
    fn place_best(&mut self, buf: &mut Vec<E>) {
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

impl<'g, P: DerefMut<Target: VertexStreamPartitioner>> Windowed<VertexRecord<'g>>
    for VertexIngest<P>
{
    fn ingest(&mut self, chunk: &[VertexRecord<'g>]) {
        VertexIngest::ingest(self, chunk);
    }

    fn affinity(&self, rec: &VertexRecord<'g>) -> usize {
        let assigned = |&&nb: &&VertexId| self.state.assignment[nb as usize] != UNASSIGNED;
        rec.neighbors.iter().filter(assigned).count()
    }
}

impl<P: DerefMut<Target: EdgeStreamPartitioner>> Windowed<(u32, Edge)> for EdgeIngest<'_, P> {
    fn ingest(&mut self, chunk: &[(u32, Edge)]) {
        EdgeIngest::ingest(self, chunk);
    }

    fn affinity(&self, &(_, e): &(u32, Edge)) -> usize {
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
    let stream_span = sink.guard_span(keys::PARTITION_STREAM, 0, core.seq);
    for pass in 0..core.passes() {
        let pass_span = sink.guard_span(keys::PARTITION_PASS, pass as u64, core.seq);
        source.restart();
        while source.next_chunk(DEFAULT_CHUNK, &mut chunk) > 0 {
            core.ingest_windowed(&chunk, window, &mut buf);
        }
        core.flush_window(&mut buf);
        pass_span.exit(sink, core.seq);
    }
    stream_span.exit(sink, core.seq);
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
    let stream_span = sink.guard_span(keys::PARTITION_STREAM, 0, core.seq);
    for pass in 0..passes {
        let pass_span =
            (passes > 1).then(|| sink.guard_span(keys::PARTITION_PASS, pass as u64, core.seq));
        source.restart();
        while source.next_slotted_chunk(DEFAULT_CHUNK, &mut chunk) > 0 {
            core.ingest_windowed(&chunk, window, &mut buf);
        }
        core.flush_window(&mut buf);
        if let Some(pass_span) = pass_span {
            pass_span.exit(sink, core.seq);
        }
    }
    stream_span.exit(sink, core.seq);
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
/// creations counted by `EdgeStreamState::record` — and the final
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

/// Why a [`StreamingPartitioner`] refused a chunk. A refused chunk
/// leaves the machine exactly as it was: nothing of it is placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestError {
    /// The chunk is of the other stream kind (or the machine consumes
    /// none).
    WrongStreamKind {
        /// What the machine actually consumes.
        expected: StreamInput,
    },
    /// The pair at `position` of an edge chunk is no edge of the graph
    /// (an endpoint past the last vertex included), or its slot does not
    /// hold it.
    NotAnEdge {
        /// Index of the pair in the chunk.
        position: usize,
        /// Its source.
        src: VertexId,
        /// Its target.
        dst: VertexId,
    },
    /// The element at `position` of an edge chunk would place slot `slot`
    /// a second time: the slot is placed already, waits in the look-ahead
    /// window, or is named earlier in the same chunk. An edge slot is
    /// placed at most once, which is what lets a snapshot restore by
    /// replaying the placements.
    AlreadyPlaced {
        /// Index of the element in the chunk.
        position: usize,
        /// The CSR slot it names.
        slot: u32,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::WrongStreamKind { expected } => {
                write!(f, "this streaming partitioner consumes {expected:?} input")
            }
            IngestError::NotAnEdge { position, src, dst } => {
                write!(f, "chunk element {position}, {src} -> {dst}, is no edge of the graph")
            }
            IngestError::AlreadyPlaced { position, slot } => {
                write!(f, "chunk element {position} would place edge slot {slot} a second time")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// The first element of `chunk` whose slot is placed in `edge_parts`
/// already, waits in `window`, or is named earlier in the chunk. It marks
/// the slots of the window and of the chunk up to that element as it
/// goes — any value but [`UNASSIGNED`] marks one — and clears the marks
/// again, in O(window + chunk).
fn first_placed_twice(
    edge_parts: &mut [PartitionId],
    window: &[(u32, Edge)],
    chunk: &[(u32, Edge)],
) -> Option<usize> {
    let slots = || window.iter().chain(chunk).map(|&(slot, _)| slot as usize);
    let first = slots().position(|slot| {
        if edge_parts[slot] != UNASSIGNED {
            return true;
        }
        edge_parts[slot] = 0;
        false
    });
    for slot in slots().take(first.unwrap_or(usize::MAX)) {
        edge_parts[slot] = UNASSIGNED;
    }
    // The window's own slots are unplaced and distinct: the facade and a
    // restore let in no others.
    first.and_then(|i| i.checked_sub(window.len()))
}

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
    pub(crate) g: &'g Graph,
    pub(crate) k: usize,
    pub(crate) algorithm: Algorithm,
    pub(crate) machine: Machine<'g>,
    /// Look-ahead window size `W ≥ 1` (ADWISE-style buffered model,
    /// DESIGN.md §12). `W = 1` degenerates exactly to one-pass: the
    /// buffer never holds an element across a placement.
    window: usize,
    /// Buffered vertex records awaiting placement (≤ `W − 1` between
    /// ingest calls), in arrival order.
    pub(crate) wbuf_v: Vec<VertexRecord<'g>>,
    /// Buffered edges awaiting placement, with their slots, in arrival
    /// order.
    pub(crate) wbuf_e: Vec<(u32, Edge)>,
    /// Scratch: the edge chunk being ingested, with the slots the facade
    /// resolved for it.
    slotted: Vec<(u32, Edge)>,
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
            slotted: Vec::new(),
        }
    }

    /// Serializes the machine's decisions, its look-ahead window and the
    /// private tables no replay rebuilds into the canonical snapshot
    /// format (see [`crate::snapshot`]).
    pub fn snapshot(&self) -> String {
        crate::snapshot::write_snapshot(self)
    }

    /// Rebuilds a machine from a snapshot taken at a chunk boundary by
    /// replaying its decisions; continuing the stream from that boundary
    /// is bit-identical to an uninterrupted run (see [`crate::snapshot`]).
    ///
    /// The contract covers machines fed at most their
    /// [`passes`](StreamingPartitioner::passes) over the stream: a vertex
    /// snapshot whose `seq` exceeds `passes() × n` is refused, as is an
    /// edge snapshot whose `seq` is not its number of placed slots.
    pub fn restore(
        g: &'g Graph,
        algorithm: Algorithm,
        cfg: &PartitionerConfig,
        text: &str,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        crate::snapshot::read_snapshot(g, algorithm, cfg, text)
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
            Machine::Vertex { core, .. } => core.seq,
            Machine::Edge { core } => core.seq,
            Machine::Offline => 0,
        }
    }

    /// Ingests a chunk of vertex records; errors if this machine
    /// consumes edges (or nothing). With a look-ahead window `W > 1`
    /// each record enters the buffer first and the highest-affinity
    /// buffered record is placed whenever the buffer reaches `W`; at
    /// `W = 1` the chunk goes to the core as is.
    pub fn ingest_vertices(&mut self, chunk: &[VertexRecord<'g>]) -> Result<(), IngestError> {
        let expected = self.input();
        match &mut self.machine {
            Machine::Vertex { core, .. } => {
                core.ingest_windowed(chunk, self.window, &mut self.wbuf_v);
                Ok(())
            }
            _ => Err(IngestError::WrongStreamKind { expected }),
        }
    }

    /// Ingests a chunk of edges; errors if this machine consumes vertex
    /// records (or nothing). Buffered look-ahead as in
    /// [`ingest_vertices`](StreamingPartitioner::ingest_vertices).
    ///
    /// A caller holds bare `(src, dst)` pairs, so each is looked up in the
    /// CSR ([`Graph::edge_index`]) before anything is placed; a pair that
    /// is no edge refuses the whole chunk with
    /// [`IngestError::NotAnEdge`]. On a multigraph a pair names the first
    /// copy of a parallel edge: the other copies are placed through
    /// [`ingest_slotted_edges`](StreamingPartitioner::ingest_slotted_edges)
    /// only, and a pair naming a copy that is placed already refuses the
    /// chunk with [`IngestError::AlreadyPlaced`].
    pub fn ingest_edges(&mut self, chunk: &[Edge]) -> Result<(), IngestError> {
        self.slotted.clear();
        for (position, &e) in chunk.iter().enumerate() {
            let Some(slot) = self.g.edge_index(e.src, e.dst) else {
                return Err(IngestError::NotAnEdge { position, src: e.src, dst: e.dst });
            };
            self.slotted.push((slot as u32, e));
        }
        let slotted = std::mem::take(&mut self.slotted);
        let placed = self.place_edges(&slotted);
        self.slotted = slotted;
        placed
    }

    /// Ingests a chunk of edges with their CSR slots, as
    /// [`EdgeStreamSource::next_slotted_chunk`](sgp_graph::EdgeStreamSource::next_slotted_chunk)
    /// yields them — every copy of a parallel edge has a slot of its own.
    /// An element whose slot does not hold its edge
    /// ([`Graph::edge_at`]) refuses the whole chunk with
    /// [`IngestError::NotAnEdge`], and nothing of it is placed.
    ///
    /// Outside an observation pass (2PS's first), a slot is placed at most
    /// once: a chunk naming a slot that is placed already, waits in the
    /// window, or comes twice in the chunk is refused whole with
    /// [`IngestError::AlreadyPlaced`]. An observation pass places nothing,
    /// so its slots come again in the next pass; a chunk must not run
    /// across a pass boundary (flush the window at each).
    pub fn ingest_slotted_edges(&mut self, chunk: &[(u32, Edge)]) -> Result<(), IngestError> {
        let wrong = chunk
            .iter()
            .enumerate()
            .find(|(_, &(slot, e))| self.g.edge_at(slot as usize) != Some(e));
        if let Some((position, &(_, e))) = wrong {
            return Err(IngestError::NotAnEdge { position, src: e.src, dst: e.dst });
        }
        self.place_edges(chunk)
    }

    /// Places a chunk whose slots are known to hold its edges, unless it
    /// would place a slot a second time.
    fn place_edges(&mut self, chunk: &[(u32, Edge)]) -> Result<(), IngestError> {
        let expected = self.input();
        let Machine::Edge { core } = &mut self.machine else {
            return Err(IngestError::WrongStreamKind { expected });
        };
        if !core.partitioner.observing() {
            if let Some(position) = first_placed_twice(&mut core.edge_parts, &self.wbuf_e, chunk) {
                let slot = chunk[position].0;
                return Err(IngestError::AlreadyPlaced { position, slot });
            }
        }
        core.ingest_windowed(chunk, self.window, &mut self.wbuf_e);
        Ok(())
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
        let expected = StreamInput::Edges;
        assert_eq!(sp.ingest_vertices(&[]), Err(IngestError::WrongStreamKind { expected }));
        let mut sp = StreamingPartitioner::init(&g, Algorithm::Ldg, &cfg);
        let expected = StreamInput::Vertices;
        assert_eq!(sp.ingest_edges(&[]), Err(IngestError::WrongStreamKind { expected }));
    }

    /// A chunk holding a pair that is no edge — a missing edge, or an
    /// endpoint past the last vertex — is refused whole with its position,
    /// and the machine is left as it was: its snapshot does not move, and
    /// the rest of the run places exactly as an untouched one.
    #[test]
    fn a_chunk_with_a_pair_that_is_no_edge_is_refused_whole() {
        let g = graph();
        let n = g.num_vertices() as VertexId;
        let missing = (0..n)
            .flat_map(|s| (0..n).map(move |d| Edge::new(s, d)))
            .find(|e| g.edge_index(e.src, e.dst).is_none())
            .expect("the graph is not complete");
        let edges: Vec<Edge> = g.edges().collect();
        for alg in [Algorithm::VcrHash, Algorithm::Hdrf, Algorithm::TwoPhaseHdrf] {
            for window in [1, 4] {
                let cfg = PartitionerConfig::new(4).with_window(window);
                let (mut sp, mut untouched) = (
                    StreamingPartitioner::init(&g, alg, &cfg),
                    StreamingPartitioner::init(&g, alg, &cfg),
                );
                sp.ingest_edges(&edges[..40]).unwrap();
                untouched.ingest_edges(&edges[..40]).unwrap();
                let before = sp.snapshot();
                for bad in [missing, Edge::new(n, 0), Edge::new(0, n)] {
                    let chunk = [edges[40], edges[41], bad, edges[42]];
                    let (src, dst) = (bad.src, bad.dst);
                    let refused = IngestError::NotAnEdge { position: 2, src, dst };
                    assert_eq!(sp.ingest_edges(&chunk), Err(refused), "{alg} W={window}");
                    assert_eq!(sp.snapshot(), before, "{alg} W={window}: the machine moved");
                }
                for sp in [&mut sp, &mut untouched] {
                    for pass in 0..sp.passes() {
                        let from = if pass == 0 { 40 } else { 0 };
                        for chunk in edges[from..].chunks(64) {
                            sp.ingest_edges(chunk).unwrap();
                        }
                        sp.flush_window();
                    }
                }
                assert_eq!(sp.seal().edge_parts, untouched.seal().edge_parts, "{alg} W={window}");
            }
        }
    }

    /// A chunk that would place a slot a second time — one placed
    /// already, one waiting in the window, or one it names twice — is
    /// refused whole with the position of the second naming, and the
    /// machine does not move. Each machine restores a snapshot taken at
    /// W = 3, so at W = 1 too its window holds two edges; 2PS is cut in
    /// its placement pass.
    #[test]
    fn a_chunk_placing_a_slot_twice_is_refused_whole() {
        let g = graph();
        let slotted: Vec<(u32, Edge)> =
            (0..g.num_edges()).map(|i| (i as u32, g.edge_at(i).unwrap())).collect();
        let record = |snap: &str, key: &str| {
            let line = snap.lines().find(|l| l.starts_with(key)).expect("record present");
            let slot: usize = line.split(' ').nth(1).unwrap().parse().unwrap();
            slotted[slot]
        };
        for alg in [Algorithm::VcrHash, Algorithm::Hdrf, Algorithm::TwoPhaseHdrf] {
            let mut sp =
                StreamingPartitioner::init(&g, alg, &PartitionerConfig::new(4).with_window(3));
            if sp.passes() == 2 {
                slotted.chunks(64).for_each(|chunk| sp.ingest_slotted_edges(chunk).unwrap());
                sp.flush_window();
            }
            sp.ingest_slotted_edges(&slotted[..40]).unwrap();
            let snap = sp.snapshot();
            let (placed, waiting) = (record(&snap, "edge "), record(&snap, "we "));
            let fresh = &slotted[40..43];
            for window in [1, 3] {
                let cfg = PartitionerConfig::new(4).with_window(window);
                let mut sp = StreamingPartitioner::restore(&g, alg, &cfg, &snap).unwrap();
                for (chunk, position, slot) in [
                    (vec![fresh[0], fresh[1], placed, fresh[2]], 2, placed.0),
                    (vec![fresh[0], waiting], 1, waiting.0),
                    (vec![fresh[0], fresh[1], fresh[0]], 2, fresh[0].0),
                ] {
                    let refused = IngestError::AlreadyPlaced { position, slot };
                    assert_eq!(sp.ingest_slotted_edges(&chunk), Err(refused), "{alg} W={window}");
                    assert_eq!(sp.snapshot(), snap, "{alg} W={window}: the machine moved");
                }
                sp.ingest_slotted_edges(&slotted[40..]).expect("each slot once");
            }
        }
    }

    /// 2PS observes every edge in its first pass and places nothing, so
    /// the facade takes the same edges again in the second, as pairs or
    /// slotted, and places exactly as the one-shot run.
    #[test]
    fn two_phase_takes_the_same_edges_in_both_passes() {
        let g = graph();
        let edges: Vec<Edge> = g.edges().collect();
        let slotted: Vec<(u32, Edge)> =
            edges.iter().enumerate().map(|(i, &e)| (i as u32, e)).collect();
        for window in [1, 3] {
            let cfg = PartitionerConfig::new(4).with_window(window);
            let whole = partition(&g, Algorithm::TwoPhaseHdrf, &cfg, StreamOrder::Natural);
            let (mut pairs, mut slots) = (
                StreamingPartitioner::init(&g, Algorithm::TwoPhaseHdrf, &cfg),
                StreamingPartitioner::init(&g, Algorithm::TwoPhaseHdrf, &cfg),
            );
            assert_eq!(pairs.passes(), 2);
            for _ in 0..2 {
                edges.chunks(64).for_each(|chunk| pairs.ingest_edges(chunk).unwrap());
                slotted.chunks(64).for_each(|chunk| slots.ingest_slotted_edges(chunk).unwrap());
                pairs.flush_window();
                slots.flush_window();
            }
            assert_eq!(pairs.elements_ingested(), edges.len() as u64);
            assert_eq!(pairs.seal().edge_parts, whole.edge_parts, "pairs, W={window}");
            assert_eq!(slots.seal().edge_parts, whole.edge_parts, "slots, W={window}");
        }
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
