//! The canonical trace-key registry.
//!
//! Every key passed to a [`TraceSink`](crate::TraceSink) method by the
//! instrumented crates (`sgp-partition`, `sgp-engine`, `sgp-db`,
//! `sgp-core`) must be one of these constants — `sgp-xtask lint`
//! enforces it with the `trace-key-registry` rule, in both directions:
//! a hardcoded string literal at a call site is an error, and a
//! registry constant no crate references is an error. That pins the
//! trace schema to one source of truth: renaming a key here is the
//! *only* way to rename it anywhere, and the byte-exact trace goldens
//! under `tests/goldens/` catch the rename in the same change.
//!
//! Naming convention: `<layer>.<metric>` with the emitting layer as the
//! prefix (`partition.`, `engine.`, `db.`). The values are part of the
//! exported JSON schema (see [`SCHEMA_VERSION`](crate::SCHEMA_VERSION))
//! and must never change without a schema bump.

// ---------------------------------------------------------------------------
// sgp-partition: streaming partitioner instrumentation
// ---------------------------------------------------------------------------

/// Root span around one partitioner run (keyed by algorithm id).
pub const PARTITION_RUN: &str = "partition.run";
/// Span around one full pass over the edge/vertex stream.
pub const PARTITION_STREAM: &str = "partition.stream";
/// Span around one restreaming pass (keyed by pass index).
pub const PARTITION_PASS: &str = "partition.pass";
/// Counter: vertices placed so far (stamped with the decision seq).
pub const PARTITION_VERTICES_PLACED: &str = "partition.vertices_placed";
/// Counter: edges placed so far (stamped with the decision seq).
pub const PARTITION_EDGES_PLACED: &str = "partition.edges_placed";
/// Counter: per-partition load (keyed by partition id).
pub const PARTITION_LOAD: &str = "partition.load";
/// Counter: placements that fell through to the balance tiebreak.
pub const PARTITION_BALANCE_TIEBREAKS: &str = "partition.balance_tiebreaks";
/// Counter: placements forced off a full partition by capacity.
pub const PARTITION_CAPACITY_FALLBACKS: &str = "partition.capacity_fallbacks";
/// Counter: vertices routed down the high-degree path (hybrid cuts).
pub const PARTITION_DEGREE_THRESHOLD_HITS: &str = "partition.degree_threshold_hits";
/// Counter: mirror vertices created by vertex-cut placement.
pub const PARTITION_MIRROR_CREATIONS: &str = "partition.mirror_creations";
/// Counter: total vertex replicas created (replication-factor numerator).
pub const PARTITION_REPLICAS_CREATED: &str = "partition.replicas_created";
/// Counter: worker threads of one threaded-execution run.
pub const PARTITION_EXEC_THREADS: &str = "partition.exec_threads";
/// Counter: synchronization-barrier rounds of one threaded run.
pub const PARTITION_EXEC_BARRIER_ROUNDS: &str = "partition.exec_barrier_rounds";
/// Counter: accepted restreaming rounds of one bounded-movement
/// repartitioning run (dynamic-graph tier, DESIGN.md §12).
pub const PARTITION_RESTREAM_ROUNDS: &str = "partition.restream_rounds";
/// Counter: churn batches ingested by one churn-suite run.
pub const PARTITION_CHURN_BATCHES: &str = "partition.churn_batches";
/// Counter: repartitioning triggers fired during one churn-suite run.
pub const PARTITION_CHURN_REPARTITIONS: &str = "partition.churn_repartitions";
/// Counter: vertex masters moved by repartitioning during one
/// churn-suite run.
pub const PARTITION_CHURN_MOVED: &str = "partition.churn_moved";

// ---------------------------------------------------------------------------
// sgp-engine: Pregel-style execution engine instrumentation
// ---------------------------------------------------------------------------

/// Root span around one engine run.
pub const ENGINE_RUN: &str = "engine.run";
/// Span around one superstep (keyed by iteration).
pub const ENGINE_SUPERSTEP: &str = "engine.superstep";
/// Span around crash-triggered recovery within a superstep.
pub const ENGINE_FAULT_RECOVERY: &str = "engine.fault_recovery";
/// Counter: vertices active this superstep (keyed by iteration).
pub const ENGINE_ACTIVE_VERTICES: &str = "engine.active_vertices";
/// Counter: gather-phase messages this superstep.
pub const ENGINE_GATHER_MESSAGES: &str = "engine.gather_messages";
/// Counter: update-phase messages this superstep.
pub const ENGINE_UPDATE_MESSAGES: &str = "engine.update_messages";
/// Counter: total bytes crossing the network this superstep.
pub const ENGINE_NETWORK_BYTES: &str = "engine.network_bytes";
/// Counter: per-machine bytes sent+received (keyed by machine id).
pub const ENGINE_MACHINE_BYTES: &str = "engine.machine_bytes";
/// Counter: per-machine compute nanoseconds (keyed by machine id).
pub const ENGINE_MACHINE_COMPUTE_NS: &str = "engine.machine_compute_ns";
/// Histogram: per-machine idle wait at the superstep barrier.
pub const ENGINE_BARRIER_WAIT_NS: &str = "engine.barrier_wait_ns";
/// Counter: machine crashes injected this superstep.
pub const ENGINE_FAULT_CRASHES: &str = "engine.fault_crashes";
/// Counter: bytes replayed to recover crashed machines.
pub const ENGINE_FAULT_RECOVERY_BYTES: &str = "engine.fault_recovery_bytes";

// ---------------------------------------------------------------------------
// sgp-db: graph-database cluster simulator instrumentation
// ---------------------------------------------------------------------------

/// Root span around one cluster-simulation run.
pub const DB_RUN: &str = "db.run";
/// Span around one query's lifetime (keyed by trace index).
pub const DB_QUERY: &str = "db.query";
/// Counter: per-machine storage reads (keyed by machine id).
pub const DB_READS: &str = "db.reads";
/// Counter: per-machine crash recoveries (keyed by machine id).
pub const DB_RECOVERIES: &str = "db.recoveries";
/// Counter: reads redirected to a replica after a crash.
pub const DB_FAILOVERS: &str = "db.failovers";
/// Counter: messages dropped at a crashed machine.
pub const DB_DROPPED_MESSAGES: &str = "db.dropped_messages";
/// Counter: queries enqueued behind a busy machine.
pub const DB_QUEUE_ENQUEUED: &str = "db.queue_enqueued";
/// Histogram: FIFO depth observed at enqueue (keyed by machine id).
pub const DB_QUEUE_DEPTH: &str = "db.queue_depth";
/// Counter: query retries after a mid-flight crash.
pub const DB_RETRIES: &str = "db.retries";
/// Counter: machine crashes injected (keyed by machine id).
pub const DB_CRASHES: &str = "db.crashes";
/// Counter: queries that completed successfully.
pub const DB_QUERIES_OK: &str = "db.queries_ok";
/// Counter: queries that exhausted their retry budget.
pub const DB_QUERIES_FAILED: &str = "db.queries_failed";
/// Histogram: end-to-end query latency in simulated nanoseconds.
pub const DB_QUERY_LATENCY_NS: &str = "db.query_latency_ns";
/// Counter: membership changes applied (keyed by machine id).
pub const DB_MEMBERSHIP_EVENTS: &str = "db.membership_events";
/// Counter: migration records shipped during rebalance (keyed by
/// machine id).
pub const DB_DATA_MOVED: &str = "db.data_moved";
/// Counter: shares fast-rejected by admission control while degraded
/// (keyed by machine id).
pub const DB_SHED_QUERIES: &str = "db.shed_queries";
/// Histogram: per-event recovery time in simulated nanoseconds (keyed
/// by machine id).
pub const DB_RECOVERY_NS: &str = "db.recovery_ns";
