//! Deterministic observability layer for the SGP reproduction.
//!
//! Both simulators (the PowerLyra-like engine and the JanusGraph-like
//! DES) and the streaming partitioners emit *events* — spans, monotonic
//! counters, and log₂-bucket histogram samples — into a [`TraceSink`].
//! Three sinks are provided:
//!
//! * [`NullSink`] — the default; every method is an empty inlineable
//!   body, so untraced runs pay (near) zero cost;
//! * [`CollectingSink`] — records every event in order and exports a
//!   byte-stable JSON document (see [`json`]) for golden tests and the
//!   `sgp-xtask trace-summary` renderer;
//! * [`SummarySink`] — streaming aggregation only (per-span self-cost,
//!   counter totals, histograms), never the raw event stream.
//!
//! # Determinism rules
//!
//! Every stamp is **simulated time or a logical sequence number** —
//! never wallclock — so identical seeds yield byte-identical traces.
//! This crate is inside the `no-wallclock-in-sim`, `no-hash-iteration`,
//! and `no-panic-in-lib` scopes of `sgp-xtask lint`: no `Instant`, no
//! `SystemTime`, no `HashMap` iteration, no panicking calls. All JSON
//! payloads are integers (no floats), so the export has a single
//! canonical rendering.
//!
//! The [`stats`] module additionally hosts the one shared
//! latency-percentile implementation used by both `sgp-db` simulators
//! (exact, float-typed — distinct from the bucketed histogram
//! estimates, which are only guaranteed to land within one log₂ bucket
//! of the exact quantile).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod guard;
pub mod hist;
pub mod json;
pub mod keys;
pub mod sink;
pub mod stats;

pub use guard::{SpanGuard, SpanGuardExt};
pub use hist::Log2Histogram;
pub use json::{parse_trace, EventKind, ParsedEvent, ParsedTrace};
pub use sink::{CollectingSink, NullSink, SpanStat, SummarySink, TraceSink};
pub use stats::{latency_summary_ms, percentile_sorted_ns, LatencySummary};

/// Schema version stamped into every exported trace document.
pub const SCHEMA_VERSION: u64 = 1;

/// A deterministic event timestamp: simulated nanoseconds or a logical
/// sequence number, depending on the emitting layer. Never wallclock.
pub type Stamp = u64;

/// One recorded trace event.
///
/// `name` identifies the metric (a static string like
/// `"engine.superstep"`); `key` is an optional integer dimension
/// (machine id, superstep index, query id — `0` when unused).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A span was entered at `stamp`.
    SpanEnter {
        /// Span name.
        name: &'static str,
        /// Dimension key (machine id, query id, ...).
        key: u64,
        /// Enter stamp.
        stamp: Stamp,
    },
    /// The matching span was exited at `stamp`.
    SpanExit {
        /// Span name.
        name: &'static str,
        /// Dimension key (must match the enter event).
        key: u64,
        /// Exit stamp (>= the enter stamp).
        stamp: Stamp,
    },
    /// A monotonic counter was incremented by `delta`.
    Counter {
        /// Counter name.
        name: &'static str,
        /// Dimension key.
        key: u64,
        /// Increment (counters never decrease).
        delta: u64,
    },
    /// A sample was recorded into a histogram.
    Histogram {
        /// Histogram name.
        name: &'static str,
        /// Dimension key.
        key: u64,
        /// Sampled value.
        value: u64,
    },
}
