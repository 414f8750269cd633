//! Fixture: the partitioner crate emits trace events, so every key it
//! passes to a sink must be a registry constant. One hardcoded key is
//! seeded below; the execution backend lives in `exec.rs`.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The designated execution backend.
pub mod exec;

/// Emits the run span through the canonical registry constant — the
/// key-registry rule resolves `keys::PARTITION_RUN` and stays quiet —
/// then smuggles in a hardcoded string key, which must fire: a literal
/// here would drift the goldens-pinned trace schema silently.
pub fn record_run(sink: &mut TraceSink) {
    sink.span_enter(keys::PARTITION_RUN);
    sink.counter_add("partition.hardcoded", 1); // MARK-hardcoded-key
    sink.span_exit(keys::PARTITION_RUN);
}
