//! Fixture: a crate outside every rule scope. It emits no trace
//! events and pins no schema; its manifest opts into the workspace
//! lints, so nothing here may fire.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A hardcoded key outside the instrumented crates is not the
/// registry's business.
pub fn record(sink: &mut TraceSink) {
    sink.counter_add("util.adhoc", 1);
}
