//! Linear span guards: span enter/exit pairing by construction.
//!
//! [`TraceSink::guard_span`] is the only way to open a span, and the
//! [`SpanGuard`] it hands back is the only way to close one: the value
//! *is* the obligation. A stray exit cannot be written, and a span
//! cannot be exited twice (`exit` consumes the guard). The guard is
//! `#[must_use]` and carries no sink borrow (the sink stays free for
//! nested events). A discarded guard is rustc's `unused_must_use`, an
//! unused binding `unused_variables`, and `drop(guard)` clippy's
//! `drop_non_drop`, all of which the `-D warnings` gates reject.
//!
//! ```
//! use sgp_trace::{keys, TraceSink};
//!
//! fn run<S: TraceSink>(sink: &mut S) {
//!     let span = sink.guard_span(keys::DB_RUN, 0, 0);
//!     sink.counter_add(keys::DB_QUERIES_OK, 0, 1);
//!     span.exit(sink, 10);
//! }
//! # run(&mut sgp_trace::CollectingSink::new());
//! ```
//!
//! Instrumented code has no other way to write a span exit:
//!
//! ```compile_fail
//! fn run<S: sgp_trace::TraceSink>(sink: &mut S) {
//!     sink.span_exit("db.run", 0, 10); // no such method on a TraceSink
//! }
//! ```
//!
//! and a guard closes once:
//!
//! ```compile_fail
//! use sgp_trace::{keys, TraceSink};
//!
//! fn run<S: TraceSink>(sink: &mut S) {
//!     let span = sink.guard_span(keys::DB_RUN, 0, 0);
//!     span.exit(sink, 10);
//!     span.exit(sink, 11); // use of moved value
//! }
//! ```
//!
//! There is deliberately **no `Drop` impl**: stamps are simulated time,
//! so only the caller knows the exit stamp — an implicit drop would
//! have to invent one, silently corrupting span durations. A guard that
//! is never exited leaves its span open in the trace, which
//! [`crate::CollectingSink::check_nesting`] reports.

use crate::keys::Key;
use crate::sink::{Event, TraceSink};
use crate::{Stamp, TraceEvent};

/// An open trace span. Close it with [`SpanGuard::exit`] at the exit
/// stamp; the value is the proof the span is still open.
#[must_use = "an unclosed SpanGuard leaves its span open in the trace; call .exit(sink, stamp)"]
#[derive(Debug)]
pub struct SpanGuard {
    pub(crate) name: Key,
    pub(crate) key: u64,
}

impl SpanGuard {
    /// Closes the span at `stamp`, consuming the guard.
    pub fn exit<S: TraceSink + ?Sized>(self, sink: &mut S, stamp: Stamp) {
        sink.record(Event(TraceEvent::SpanExit { name: self.name.name(), key: self.key, stamp }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CollectingSink, NullSink};

    #[test]
    fn guard_emits_an_enter_exit_pair_around_inner_events() {
        let mut sink = CollectingSink::new();
        let span = sink.guard_span(Key("run"), 3, 10);
        sink.counter_add(Key("placed"), 0, 7);
        span.exit(&mut sink, 42);
        assert_eq!(
            sink.events(),
            [
                TraceEvent::SpanEnter { name: "run", key: 3, stamp: 10 },
                TraceEvent::Counter { name: "placed", key: 0, delta: 7 },
                TraceEvent::SpanExit { name: "run", key: 3, stamp: 42 },
            ]
        );
    }

    #[test]
    fn guard_carries_name_and_key_not_a_sink_borrow() {
        let mut sink = CollectingSink::new();
        let a = sink.guard_span(Key("outer"), 1, 0);
        let b = sink.guard_span(Key("inner"), 2, 1);
        assert_eq!((a.name, a.key), (Key("outer"), 1));
        assert_eq!((b.name, b.key), (Key("inner"), 2));
        // Non-LIFO close is allowed by the type; sinks that require
        // nesting (SummarySink) report it as data, not a panic.
        b.exit(&mut sink, 5);
        a.exit(&mut sink, 9);
        assert_eq!(sink.len(), 4);
    }

    #[test]
    fn null_sink_guard_is_free_of_events() {
        let mut sink = NullSink;
        let span = sink.guard_span(Key("run"), 0, 0);
        span.exit(&mut sink, 1);
    }

    #[test]
    fn works_through_dyn_sink() {
        let mut sink = CollectingSink::new();
        let dynsink: &mut dyn TraceSink = &mut sink;
        let span = dynsink.guard_span(Key("dyn"), 9, 2);
        span.exit(dynsink, 3);
        assert_eq!(sink.len(), 2);
    }
}
