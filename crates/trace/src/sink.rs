//! Trace sinks: where events go.
//!
//! Instrumented code is generic over `S: TraceSink`, so the
//! [`NullSink`] path monomorphizes to empty inlined bodies and untraced
//! runs keep their existing cost profile (the `trace` bench in
//! `sgp-bench` measures exactly this overhead rather than assuming it).

use crate::hist::Log2Histogram;
use crate::json::{self, EventKind, ParsedTrace};
use crate::keys::Key;
use crate::{SpanGuard, Stamp, TraceEvent};
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// One event on its way into a sink. Only this crate builds one, from
/// a registered [`Key`], so a sink never receives a name from outside
/// [`crate::keys`].
#[derive(Debug, Clone, Copy)]
pub struct Event(pub(crate) TraceEvent);

/// Receiver for trace events.
///
/// `name` is a registered [`Key`]; `key` an integer dimension (machine
/// id, query id, superstep — `0` when unused). A span is entered with
/// [`guard_span`](TraceSink::guard_span) and exited only through the
/// [`SpanGuard`] it returns. Sinks observe and never perturb:
/// implementations must not feed anything back into the instrumented
/// computation.
pub trait TraceSink {
    /// False for sinks that discard everything; lets hot paths skip
    /// event preparation that the compiler cannot prove dead.
    fn enabled(&self) -> bool {
        true
    }
    /// Receives one event. Only the provided methods below and
    /// [`SpanGuard::exit`] can build an [`Event`] to pass here.
    fn record(&mut self, event: Event);
    /// Enters span `(name, key)` at `stamp` and returns the guard that
    /// exits it.
    fn guard_span(&mut self, name: Key, key: u64, stamp: Stamp) -> SpanGuard {
        self.record(Event(TraceEvent::SpanEnter { name: name.name(), key, stamp }));
        SpanGuard { name, key }
    }
    /// Increment the monotonic counter `(name, key)` by `delta`.
    fn counter_add(&mut self, name: Key, key: u64, delta: u64) {
        self.record(Event(TraceEvent::Counter { name: name.name(), key, delta }));
    }
    /// Record `value` into the histogram `(name, key)`.
    fn histogram_record(&mut self, name: Key, key: u64, value: u64) {
        self.record(Event(TraceEvent::Histogram { name: name.name(), key, value }));
    }
}

impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    fn record(&mut self, event: Event) {
        (**self).record(event);
    }
}

/// The default sink: discards every event at zero cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
    #[inline(always)]
    fn record(&mut self, _event: Event) {}
}

/// Records the full event stream in order; exports byte-stable JSON.
#[derive(Debug, Clone, Default)]
pub struct CollectingSink {
    events: Vec<TraceEvent>,
}

impl CollectingSink {
    /// An empty collecting sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Sum of all increments of counter `name`, across every key.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Counter { name: n, delta, .. } if *n == name => Some(*delta),
                _ => None,
            })
            .sum()
    }

    /// Sum of all increments of counter `(name, key)`.
    pub fn counter_total_keyed(&self, name: &str, key: u64) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Counter { name: n, key: k, delta } if *n == name && *k == key => {
                    Some(*delta)
                }
                _ => None,
            })
            .sum()
    }

    /// Aggregate histogram of every sample recorded under `name`
    /// (all keys merged).
    pub fn histogram_of(&self, name: &str) -> Log2Histogram {
        let mut h = Log2Histogram::new();
        for e in &self.events {
            if let TraceEvent::Histogram { name: n, value, .. } = e {
                if *n == name {
                    h.record(*value);
                }
            }
        }
        h
    }

    /// Verify span enter/exit events are well-formed: exits match the
    /// innermost open span `(name, key)`, exit stamps are not before
    /// their enter stamps, and every span is closed.
    pub fn check_nesting(&self) -> Result<(), String> {
        let mut stack: Vec<(&'static str, u64, Stamp)> = Vec::new();
        for (i, e) in self.events.iter().enumerate() {
            match *e {
                TraceEvent::SpanEnter { name, key, stamp } => stack.push((name, key, stamp)),
                TraceEvent::SpanExit { name, key, stamp } => match stack.pop() {
                    Some((n, k, s)) if n == name && k == key => {
                        if stamp < s {
                            return Err(format!(
                                "event {i}: span {name}[{key}] exits at {stamp} before its enter stamp {s}"
                            ));
                        }
                    }
                    Some((n, k, _)) => {
                        return Err(format!(
                            "event {i}: span exit {name}[{key}] does not match innermost open span {n}[{k}]"
                        ));
                    }
                    None => {
                        return Err(format!(
                            "event {i}: span exit {name}[{key}] with no open span"
                        ));
                    }
                },
                _ => {}
            }
        }
        if let Some((n, k, _)) = stack.last() {
            return Err(format!("span {n}[{k}] never exited"));
        }
        Ok(())
    }

    /// Render the event stream as the canonical trace JSON document
    /// (schema `schema_version = 1`, one event per line, integer-only
    /// payloads — byte-identical for identical event streams).
    pub fn to_json(&self) -> String {
        json::write_trace(&self.events)
    }
}

impl TraceSink for CollectingSink {
    fn record(&mut self, event: Event) {
        self.events.push(event.0);
    }
}

// Raw span entry for harnesses outside this workspace that time real
// code (`perf/`) and so have no registered `Key` to give. Workspace code
// may not call these (`clippy.toml`); it uses `TraceSink::guard_span`.

impl CollectingSink {
    /// Enters span `(name, key)` at `stamp` under any static name.
    pub fn span_enter(&mut self, name: &'static str, key: u64, stamp: Stamp) {
        self.record(Event(TraceEvent::SpanEnter { name, key, stamp }));
    }
    /// Exits the innermost open span `(name, key)` at `stamp`.
    pub fn span_exit(&mut self, name: &'static str, key: u64, stamp: Stamp) {
        self.record(Event(TraceEvent::SpanExit { name, key, stamp }));
    }
}

impl SummarySink {
    /// Enters span `(name, key)` at `stamp` under any static name.
    pub fn span_enter(&mut self, name: &'static str, key: u64, stamp: Stamp) {
        self.fold(EventKind::SpanEnter, name, key, stamp);
    }
    /// Exits the innermost open span `(name, key)` at `stamp`.
    pub fn span_exit(&mut self, name: &'static str, key: u64, stamp: Stamp) {
        self.fold(EventKind::SpanExit, name, key, stamp);
    }
}

/// Aggregate cost of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed spans.
    pub count: u64,
    /// Total stamp-delta across completed spans (inclusive of
    /// children).
    pub total: u64,
    /// Self cost: total minus the time spent in child spans.
    pub self_total: u64,
}

/// Streaming aggregation sink: keeps totals only, never the raw stream.
///
/// Names are `N`: the registered static names when it is the live
/// [`TraceSink`], owned ones when it replays a parsed document
/// ([`SummarySink::of`]). Both fold every event through the same body.
///
/// Mismatched or unclosed spans are tolerated (their cost is simply not
/// attributed; [`open_spans`](SummarySink::open_spans) counts the
/// unclosed); [`CollectingSink::check_nesting`] is the strict checker.
#[derive(Debug, Clone)]
pub struct SummarySink<N = &'static str> {
    counters: BTreeMap<(N, u64), u64>,
    histograms: BTreeMap<N, Log2Histogram>,
    spans: BTreeMap<N, SpanStat>,
    stack: Vec<(N, u64, Stamp, u64)>,
}

impl<N> Default for SummarySink<N> {
    fn default() -> Self {
        SummarySink {
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            spans: BTreeMap::new(),
            stack: Vec::new(),
        }
    }
}

impl SummarySink {
    /// An empty summary sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SummarySink<String> {
    /// Replays a parsed trace document through the same fold as the live
    /// sink.
    pub fn of(trace: &ParsedTrace) -> Self {
        let mut sink = Self::default();
        for e in &trace.events {
            sink.fold(e.kind, e.name.clone(), e.key, e.value);
        }
        sink
    }
}

impl<N: Ord + Clone + Borrow<str>> SummarySink<N> {
    /// Folds one event: `value` is the stamp of a span event, the delta
    /// of a counter and the sample of a histogram.
    fn fold(&mut self, kind: EventKind, name: N, key: u64, value: u64) {
        match kind {
            EventKind::SpanEnter => self.stack.push((name, key, value, 0)),
            EventKind::SpanExit => match self.stack.pop() {
                Some((n, k, enter, child_total)) if n == name && k == key => {
                    let duration = value.saturating_sub(enter);
                    if let Some((_, _, _, parent_children)) = self.stack.last_mut() {
                        *parent_children += duration;
                    }
                    let stat = self.spans.entry(n).or_default();
                    stat.count += 1;
                    stat.total += duration;
                    stat.self_total += duration.saturating_sub(child_total);
                }
                Some(frame) => self.stack.push(frame), // mismatched exit: ignore
                None => {}
            },
            EventKind::Counter => *self.counters.entry((name, key)).or_insert(0) += value,
            EventKind::Histogram => self.histograms.entry(name).or_default().record(value),
        }
    }

    /// Counter totals, keyed by `(name, key)`, in sorted order.
    pub fn counters(&self) -> &BTreeMap<(N, u64), u64> {
        &self.counters
    }

    /// Total of counter `name` across every key.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters.iter().filter(|((n, _), _)| n.borrow() == name).map(|(_, v)| *v).sum()
    }

    /// Merged histogram per name (keys collapsed), in sorted order.
    pub fn histograms(&self) -> &BTreeMap<N, Log2Histogram> {
        &self.histograms
    }

    /// Span names sorted by decreasing self cost (ties by name).
    pub fn spans_by_self_cost(&self) -> Vec<(N, SpanStat)> {
        let mut v: Vec<(N, SpanStat)> = self.spans.iter().map(|(n, s)| (n.clone(), *s)).collect();
        v.sort_by(|a, b| b.1.self_total.cmp(&a.1.self_total).then(a.0.cmp(&b.0)));
        v
    }

    /// Spans entered and never exited (a partial trace).
    pub fn open_spans(&self) -> usize {
        self.stack.len()
    }
}

impl TraceSink for SummarySink {
    fn record(&mut self, event: Event) {
        match event.0 {
            TraceEvent::SpanEnter { name, key, stamp } => {
                self.fold(EventKind::SpanEnter, name, key, stamp)
            }
            TraceEvent::SpanExit { name, key, stamp } => {
                self.fold(EventKind::SpanExit, name, key, stamp)
            }
            TraceEvent::Counter { name, key, delta } => {
                self.fold(EventKind::Counter, name, key, delta)
            }
            TraceEvent::Histogram { name, key, value } => {
                self.fold(EventKind::Histogram, name, key, value)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit_sample<S: TraceSink>(sink: &mut S) {
        let outer = sink.guard_span(Key("outer"), 0, 10);
        sink.counter_add(Key("ops"), 0, 3);
        let inner = sink.guard_span(Key("inner"), 1, 20);
        sink.histogram_record(Key("lat"), 0, 5);
        inner.exit(sink, 30);
        sink.counter_add(Key("ops"), 1, 2);
        outer.exit(sink, 50);
    }

    #[test]
    fn null_sink_is_disabled() {
        let mut s = NullSink;
        assert!(!s.enabled());
        emit_sample(&mut s);
    }

    #[test]
    fn collecting_sink_totals_and_nesting() {
        let mut s = CollectingSink::new();
        emit_sample(&mut s);
        assert_eq!(s.len(), 7);
        assert_eq!(s.counter_total("ops"), 5);
        assert_eq!(s.counter_total_keyed("ops", 1), 2);
        assert_eq!(s.histogram_of("lat").count(), 1);
        assert!(s.check_nesting().is_ok());
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "drives the raw span entry of external harnesses"
    )]
    fn nesting_violations_are_reported() {
        let mut s = CollectingSink::new();
        s.span_enter("a", 0, 1);
        s.span_exit("b", 0, 2);
        assert!(s.check_nesting().is_err());

        let mut unclosed = CollectingSink::new();
        unclosed.span_enter("a", 0, 1);
        assert!(unclosed.check_nesting().is_err());

        let mut backwards = CollectingSink::new();
        backwards.span_enter("a", 0, 10);
        backwards.span_exit("a", 0, 5);
        assert!(backwards.check_nesting().is_err());
    }

    #[test]
    fn summary_sink_attributes_self_cost() {
        let mut s = SummarySink::new();
        emit_sample(&mut s);
        let outer = s.spans["outer"];
        let inner = s.spans["inner"];
        assert_eq!(outer, SpanStat { count: 1, total: 40, self_total: 30 });
        assert_eq!(inner, SpanStat { count: 1, total: 10, self_total: 10 });
        assert_eq!(s.counter_total("ops"), 5);
        assert_eq!(s.counters()[&("ops", 1)], 2);
        let ranked = s.spans_by_self_cost();
        assert_eq!(ranked[0].0, "outer");
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "drives the raw span entry of external harnesses"
    )]
    fn raw_span_entry_matches_the_guarded_one() {
        let mut guarded = CollectingSink::new();
        emit_sample(&mut guarded);
        let (mut raw, mut summary) = (CollectingSink::new(), SummarySink::new());
        for e in guarded.events() {
            match *e {
                TraceEvent::SpanEnter { name, key, stamp } => {
                    raw.span_enter(name, key, stamp);
                    summary.span_enter(name, key, stamp);
                }
                TraceEvent::SpanExit { name, key, stamp } => {
                    raw.span_exit(name, key, stamp);
                    summary.span_exit(name, key, stamp);
                }
                _ => {}
            }
        }
        let spans: Vec<TraceEvent> = guarded
            .events()
            .iter()
            .copied()
            .filter(|e| matches!(e, TraceEvent::SpanEnter { .. } | TraceEvent::SpanExit { .. }))
            .collect();
        assert_eq!(raw.events(), spans);
        assert_eq!(summary.spans["outer"], SpanStat { count: 1, total: 40, self_total: 30 });
    }

    #[test]
    fn blanket_mut_ref_impl_delegates() {
        let mut s = CollectingSink::new();
        {
            let mut r: &mut CollectingSink = &mut s;
            assert!(r.enabled());
            emit_sample(&mut r);
        }
        assert_eq!(s.len(), 7);
    }
}
