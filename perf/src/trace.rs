//! Wall-clock span recorder. Spans are taken by the harness round its
//! calls into each layer, never inside the program: the stamps are fed
//! into an `sgp_trace::CollectingSink` from here, so the trace crate's
//! own no-wallclock rule holds and `sgp-xtask trace-summary` can render
//! the dump.

use sgp_trace::{CollectingSink, SpanStat, SummarySink, TraceEvent, TraceSink};
use std::collections::BTreeMap;
use std::time::Instant;

/// Records one timed section per call into a layer.
///
/// Timing is always on, because the time inside top-level spans *is* the
/// iteration's wall time (checks between spans are excluded). With
/// `enabled` the spans are also kept in memory: name, start, end, the
/// enclosing span (by nesting) and the iteration id (the event key).
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    sink: CollectingSink,
    depth: usize,
    iteration: u64,
    busy_ns: u64,
    /// `(name, iteration) → summed duration`, for the per-layer medians.
    totals: BTreeMap<(&'static str, u64), u64>,
    names: BTreeMap<String, &'static str>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            sink: CollectingSink::new(),
            depth: 0,
            iteration: 0,
            busy_ns: 0,
            totals: BTreeMap::new(),
            names: BTreeMap::new(),
        }
    }

    /// Turns span keeping on or off; timing is unaffected.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts iteration `id`: resets the busy clock and keys later spans.
    pub fn begin_iteration(&mut self, id: u64) {
        self.iteration = id;
        self.busy_ns = 0;
    }

    /// Nanoseconds spent inside top-level spans since `begin_iteration`.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// A `'static` copy of `name`; each distinct name is leaked once
    /// (the trace sink's event type wants static names).
    pub fn intern(&mut self, name: &str) -> &'static str {
        if let Some(&s) = self.names.get(name) {
            return s;
        }
        let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
        self.names.insert(name.to_string(), leaked);
        leaked
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `body` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, body: impl FnOnce(&mut Recorder) -> T) -> T {
        let start = self.now_ns();
        if self.enabled {
            self.sink.span_enter(name, self.iteration, start);
        }
        self.depth += 1;
        let out = body(self);
        self.depth -= 1;
        let end = self.now_ns();
        if self.enabled {
            self.sink.span_exit(name, self.iteration, end);
            *self.totals.entry((name, self.iteration)).or_insert(0) += end - start;
        }
        if self.depth == 0 {
            self.busy_ns += end - start;
        }
        out
    }

    /// Summed durations of span `name` per key, in seconds, over the
    /// keys in `keys` under which it occurred.
    pub fn per_iteration_s(&self, name: &str, keys: std::ops::Range<u64>) -> Vec<f64> {
        self.totals
            .iter()
            .filter(|((n, key), _)| *n == name && keys.contains(key))
            .map(|(_, &ns)| ns as f64 / 1e9)
            .collect()
    }

    /// Seconds spent in span `name` under `key`.
    pub fn total_s(&self, name: &str, key: u64) -> f64 {
        self.per_iteration_s(name, key..key + 1).iter().sum()
    }

    /// Checks nesting and renders the canonical trace document.
    pub fn to_json(&self) -> Result<String, String> {
        self.sink.check_nesting()?;
        Ok(self.sink.to_json())
    }

    /// Self time (span minus children) per span name over the events
    /// whose key is in `keys`, largest first.
    pub fn self_times(&self, keys: std::ops::Range<u64>) -> Vec<(&'static str, SpanStat)> {
        let mut summary = SummarySink::new();
        for e in self.sink.events() {
            match *e {
                TraceEvent::SpanEnter { name, key, stamp } if keys.contains(&key) => {
                    summary.span_enter(name, key, stamp)
                }
                TraceEvent::SpanExit { name, key, stamp } if keys.contains(&key) => {
                    summary.span_exit(name, key, stamp)
                }
                _ => {}
            }
        }
        summary.spans_by_self_cost()
    }
}
