//! Fixture: span-guard balance seeds. Each fn body is checked on its
//! own: every `span_enter` must pair with a `span_exit` on the same
//! key. The fns from `leak_guard` on are negatives that must stay
//! silent.

/// Unbalanced: enters ENGINE_RUN twice but exits once.
pub fn run_twice(sink: &mut TraceSink) {
    sink.span_enter(keys::ENGINE_RUN, 0, 0); // MARK-span-double-enter
    sink.span_enter(keys::ENGINE_RUN, 1, 1);
    sink.span_exit(keys::ENGINE_RUN, 0, 2);
}

/// Unbalanced the other way: an exit with no matching enter.
pub fn stray_exit(sink: &mut TraceSink) {
    sink.span_exit(keys::ENGINE_PASS, 0, 9); // MARK-span-stray-exit
}

/// A hardcoded string key that is also never exited — this line seeds
/// both the key-registry rule and the balance rule.
pub fn adhoc_span(sink: &mut TraceSink) {
    sink.span_enter("engine.adhoc", 0, 0); // MARK-span-adhoc
}

/// Negative: an unbound guard is rustc's `unused_must_use` (SpanGuard
/// is `#[must_use]`), not this rule's.
pub fn leak_guard(sink: &mut TraceSink) {
    sink.guard_span(keys::ENGINE_PASS, 0, 0);
}

/// Negative: a plain enter/exit pair on the fall-through path.
pub fn balanced(sink: &mut TraceSink) {
    sink.span_enter(keys::ENGINE_PASS, 0, 0);
    sink.span_exit(keys::ENGINE_PASS, 0, 1);
}

/// Negative: a let-bound guard carries the obligation, no textual
/// exit needed in this body.
pub fn guard_held(sink: &mut TraceSink) {
    let span = sink.guard_span(keys::ENGINE_RUN, 0, 0);
    span.exit(sink, 1);
}

#[cfg(test)]
mod tests {
    /// Negative: test code may leave a span open.
    fn half_open(sink: &mut TraceSink) {
        sink.span_enter(keys::ENGINE_RUN, 0, 0);
    }
}
