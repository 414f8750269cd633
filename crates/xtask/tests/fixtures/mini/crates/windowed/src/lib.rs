//! Fixture: the dynamic-partitioning tier's bounded look-ahead window
//! is determinism-scoped — the buffer must flush in arrival order so
//! that `W = 1` degenerates bit-identically to one-pass streaming.
//! Parking buffered elements in a hash container and draining it by
//! iteration silently replaces arrival order with hasher order, so the
//! flushed placements (and every differential built on them) depend on
//! hash seeding. This crate reuses the `sgp-partition` package name
//! (the layer the real window buffer lives in) and seeds exactly that
//! violation; everything else is clean, so only the one finding may
//! fire.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Drains a fake look-ahead buffer of parked stream elements — through
/// a hash map keyed by vertex, so the flush order (and therefore every
/// placement decided at the flush) follows hasher seeding instead of
/// the documented arrival order.
pub fn flush_window(parked: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut buffer: std::collections::HashMap<u32, u32> = Default::default(); // MARK-window-hash
    for &(vertex, record) in parked {
        buffer.insert(vertex, record);
    }
    buffer.into_iter().collect()
}
