//! Per-run decision counters for the streaming partitioners.
//!
//! Each algorithm accumulates the counters relevant to its placement
//! rule while it runs (plain `u64` increments — cheap enough to stay on
//! even untraced); the traced drivers flush them into a [`TraceSink`]
//! after the stream ends. The counter names are part of the trace
//! schema (see DESIGN.md §9).

use sgp_trace::{keys, TraceSink};

/// Decision counters shared across the partitioner families.
///
/// A field is only meaningful for the families that increment it
/// (documented per field); it stays 0 elsewhere, and the flush emits
/// every counter unconditionally so trace consumers see a stable
/// schema.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionStats {
    /// Greedy score ties broken toward the less-loaded partition
    /// (LDG/FENNEL vertex-size ties, HDRF edge-count ties).
    pub balance_tiebreaks: u64,
    /// Placements that fell back to the least-loaded partition because
    /// every candidate was at capacity (LDG/FENNEL hard capacity).
    pub capacity_fallbacks: u64,
    /// Hybrid-cut edges routed by the *source* owner because the target
    /// exceeded the high-degree threshold (HCR/Ginger phase 2).
    pub degree_threshold_hits: u64,
    /// Vertex-cut replica insertions beyond a vertex's first replica —
    /// each one is a new mirror that later costs gather/scatter traffic.
    pub mirror_creations: u64,
    /// Total vertex-cut replica insertions (first replicas included);
    /// `replicas_created / |V covered|` is the replication factor.
    pub replicas_created: u64,
}

/// Exact work counters of the vertex-stream greedy kernels (LDG, FENNEL
/// and their restreaming wrappers; all-zero elsewhere).
///
/// Unlike [`DecisionStats`] these describe how a placement was computed,
/// not what was decided, and are kept out of traces. Neither set enters a
/// snapshot (DESIGN.md §11): no placement reads a counter, so a restored
/// machine counts from zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkStats {
    /// Partition scores computed: each below-capacity candidate the
    /// candidate fold scored, plus every below-capacity partition of a
    /// full fold.
    pub score_evals: u64,
    /// Records placed by the full k-way fold instead of the candidate fold.
    pub full_folds: u64,
}

impl DecisionStats {
    /// Emits every counter (including zeros, for schema stability) into
    /// `sink` under the `partition.*` namespace.
    pub(crate) fn flush_into<S: TraceSink>(&self, sink: &mut S) {
        sink.counter_add(keys::PARTITION_BALANCE_TIEBREAKS, 0, self.balance_tiebreaks);
        sink.counter_add(keys::PARTITION_CAPACITY_FALLBACKS, 0, self.capacity_fallbacks);
        sink.counter_add(keys::PARTITION_DEGREE_THRESHOLD_HITS, 0, self.degree_threshold_hits);
        sink.counter_add(keys::PARTITION_MIRROR_CREATIONS, 0, self.mirror_creations);
        sink.counter_add(keys::PARTITION_REPLICAS_CREATED, 0, self.replicas_created);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgp_trace::CollectingSink;

    #[test]
    fn flush_emits_stable_schema() {
        let stats = DecisionStats { degree_threshold_hits: 7, ..Default::default() };
        let mut sink = CollectingSink::new();
        stats.flush_into(&mut sink);
        assert_eq!(sink.events().len(), 5);
        assert_eq!(sink.counter_total(keys::PARTITION_DEGREE_THRESHOLD_HITS.name()), 7);
        assert_eq!(sink.counter_total(keys::PARTITION_BALANCE_TIEBREAKS.name()), 0);
    }
}
