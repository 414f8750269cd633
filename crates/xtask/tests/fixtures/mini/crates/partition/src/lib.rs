//! Fixture: the partitioner crate is determinism-scoped, and its
//! multi-loader merge path is the most tempting place to smuggle in a
//! hash container — decision logs keyed by loader id "just need a map".
//! Iterating one at a synchronization barrier would make the merged
//! global state depend on hash-iteration order, silently breaking the
//! same-seed ⇒ byte-identical-partitioning contract. This file seeds
//! exactly that violation, plus one advisory hot-path allocation inside
//! a `fn place` body (the `no-alloc-in-place-loop` warning) and one
//! hardcoded trace key; everything else in the crate is clean, so only
//! those seeded findings may fire.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Merges per-loader decision logs into a global assignment — through a
/// hash map, so the replay order (and any non-commutative state folded
/// over it) depends on hasher seeding instead of the documented seeded
/// rotation.
pub fn merge_loader_decisions(logs: &[(u32, u32)]) -> Vec<u32> {
    let mut by_loader: std::collections::HashMap<u32, Vec<u32>> = Default::default(); // MARK-loader-merge-hash
    for &(loader, decision) in logs {
        by_loader.entry(loader).or_default().push(decision);
    }
    let mut merged = Vec::new();
    for (_, decisions) in by_loader {
        merged.extend(decisions);
    }
    merged
}

/// A clean, deterministic counterpart: loaders are dense indices, so a
/// vector of logs replayed in seeded rotation order needs no hashing.
pub fn merge_in_rotation(logs: &[Vec<u32>], start: usize) -> Vec<u32> {
    let mut merged = Vec::new();
    for step in 0..logs.len() {
        merged.extend(logs[(start + step) % logs.len()].iter().copied());
    }
    merged
}

/// A placement kernel that rebuilds its candidate-score buffer on every
/// streamed element — exactly the per-element allocation the advisory
/// `no-alloc-in-place-loop` rule exists to surface: the buffer belongs
/// on the partitioner struct as a reusable scratch field.
pub fn place(degrees: &[u32], k: usize) -> usize {
    let mut scores: Vec<u32> = Vec::with_capacity(k); // MARK-place-alloc
    for p in 0..k {
        scores.push(degrees.get(p).copied().unwrap_or(0));
    }
    scores.iter().enumerate().max_by_key(|&(_, s)| *s).map(|(p, _)| p).unwrap_or(0)
}

/// Emits the run span through the canonical registry constant — the
/// key-registry rule resolves `keys::PARTITION_RUN` and stays quiet —
/// then smuggles in a hardcoded string key, which must fire: a literal
/// here would drift the goldens-pinned trace schema silently.
pub fn record_run(sink: &mut TraceSink) {
    sink.span_enter(keys::PARTITION_RUN);
    sink.counter_add("partition.hardcoded", 1); // MARK-hardcoded-key
    sink.span_exit(keys::PARTITION_RUN);
}
