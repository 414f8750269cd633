//! Fixture: the canonical `Algorithm` table and the three in-file
//! surfaces the exhaustiveness rule reads from the enum's own file —
//! the `all()` table, the `supports_parallel_loaders` predicate and the
//! `build` dispatch. `Delta` is deliberately absent from `all()`, the
//! predicate only names `Beta`, and the dispatch match carries a
//! wildcard arm, so the rule must report the gaps per surface at the
//! missing variant's declaration line.

/// The streaming algorithms of the mini study.
pub enum Algorithm {
    /// Greedy vertex placement.
    Alpha, // MARK-alpha-variant
    /// Hash-based edge placement.
    Beta,
    /// Windowed look-ahead placement.
    Gamma, // MARK-gamma-variant
    /// Restreamed placement — newest variant, not yet wired to every
    /// surface.
    Delta, // MARK-delta-variant
}

impl Algorithm {
    /// The canonical table. `Delta` is missing, so the `table-all`
    /// surface must flag it (and every surface that inherits coverage
    /// by calling `all()` misses it too).
    pub fn all() -> [Algorithm; 3] {
        [Algorithm::Alpha, Algorithm::Beta, Algorithm::Gamma] // MARK-all-table
    }

    /// Threaded-loader support. Only `Beta` is named, so `Alpha`,
    /// `Gamma` and `Delta` are unhandled on the `threaded-loaders`
    /// surface — the `matches!` macro is not a `match` expression, so
    /// the negation covers nothing the rule can see.
    pub fn supports_parallel_loaders(&self) -> bool {
        !matches!(self, Algorithm::Beta)
    }

    /// The streaming dispatch surface. The match carries a wildcard
    /// arm, so only the variants its arm heads name are covered; `Gamma`
    /// is excused by a registry entry, and `Delta` silently falls into
    /// `_ =>` — exactly the drift the exhaustiveness rule reports.
    pub fn build(&self) -> u32 {
        match self {
            Algorithm::Alpha => 1,
            Algorithm::Beta => 2,
            _ => 0, // MARK-stream-wildcard
        }
    }
}
